#include "serve/engine_pool.hpp"

#include "util/hash.hpp"

namespace fmossim::serve {

EnginePool::EnginePool(EnginePoolOptions options)
    : options_(options),
      store_(options.store != nullptr ? options.store
                                      : std::make_shared<CheckpointStore>()),
      history_(options.history != nullptr
                   ? options.history
                   : std::make_shared<sched::HistoryStore>()) {
  slots_.resize(std::max(1u, options_.engines));
  stats_.engines = static_cast<unsigned>(slots_.size());
}

std::uint64_t EnginePool::keyFor(std::uint64_t netFp, std::uint64_t faultsFp,
                                 const EngineOptions& options) {
  std::uint64_t h = kFnvOffsetBasis;
  fnvMix(h, netFp);
  fnvMix(h, faultsFp);
  fnvMix(h, static_cast<std::uint64_t>(options.backend));
  fnvMix(h, options.jobs);
  fnvMix(h, options.batchFaults);
  fnvMix(h, static_cast<std::uint64_t>(options.policy));
  fnvMix(h, options.dropDetected ? 1 : 0);
  // The schedule policy does not change results, but it does change the
  // backend's scheduling state, so pooled engines are keyed per policy —
  // a contiguous request never silently reuses a history-scheduled engine.
  fnvMix(h, static_cast<std::uint64_t>(options.schedule));
  return h;
}

EnginePool::Lease EnginePool::acquire(const Network& net,
                                      const FaultList& faults,
                                      EngineOptions options) {
  options.checkpointStore = store_;
  options.historyStore = history_;
  const std::uint64_t key =
      keyFor(networkFingerprint(net), faultListFingerprint(faults), options);

  std::size_t chosen = 0;
  bool reuse = false;
  {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      // A free slot already holding this exact workload wins outright.
      bool anyFree = false;
      std::size_t lru = 0;
      std::uint64_t lruTick = ~0ULL;
      bool found = false;
      for (std::size_t i = 0; i < slots_.size(); ++i) {
        const Slot& s = slots_[i];
        if (s.leased) continue;
        anyFree = true;
        if (s.engine != nullptr && s.key == key) {
          chosen = i;
          found = true;
          reuse = true;
          break;
        }
        // Prefer recycling an empty slot; otherwise evict least recently
        // used (rebind is cheaper than the cold requests the hot engines
        // would otherwise pay).
        const std::uint64_t tick = s.engine == nullptr ? 0 : s.lastUse;
        if (tick < lruTick) {
          lruTick = tick;
          lru = i;
        }
      }
      if (found || anyFree) {
        if (!found) chosen = lru;
        break;
      }
      freeCv_.wait(lock);
    }
    Slot& slot = slots_[chosen];
    slot.leased = true;
    slot.lastUse = ++tick_;
    ++stats_.acquires;
    if (reuse) {
      ++stats_.reuses;
    } else if (slot.engine != nullptr) {
      ++stats_.rebinds;
    } else {
      ++stats_.builds;
    }
    slot.key = key;
  }

  // Build/rebind outside the lock: the slot is leased, so no other thread
  // touches it, and constructing an engine (fault injection, backend build)
  // must not serialize the whole pool.
  Slot& slot = slots_[chosen];
  if (!reuse) {
    if (slot.engine == nullptr) {
      slot.engine = std::make_unique<Engine>(net, faults, options);
    } else {
      slot.engine->rebind(net, faults, options);
    }
  }
  Lease lease;
  lease.engine = slot.engine.get();
  lease.reused = reuse;
  lease.slot = chosen;
  return lease;
}

void EnginePool::release(Lease& lease) {
  if (lease.engine == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    slots_[lease.slot].leased = false;
  }
  lease.engine = nullptr;
  freeCv_.notify_one();
}

EnginePool::Stats EnginePool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace fmossim::serve
