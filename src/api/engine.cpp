#include "api/engine.hpp"

#include "core/serial_sim.hpp"
#include "util/hash.hpp"

namespace fmossim {

std::uint64_t faultListFingerprint(const FaultList& faults) {
  std::uint64_t h = kFnvOffsetBasis;
  fnvMix(h, faults.size());
  for (const Fault& f : faults) {
    fnvMix(h, static_cast<std::uint64_t>(f.kind));
    fnvMix(h, f.node.value);
    fnvMix(h, f.transistor.value);
    fnvMix(h, static_cast<std::uint64_t>(f.value));
  }
  return h;
}

Engine::Engine(Network net, FaultList faults, EngineOptions options)
    : net_(std::move(net)),
      faults_(std::move(faults)),
      options_(options),
      backend_(makeBackend()) {}

std::unique_ptr<FaultSimulator> Engine::makeBackend() const {
  requireUnitLaneWidth("EngineOptions::laneWidth", options_.laneWidth);
  requireNoReadAhead("EngineOptions::checkpointReadAhead",
                     options_.checkpointReadAhead);
  switch (options_.backend) {
    case Backend::Serial: {
      SerialOptions sopts;
      sopts.sim = options_.sim;
      sopts.policy = options_.policy;
      return std::make_unique<SerialBackend>(net_, faults_, sopts,
                                             options_.dropDetected);
    }
    case Backend::Concurrent: {
      FsimOptions fopts;
      fopts.sim = options_.sim;
      fopts.policy = options_.policy;
      fopts.dropDetected = options_.dropDetected;
      fopts.debugLoseTriggerEvery = options_.debugLoseTriggerEvery;
      if (options_.jobs > 1 && faults_.size() > 1) {
        return std::make_unique<ShardedRunner>(
            net_, faults_, fopts, options_.jobs, options_.batchFaults,
            options_.checkpointStore, options_.checkpointBudgetBytes,
            options_.schedule, options_.historyStore, options_.historyFile);
      }
      return std::make_unique<ConcurrentBackend>(net_, faults_, fopts);
    }
  }
  FMOSSIM_ASSERT(false, "unknown backend");
  return nullptr;
}

FaultSimResult Engine::run(const TestSequence& seq,
                           const PatternCallback& onPattern) {
  return backend_->run(seq, onPattern);
}

FaultSimResult Engine::runStream(PatternSource& source, RowSink* sink,
                                 const PatternCallback& onPattern) {
  return backend_->runStream(source, sink, onPattern);
}

void Engine::reset() { backend_ = makeBackend(); }

void Engine::rebind(Network net, FaultList faults) {
  net_ = std::move(net);
  faults_ = std::move(faults);
  netFp_.reset();
  faultsFp_.reset();
  backend_ = makeBackend();
}

void Engine::rebind(Network net, FaultList faults, EngineOptions options) {
  options_ = std::move(options);
  rebind(std::move(net), std::move(faults));
}

std::uint64_t Engine::netFingerprint() const {
  if (!netFp_) netFp_ = networkFingerprint(net_);
  return *netFp_;
}

std::uint64_t Engine::faultsFingerprint() const {
  if (!faultsFp_) faultsFp_ = faultListFingerprint(faults_);
  return *faultsFp_;
}

std::uint64_t Engine::sequenceFingerprint(const TestSequence& seq) {
  return GoodMachineCheckpoint::fingerprint(seq);
}

GoodRunResult Engine::runGood(const TestSequence& seq) const {
  SerialOptions sopts;
  sopts.sim = options_.sim;
  sopts.policy = options_.policy;
  SerialFaultSimulator serial(net_, sopts);
  return serial.runGood(seq);
}

}  // namespace fmossim
