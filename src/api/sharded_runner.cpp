#include "api/sharded_runner.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>

#include "api/engine.hpp"
#include "core/row_sink.hpp"
#include "patterns/pattern_source.hpp"
#include "util/timer.hpp"

namespace fmossim {

ShardedRunner::ShardedRunner(const Network& net, FaultList faults,
                             FsimOptions options, unsigned jobs,
                             std::uint32_t batchFaults,
                             std::shared_ptr<CheckpointStore> store,
                             std::size_t checkpointBudgetBytes,
                             sched::SchedulePolicy schedule,
                             std::shared_ptr<sched::HistoryStore> history,
                             std::string historyFile)
    : net_(net),
      faults_(std::move(faults)),
      options_(options),
      batchFaults_(batchFaults),
      store_(std::move(store)),
      ownsStore_(store_ == nullptr),
      schedule_(schedule),
      history_(std::move(history)),
      historyFile_(std::move(historyFile)),
      faultsFp_(faultListFingerprint(faults_)) {
  requireUnitLaneWidth("FsimOptions::laneWidth", options_.laneWidth);
  requireNoReadAhead("FsimOptions::checkpointReadAhead",
                     options_.checkpointReadAhead);
  jobs_ = std::max(1u, std::min(jobs, std::max(1u, faults_.size())));
  if (ownsStore_) {
    CheckpointStore::Options sopts;
    sopts.budgetBytes = checkpointBudgetBytes;
    store_ = std::make_shared<CheckpointStore>(sopts);
  }
}

FaultSimResult mergeShardResults(
    const std::vector<FaultSimResult>& shardResults,
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& slices,
    std::uint32_t numPatterns, const GoodMachineCheckpoint* good,
    const std::vector<std::uint32_t>* order) {
  FaultSimResult merged;
  std::uint32_t numFaults = 0;
  for (const auto& [begin, end] : slices) numFaults += end - begin;
  merged.numFaults = numFaults;
  merged.numPatterns = numPatterns;
  if (!shardResults.empty()) {
    // Every shard ran under the same options; the drop mode is uniform.
    merged.droppedDetected = shardResults.front().droppedDetected;
  }
  merged.detectedAtPattern.assign(numFaults, -1);

  // Rows are summed only when there are rows to sum: rowless (streamed)
  // shards merge into a rowless result, whose rows are derivable from the
  // merged detection record (core/row_sink.hpp).
  const auto hasRows = [](const FaultSimResult& r) {
    return !r.perPattern.empty();
  };
  const bool rows =
      std::any_of(shardResults.begin(), shardResults.end(), hasRows) ||
      (good != nullptr && !good->perPatternGoodEvals().empty());
  if (rows) {
    merged.perPattern.resize(numPatterns);
    for (std::uint32_t pi = 0; pi < numPatterns; ++pi) {
      merged.perPattern[pi].index = pi;
    }
  }

  for (std::size_t s = 0; s < shardResults.size(); ++s) {
    const FaultSimResult& r = shardResults[s];
    const auto [begin, end] = slices[s];
    // Re-index the shard-local fault order to the global one, through the
    // schedule's permutation when one is in effect.
    for (std::uint32_t i = 0; i < end - begin; ++i) {
      const std::uint32_t pos = begin + i;
      merged.detectedAtPattern[order == nullptr ? pos : (*order)[pos]] =
          r.detectedAtPattern[i];
    }
    merged.numDetected += r.numDetected;
    merged.potentialDetections += r.potentialDetections;
    // Without a checkpoint every shard simulates the same good circuit; keep
    // the first one's final states (the differential oracle cross-checks
    // them per backend).
    if (merged.finalGoodStates.empty()) {
      merged.finalGoodStates = r.finalGoodStates;
    }
    merged.totalNodeEvals += r.totalNodeEvals;
    // Engine time sums across batches (they overlap on the wall clock; the
    // caller stamps merged.totalSeconds with the real elapsed time).
    merged.totalCpuSeconds += r.totalCpuSeconds;
    // Alive counts never increase during a run, so every batch's peak is
    // its initial fault population and all the peaks coincide at sequence
    // start of the modeled single-engine simulation: the summed per-batch
    // peaks ARE that engine's peak, exactly — not an upper bound. (The
    // scheduler matrix test pins merged == jobs=1; if batches ever gain
    // mid-run fault injection this derivation, and the sum, must change.)
    merged.maxAlive += r.maxAlive;
    merged.finalRecords += r.finalRecords;
    for (std::size_t pi = 0; pi < merged.perPattern.size() &&
                             pi < r.perPattern.size();
         ++pi) {
      PatternStat& row = merged.perPattern[pi];
      const PatternStat& src = r.perPattern[pi];
      row.seconds += src.seconds;
      row.nodeEvals += src.nodeEvals;
      row.newlyDetected += src.newlyDetected;
      row.aliveAfter += src.aliveAfter;
    }
  }
  if (good != nullptr) {
    // Checkpoint-replaying shards do no good-machine solver work; add the
    // recorded good machine's logical evaluations exactly once so the merged
    // work counter equals an unsharded run's.
    merged.finalGoodStates = good->finalGoodStates();
    merged.totalNodeEvals += good->totalGoodEvals();
    const auto& goodEvals = good->perPatternGoodEvals();
    for (std::size_t pi = 0;
         pi < merged.perPattern.size() && pi < goodEvals.size(); ++pi) {
      merged.perPattern[pi].nodeEvals += goodEvals[pi];
    }
  }
  std::uint32_t cumulative = 0;
  for (PatternStat& row : merged.perPattern) {
    cumulative += row.newlyDetected;
    row.cumulativeDetected = cumulative;
  }
  return merged;
}

double ShardedRunner::acquireCheckpoint(const TestSequence* seq,
                                        PatternSource* source) {
  // Each kind of run reuses only its own kind of recording: a materialized
  // merge needs the per-pattern good evaluations a streamed recording omits.
  const bool streamed = source != nullptr;
  const std::uint64_t fp = streamed ? source->fingerprint()
                                    : GoodMachineCheckpoint::fingerprint(*seq);
  if (checkpoint_ != nullptr && checkpoint_->streamed() == streamed &&
      checkpoint_->seqFingerprint() == fp) {
    return 0.0;
  }
  // Charge the recording time to the run that actually recorded; cache
  // hits (in this runner or a shared store) cost nothing.
  bool recordedNow = false;
  checkpoint_ = streamed
                    ? store_->acquireStream(net_, *source, options_, &recordedNow)
                    : store_->acquire(net_, *seq, options_, &recordedNow);
  return recordedNow ? checkpoint_->recordSeconds() : 0.0;
}

sched::BatchPlan ShardedRunner::buildPlan(unsigned effectiveJobs) const {
  std::shared_ptr<const sched::DetectionHistory> hist;
  if (schedule_ == sched::SchedulePolicy::History) {
    // The in-memory store (fed by prior runs in this process, or by other
    // engines sharing it) wins over the sidecar; the file serves cold
    // starts. Both are keyed on the fault-list fingerprint so stale history
    // from a different universe is never applied.
    if (history_ != nullptr) hist = history_->lookup(faultsFp_);
    if (hist == nullptr && !historyFile_.empty()) {
      if (auto fromFile = sched::loadHistoryFile(historyFile_, faultsFp_)) {
        hist = std::make_shared<sched::DetectionHistory>(std::move(*fromFile));
      }
    }
  }
  return sched::makeSchedule(schedule_, std::move(hist))
      ->plan(faults_.size(), effectiveJobs, batchFaults_);
}

void ShardedRunner::publishHistory(const FaultSimResult& merged) const {
  if (history_ == nullptr && historyFile_.empty()) return;
  if (history_ != nullptr) {
    history_->record(faultsFp_, merged.detectedAtPattern);
  }
  if (!historyFile_.empty()) {
    sched::DetectionHistory h;
    h.faultsFingerprint = faultsFp_;
    h.detectedAtPattern = merged.detectedAtPattern;
    // Best-effort: a read-only directory loses persistence, not results.
    sched::saveHistoryFile(historyFile_, h);
  }
}

FaultSimResult ShardedRunner::runBatches(const Timer& total,
                                         double recordSeconds, bool rows) {
  // More threads than cores only adds contention (the batch queue already
  // decouples batch count from worker count), so the workers are capped at
  // the hardware's concurrency, and the plan is sized for the workers that
  // actually run: a 1-core machine does not pay 4 cores' worth of per-batch
  // replay overhead. Results are identical for any worker and batch count.
  const unsigned workers =
      std::min(jobs_, std::max(1u, std::thread::hardware_concurrency()));
  const sched::BatchPlan plan = buildPlan(workers);
  const std::vector<std::pair<std::uint32_t, std::uint32_t>>& batches =
      plan.slices;
  std::vector<FaultSimResult> batchResults(batches.size());
  std::atomic<std::uint32_t> nextBatch{0};
  const auto worker = [&]() {
    for (;;) {
      const std::uint32_t b =
          nextBatch.fetch_add(1, std::memory_order_relaxed);
      if (b >= batches.size()) return;
      const auto [begin, end] = batches[b];
      // Gather the batch's faults through the schedule's permutation
      // (slice positions → global fault indices).
      std::vector<Fault> gathered;
      gathered.reserve(end - begin);
      for (std::uint32_t pos = begin; pos < end; ++pos) {
        gathered.push_back(faults_.all()[plan.globalIndex(pos)]);
      }
      FaultList batch(std::move(gathered));
      // Workers replay entirely from the trace: neither the sequence nor the
      // source is touched again after the recording.
      ConcurrentFaultSimulator sim(net_, batch, options_, nullptr,
                                   checkpoint_.get());
      std::vector<PatternStat> batchRows;
      if (rows) batchRows.reserve(checkpoint_->numPatterns());
      MaterializingRowSink sink(batchRows);
      batchResults[b] = sim.runReplay(rows ? &sink : nullptr);
      batchResults[b].perPattern = std::move(batchRows);
    }
  };
  const unsigned threads = static_cast<unsigned>(
      std::min<std::size_t>(workers, std::max<std::size_t>(1, batches.size())));
  if (threads <= 1) {
    worker();
  } else {
    std::vector<std::exception_ptr> errors(threads);
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned w = 0; w < threads; ++w) {
      pool.emplace_back([&, w] {
        try {
          worker();
        } catch (...) {
          errors[w] = std::current_exception();
        }
      });
    }
    for (std::thread& t : pool) t.join();
    for (const std::exception_ptr& e : errors) {
      if (e) std::rethrow_exception(e);
    }
  }

  // The row count is 32-bit (a materialized sequence's bound); a rowless
  // streamed merge may cover more patterns, so the exact count is stamped
  // after the merge.
  FaultSimResult merged = mergeShardResults(
      batchResults, plan.slices,
      rows ? static_cast<std::uint32_t>(checkpoint_->numPatterns()) : 0,
      checkpoint_.get(), plan.order.empty() ? nullptr : &plan.order);
  merged.numPatterns = checkpoint_->numPatterns();
  merged.droppedDetected = options_.dropDetected;
  merged.totalSeconds = total.seconds();
  merged.totalCpuSeconds += recordSeconds;
  publishHistory(merged);
  return merged;
}

FaultSimResult ShardedRunner::run(const TestSequence& seq,
                                  const PatternCallback& onPattern) {
  const Timer total;
  const double recordSeconds = acquireCheckpoint(&seq, nullptr);
  FaultSimResult merged = runBatches(total, recordSeconds, /*rows=*/true);
  if (onPattern) {
    for (const PatternStat& st : merged.perPattern) onPattern(st);
  }
  return merged;
}

FaultSimResult ShardedRunner::runStream(PatternSource& source, RowSink* sink,
                                        const PatternCallback& onPattern) {
  const Timer total;
  const double recordSeconds = acquireCheckpoint(nullptr, &source);
  FaultSimResult merged = runBatches(total, recordSeconds, /*rows=*/false);
  if (sink != nullptr || onPattern) {
    // Derived rows: triples exact, per-row timing/work zero (see
    // core/row_sink.hpp).
    forEachDerivedRow(merged, [&](std::uint64_t pi, std::uint32_t newly,
                                  std::uint32_t cumulative,
                                  std::uint32_t alive) {
      PatternStat st;
      st.index = static_cast<std::uint32_t>(pi);
      st.newlyDetected = newly;
      st.cumulativeDetected = cumulative;
      st.aliveAfter = alive;
      if (sink != nullptr) sink->row(st);
      if (onPattern) onPattern(st);
    });
  }
  return merged;
}

}  // namespace fmossim
