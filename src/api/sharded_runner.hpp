/// \file
/// Sharded parallel fault simulation with good-machine checkpoint reuse and
/// a work-stealing fault-batch scheduler.
///
/// The concurrent engine simulates faulty circuits purely by difference from
/// the good circuit; faulty circuits never interact with each other. The
/// fault universe can therefore be partitioned and simulated in parallel —
/// the scaling lever ERASER and the batch-IVerilog work apply to fault
/// simulation (see PAPERS.md). Two things make the partition scale for real:
///
///   * **Checkpointed good-machine reuse.** The fault-free circuit is
///     simulated once per (network, sequence) into a GoodMachineCheckpoint
///     (src/core/checkpoint.hpp); every batch replays the recorded trace
///     instead of re-simulating the good machine, so adding workers adds
///     faulty-circuit work only. Checkpoints live in a CheckpointStore
///     (src/core/checkpoint_store.hpp): either a store shared by the caller
///     via EngineOptions::checkpointStore — so many engines and bench rows
///     reuse one recording — or a private per-runner store, which also
///     caches across run() calls and is discarded by reset(). The store's
///     memory budget (EngineOptions::checkpointBudgetBytes for the private
///     store) spills huge traces to disk with a sliding replay window.
///
///   * **Work stealing over fault batches.** Instead of one static slice
///     per worker, the fault list is cut into several batches per worker
///     and workers claim batches from a shared atomic queue. Fault dropping
///     makes per-fault cost wildly non-uniform — a batch whose faults all
///     drop early exits its replay early, while one undetected fault keeps
///     its batch alive for the whole sequence — so late workers steal the
///     remaining batches instead of idling behind a static slice.
///
/// *Which* faults form a batch is a pluggable policy (sched/fault_schedule):
/// the default ContiguousSchedule reproduces the classic contiguous slices;
/// the HistorySchedule lays batches out by a prior run's detection record so
/// expensive faults are quarantined together (see that header). The runner
/// feeds the schedule layer by publishing every run's detection record into
/// the attached sched::HistoryStore and/or `--history-file` sidecar.
///
/// Determinism: the batch plan is a pure function of (numFaults, jobs,
/// batchFaults, policy, history) — workers race only for *which* batch they
/// claim, never for batch boundaries — and the merge re-indexes detections
/// back to the global fault order through the plan's permutation. A sharded
/// run's result is bit-identical to an unsharded run's for every jobs,
/// batch-size and schedule-policy choice (faulty circuits never interact, so
/// detections, nodeEvals, maxAlive and the per-pattern rows are invariant
/// under any fault permutation); the checkpoint's good-machine work is added
/// once so the merged deterministic work counter equals a jobs=1 run's
/// exactly. Timing is reported as two distinct fields: totalSeconds is the
/// run's wall clock, totalCpuSeconds the engine time summed across batches
/// and the recording (per-pattern rows sum the same way — CPU-like, since
/// batches overlap on the wall clock).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/fault_simulator.hpp"
#include "core/checkpoint.hpp"
#include "core/checkpoint_store.hpp"
#include "sched/fault_schedule.hpp"
#include "util/timer.hpp"

namespace fmossim {

/// FaultSimulator that replays a shared good-machine checkpoint in one
/// concurrent engine per fault batch, scheduled work-stealing style across
/// `jobs` threads, and deterministically merges the batch results.
class ShardedRunner : public FaultSimulator {
 public:
  /// `jobs` is clamped to [1, faults.size()] (a worker per fault at most);
  /// at run time the thread count is additionally capped at the hardware
  /// concurrency (the batch queue decouples batch count from worker count).
  /// `batchFaults` sets the fault-batch size: 0 selects the auto schedule
  /// (see sched::contiguousBatches), any other value fixed-size batches of
  /// that many faults.
  ///
  /// `store` (optional) is a shared checkpoint cache; recordings are then
  /// reused across every runner and engine holding the same store, and
  /// reset() leaves the shared cache alone. When null, the runner creates a
  /// private store with `checkpointBudgetBytes` as its memory budget
  /// (ignored for a shared store, which carries its own budget).
  ///
  /// `schedule` selects the batch-layout policy. `history` (optional) is the
  /// shared in-memory detection-history cache: every run records into it,
  /// and the History policy consumes it. `historyFile` (optional) names a
  /// sidecar file (sched::saveHistoryFile format) that is loaded as a
  /// fallback history source and rewritten after every run — history then
  /// survives process restarts. All three default to the classic behavior.
  ShardedRunner(const Network& net, FaultList faults, FsimOptions options,
                unsigned jobs, std::uint32_t batchFaults = 0,
                std::shared_ptr<CheckpointStore> store = nullptr,
                std::size_t checkpointBudgetBytes = 0,
                sched::SchedulePolicy schedule =
                    sched::SchedulePolicy::Contiguous,
                std::shared_ptr<sched::HistoryStore> history = nullptr,
                std::string historyFile = {});

  /// Always "sharded".
  const char* backendName() const override { return "sharded"; }
  /// The referenced network.
  const Network& network() const override { return net_; }
  /// The injected fault list (global order).
  const FaultList& faults() const override { return faults_; }
  /// Effective worker count after clamping.
  unsigned jobs() const { return jobs_; }
  /// The configured batch-size knob (0 = guided schedule).
  std::uint32_t batchFaults() const { return batchFaults_; }

  /// The checkpoint store this runner records into and reuses from (private
  /// unless one was shared in at construction).
  const std::shared_ptr<CheckpointStore>& checkpointStore() const {
    return store_;
  }

  /// The checkpoint used by the most recent run(), or nullptr before the
  /// first run or after reset() (diagnostics and tests).
  const GoodMachineCheckpoint* checkpoint() const { return checkpoint_.get(); }

  /// Both runs take one batch path:
  ///   1. acquire the checkpoint from the store (recording on a miss): a
  ///      materialized recording for run(), a *streamed* one for runStream()
  ///      — recorded by consuming the source once, never materialized, and
  ///      stored under a distinct key because it omits the per-pattern good
  ///      evaluations a rowed merge needs;
  ///   2. plan the batches for the workers that will actually run (jobs
  ///      capped at the hardware concurrency) and replay every batch through
  ///      ConcurrentFaultSimulator::runReplay — workers never touch the
  ///      sequence or the source — materializing its rows for run() only;
  ///   3. merge with mergeShardResults: detectedAtPattern re-indexed to the
  ///      global fault order, rows (when the batches carry them) summed per
  ///      pattern with cumulative recomputed, and the checkpoint's
  ///      good-machine evaluations added once, so totalNodeEvals equals an
  ///      unsharded run's. totalSeconds is the wall clock of the whole run
  ///      (including recording when this call recorded); totalCpuSeconds is
  ///      engine time summed across batches plus the recording.
  /// run() fires `onPattern` after the merge, once per pattern in order.
  FaultSimResult run(const TestSequence& seq,
                     const PatternCallback& onPattern) override;
  using FaultSimulator::run;

  /// Streaming run: the merged result is rowless; rows are derived from the
  /// merged detection record and delivered to `sink`/`onPattern` in pattern
  /// order (row triples exact, per-row timing/work fields zero — only the
  /// run-level totals are meaningful, as documented in core/row_sink.hpp).
  /// Resident memory is flat in the sequence length when the checkpoint
  /// store carries a spill budget.
  FaultSimResult runStream(PatternSource& source, RowSink* sink = nullptr,
                           const PatternCallback& onPattern = {}) override;

  /// Drops the runner's reference to the last checkpoint and, for a private
  /// store, clears the cache (fresh-session semantics). A shared store is
  /// left untouched — its whole point is outliving individual runners.
  void reset() override {
    checkpoint_.reset();
    if (ownsStore_) store_->clear();
  }

 private:
  /// Step 1 of the batch path: points checkpoint_ at the recording of `seq`
  /// (materialized) or `source` (streamed; exactly one is non-null),
  /// recording on a store miss. Returns the recording seconds this call
  /// newly spent (0 on a cache hit) for the totalCpuSeconds accounting.
  double acquireCheckpoint(const TestSequence* seq, PatternSource* source);
  /// Builds this run's batch plan from the configured policy: the History
  /// policy consults the shared store first, then the sidecar file, and
  /// falls back to the contiguous layout when neither has a record for this
  /// fault list.
  sched::BatchPlan buildPlan(unsigned effectiveJobs) const;
  /// Publishes the merged detection record into the history store and the
  /// sidecar file (whichever are attached) so the next run can schedule on
  /// it — contiguous runs feed history runs.
  void publishHistory(const FaultSimResult& merged) const;
  /// Steps 2-3 of the batch path (see run()) against checkpoint_; `total`
  /// started before the checkpoint was acquired. Batch b carries its plan
  /// hint windows in its FsimOptions.
  FaultSimResult runBatches(const Timer& total, double recordSeconds,
                            bool rows);

  const Network& net_;
  FaultList faults_;
  FsimOptions options_;
  unsigned jobs_;
  std::uint32_t batchFaults_;
  std::shared_ptr<CheckpointStore> store_;
  bool ownsStore_;
  std::shared_ptr<const GoodMachineCheckpoint> checkpoint_;
  sched::SchedulePolicy schedule_;
  std::shared_ptr<sched::HistoryStore> history_;
  std::string historyFile_;
  std::uint64_t faultsFp_;  ///< history key (faultListFingerprint)
};

/// The one shard merge: merges per-batch results (in batch order, batch b
/// covering schedule positions [slices[b].first, slices[b].second)) into one
/// FaultSimResult. `numPatterns` rows are built and summed only when the
/// shard results carry rows (or `good` carries per-pattern good-machine
/// evaluations); rowless shards, as a streamed run produces, merge into a
/// rowless result.
/// `order` (optional) is the schedule's fault permutation: shard-local
/// detection slot i of batch b lands at global fault index
/// order[slices[b].first + i]; null means the identity (the classic
/// contiguous merge). When `good` is non-null its per-pattern good-machine
/// evaluation counts are added once (the merged work counter then equals an
/// unsharded run's) and its final good states are used verbatim. The merged
/// maxAlive is the modeled single-engine peak (per-batch peaks coincide at
/// sequence start, so it equals a jobs=1 run's exactly — see
/// FaultSimResult::maxAlive); totalCpuSeconds and per-pattern seconds sum
/// across batches, while the caller stamps totalSeconds with the real wall
/// clock. Exposed for the merge-logic unit tests.
FaultSimResult mergeShardResults(
    const std::vector<FaultSimResult>& shardResults,
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& slices,
    std::uint32_t numPatterns, const GoodMachineCheckpoint* good = nullptr,
    const std::vector<std::uint32_t>* order = nullptr);

}  // namespace fmossim
