/// \file
/// FaultSchedule — pluggable batch layout for sharded fault simulation.
///
/// The sharded runner used to hard-code its schedule: contiguous slices of
/// the global fault order, claimed in index order. That layout is an index
/// arithmetic detail, but *which faults run together* is the scaling lever
/// (the paper's Fig. 5/6 cost argument; ERASER and the batch-IVerilog work
/// in PAPERS.md both restructure batch composition, not the engine). This
/// layer makes the layout a first-class policy:
///
///   * **BatchPlan** — a permutation of the fault universe plus contiguous
///     slices into it (one per batch, in claim order). The runner gathers
///     each batch's faults through the permutation and merges detections
///     back through it, so every plan over the full universe yields
///     bit-identical results — detections, nodeEvals, maxAlive and
///     per-pattern rows are all sums or per-fault values invariant under
///     reordering (faulty circuits never interact). Only wall clock may
///     change.
///
///   * **ContiguousSchedule** — the identity layout, byte-for-byte the old
///     behavior (the default policy; every other policy is gated
///     bit-identical against it by the scheduler matrix test and
///     `bench --check`).
///
///   * **HistorySchedule** — orders faults by a prior run's detection
///     pattern index (sched/detection_history). Under fault dropping a
///     batch replays only until its last live fault drops, so the contiguous
///     layout pays for the full sequence in *every* batch that happens to
///     contain one hard fault; sorting by detection index quarantines the
///     expensive tail (undetected faults sort last) into the fewest possible
///     batches and lets all the cheap batches exit early. Batches are
///     claimed longest-expected-first so the expensive tail cannot land on
///     the clock edge of a parallel run.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sched/detection_history.hpp"

namespace fmossim::sched {

/// Batch-layout policy selector (EngineOptions::schedule, CLI --schedule).
enum class SchedulePolicy : std::uint8_t {
  Contiguous,  ///< contiguous slices of the global fault order (default)
  History,     ///< detection-history layout (falls back to contiguous
               ///< until a matching history exists)
};

/// Stable lower-case policy name ("contiguous", "history") — used by CLI
/// parsing, bench row labels and the bench JSON schema.
const char* schedulePolicyName(SchedulePolicy policy);

/// Inverse of schedulePolicyName; nullopt for unknown text.
std::optional<SchedulePolicy> parseSchedulePolicy(const std::string& text);

/// A complete batch layout for one sharded run (see file comment).
struct BatchPlan {
  /// Permutation of [0, numFaults): order[k] is the global fault index at
  /// schedule position k. Empty means the identity permutation — the
  /// contiguous fast path, with no per-fault indirection anywhere.
  std::vector<std::uint32_t> order;
  /// Contiguous [begin, end) position ranges, one per batch, in claim
  /// order. Together they cover [0, numFaults) exactly; no batch is empty.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> slices;

  /// Global fault index at schedule position `pos`.
  std::uint32_t globalIndex(std::uint32_t pos) const {
    return order.empty() ? pos : order[pos];
  }
};

/// The contiguous batch boundaries (ShardedRunner's classic layout):
/// ascending, covering [0, numFaults), batchFaults > 0 fixed-size, 0 the
/// auto schedule (~4 batches per worker, floored at 32 faults).
/// Deterministic: workers race only for batch claims, never for boundaries.
std::vector<std::pair<std::uint32_t, std::uint32_t>> contiguousBatches(
    std::uint32_t numFaults, unsigned jobs, std::uint32_t batchFaults);

/// Batch-layout policy: maps a fault universe and scheduling knobs to a
/// BatchPlan. Implementations must be pure (same inputs, same plan) so
/// sharded runs stay deterministic — workers race only for batch *claims*.
class FaultSchedule {
 public:
  virtual ~FaultSchedule() = default;
  /// Policy name for diagnostics (matches schedulePolicyName).
  virtual const char* name() const = 0;
  /// Builds the batch layout. `jobs` is the effective worker count the run
  /// will use (after the hardware cap). `laneWidth` is the retired lane
  /// sharing width and must be 1 (requireUnitLaneWidth).
  BatchPlan plan(std::uint32_t numFaults, unsigned jobs,
                 std::uint32_t batchFaults, std::uint32_t laneWidth = 1) const;

 protected:
  /// The policy's layout; plan() validates its arguments and delegates here.
  virtual BatchPlan layout(std::uint32_t numFaults, unsigned jobs,
                           std::uint32_t batchFaults) const = 0;
};

/// The identity layout — bit-identical default policy (see file comment).
class ContiguousSchedule : public FaultSchedule {
 public:
  const char* name() const override { return "contiguous"; }

 protected:
  BatchPlan layout(std::uint32_t numFaults, unsigned jobs,
                   std::uint32_t batchFaults) const override;
};

/// Detection-history layout (see file comment). With no history, or history
/// recorded for a different fault-list size, plans degrade to the
/// contiguous layout — history is advisory, never required.
class HistorySchedule : public FaultSchedule {
 public:
  explicit HistorySchedule(std::shared_ptr<const DetectionHistory> history)
      : history_(std::move(history)) {}
  const char* name() const override { return "history"; }

 protected:
  BatchPlan layout(std::uint32_t numFaults, unsigned jobs,
                   std::uint32_t batchFaults) const override;

 private:
  std::shared_ptr<const DetectionHistory> history_;
};

/// Policy factory. `history` is consulted only by SchedulePolicy::History
/// (and may be null — the plan then falls back to contiguous).
std::unique_ptr<FaultSchedule> makeSchedule(
    SchedulePolicy policy, std::shared_ptr<const DetectionHistory> history);

}  // namespace fmossim::sched
