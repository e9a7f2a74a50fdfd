// Transient-fault (SEU) grading campaigns on checkpoint replay.
//
// A campaign grades many independent single-event upsets (bit-flips at an
// injection instant; see faults/transient.hpp) against one test sequence.
// The naive approach simulates the whole sequence from scratch once per
// injection — almost all of that work is redundant: before its injection a
// transient machine is bit-identical to the good circuit, so the entire
// prefix is shared good-machine work. This is the "autonomous emulation"
// argument for transient grading (PAPERS.md) mapped onto the checkpoint
// machinery:
//
//   * the good machine is recorded ONCE (CheckpointStore::acquire — and
//     reused across campaigns against the same circuit + sequence);
//   * injections are grouped by instant; each group materializes the good
//     state right after its pattern (goodStateAfterPattern — a pure data
//     fold, zero solver work), flips every machine, and runs the concurrent
//     engine over only the TAIL of the sequence, replaying the good trace
//     (runTransientTail);
//   * same-instant machines share one tail engine, simulated concurrently
//     like the faulty circuits of a permanent-fault run.
//
// Each injection is classified detected (output mismatch at some pattern),
// latent (undetected but state still differs at end of sequence) or silent
// (reconverged). Results are bit-identical to per-injection naive runs
// (oracle-tested) and deterministic across jobs.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/checkpoint_store.hpp"
#include "core/concurrent_sim.hpp"
#include "faults/transient.hpp"

namespace fmossim::seu {

/// Outcome of one injection.
enum class Outcome : std::uint8_t { Detected, Silent, Latent };

const char* outcomeName(Outcome o);

struct InjectionResult {
  TransientFault fault;
  Outcome outcome = Outcome::Silent;
  /// Detecting pattern index, or -1 (matches FaultSimResult semantics).
  std::int32_t detectedAtPattern = -1;
};

struct CampaignOptions {
  /// Worker threads claiming injection groups (replay mode) or single
  /// injections (naive mode). Results are bit-identical for every value.
  unsigned jobs = 1;
  /// Retired word-lane fault-sharing width; must be 1 (runSeuCampaign
  /// throws Error otherwise). Kept for source compatibility only.
  std::uint32_t laneWidth = 1;
  DetectionPolicy policy = DetectionPolicy::DefiniteOnly;
  SimOptions sim;
  /// Naive from-scratch baseline: one full-sequence self-simulating engine
  /// per injection, no checkpoint at all. The oracle the replay mode is
  /// bit-identical to, and the denominator of the campaign speedup claim.
  bool naive = false;
  /// Shared checkpoint store (replay mode). When null, a private store is
  /// created with `checkpointBudgetBytes` as its spill budget.
  std::shared_ptr<CheckpointStore> store;
  std::size_t checkpointBudgetBytes = 0;
  /// Invoked between groups/injections on the claiming thread (service
  /// cancellation hook; may throw to abort the campaign).
  std::function<void()> checkPoint;
};

struct CampaignResult {
  /// Per injection, in campaign order (independent of jobs / grouping).
  std::vector<InjectionResult> injections;
  std::uint32_t numDetected = 0;
  std::uint32_t numSilent = 0;
  std::uint32_t numLatent = 0;
  /// Distinct injection instants (= tail engines run in replay mode).
  std::uint32_t numGroups = 0;
  /// Whether this campaign's store acquire performed the good-machine
  /// recording (false on a cache hit or in naive mode).
  bool recordedCheckpoint = false;
  double totalSeconds = 0.0;
  /// Deterministic work counter: faulty-tail solver work summed over group
  /// engines (replay) or full per-injection engines (naive). Excludes the
  /// one-off checkpoint recording, so the value is independent of cache
  /// state and jobs.
  std::uint64_t totalNodeEvals = 0;

  /// FNV-1a over (outcome, detectedAtPattern) in campaign order plus the
  /// campaign shape — the bit-identity witness the bench gate pins: naive
  /// and replay campaigns of the same spec must checksum equal.
  std::uint64_t checksum() const;
};

/// Grades `campaign` against `seq` on `net`. Validates every injection
/// (known non-input node, instant within the sequence); throws Error on a
/// bad spec. Deterministic for fixed inputs regardless of options.jobs and
/// checkpoint cache state.
CampaignResult runSeuCampaign(const Network& net, const TestSequence& seq,
                              const TransientList& campaign,
                              const CampaignOptions& options = {});

}  // namespace fmossim::seu
