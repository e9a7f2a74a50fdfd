// Good-machine checkpoints — simulate the fault-free circuit once, reuse it
// everywhere (the parallel-path answer to the paper's central observation
// that the good circuit's work should be shared, not repeated).
//
// The concurrent engine already shares the good machine across all faulty
// circuits *within* one engine; a sharded run used to throw that away by
// re-simulating the good circuit once per shard. A GoodMachineCheckpoint
// captures one complete good-machine run of a test sequence as a compact
// settle-by-settle, phase-by-phase trace:
//
//   * per unit-delay phase: the member lists of every vicinity the good
//     circuit evaluated (what faulty-circuit trigger collection scans), and
//     the committed state changes (node, new value) — coercion already
//     applied, so replay is a pure data walk with no solver work;
//   * per settle (one per input setting, plus the initial all-X settle):
//     the span of phases it ran, so replay keeps the global phase counter —
//     and therefore oscillation-coercion timing — bit-aligned with an
//     unsharded run, plus the input-node changes applied just before it —
//     so replay can drive the whole sequence from the trace alone
//     (ConcurrentFaultSimulator::runReplay), without a materialized
//     TestSequence;
//   * per pattern: which settle ends it (one bit per settle) and the
//     observed outputs, so replay knows when to observe; for materialized
//     recordings additionally the good machine's logical node-evaluation
//     count per pattern (so a merged sharded result can report exactly the
//     same deterministic work counter as a jobs=1 run).
//
// Per-pattern good states are not stored as full snapshots: the change trace
// *is* the snapshot store, copy-on-write style — all patterns share the one
// change trace and goodStateAfterPattern() materializes a snapshot by
// folding the deltas up to that pattern's last settle.
//
// One chunk format; chunks resident or spilled. Settles are batched, in run
// order, into *chunks* (SettleBlock: six arrays whose offsets are local to
// the chunk) of a few KiB to 64 KiB of trace each. `budgetBytes`, chosen at
// record() time, only decides where the chunks live:
//
//   * **Resident (budget 0).** Each chunk is kept in memory as an exact-size
//     copy, filled up to the 64 KiB chunk ceiling — ~8 MB in ~128 chunks for
//     RAM256's 1447 patterns.
//   * **Spilled (budget > 0).** The trace grows linearly with good-machine
//     activity, so million-pattern sequences cannot hold it in RAM. Chunks
//     (sized from the budget) are streamed to an unlinked temp file as they
//     fill and replayed back through a sliding in-memory window (an LRU cache
//     of decoded chunks) sized so that the checkpoint's resident footprint —
//     reported by memoryBytes() — stays within the budget. Chunking keeps
//     the resident per-settle index tiny (two words per *chunk*, one bit
//     per settle), so a million-settle recording fits comfortably under a
//     single-digit-MiB budget; within it, eviction and re-reads are
//     invisible: replay is bit-identical to the resident mode.
//
// All trace access goes through a CheckpointReader cursor (one per
// replaying engine), which pins the chunk holding its current settle the
// same way in both modes; the trace itself is immutable after record() and
// safe to share across concurrently replaying engines. CheckpointStore
// (src/core/checkpoint_store.hpp) caches recorded checkpoints across
// engines and rows, keyed on (network identity, sequence fingerprint).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "patterns/pattern.hpp"
#include "switch/network.hpp"
#include "switch/vicinity.hpp"

namespace fmossim {

struct FsimOptions;
class CheckpointReader;
class PatternSource;

/// One recorded good-machine run of a test sequence (see file comment).
/// Immutable after record(); safe to share across concurrently replaying
/// engines (the spilled-mode window cache is internally synchronized).
/// Move-only: a spilled checkpoint owns its backing file.
class GoodMachineCheckpoint {
 public:
  /// One committed good-circuit state change (post-coercion; the new value
  /// always differs from the node's pre-phase state).
  struct Change {
    NodeId node;
    State value;
  };
  /// Member span of one good vicinity evaluation (into its chunk's member
  /// array) — what faulty-circuit trigger collection scans during replay.
  struct VicinitySpan {
    std::uint32_t memberOff;
    std::uint32_t memberCount;
  };
  /// One unit-delay phase of good-circuit activity. Offsets index the
  /// vicinity and change arrays of the chunk that holds the phase.
  struct Phase {
    std::uint32_t vicOff, vicCount;        ///< span into the vicinity table
    std::uint32_t changeOff, changeCount;  ///< span into the change array
  };
  /// One settle (input setting application): its span of phases, plus the
  /// input-node changes applied immediately before it (empty for settle 0).
  /// Settle 0 is the initial all-X network evaluation; settle k >= 1 is the
  /// k-th input setting of the sequence, in run order. Input changes bypass
  /// the phase commit path in the engine, so snapshot folding and
  /// trace-driven replay need them recorded separately.
  struct Settle {
    std::uint32_t phaseOff, phaseCount;
    std::uint32_t inputOff, inputCount;  ///< span into the input changes
  };
  /// One chunk of consecutive settles' trace data, offsets local to the
  /// chunk: what the recorder buffers while settles run, what the resident
  /// mode keeps and what a spilled file block deserializes into.
  struct SettleBlock {
    std::vector<Settle> settles;
    std::vector<Phase> phases;
    std::vector<VicinitySpan> vics;
    std::vector<NodeId> members;
    std::vector<Change> changes;
    std::vector<Change> inputChanges;

    /// Heap footprint of the chunk's payload (memory accounting; kept and
    /// decoded chunks are exact-sized so capacity == size).
    std::size_t bytes() const;
    /// Content bytes regardless of vector slack (the recorder's flush
    /// threshold — pending buffers keep their capacity across chunks).
    std::size_t contentBytes() const;
  };

  GoodMachineCheckpoint();
  GoodMachineCheckpoint(GoodMachineCheckpoint&&) noexcept;
  GoodMachineCheckpoint& operator=(GoodMachineCheckpoint&&) noexcept;
  ~GoodMachineCheckpoint();

  /// Records the good machine of `net` over `seq`: runs a fault-free
  /// concurrent simulation with `options` (detection knobs are irrelevant;
  /// options.sim controls settle limits) and captures the trace.
  /// Deterministic: identical inputs produce identical checkpoints (and
  /// bit-identical replays regardless of `budgetBytes`).
  ///
  /// `budgetBytes` > 0 spills the chunks to an unlinked temp file in
  /// `spillDir` (empty = the system temp directory) as it records, keeping
  /// memoryBytes() within the budget; 0 keeps every chunk resident. See
  /// memoryBytes() for the budget's fixed floor.
  static GoodMachineCheckpoint record(const Network& net,
                                      const TestSequence& seq,
                                      const FsimOptions& options,
                                      std::size_t budgetBytes = 0,
                                      const std::string& spillDir = {});

  /// Streaming overload: records the good machine over a PatternSource,
  /// consuming it exactly once (after one fingerprint pass) and never
  /// materializing the sequence — resident memory is flat in the sequence
  /// length when a spill budget is given. The resulting checkpoint is
  /// `streamed()`: it omits the per-pattern good-eval array (a per-pattern
  /// resident cost), so it serves streaming replays (runReplay) but not the
  /// materialized sharded merge, which needs that array.
  static GoodMachineCheckpoint record(const Network& net, PatternSource& source,
                                      const FsimOptions& options,
                                      std::size_t budgetBytes = 0,
                                      const std::string& spillDir = {});

  /// Content fingerprint of a test sequence (FNV-1a over patterns, settings
  /// and outputs; PatternSource::fingerprint computes the identical fold
  /// without materializing). Replay asserts the sequence it runs matches the
  /// one recorded; CheckpointStore keys its cache on this.
  static std::uint64_t fingerprint(const TestSequence& seq);

  /// Number of recorded settles (1 + total input settings of the sequence).
  /// The settles themselves are read through a CheckpointReader.
  std::uint32_t numSettles() const { return settleCount_; }
  /// Number of chunks the settles are batched into, in either storage mode.
  std::uint32_t numChunks() const {
    return static_cast<std::uint32_t>(firstSettle_.size());
  }

  // --- whole-run data --------------------------------------------------------

  /// Fingerprint of the recorded sequence (see fingerprint()).
  std::uint64_t seqFingerprint() const { return seqFingerprint_; }
  /// Number of nodes of the recorded network.
  std::uint32_t numNodes() const {
    return static_cast<std::uint32_t>(finalGoodStates_.size());
  }
  /// Number of patterns of the recorded sequence (64-bit: streamed
  /// recordings are not bounded by a materialized sequence's 2^32 size).
  std::uint64_t numPatterns() const { return numPatterns_; }
  /// The observed output nodes of the recorded sequence — what a
  /// trace-driven replay observes at each pattern end.
  const std::vector<NodeId>& outputs() const { return outputs_; }
  /// True when settle `i` is the last settle of a pattern (the engine
  /// observed outputs right after it).
  bool patternEndsAtSettle(std::uint32_t i) const {
    return ((patternEndBits_[i >> 6] >> (i & 63)) & 1) != 0;
  }
  /// Good state of every node after the last pattern (what an early-exiting
  /// replay reports as finalGoodStates).
  const std::vector<State>& finalGoodStates() const { return finalGoodStates_; }
  /// Good-machine logical node evaluations per pattern — the work a replay
  /// avoids; merged into sharded results so their deterministic work counter
  /// equals a jobs=1 run's exactly. Empty for streamed() recordings (it is
  /// a per-pattern resident cost; use totalGoodEvals() instead).
  const std::vector<std::uint64_t>& perPatternGoodEvals() const {
    return perPatternGoodEvals_;
  }
  /// Total good-machine node evaluations over the sequence (excluding the
  /// initial settle, matching FaultSimResult::totalNodeEvals semantics).
  std::uint64_t totalGoodEvals() const { return totalGoodEvals_; }
  /// Wall-clock seconds the recording run took (merged into the recording
  /// run's aggregate CPU time; diagnostics).
  double recordSeconds() const { return recordSeconds_; }
  /// True when this checkpoint was recorded from a PatternSource without
  /// per-pattern resident arrays (see the streaming record() overload).
  bool streamed() const { return streamed_; }

  /// Materializes the good state of every node after pattern `p` by folding
  /// the change trace up to that pattern's last settle (the copy-on-write
  /// read path; O(nodes + changes up to p)). Works in both storage modes.
  std::vector<State> goodStateAfterPattern(std::uint64_t p) const;

  /// Index of the settle that ends pattern `p` — the settle right after
  /// which the recording engine observed that pattern's outputs
  /// (word-skipping popcount scan over the pattern-end bits; O(settles/64)).
  /// A replay resuming "just after pattern p" (SEU tail simulation) starts
  /// at settle settleEndingPattern(p) + 1. Works in both storage modes.
  std::uint32_t settleEndingPattern(std::uint64_t p) const;

  /// True when the chunks live in the temp-file backing store and replay
  /// through the sliding window.
  bool spilled() const { return spill_ != nullptr; }
  /// The record-time memory budget (0 = unbounded).
  std::size_t budgetBytes() const { return budgetBytes_; }

  // --- spill diagnostics (0 when not spilled) --------------------------------

  /// Number of chunks in the backing file (numChunks() when spilled).
  std::uint32_t spillChunkCount() const { return spilled() ? numChunks() : 0; }
  /// Largest encoded chunk (the window's hard floor: one chunk must always
  /// be decodable).
  std::size_t maxChunkBytes() const;
  /// Bytes of decoded chunks the sliding window may keep resident.
  std::size_t windowBudgetBytes() const;

  /// Resident heap footprint in bytes: the fixed per-chunk/per-pattern index
  /// plus every chunk in resident mode, or plus the current window of
  /// decoded chunks in spilled mode. The budget enforcement hook — stays
  /// <= budgetBytes() whenever the budget exceeds the fixed floor plus one
  /// chunk per concurrently replaying engine.
  std::size_t memoryBytes() const;

 private:
  friend class CheckpointRecorder;
  friend class CheckpointReader;

  struct SpillState;

  static GoodMachineCheckpoint recordImpl(const Network& net,
                                          PatternSource& source,
                                          const FsimOptions& options,
                                          std::size_t budgetBytes,
                                          const std::string& spillDir,
                                          bool keepPerPatternEvals);

  std::size_t fixedBytes() const;
  /// Chunk `c`: the resident copy, or (spilled mode) loaded through the
  /// window cache.
  std::shared_ptr<const SettleBlock> loadBlock(std::uint32_t c) const;

  std::uint32_t settleCount_ = 0;
  /// Per chunk: the index of its first settle (both modes).
  std::vector<std::uint32_t> firstSettle_;
  /// Resident mode: the chunks, in run order. Empty in spilled mode — there
  /// they live in the backing file, indexed by SpillState.
  std::vector<std::shared_ptr<const SettleBlock>> resident_;

  std::vector<State> initialGoodStates_;  ///< after the initial all-X settle
  std::vector<State> finalGoodStates_;
  std::vector<std::uint64_t> perPatternGoodEvals_;  ///< empty when streamed_
  /// Bit i set iff settle i ends a pattern (one bit per settle — the only
  /// per-settle resident cost in spilled mode besides the chunk index).
  std::vector<std::uint64_t> patternEndBits_;
  std::vector<NodeId> outputs_;
  std::uint64_t numPatterns_ = 0;
  std::uint64_t totalGoodEvals_ = 0;
  std::uint64_t seqFingerprint_ = 0;
  double recordSeconds_ = 0.0;
  bool streamed_ = false;

  std::size_t budgetBytes_ = 0;
  std::unique_ptr<SpillState> spill_;  ///< non-null in spilled mode
};

/// Replay cursor over a checkpoint's trace — the one access path, the same
/// in both storage modes. Each replaying engine owns one. The cursor pins
/// the chunk holding its current settle (keeping returned spans valid until
/// the next enterSettle); in spilled mode the shared window cache behind it
/// slides forward with the replay. Consecutive settles of one chunk reuse
/// the pin without looking the chunk up again.
class CheckpointReader {
 public:
  /// Binds to `ck` (must outlive the reader) without loading anything.
  explicit CheckpointReader(const GoodMachineCheckpoint& ck);

  /// Positions the cursor on settle `i` (asserted in range). Sequential
  /// forward access is the fast path; any order is correct.
  void enterSettle(std::uint32_t i);

  /// Number of phases of the current settle.
  std::uint32_t phaseCount() const { return phaseCount_; }
  /// The vicinities of phase `k` of the current settle, in evaluation order.
  std::span<const GoodMachineCheckpoint::VicinitySpan> vicinities(
      std::uint32_t k) const {
    const GoodMachineCheckpoint::Phase& p = phases_[k];
    return {vicBase_ + p.vicOff, p.vicCount};
  }
  /// Member nodes of one vicinity of the current settle.
  std::span<const NodeId> members(
      const GoodMachineCheckpoint::VicinitySpan& v) const {
    return {memberBase_ + v.memberOff, v.memberCount};
  }
  /// The state changes committed in phase `k` of the current settle.
  std::span<const GoodMachineCheckpoint::Change> changes(
      std::uint32_t k) const {
    const GoodMachineCheckpoint::Phase& p = phases_[k];
    return {changeBase_ + p.changeOff, p.changeCount};
  }
  /// The input-node changes applied just before the current settle.
  std::span<const GoodMachineCheckpoint::Change> inputChanges() const {
    return {inputs_, inputCount_};
  }

 private:
  const GoodMachineCheckpoint* ck_;
  /// Pin on the current chunk and the index of its first settle.
  std::shared_ptr<const GoodMachineCheckpoint::SettleBlock> pin_;
  std::uint32_t pinFirst_ = 0;
  const GoodMachineCheckpoint::Phase* phases_ = nullptr;
  const GoodMachineCheckpoint::VicinitySpan* vicBase_ = nullptr;
  const NodeId* memberBase_ = nullptr;
  const GoodMachineCheckpoint::Change* changeBase_ = nullptr;
  const GoodMachineCheckpoint::Change* inputs_ = nullptr;
  std::uint32_t phaseCount_ = 0;
  std::uint32_t inputCount_ = 0;
};

/// Recording sink the concurrent engine drives during a checkpoint-recording
/// run. Buffers settles into the pending chunk; once it reaches the chunk
/// byte target the chunk is kept as an exact-size copy (resident mode) or
/// streamed to the spill file. One beginSettle() per
/// settleAll(), one beginPhase() per unit-delay phase, then the phase's good
/// vicinities and commits in engine order; endPattern() after each observed
/// pattern; finish() flushes the last chunk.
class CheckpointRecorder {
 public:
  /// Records into `into` (must outlive the recorder; its spill mode is
  /// fixed before recording starts).
  explicit CheckpointRecorder(GoodMachineCheckpoint& into);

  /// Records one input-node assignment (old != new); attached to the settle
  /// the engine runs next.
  void inputChange(NodeId n, State v);
  /// Opens the next settle (flushing the pending chunk when due).
  void beginSettle();
  /// Opens the next phase of the current settle.
  void beginPhase();
  /// Records one good-vicinity evaluation (member list only).
  void goodVicinity(const Vicinity& vic);
  /// Records one committed good-circuit change (post-coercion, old != new).
  void goodCommit(NodeId n, State v);
  /// Marks the current settle as a pattern boundary (the engine observed
  /// outputs right after it).
  void endPattern();
  /// Flushes the final chunk; recording is complete.
  void finish();

 private:
  void flushChunk();

  GoodMachineCheckpoint& ck_;
  GoodMachineCheckpoint::SettleBlock pending_;
  /// Input changes seen since the last beginSettle (owned by the next one).
  std::vector<GoodMachineCheckpoint::Change> pendingInputs_;
  /// Flush the pending chunk once it holds this many content bytes: the
  /// 64 KiB ceiling in resident mode; in spilled mode small enough that the
  /// sliding window can hold several chunks under tight budgets, large
  /// enough to amortize encode/decode.
  std::size_t chunkTarget_ = 0;
};

}  // namespace fmossim
