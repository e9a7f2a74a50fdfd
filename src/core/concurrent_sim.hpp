// FMOSSIM's concurrent switch-level fault simulation engine (paper §4).
//
// The engine simulates the good circuit in full and every faulty circuit by
// difference:
//
//   * Node states are kept as per-node sorted record lists (StateTable);
//     a faulty circuit's state exists only where it diverges from the good
//     circuit.
//   * Events are (node, circuit) pairs: "an 'event' specifies both a node
//     and a circuit indicating that the state of this node must be
//     recomputed in this particular circuit."
//   * Each unit-delay phase first simulates all good-circuit activity; each
//     evaluated good vicinity then *triggers* events for the faulty circuits
//     that diverge on it or structurally differ adjacent to it (records on
//     member or gate nodes, stuck nodes, transistor overrides — adjacency is
//     needed because a fault can extend the vicinity in the faulty circuit).
//     The faulty circuits are then simulated one at a time in ascending
//     circuit-ID order, each under its own topology and its own pre-phase
//     charge state.
//   * After each pattern the observed outputs are compared; a mismatch
//     detects the fault and its circuit is dropped from simulation.
//
// Faulty circuits are bit-identified overlays on the shared network: a node
// stuck-at fault makes the node an input in that circuit only; transistor
// faults and activated fault devices are per-circuit conduction overrides.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/state_table.hpp"
#include "faults/fault.hpp"
#include "faults/transient.hpp"
#include "patterns/pattern.hpp"
#include "switch/logic_sim.hpp"
#include "switch/solver.hpp"
#include "switch/vicinity.hpp"
#include "util/timer.hpp"

namespace fmossim {

class CheckpointReader;
class CheckpointRecorder;
class GoodMachineCheckpoint;
class PatternSource;
class RowSink;

/// How output mismatches count as detections.
enum class DetectionPolicy : std::uint8_t {
  /// Detected only when good and faulty outputs are both definite and differ
  /// (an X cannot be distinguished on a tester). X-involved mismatches are
  /// counted as potential detections but the circuit keeps simulating.
  DefiniteOnly,
  /// Any difference counts (including X vs definite).
  AnyDifference,
};

/// Stable policy name ("definite", "any") — the CLI's --policy values, the
/// daemon's "policy" field and the bench JSON rows.
const char* detectionPolicyName(DetectionPolicy policy);

/// Inverse of detectionPolicyName; nullopt for unknown text.
std::optional<DetectionPolicy> parseDetectionPolicy(const std::string& text);

struct FsimOptions {
  SimOptions sim;
  DetectionPolicy policy = DetectionPolicy::DefiniteOnly;
  /// Drop faulty circuits once detected (paper: "the simulation of that
  /// circuit is dropped"). Disable for the ablation benchmark.
  bool dropDetected = true;
  /// Self-test hook for the differential fuzzing oracle (src/gen/): when
  /// N > 0, every Nth faulty-circuit trigger collected during a good-circuit
  /// phase is deliberately lost, emulating the classic concurrent-simulation
  /// bug of missed divergence propagation. Must stay 0 in real use; only the
  /// oracle's mutation tests set it.
  std::uint32_t debugLoseTriggerEvery = 0;
  /// Bit-parallel fault batching width: faulty circuits whose per-phase
  /// event lists coincide are settled together through one solver pass, with
  /// their states committed as word lanes (32 two-bit lanes per 64-bit
  /// StateTable word). Sharing is attempted only within aligned windows of
  /// this many consecutive circuit IDs; 1 disables batching (every circuit
  /// is processed alone, the pre-lane behavior). Must be a power of two in
  /// [1, 32]. Results are bit-identical for every width — only wall clock
  /// changes (enforced by the diff oracle and the bench --check gate).
  std::uint32_t laneWidth = 1;
  /// Scheduler-seeded share groups (laneWidth > 1 only): aligned lane
  /// window indices — (circuitId - 1) / laneWidth over this engine's
  /// locally renumbered faults — whose members the batch scheduler expects
  /// to keep forming share groups (sched::BatchPlan::hintWindows, built
  /// from matching detection history). Hinted windows are exempt from the
  /// per-window share backoff: the matcher attempts group formation there
  /// every phase instead of rediscovering, then abandoning, the window.
  /// Results are bit-identical with or without hints (the scalar and lane
  /// paths agree; hints only steer where match costs are paid).
  std::vector<std::uint32_t> shareHintWindows;
  /// Opt-in asynchronous read-ahead during checkpoint replay (spilled
  /// checkpoints only): the replay reader prefetches and decodes the next
  /// settle chunk off-thread while the engine consumes the current one
  /// (CheckpointReader::enableReadAhead), so budgeted replays stop blocking
  /// on synchronous decode at every chunk switch. Costs up to one extra
  /// resident chunk per replaying engine; results are bit-identical.
  bool checkpointReadAhead = false;
};

/// Per-pattern measurement row (the raw data behind Figures 1 and 2).
struct PatternStat {
  std::uint32_t index = 0;
  /// Aggregate engine time spent on this pattern, summed across every
  /// engine that simulated it. For unsharded runs this is the pattern's
  /// wall-clock time; for sharded runs it is CPU-like time (concurrent
  /// batches overlap on the wall clock) — see FaultSimResult::totalSeconds
  /// vs. totalCpuSeconds for the run-level pair.
  double seconds = 0.0;
  std::uint64_t nodeEvals = 0;    ///< solver work in this pattern (all circuits)
  std::uint32_t newlyDetected = 0;
  std::uint32_t cumulativeDetected = 0;
  std::uint32_t aliveAfter = 0;   ///< faulty circuits still being simulated
};

/// Result of a full fault-simulation run.
struct FaultSimResult {
  std::vector<PatternStat> perPattern;
  /// Per fault: index of the detecting pattern, or -1 if undetected.
  std::vector<std::int32_t> detectedAtPattern;
  std::uint32_t numFaults = 0;
  std::uint32_t numDetected = 0;
  std::uint64_t potentialDetections = 0;  ///< X-involved mismatches observed
  /// Wall-clock seconds for the whole run (sharded runs: the parallel run's
  /// elapsed time, including checkpoint recording when this run recorded).
  double totalSeconds = 0.0;
  /// Aggregate engine (CPU-like) seconds summed across every engine that
  /// contributed to the run — all fault batches plus checkpoint recording.
  /// Equals totalSeconds for unsharded backends; for sharded runs
  /// totalCpuSeconds / totalSeconds approximates the effective parallelism.
  double totalCpuSeconds = 0.0;
  std::uint64_t totalNodeEvals = 0;
  /// Peak number of simultaneously live faulty circuits of the modeled
  /// (single-engine) simulation — the paper's Fig. statistic. Exact for
  /// every backend and jobs count: alive counts never increase during a
  /// run, so each engine peaks at sequence start and a merged sharded
  /// result reports the same peak as a jobs=1 run (asserted by the
  /// scheduler matrix test), not an upper bound.
  std::uint32_t maxAlive = 0;
  /// State-table divergence records at end of run (summed across shards;
  /// 0 for the serial backend, which keeps no difference state).
  std::uint64_t finalRecords = 0;
  /// Good-circuit state of every node after the last pattern, indexed by
  /// NodeId. Every backend fills this (the serial backend from its reference
  /// run, sharded runs from their first shard), so the differential oracle
  /// can cross-check final states and not just detections.
  std::vector<State> finalGoodStates;
  /// Number of patterns the run covered. 64-bit: streaming runs leave
  /// perPattern empty and may exceed the materialized 2^32 row bound; every
  /// backend fills this (for materialized runs it equals perPattern.size()).
  std::uint64_t numPatterns = 0;
  /// Whether the run dropped detected circuits (FsimOptions::dropDetected).
  /// Together with detectedAtPattern/numFaults/numPatterns this makes the
  /// per-pattern row triples of a rowless result fully derivable — see
  /// core/row_sink.hpp (forEachDerivedRow).
  bool droppedDetected = false;

  double coverage() const {
    return numFaults == 0 ? 0.0 : double(numDetected) / double(numFaults);
  }
};

class ConcurrentFaultSimulator {
 public:
  /// Builds the engine and injects every fault (initial divergence records
  /// and events are created; call settle() or run a sequence next).
  ///
  /// `record` (optional) captures the good machine's phase trace into a
  /// checkpoint being built — only meaningful with an empty fault list (the
  /// checkpoint must contain pure good-machine activity).
  ///
  /// `replay` (optional) switches the engine into checkpoint-replay mode:
  /// the good circuit is never simulated; every good phase (vicinity trigger
  /// stimuli + state commits, already coerced) is replayed from the
  /// checkpoint's trace instead, keeping phase alignment and results
  /// bit-identical to a self-simulating engine while spending solver work on
  /// faulty circuits only. The sequence later passed to run() must be the
  /// one the checkpoint recorded (asserted via fingerprint). In replay mode
  /// with dropDetected, the run exits early once every faulty circuit has
  /// been detected and dropped — the checkpoint supplies the final good
  /// states for the untouched tail of the sequence.
  ConcurrentFaultSimulator(const Network& net, const FaultList& faults,
                           FsimOptions options = {},
                           CheckpointRecorder* record = nullptr,
                           const GoodMachineCheckpoint* replay = nullptr);

  /// Transient (SEU) mode: `numTransientMachines` faulty circuits with no
  /// permanent fault — each stays bit-identical to the good circuit until
  /// its TransientFault (given to runTransient / runTransientTail) flips
  /// one storage node's settled state.
  ///
  /// With `replay` null the engine self-simulates the good circuit and
  /// runTransient drives a full sequence (the naive from-scratch baseline).
  /// With `replay` given the engine *resumes at a pattern boundary*: the
  /// good state after `resumeAfterPattern` is materialized straight from
  /// the checkpoint (goodStateAfterPattern — zero solver work for the
  /// prefix, in which no transient machine can diverge) and
  /// runTransientTail simulates only the remaining patterns, bit-identical
  /// to the naive run (SEU oracle test).
  ConcurrentFaultSimulator(const Network& net,
                           std::uint32_t numTransientMachines,
                           FsimOptions options = {},
                           const GoodMachineCheckpoint* replay = nullptr,
                           std::uint64_t resumeAfterPattern = 0);

  ~ConcurrentFaultSimulator();

  const Network& network() const { return net_; }
  const FaultList& faults() const { return faults_; }

  /// Runs a complete test sequence with per-pattern instrumentation and
  /// fault dropping. Can only be called once per simulator instance.
  FaultSimResult run(const TestSequence& seq);

  /// Like run(), invoking `onPattern` after each pattern (for live
  /// reporting in the benchmark harnesses).
  FaultSimResult run(const TestSequence& seq,
                     const std::function<void(const PatternStat&)>& onPattern);

  /// Streaming run: pulls patterns from `source` one at a time and never
  /// materializes per-pattern rows — each row goes to `sink` (and
  /// `onPattern`) as it completes and the result's perPattern stays empty
  /// (numPatterns/droppedDetected are set instead; see core/row_sink.hpp).
  /// Resident memory is flat in the sequence length. Not valid in replay
  /// mode (use runReplay, which needs no sequence at all). When recording a
  /// checkpoint, the source is consumed exactly once and its fingerprint is
  /// captured via PatternSource::fingerprint() before the run.
  FaultSimResult run(PatternSource& source, RowSink* sink = nullptr,
                     const std::function<void(const PatternStat&)>& onPattern = {});

  /// Replay-mode streaming run: drives the whole sequence from the
  /// checkpoint's recorded trace (input changes + pattern boundaries), so
  /// workers need neither a materialized TestSequence nor the PatternSource.
  /// Requires replay mode. Rows stream to `sink`/`onPattern`; the result is
  /// rowless like the streaming run() above. Early exit applies as in
  /// run(): once every circuit is detected and dropped, the remaining rows
  /// are synthesized.
  FaultSimResult runReplay(RowSink* sink = nullptr,
                           const std::function<void(const PatternStat&)>& onPattern = {});

  // --- transient (SEU) runs (transient-mode engines only; see src/seu/) ----

  /// Naive full-sequence transient run: simulates the whole sequence from
  /// scratch, flipping machine i+1 per specs[i] at its injection instant
  /// (specs.size() must equal the machine count; instants may differ).
  /// Rowless result. Classification per machine: detectedAtPattern(i) >= 0
  /// is detected; else hasDivergence(i+1) is latent; else silent.
  FaultSimResult runTransient(const TestSequence& seq,
                              std::span<const TransientFault> specs);

  /// Checkpoint-tail transient run: every spec must share the engine's
  /// resume instant (a same-instant injection group). All machines are
  /// flipped at the resumed pattern boundary, then only the remaining
  /// patterns are replayed from the trace. Early-exits once every machine
  /// is detected and dropped. Bit-identical to runTransient of the same
  /// specs over the recorded sequence.
  FaultSimResult runTransientTail(std::span<const TransientFault> specs);

  /// True when circuit c's state currently differs from the good circuit
  /// anywhere — records or an active pulse holding a value the good circuit
  /// does not (end-of-run latent classification; transient mode only).
  bool hasDivergence(CircuitId c) const;

  // --- fine-grained control (equivalence tests, examples) -----------------

  /// Applies one batch of input assignments and settles all circuits.
  SettleResult applySetting(std::span<const std::pair<NodeId, State>> assignments);

  /// Observes the outputs, records detections against `patternIndex`, and
  /// drops newly detected circuits (if enabled). Returns number of new
  /// detections.
  std::uint32_t observe(const std::vector<NodeId>& outputs,
                        std::uint32_t patternIndex);

  State goodState(NodeId n) const { return table_.good(n); }
  /// State of node n in faulty circuit c (c in [1, numFaults]).
  State faultyState(NodeId n, CircuitId c) const;
  bool alive(CircuitId c) const { return alive_[c] != 0; }
  std::uint32_t aliveCount() const { return aliveCount_; }
  std::int32_t detectedAtPattern(std::uint32_t faultIndex) const {
    return detectedAt_[faultIndex];
  }
  std::uint64_t potentialDetections() const { return potentialDetections_; }

  /// Deterministic work counter: logical member-node evaluations across all
  /// circuits. Memo-replayed solves count exactly like solver-computed ones
  /// (they answer the same logical work), so the counter is invariant under
  /// the per-phase solution memo and the paper's growth-shape claims remain
  /// comparable across engine versions; wall-clock time is what the memo
  /// improves.
  std::uint64_t nodeEvals() const {
    return solver_.nodeEvals() + memoReplayedEvals_;
  }
  std::uint64_t phaseCount() const { return phases_; }
  std::uint64_t triggeredEvents() const { return triggeredEvents_; }
  /// Per-phase vicinity-solution memo statistics (performance diagnostics):
  /// solver invocations avoided, and total memo probes.
  std::uint64_t memoHits() const { return memoHits_; }
  std::uint64_t memoProbes() const { return memoProbes_; }
  std::uint64_t recordCount() const { return table_.totalRecords(); }
  std::uint32_t maxAliveObserved() const { return maxAliveObserved_; }

 private:
  friend struct GoodCircuitView;
  friend struct FaultyCircuitView;
  friend struct LaneLeaderView;

  // Per-circuit static overlays, sorted by circuit id.
  struct Override {
    CircuitId circuit;
    State value;
  };

  /// Master constructor both public constructors delegate to: permanent
  /// faults size the machine count themselves; transient mode passes an
  /// empty fault list and an explicit count (plus the resume instant when a
  /// checkpoint tail is being simulated).
  ConcurrentFaultSimulator(const Network& net, const FaultList& faults,
                           std::uint32_t numMachines, FsimOptions options,
                           CheckpointRecorder* record,
                           const GoodMachineCheckpoint* replay,
                           bool transientMode,
                           std::uint64_t resumeAfterPattern);

  void inject();
  SettleResult settleAll();
  void runPhase(bool coerce);
  void processGoodPhase(bool coerce);
  void processFaultyCircuit(CircuitId c, bool coerce);
  void collectTriggers(std::span<const NodeId> members);
  void dropCircuit(CircuitId c);
  void removeOverlay(CircuitId c);

  // --- transient (SEU) machinery (transientMode_ only) ---------------------
  //
  // A transient machine carries no static overlay until injection. An
  // instantaneous flip becomes an ordinary divergence record (reconciled
  // like a faulty-circuit commit); a pulse becomes a temporary node-stuck
  // overlay at the flipped value, released at its boundary with the held
  // value left behind as charge (a record, unless it agrees with the good
  // circuit). Both schedule the node and its gated transistors' channel
  // ends, exactly like a node-stuck injection, and the perturbation is
  // settled in place (settleInPlace: the replay cursor, when present, must
  // not advance — the good machine is quiet between patterns).
  struct TransientMachine {
    NodeId node;
    std::uint64_t atPattern = 0;
    std::uint32_t pulsePatterns = 0;
    State forcedValue = State::SX;  ///< pulse hold value (flip of good)
    bool pulseActive = false;
    bool injected = false;
  };
  void loadTransientSpecs(std::span<const TransientFault> specs,
                          std::uint64_t numPatterns);
  void injectTransientFlip(CircuitId c);
  void releaseTransientPulse(CircuitId c);
  void scheduleTransientSite(CircuitId c, NodeId n);
  SettleResult settleInPlace();

  // --- lane-batched faulty processing (laneWidth > 1) ----------------------
  //
  // Faulty circuits are independent within a phase, so when several circuits
  // of one aligned lane window enter the phase with identical event lists,
  // one of them (the leader) is evaluated once through a read-matching view,
  // and every candidate whose observable state matches the leader's complete
  // read set provably grows the same vicinities, solves to the same states,
  // and schedules the same next-phase events — its results are committed as
  // word lanes (StateTable::commitLanes) without touching the solver again.
  // Candidates that differ anywhere fall out of the shared mask and become
  // the next round's leader among the remaining failures, so results stay
  // bit-identical to scalar processing for every laneWidth.
  //
  // processFaultyGroup handles the WHOLE window on its first dispatch of the
  // phase: one scan partitions the active circuits into share-groups (equal
  // event lists) and done-stamps every member, so the scan is O(width) per
  // window per phase rather than O(width) per circuit.
  void processFaultyGroup(CircuitId c, bool coerce);
  /// One leader evaluation over candMask's lanes; commits and schedules the
  /// leader plus every matching candidate, and returns the matched mask.
  std::uint32_t processLaneLeader(CircuitId c, std::uint32_t candMask,
                                  bool coerce);
  /// Lanes of `group` whose circuit has a node-stuck overlay at n.
  std::uint32_t stuckLaneMask(NodeId n, std::uint32_t group) const;
  /// Lanes of `group` whose circuit has a conduction override on t.
  std::uint32_t overrideLaneMask(TransId t, std::uint32_t group) const;
  State logNodeRead(NodeId n);
  State logTransRead(TransId t);
  /// Cached per-phase FNV signature of circuit c's current event list.
  std::uint64_t seedSignature(CircuitId c);

  // Checkpoint replay (see checkpoint.hpp): one settle block per settleAll,
  // whose recorded phases are consumed one per runPhase — the good prefix of
  // the settle. replayGoodPhase applies a recorded phase's trigger stimuli
  // and state commits in place of processGoodPhase. All trace access goes
  // through replayReader_, the forward cursor that works for in-memory and
  // spilled (windowed temp-file) checkpoints alike.
  bool replayPhasesRemain() const;
  void replayBeginSettle();
  void replayGoodPhase();

  // Trigger watch counts: watchCount_[n] is the number of divergence sources
  // (records, stuck-node overlays, transistor overrides) whose trigger scan
  // lands on node n, mirroring collectTriggers' member scan exactly. A
  // member with count 0 cannot mark any circuit, so the scan skips it — the
  // common case once faults start dropping. Maintained incrementally on
  // record insert/erase and overlay inject/removal.
  void addRecordWatch(NodeId m, std::int32_t delta);
  void addStuckWatch(NodeId n, std::int32_t delta);
  void addTransWatch(TransId t, std::int32_t delta);

  // Lookup helpers over the static overlay tables. Inline: this is the
  // innermost lookup of the faulty-circuit views (tens of millions of calls
  // per run, almost always over an empty or single-entry vector).
  static const Override* findOverride(const std::vector<Override>& v,
                                      CircuitId c) {
    for (const Override& o : v) {
      if (o.circuit >= c) return o.circuit == c ? &o : nullptr;
    }
    return nullptr;
  }
  bool isStuckNode(NodeId n, CircuitId c) const;
  State stuckValue(NodeId n, CircuitId c) const;
  State conductionIn(TransId t, CircuitId c) const;
  State stateIn(NodeId n, CircuitId c) const;  // pre-phase view for circuit c

  // Event scheduling.
  void scheduleGood(NodeId n);
  void scheduleFaulty(CircuitId c, NodeId n);
  void scheduleSettingSeeds(NodeId input, State oldGood);

  const Network& net_;
  FaultList faults_;  ///< empty in transient mode
  FsimOptions options_;
  /// Number of faulty machines (circuits 1..numMachines_). Equals
  /// faults_.size() for permanent faults; in transient mode the machine
  /// count is independent of the (empty) fault list.
  std::uint32_t numMachines_ = 0;
  bool transientMode_ = false;
  std::uint64_t resumeAfterPattern_ = 0;  ///< tail-resume boundary (replay)
  std::vector<TransientMachine> transient_;  ///< per machine, transient mode
  CheckpointRecorder* record_ = nullptr;
  const GoodMachineCheckpoint* replay_ = nullptr;
  std::unique_ptr<CheckpointReader> replayReader_;  // non-null iff replay_
  std::uint32_t replaySettle_ = 0;  // 1-based after replayBeginSettle
  std::uint32_t replayPhase_ = 0;   // next phase within the current settle
  // Set when runReplay() already entered the settle (to apply the recorded
  // input changes it needed the reader positioned first); tells the next
  // settleAll() to skip its own replayBeginSettle.
  bool replayEntered_ = false;

  StateTable table_;
  std::vector<State> cond0_;  // good-circuit conduction states

  // Static per-circuit overlays.
  std::vector<std::vector<Override>> nodeStuck_;     // per node
  std::vector<std::vector<Override>> transOverride_; // per transistor

  std::vector<std::uint8_t> alive_;        // [0..F], alive_[0] unused
  std::vector<std::int32_t> detectedAt_;   // per fault index
  std::vector<std::vector<NodeId>> touched_;  // per circuit: nodes with records
  // Compaction threshold per circuit: touched_ is append-only on record
  // insert (erases leave stale entries behind), so a long-lived circuit that
  // keeps diverging and reconverging would grow it without bound — linear in
  // the sequence length for never-definitely-detected faults. When the list
  // reaches the threshold it is deduplicated and filtered to nodes that
  // still hold a record, and the threshold doubles from the live size:
  // amortized O(1) per insert, size bounded by the circuit's live records.
  std::vector<std::uint32_t> touchedCap_;
  void touchedInsert(CircuitId c, NodeId n);
  void compactTouched(CircuitId c);
  std::vector<std::uint32_t> watchCount_;  // per node: trigger sources landing here
  // Per node: #divergence records + #stuck overlays. Zero means every faulty
  // circuit agrees with the (pre-phase) good circuit here, which lets the
  // faulty-view state lookup skip both overlay and record searches — the
  // common case for the tens of millions of stateIn calls per run.
  std::vector<std::uint32_t> divCount_;

  // Good-circuit event queue (next phase).
  std::vector<NodeId> goodSeeds_;
  std::vector<std::uint32_t> goodSeedStamp_;
  // Faulty event queues (next phase): per circuit.
  std::vector<std::vector<NodeId>> faultySeeds_;
  std::vector<CircuitId> activeCircuits_;
  std::vector<std::uint32_t> circuitStamp_;
  std::uint32_t seedGen_ = 1;

  // Current-phase working queues (swapped in by runPhase).
  std::vector<NodeId> curGoodSeeds_;
  std::vector<CircuitId> curCircuits_;
  std::vector<std::vector<NodeId>> curFaultySeeds_;

  // Pre-phase good values for nodes changed by the good circuit this phase.
  std::vector<State> goodOldValue_;
  std::vector<std::uint32_t> goodOldStamp_;
  // Marks circuits already in curCircuits_ for the current phase.
  std::vector<std::uint32_t> phaseCircuitStamp_;
  std::uint32_t phaseEpoch_ = 1;

  // Per-phase vicinity-solution memo: within one unit-delay phase, faulty
  // circuits triggered on the same region usually present the solver with
  // bit-identical vicinities (same members, charges, edges and input
  // values) — the divergence that triggered them often lies outside the
  // grown region or coincides across circuits. Solutions are therefore
  // cached per phase keyed by full vicinity content; a hit replays the
  // stored solution, which is sound because the solver is a pure function
  // of that content. Only vicinities with member-to-member edges are
  // memoized — edge-free ones take the solver's direct path, which is
  // already cheaper than a memo probe. Flat arenas + a stamped
  // open-addressing index keep the memo allocation-free in steady state.
  struct MemoEntry {
    std::uint64_t hash;
    std::uint32_t membersOff, memberCount;
    std::uint32_t edgesOff, edgeCount;
    std::uint32_t inputsOff, inputCount;
    std::uint32_t solutionOff;
  };
  void memoReset();
  bool memoLookup(std::uint64_t hash, const Vicinity& vic,
                  std::vector<State>& out) const;
  void memoStore(std::uint64_t hash, const Vicinity& vic,
                 const std::vector<State>& solution);
  static std::uint64_t memoHash(const Vicinity& vic);
  /// Solves via the per-phase memo (general entry point for both the good
  /// phase and the faulty circuits).
  void solveMemoized(const Vicinity& vic, std::vector<State>& out);

  std::vector<MemoEntry> memoEntries_;
  std::vector<NodeId> memoMembers_;
  std::vector<State> memoCharges_;
  std::vector<Vicinity::Edge> memoEdges_;
  std::vector<Vicinity::InputEdge> memoInputs_;
  std::vector<State> memoSolutions_;
  std::vector<std::uint32_t> memoSlots_;       // open addressing: entry idx + 1
  std::vector<std::uint32_t> memoSlotStamp_;   // slot valid iff == memoStamp_
  std::uint32_t memoStamp_ = 0;
  std::uint64_t memoHits_ = 0;
  std::uint64_t memoProbes_ = 0;
  std::uint64_t memoReplayedEvals_ = 0;  // member evals answered from the memo

  // Scratch.
  VicinityBuilder vicBuilder_;
  SteadyStateSolver solver_;
  Vicinity vic_;
  std::vector<State> newStates_;
  std::vector<std::pair<NodeId, State>> goodChanges_;
  struct FaultyChange {
    NodeId node;
    State oldValue;
    State newValue;
  };
  std::vector<FaultyChange> faultyChanges_;
  std::vector<std::pair<NodeId, State>> faultyResults_;
  std::vector<CircuitId> triggerScratch_;
  std::vector<std::uint32_t> triggerStamp_;
  std::uint32_t triggerGen_ = 1;
  std::uint64_t debugTriggerCount_ = 0;
  std::vector<CircuitId> dropQueue_;

  // Lane-batching scratch: per-circuit handled stamp for the current phase,
  // plus the leader evaluation's read-matching state. Matching is folded
  // into the reads themselves: the first visit to a node or transistor
  // filters liveCandMask_ (stuck/override lanes out, then matchLanes on the
  // observed value), so once the mask reaches zero every later read costs
  // one branch and the failed group attempt degrades to a near-scalar eval.
  std::vector<std::uint32_t> laneDoneStamp_;
  std::vector<std::uint32_t> readNodeStamp_;
  std::vector<State> readNodeValue_;  ///< first-visit value cache
  std::vector<std::uint32_t> readTransStamp_;
  std::uint32_t readGen_ = 0;
  CircuitId leaderCircuit_ = 0;
  std::uint32_t laneGroup_ = 0;      ///< leader's 32-circuit lane group
  std::uint32_t liveCandMask_ = 0;   ///< candidates still matching all reads
  /// One share-group of a lane window: circuits that entered the phase with
  /// identical event lists. mateMask holds the non-leader members' lanes.
  struct LaneGroup {
    CircuitId leader;
    std::uint32_t mateMask;
  };
  std::vector<LaneGroup> laneGroups_;
  /// Per-phase FNV signature of curFaultySeeds_[c], computed lazily
  /// (seedSignature): the window scan compares one u64 per mate instead of
  /// deep-comparing seed vectors; equal signatures are confirmed by a full
  /// compare, so a collision can never create a false share.
  std::vector<std::uint64_t> seedSig_;
  std::vector<std::uint32_t> seedSigStamp_;
  /// Per-window share backoff. Matching costs real work per read, and a
  /// window whose circuits are busy around their own fault sites
  /// ("near-field" activity) structurally cannot share — every candidate
  /// dies on a stuck overlay or a diverged record. Event activity is
  /// temporally local, so after a window's share attempts produce zero
  /// matches it skips the matching machinery (plain scalar processing —
  /// results are bit-identical either way) for exponentially many phases,
  /// up to 2^kMaxShareBackoff; a successful share decrements the streak,
  /// so windows that share only rarely stay mostly skipped.
  static constexpr std::uint32_t kMaxShareBackoff = 10;
  std::vector<std::uint32_t> windowSkipUntil_;
  std::vector<std::uint8_t> windowFailStreak_;
  /// Windows pre-seeded by the scheduler (FsimOptions::shareHintWindows):
  /// bit per window; hinted windows never enter the backoff — the schedule
  /// already vouches that their members' divergence histories match.
  std::vector<std::uint8_t> windowHinted_;

  std::uint32_t aliveCount_ = 0;
  std::uint32_t maxAliveObserved_ = 0;
  std::uint64_t phases_ = 0;
  std::uint64_t triggeredEvents_ = 0;
  std::uint64_t potentialDetections_ = 0;
  bool ran_ = false;
};

}  // namespace fmossim
