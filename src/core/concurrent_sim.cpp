#include "core/concurrent_sim.hpp"

#include <algorithm>

#include "core/checkpoint.hpp"
#include "core/row_sink.hpp"
#include "patterns/pattern_source.hpp"

namespace fmossim {

const char* detectionPolicyName(DetectionPolicy policy) {
  return policy == DetectionPolicy::AnyDifference ? "any" : "definite";
}

std::optional<DetectionPolicy> parseDetectionPolicy(const std::string& text) {
  if (text == "definite") return DetectionPolicy::DefiniteOnly;
  if (text == "any") return DetectionPolicy::AnyDifference;
  return std::nullopt;
}

/// CircuitView over the good circuit's flat state.
struct GoodCircuitView {
  const ConcurrentFaultSimulator* s;
  State nodeState(NodeId n) const { return s->table_.good(n); }
  State conduction(TransId t) const { return s->cond0_[t.value]; }
  bool isInputNode(NodeId n) const { return s->net_.isInput(n); }
};

/// CircuitView over one faulty circuit: stuck nodes first, divergence
/// records next, pre-phase good values for nodes the good circuit changed
/// this phase, the live good state last. Conduction is derived from gate
/// states through the same pre-phase lens, except where statically
/// overridden by the circuit's fault.
struct FaultyCircuitView {
  const ConcurrentFaultSimulator* s;
  CircuitId c;
  State nodeState(NodeId n) const { return s->stateIn(n, c); }
  State conduction(TransId t) const { return s->conductionIn(t, c); }
  bool isInputNode(NodeId n) const {
    return s->net_.isInput(n) || s->isStuckNode(n, c);
  }
};

bool ConcurrentFaultSimulator::isStuckNode(NodeId n, CircuitId c) const {
  return findOverride(nodeStuck_[n.value], c) != nullptr;
}

State ConcurrentFaultSimulator::stuckValue(NodeId n, CircuitId c) const {
  const Override* o = findOverride(nodeStuck_[n.value], c);
  FMOSSIM_ASSERT(o != nullptr, "stuckValue on a non-stuck node");
  return o->value;
}

State ConcurrentFaultSimulator::stateIn(NodeId n, CircuitId c) const {
  if (divCount_[n.value] != 0) {
    if (const Override* o = findOverride(nodeStuck_[n.value], c)) {
      return o->value;
    }
    const StateTable::Lookup r = table_.lookup(n, c);
    if (r.diverges) return r.value;
  }
  if (goodOldStamp_[n.value] == phaseEpoch_) return goodOldValue_[n.value];
  return table_.good(n);
}

State ConcurrentFaultSimulator::conductionIn(TransId t, CircuitId c) const {
  if (const Override* o = findOverride(transOverride_[t.value], c)) {
    return o->value;
  }
  const auto& tr = net_.transistor(t);
  if (tr.isFaultDevice()) return *tr.goodConduction;
  return conductionState(tr.type, stateIn(tr.gate, c));
}

ConcurrentFaultSimulator::ConcurrentFaultSimulator(
    const Network& net, const FaultList& faults, FsimOptions options,
    CheckpointRecorder* record, const GoodMachineCheckpoint* replay)
    : ConcurrentFaultSimulator(net, faults, faults.size(), options, record,
                               replay, /*transientMode=*/false,
                               /*resumeAfterPattern=*/0) {}

ConcurrentFaultSimulator::ConcurrentFaultSimulator(
    const Network& net, std::uint32_t numTransientMachines, FsimOptions options,
    const GoodMachineCheckpoint* replay, std::uint64_t resumeAfterPattern)
    : ConcurrentFaultSimulator(net, FaultList{}, numTransientMachines, options,
                               /*record=*/nullptr, replay,
                               /*transientMode=*/true, resumeAfterPattern) {}

ConcurrentFaultSimulator::ConcurrentFaultSimulator(
    const Network& net, const FaultList& faults, std::uint32_t numMachines,
    FsimOptions options, CheckpointRecorder* record,
    const GoodMachineCheckpoint* replay, bool transientMode,
    std::uint64_t resumeAfterPattern)
    : net_(net),
      faults_(faults),
      options_(options),
      numMachines_(numMachines),
      transientMode_(transientMode),
      resumeAfterPattern_(resumeAfterPattern),
      transient_(transientMode ? numMachines : 0),
      record_(record),
      replay_(replay),
      table_(net),
      cond0_(net.numTransistors(), State::SX),
      nodeStuck_(net.numNodes()),
      transOverride_(net.numTransistors()),
      alive_(numMachines + 1, 0),
      detectedAt_(numMachines, -1),
      touched_(numMachines + 1),
      touchedCap_(numMachines + 1, 16),
      watchCount_(net.numNodes(), 0),
      divCount_(net.numNodes(), 0),
      goodSeedStamp_(net.numNodes(), 0),
      faultySeeds_(numMachines + 1),
      circuitStamp_(numMachines + 1, 0),
      curFaultySeeds_(numMachines + 1),
      goodOldValue_(net.numNodes(), State::SX),
      goodOldStamp_(net.numNodes(), 0),
      phaseCircuitStamp_(numMachines + 1, 0),
      vicBuilder_(net),
      solver_(net.domain()),
      triggerStamp_(numMachines + 1, 0) {
  requireUnitLaneWidth("FsimOptions::laneWidth", options_.laneWidth);
  requireNoReadAhead("FsimOptions::checkpointReadAhead",
                     options_.checkpointReadAhead);
  FMOSSIM_ASSERT(record_ == nullptr || replay_ == nullptr,
                 "an engine cannot record and replay a checkpoint at once");
  FMOSSIM_ASSERT(record_ == nullptr || faults_.empty(),
                 "checkpoint recording requires a fault-free engine");
  FMOSSIM_ASSERT(replay_ == nullptr || replay_->numNodes() == net_.numNodes(),
                 "checkpoint was recorded for a different network");
  FMOSSIM_ASSERT(transientMode_ || numMachines_ == faults_.size(),
                 "machine count must match the fault list");
  if (replay_ != nullptr) {
    replayReader_ = std::make_unique<CheckpointReader>(*replay_);
  }
  if (transientMode_ && replay_ != nullptr) {
    // Tail resume: materialize the good machine right after the injection
    // boundary — the entire prefix is skipped, which is sound because a
    // transient machine cannot diverge before its injection.
    FMOSSIM_ASSERT(resumeAfterPattern_ < replay_->numPatterns(),
                   "transient resume instant past the recorded sequence");
    const std::vector<State> good =
        replay_->goodStateAfterPattern(resumeAfterPattern_);
    for (std::uint32_t n = 0; n < net_.numNodes(); ++n) {
      table_.setGood(NodeId(n), good[n]);
    }
  }
  for (std::uint32_t t = 0; t < net_.numTransistors(); ++t) {
    const auto& tr = net_.transistor(TransId(t));
    cond0_[t] = tr.isFaultDevice()
                    ? *tr.goodConduction
                    : conductionState(tr.type, table_.good(tr.gate));
  }
  if (transientMode_ && replay_ != nullptr) {
    // The materialized state is already settled at a pattern boundary; the
    // replay cursor resumes at the following settle.
    replaySettle_ = replay_->settleEndingPattern(resumeAfterPattern_) + 1;
    inject();
    return;
  }
  // Initial good-circuit evaluation of the whole (all-X) network. In replay
  // mode the checkpoint's settle block 0 stands in for it.
  if (replay_ == nullptr) {
    for (std::uint32_t n = 0; n < net_.numNodes(); ++n) {
      scheduleGood(NodeId(n));
    }
  } else {
    replayBeginSettle();
  }
  inject();
  settleAll();
}

ConcurrentFaultSimulator::~ConcurrentFaultSimulator() = default;

void ConcurrentFaultSimulator::inject() {
  if (transientMode_) {
    // Transient machines carry no divergence until their injection instant:
    // they are alive from the start but schedule nothing.
    for (CircuitId c = 1; c <= numMachines_; ++c) alive_[c] = 1;
    aliveCount_ = numMachines_;
    maxAliveObserved_ = aliveCount_;
    return;
  }
  for (std::uint32_t i = 0; i < faults_.size(); ++i) {
    const CircuitId c = i + 1;
    const Fault& f = faults_[i];
    alive_[c] = 1;
    ++aliveCount_;
    switch (f.kind) {
      case FaultKind::NodeStuck: {
        nodeStuck_[f.node.value].push_back({c, f.value});  // ascending c
        addStuckWatch(f.node, +1);
        ++divCount_[f.node.value];
        scheduleFaulty(c, f.node);
        for (const TransId t : net_.node(f.node).gateOf) {
          const auto& tr = net_.transistor(t);
          scheduleFaulty(c, tr.source);
          scheduleFaulty(c, tr.drain);
        }
        break;
      }
      case FaultKind::TransistorStuck:
      case FaultKind::FaultDevice: {
        transOverride_[f.transistor.value].push_back({c, f.value});
        addTransWatch(f.transistor, +1);
        const auto& tr = net_.transistor(f.transistor);
        scheduleFaulty(c, tr.source);
        scheduleFaulty(c, tr.drain);
        break;
      }
    }
  }
  maxAliveObserved_ = aliveCount_;
}

void ConcurrentFaultSimulator::scheduleGood(NodeId n) {
  if (replay_ != nullptr) return;  // the checkpoint drives all good activity
  if (net_.isInput(n)) return;
  if (goodSeedStamp_[n.value] == seedGen_) return;
  goodSeedStamp_[n.value] = seedGen_;
  goodSeeds_.push_back(n);
}

void ConcurrentFaultSimulator::scheduleFaulty(CircuitId c, NodeId n) {
  if (!alive_[c]) return;
  // A plain input node cannot change in circuit c; stuck nodes (input-like
  // per circuit) are allowed as seeds — the vicinity builder expands them.
  if (net_.isInput(n) && !isStuckNode(n, c)) return;
  faultySeeds_[c].push_back(n);
  if (circuitStamp_[c] != seedGen_) {
    circuitStamp_[c] = seedGen_;
    activeCircuits_.push_back(c);
  }
}

SettleResult ConcurrentFaultSimulator::applySetting(
    std::span<const std::pair<NodeId, State>> assignments) {
  FMOSSIM_ASSERT(replay_ == nullptr,
                 "a replay engine takes its input changes from the checkpoint");
  for (const auto& [n, s] : assignments) {
    if (!net_.isInput(n)) {
      throw Error("applySetting: '" + net_.node(n).name + "' is not an input");
    }
    const State old = table_.good(n);
    if (old == s) continue;
    if (record_ != nullptr) record_->inputChange(n, s);
    table_.setGood(n, s);
    scheduleSettingSeeds(n, old);
  }
  return settleAll();
}

void ConcurrentFaultSimulator::scheduleSettingSeeds(NodeId n, State /*oldGood*/) {
  // Good circuit: gated transistors toggle...
  for (const TransId t : net_.node(n).gateOf) {
    const auto& tr = net_.transistor(t);
    if (tr.isFaultDevice()) continue;
    const State nc = conductionState(tr.type, table_.good(n));
    if (nc != cond0_[t.value]) {
      cond0_[t.value] = nc;
      scheduleGood(tr.source);
      scheduleGood(tr.drain);
    }
  }
  // ...and conducting channel neighbours are perturbed.
  for (const TransId t : net_.node(n).channelOf) {
    const auto& tr = net_.transistor(t);
    const NodeId other = tr.otherEnd(n);
    if (cond0_[t.value] != State::S0) {
      scheduleGood(other);
      continue;
    }
    // The transistor is off in the good circuit, so the good phase will not
    // evaluate a vicinity across it — but it may conduct in a faulty
    // circuit (override, or divergent gate state). Schedule those circuits
    // directly, otherwise the input change would never reach them.
    for (const Override& o : transOverride_[t.value]) {
      if (o.value != State::S0) scheduleFaulty(o.circuit, other);
    }
    if (!tr.isFaultDevice()) {
      const NodeId g = tr.gate;
      table_.forEachRecord(g, [&](CircuitId rc, State rv) {
        if (conductionState(tr.type, rv) != State::S0) {
          scheduleFaulty(rc, other);
        }
      });
      for (const Override& o : nodeStuck_[g.value]) {
        if (conductionState(tr.type, o.value) != State::S0) {
          scheduleFaulty(o.circuit, other);
        }
      }
    }
  }
}

SettleResult ConcurrentFaultSimulator::settleAll() {
  if (record_ != nullptr) record_->beginSettle();
  SettleResult res;
  bool coerce = false;
  const std::uint32_t hardLimit =
      options_.sim.settleLimit + 8 * net_.numNodes() + 4096;
  while (!goodSeeds_.empty() || !activeCircuits_.empty() ||
         replayPhasesRemain()) {
    FMOSSIM_ASSERT(res.phases < hardLimit,
                   "concurrent settle failed to terminate under X-coercion");
    if (res.phases >= options_.sim.settleLimit && !coerce) {
      coerce = true;
      res.oscillated = true;
    }
    runPhase(coerce);
    ++res.phases;
    ++phases_;
  }
  ++phaseEpoch_;  // invalidate pre-phase snapshots for external queries
  return res;
}

void ConcurrentFaultSimulator::runPhase(bool coerce) {
  ++phaseEpoch_;
  memoReset();
  curGoodSeeds_.swap(goodSeeds_);
  goodSeeds_.clear();
  curCircuits_.swap(activeCircuits_);
  activeCircuits_.clear();
  for (const CircuitId c : curCircuits_) {
    curFaultySeeds_[c].swap(faultySeeds_[c]);
    faultySeeds_[c].clear();
    phaseCircuitStamp_[c] = phaseEpoch_;
  }
  ++seedGen_;  // scheduling from here on targets the next phase

  if (record_ != nullptr) record_->beginPhase();
  if (replay_ != nullptr) {
    replayGoodPhase();
  } else {
    processGoodPhase(coerce);
  }

  // The paper simulates "the activities for each faulty circuit in turn";
  // circuits are independent within a phase, so queue order is fine.
  for (const CircuitId c : curCircuits_) {
    if (alive_[c]) processFaultyCircuit(c, coerce);
    curFaultySeeds_[c].clear();
  }
  curCircuits_.clear();
  curGoodSeeds_.clear();
}

void ConcurrentFaultSimulator::processGoodPhase(bool coerce) {
  goodChanges_.clear();
  vicBuilder_.newGeneration();
  const GoodCircuitView view{this};
  for (const NodeId seed : curGoodSeeds_) {
    if (!vicBuilder_.grow(view, seed, vic_)) continue;
    solveMemoized(vic_, newStates_);
    for (std::size_t i = 0; i < vic_.size(); ++i) {
      if (newStates_[i] != vic_.memberCharge[i]) {
        goodChanges_.emplace_back(vic_.members[i], newStates_[i]);
      }
    }
    // Triggering is stimulus-based: even an unchanged vicinity may respond
    // differently in a diverging faulty circuit.
    collectTriggers(vic_.members);
    if (record_ != nullptr) record_->goodVicinity(vic_);
  }
  // Commit (two-buffered: all vicinities were solved against pre-phase state).
  for (auto [n, v] : goodChanges_) {
    if (coerce) v = State::SX;
    const State old = table_.good(n);
    if (old == v) continue;
    if (record_ != nullptr) record_->goodCommit(n, v);
    if (goodOldStamp_[n.value] != phaseEpoch_) {
      goodOldStamp_[n.value] = phaseEpoch_;
      goodOldValue_[n.value] = old;
    }
    table_.setGood(n, v);
    for (const TransId t : net_.node(n).gateOf) {
      const auto& tr = net_.transistor(t);
      if (tr.isFaultDevice()) continue;
      const State nc = conductionState(tr.type, v);
      if (nc != cond0_[t.value]) {
        cond0_[t.value] = nc;
        scheduleGood(tr.source);
        scheduleGood(tr.drain);
      }
    }
  }
}

void ConcurrentFaultSimulator::collectTriggers(
    std::span<const NodeId> members) {
  if (aliveCount_ == 0) return;  // nothing left to trigger
  ++triggerGen_;
  triggerScratch_.clear();
  const auto mark = [this](CircuitId c) {
    if (!alive_[c]) return;
    if (triggerStamp_[c] == triggerGen_) return;
    triggerStamp_[c] = triggerGen_;
    triggerScratch_.push_back(c);
  };
  for (const NodeId n : members) {
    // No divergence source lands on this member: nothing below can mark.
    if (watchCount_[n.value] == 0) continue;
    table_.forEachRecord(n, [&](CircuitId rc, State) { mark(rc); });
    for (const Override& o : nodeStuck_[n.value]) mark(o.circuit);
    for (const TransId t : net_.node(n).channelOf) {
      for (const Override& o : transOverride_[t.value]) mark(o.circuit);
      const auto& tr = net_.transistor(t);
      if (!tr.isFaultDevice()) {
        const NodeId g = tr.gate;
        table_.forEachRecord(g, [&](CircuitId rc, State) { mark(rc); });
        for (const Override& o : nodeStuck_[g.value]) mark(o.circuit);
      }
      // A stuck *input* neighbour diverges in its circuit without ever
      // carrying a state record; it influences this vicinity directly.
      const NodeId other = tr.otherEnd(n);
      if (net_.isInput(other)) {
        for (const Override& o : nodeStuck_[other.value]) mark(o.circuit);
      }
    }
  }
  if (triggerScratch_.empty()) return;
  for (const CircuitId c : triggerScratch_) {
    if (options_.debugLoseTriggerEvery != 0 &&
        ++debugTriggerCount_ % options_.debugLoseTriggerEvery == 0) {
      continue;  // deliberately lost trigger (oracle self-test; see FsimOptions)
    }
    if (phaseCircuitStamp_[c] != phaseEpoch_) {
      phaseCircuitStamp_[c] = phaseEpoch_;
      curCircuits_.push_back(c);
    }
    auto& seeds = curFaultySeeds_[c];
    seeds.insert(seeds.end(), members.begin(), members.end());
    triggeredEvents_ += members.size();
  }
}

// --- checkpoint replay (see checkpoint.hpp) --------------------------------

bool ConcurrentFaultSimulator::replayPhasesRemain() const {
  if (replay_ == nullptr) return false;
  return replayPhase_ < replayReader_->phaseCount();
}

void ConcurrentFaultSimulator::replayBeginSettle() {
  FMOSSIM_ASSERT(replaySettle_ < replay_->numSettles(),
                 "replay ran more settles than the checkpoint recorded");
  // The cursor pins the settle's trace block — for a spilled checkpoint
  // this is the point where the sliding window advances.
  replayReader_->enterSettle(replaySettle_);
  ++replaySettle_;
  replayPhase_ = 0;
}

void ConcurrentFaultSimulator::replayGoodPhase() {
  if (replayPhase_ >= replayReader_->phaseCount()) {
    return;  // good machine already quiet
  }
  const std::uint32_t ph = replayPhase_++;
  // Trigger stimuli first, in recorded evaluation order: faulty-circuit seed
  // order (and therefore vicinity growth order) must match a
  // self-simulating engine's exactly.
  if (aliveCount_ != 0) {
    for (const auto& vs : replayReader_->vicinities(ph)) {
      collectTriggers(replayReader_->members(vs));
    }
  }
  // Then the commits. Recorded changes are post-coercion and always differ
  // from the node's pre-phase value, so they apply verbatim; conduction
  // states are pure functions of the gate state and are recomputed rather
  // than stored. No good events are scheduled — the next recorded phase
  // already embodies them.
  for (const auto& ch : replayReader_->changes(ph)) {
    const NodeId n = ch.node;
    if (goodOldStamp_[n.value] != phaseEpoch_) {
      goodOldStamp_[n.value] = phaseEpoch_;
      goodOldValue_[n.value] = table_.good(n);
    }
    table_.setGood(n, ch.value);
    for (const TransId t : net_.node(n).gateOf) {
      const auto& tr = net_.transistor(t);
      if (tr.isFaultDevice()) continue;
      cond0_[t.value] = conductionState(tr.type, ch.value);
    }
  }
}


void ConcurrentFaultSimulator::processFaultyCircuit(CircuitId c, bool coerce) {
  const FaultyCircuitView view{this, c};
  vicBuilder_.newGeneration();
  faultyResults_.clear();
  faultyChanges_.clear();
  for (const NodeId seed : curFaultySeeds_[c]) {
    if (!vicBuilder_.grow(view, seed, vic_)) continue;
    solveMemoized(vic_, newStates_);
    for (std::size_t i = 0; i < vic_.size(); ++i) {
      const NodeId n = vic_.members[i];
      const State pre = vic_.memberCharge[i];
      State next = newStates_[i];
      if (coerce && next != pre) next = State::SX;
      faultyResults_.emplace_back(n, next);
      if (next != pre) faultyChanges_.push_back({n, pre, next});
    }
  }
  // Commit this circuit's records (vs. the good circuit's *current* state).
  for (const auto& [n, v] : faultyResults_) {
    const StateTable::Reconciled rec = table_.reconcile(n, c, v);
    if (rec.inserted) {
      touchedInsert(c, n);
      addRecordWatch(n, +1);
      ++divCount_[n.value];
    } else if (rec.erased) {
      addRecordWatch(n, -1);
      --divCount_[n.value];
    }
  }
  // Gate toggles within circuit c schedule next-phase events for c.
  for (const FaultyChange& ch : faultyChanges_) {
    for (const TransId t : net_.node(ch.node).gateOf) {
      const auto& tr = net_.transistor(t);
      if (tr.isFaultDevice()) continue;
      if (findOverride(transOverride_[t.value], c) != nullptr) continue;
      if (conductionState(tr.type, ch.oldValue) !=
          conductionState(tr.type, ch.newValue)) {
        scheduleFaulty(c, tr.source);
        scheduleFaulty(c, tr.drain);
      }
    }
  }
}

std::uint32_t ConcurrentFaultSimulator::observe(
    const std::vector<NodeId>& outputs, std::uint32_t patternIndex) {
  dropQueue_.clear();
  std::uint32_t newly = 0;
  for (const NodeId out : outputs) {
    const State g = table_.good(out);
    const auto consider = [&](CircuitId c, State s) {
      if (!alive_[c]) return;
      if (detectedAt_[c - 1] >= 0) return;  // already detected (no-drop mode)
      if (s == g) return;
      if (options_.policy == DetectionPolicy::DefiniteOnly &&
          (!isDefinite(g) || !isDefinite(s))) {
        ++potentialDetections_;
        return;
      }
      detectedAt_[c - 1] = static_cast<std::int32_t>(patternIndex);
      ++newly;
      dropQueue_.push_back(c);
    };
    for (const Override& o : nodeStuck_[out.value]) consider(o.circuit, o.value);
    table_.forEachRecord(out, [&](CircuitId rc, State rv) { consider(rc, rv); });
  }
  if (options_.dropDetected) {
    for (const CircuitId c : dropQueue_) dropCircuit(c);
  }
  return newly;
}

void ConcurrentFaultSimulator::touchedInsert(CircuitId c, NodeId n) {
  touched_[c].push_back(n);
  if (touched_[c].size() >= touchedCap_[c]) compactTouched(c);
}

void ConcurrentFaultSimulator::compactTouched(CircuitId c) {
  auto& v = touched_[c];
  std::sort(v.begin(), v.end(),
            [](NodeId a, NodeId b) { return a.value < b.value; });
  v.erase(std::unique(v.begin(), v.end()), v.end());
  std::erase_if(v, [&](NodeId n) { return !table_.hasRecord(n, c); });
  touchedCap_[c] =
      std::max<std::uint32_t>(16, 2 * static_cast<std::uint32_t>(v.size()));
}

void ConcurrentFaultSimulator::dropCircuit(CircuitId c) {
  if (!alive_[c]) return;
  alive_[c] = 0;
  --aliveCount_;
  for (const NodeId n : touched_[c]) {
    // touched_ may hold duplicates (re-divergence after convergence); only a
    // real erase decrements the watch counts.
    if (table_.erase(n, c)) {
      addRecordWatch(n, -1);
      --divCount_[n.value];
    }
  }
  touched_[c].clear();
  touched_[c].shrink_to_fit();
  faultySeeds_[c].clear();
  removeOverlay(c);
}

void ConcurrentFaultSimulator::removeOverlay(CircuitId c) {
  // A dropped circuit's static overlays would otherwise be scanned by every
  // future trigger collection and faulty-view lookup; removing them is what
  // makes the paper's falling per-pattern cost curve steep. The fault tells
  // us exactly where the overlays live.
  if (transientMode_) {
    // The only overlay a transient machine can hold is its active pulse.
    TransientMachine& m = transient_[c - 1];
    if (m.pulseActive) {
      m.pulseActive = false;
      auto& v = nodeStuck_[m.node.value];
      for (auto it = v.begin(); it != v.end(); ++it) {
        if (it->circuit == c) {
          v.erase(it);
          break;
        }
      }
      addStuckWatch(m.node, -1);
      --divCount_[m.node.value];
    }
    return;
  }
  const Fault& f = faults_[c - 1];
  const auto removeFrom = [c](std::vector<Override>& v) {
    for (auto it = v.begin(); it != v.end(); ++it) {
      if (it->circuit == c) {
        v.erase(it);
        return;
      }
    }
  };
  switch (f.kind) {
    case FaultKind::NodeStuck:
      removeFrom(nodeStuck_[f.node.value]);
      addStuckWatch(f.node, -1);
      --divCount_[f.node.value];
      break;
    case FaultKind::TransistorStuck:
    case FaultKind::FaultDevice:
      removeFrom(transOverride_[f.transistor.value]);
      addTransWatch(f.transistor, -1);
      break;
  }
}

// The three watch helpers mirror collectTriggers' member scan: each counts,
// at every node the scan could mark from, one unit per divergence source.

void ConcurrentFaultSimulator::addRecordWatch(NodeId m, std::int32_t delta) {
  watchCount_[m.value] += static_cast<std::uint32_t>(delta);  // member scan
  for (const TransId t : net_.node(m).gateOf) {               // gate scan
    const auto& tr = net_.transistor(t);
    if (tr.isFaultDevice()) continue;
    watchCount_[tr.source.value] += static_cast<std::uint32_t>(delta);
    watchCount_[tr.drain.value] += static_cast<std::uint32_t>(delta);
  }
}

void ConcurrentFaultSimulator::addStuckWatch(NodeId n, std::int32_t delta) {
  // A stuck overlay influences the same member/gate scans as a record...
  addRecordWatch(n, delta);
  if (net_.isInput(n)) {  // ...plus the stuck-input-neighbour scan
    for (const TransId t : net_.node(n).channelOf) {
      watchCount_[net_.transistor(t).otherEnd(n).value] +=
          static_cast<std::uint32_t>(delta);
    }
  }
}

void ConcurrentFaultSimulator::addTransWatch(TransId t, std::int32_t delta) {
  const auto& tr = net_.transistor(t);  // channel-override scan
  watchCount_[tr.source.value] += static_cast<std::uint32_t>(delta);
  watchCount_[tr.drain.value] += static_cast<std::uint32_t>(delta);
}

// --- per-phase vicinity-solution memo (see header for the rationale) -------

namespace {

inline void hashMix(std::uint64_t& h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
}

}  // namespace

std::uint64_t ConcurrentFaultSimulator::memoHash(const Vicinity& vic) {
  std::uint64_t h = vic.members.size();
  for (std::size_t i = 0; i < vic.members.size(); ++i) {
    hashMix(h, (std::uint64_t(vic.members[i].value) << 2) |
                   std::uint64_t(vic.memberCharge[i]));
  }
  for (const Vicinity::Edge& e : vic.edges) {
    hashMix(h, (std::uint64_t(e.a) << 32) | (std::uint64_t(e.b) << 10) |
                   (std::uint64_t(e.strength) << 1) | std::uint64_t(e.definite));
  }
  for (const Vicinity::InputEdge& ie : vic.inputEdges) {
    hashMix(h, (std::uint64_t(ie.member) << 32) |
                   (std::uint64_t(ie.strength) << 4) |
                   (std::uint64_t(ie.value) << 1) | std::uint64_t(ie.definite));
  }
  return h;
}

void ConcurrentFaultSimulator::memoReset() {
  memoEntries_.clear();
  memoMembers_.clear();
  memoCharges_.clear();
  memoEdges_.clear();
  memoInputs_.clear();
  memoSolutions_.clear();
  ++memoStamp_;
  if (memoSlots_.empty()) {
    memoSlots_.assign(1024, 0);
    memoSlotStamp_.assign(1024, 0);
  }
}

bool ConcurrentFaultSimulator::memoLookup(std::uint64_t hash,
                                          const Vicinity& vic,
                                          std::vector<State>& out) const {
  const std::size_t mask = memoSlots_.size() - 1;
  for (std::size_t i = hash & mask; memoSlotStamp_[i] == memoStamp_;
       i = (i + 1) & mask) {
    const MemoEntry& e = memoEntries_[memoSlots_[i] - 1];
    if (e.hash != hash || e.memberCount != vic.members.size() ||
        e.edgeCount != vic.edges.size() ||
        e.inputCount != vic.inputEdges.size()) {
      continue;
    }
    bool equal = true;
    for (std::uint32_t k = 0; equal && k < e.memberCount; ++k) {
      equal = memoMembers_[e.membersOff + k].value == vic.members[k].value &&
              memoCharges_[e.membersOff + k] == vic.memberCharge[k];
    }
    for (std::uint32_t k = 0; equal && k < e.edgeCount; ++k) {
      equal = memoEdges_[e.edgesOff + k] == vic.edges[k];
    }
    for (std::uint32_t k = 0; equal && k < e.inputCount; ++k) {
      equal = memoInputs_[e.inputsOff + k] == vic.inputEdges[k];
    }
    if (equal) {
      out.assign(memoSolutions_.begin() + e.solutionOff,
                 memoSolutions_.begin() + e.solutionOff + e.memberCount);
      return true;
    }
  }
  return false;
}

void ConcurrentFaultSimulator::memoStore(std::uint64_t hash,
                                         const Vicinity& vic,
                                         const std::vector<State>& solution) {
  MemoEntry e;
  e.hash = hash;
  e.membersOff = static_cast<std::uint32_t>(memoMembers_.size());
  e.memberCount = static_cast<std::uint32_t>(vic.members.size());
  e.edgesOff = static_cast<std::uint32_t>(memoEdges_.size());
  e.edgeCount = static_cast<std::uint32_t>(vic.edges.size());
  e.inputsOff = static_cast<std::uint32_t>(memoInputs_.size());
  e.inputCount = static_cast<std::uint32_t>(vic.inputEdges.size());
  e.solutionOff = static_cast<std::uint32_t>(memoSolutions_.size());
  memoMembers_.insert(memoMembers_.end(), vic.members.begin(),
                      vic.members.end());
  memoCharges_.insert(memoCharges_.end(), vic.memberCharge.begin(),
                      vic.memberCharge.end());
  memoEdges_.insert(memoEdges_.end(), vic.edges.begin(), vic.edges.end());
  memoInputs_.insert(memoInputs_.end(), vic.inputEdges.begin(),
                     vic.inputEdges.end());
  memoSolutions_.insert(memoSolutions_.end(), solution.begin(),
                        solution.begin() + vic.members.size());
  memoEntries_.push_back(e);

  // Keep the open-addressing table at most half full; rebuild (rare) keeps
  // probes short even in the injection phases where every circuit is active.
  if (memoEntries_.size() * 2 > memoSlots_.size()) {
    const std::size_t newSize = memoSlots_.size() * 2;
    memoSlots_.assign(newSize, 0);
    memoSlotStamp_.assign(newSize, 0);
    const std::size_t mask = newSize - 1;
    for (std::uint32_t idx = 0; idx < memoEntries_.size(); ++idx) {
      std::size_t i = memoEntries_[idx].hash & mask;
      while (memoSlotStamp_[i] == memoStamp_) i = (i + 1) & mask;
      memoSlotStamp_[i] = memoStamp_;
      memoSlots_[i] = idx + 1;
    }
    return;
  }
  const std::size_t mask = memoSlots_.size() - 1;
  std::size_t i = hash & mask;
  while (memoSlotStamp_[i] == memoStamp_) i = (i + 1) & mask;
  memoSlotStamp_[i] = memoStamp_;
  memoSlots_[i] =
      static_cast<std::uint32_t>(memoEntries_.size());  // last entry, 1-based
}

void ConcurrentFaultSimulator::solveMemoized(const Vicinity& vic,
                                             std::vector<State>& out) {
  // Edge-free vicinities take the solver's direct path: it is already
  // cheaper than a memo probe would be.
  if (vic.edges.empty()) {
    solver_.solve(vic, out);
    return;
  }
  const std::uint64_t h = memoHash(vic);
  ++memoProbes_;
  if (memoLookup(h, vic, out)) {
    ++memoHits_;
    memoReplayedEvals_ += vic.members.size();
    return;
  }
  solver_.solve(vic, out);
  memoStore(h, vic, out);
}

State ConcurrentFaultSimulator::faultyState(NodeId n, CircuitId c) const {
  FMOSSIM_ASSERT(c >= 1 && c <= numMachines_, "faultyState: bad circuit id");
  return stateIn(n, c);
}

// --- the pattern loop --------------------------------------------------------

bool ConcurrentFaultSimulator::advancePattern(PatternSource* source,
                                              Pattern& scratch) {
  if (replay_ == nullptr) {
    if (!source->next(scratch)) return false;
    for (const InputSetting& setting : scratch.settings) {
      applySetting(setting.span());
    }
    return true;
  }
  // Trace-driven: each recorded settle is entered, its input changes are
  // applied exactly as applySetting would have, and it is settled, up to the
  // settle the recording engine observed outputs after.
  while (replaySettle_ < replay_->numSettles()) {
    const std::uint32_t si = replaySettle_;
    replayBeginSettle();
    for (const auto& ch : replayReader_->inputChanges()) {
      const State old = table_.good(ch.node);
      table_.setGood(ch.node, ch.value);
      scheduleSettingSeeds(ch.node, old);
    }
    settleAll();
    if (replay_->patternEndsAtSettle(si)) return true;
  }
  return false;
}

void ConcurrentFaultSimulator::perturbAt(std::uint64_t pattern) {
  bool perturbed = false;
  for (std::uint32_t i = 0; i < numMachines_; ++i) {
    TransientMachine& m = transient_[i];
    const CircuitId c = i + 1;
    if (!m.injected && m.atPattern == pattern) {
      m.injected = true;
      if (alive_[c]) {
        injectTransientFlip(c);
        perturbed = true;
      }
    } else if (m.pulseActive && alive_[c] &&
               pattern == m.atPattern + m.pulsePatterns) {
      releaseTransientPulse(c);
      perturbed = true;
    }
  }
  // The good machine is quiet between patterns and the current replay
  // settle's phases are already consumed, so this settle runs faulty
  // activity only and never moves the replay cursor.
  if (perturbed) settleAll();
}

FaultSimResult ConcurrentFaultSimulator::patternLoop(
    PatternSource* source, RowSink* sink,
    const std::function<void(const PatternStat&)>& onPattern) {
  FMOSSIM_ASSERT(!ran_, "ConcurrentFaultSimulator::run may only be called once");
  ran_ = true;
  FMOSSIM_ASSERT((source == nullptr) == (replay_ != nullptr),
                 "a pattern source drives exactly the self-simulating engines");
  const std::vector<NodeId>& outputs =
      replay_ != nullptr ? replay_->outputs() : source->outputs();
  const bool emitRows = sink != nullptr || static_cast<bool>(onPattern);
  const auto emit = [&](const PatternStat& st) {
    if (sink != nullptr) sink->row(st);
    if (onPattern) onPattern(st);
  };

  Timer total;
  const std::uint64_t evalsAtStart = nodeEvals();
  // A checkpoint-resumed transient engine starts at its resume boundary:
  // the injection group perturbs there, before the first simulated pattern.
  const bool resumed = transientMode_ && replay_ != nullptr;
  if (resumed) perturbAt(resumeAfterPattern_);

  std::uint32_t cumulative = 0;
  bool earlyExit = false;
  std::uint64_t pi = resumed ? resumeAfterPattern_ + 1 : 0;
  Pattern scratch;
  for (;; ++pi) {
    Timer patternTimer;
    const std::uint64_t evalsBefore = nodeEvals();
    if (!advancePattern(source, scratch)) break;
    const std::uint32_t newly =
        observe(outputs, static_cast<std::uint32_t>(pi));
    if (record_ != nullptr) record_->endPattern();
    if (transientMode_) perturbAt(pi);
    cumulative += newly;

    if (emitRows) {
      PatternStat st;
      st.index = static_cast<std::uint32_t>(pi);
      st.seconds = patternTimer.seconds();
      st.nodeEvals = nodeEvals() - evalsBefore;
      st.newlyDetected = newly;
      st.cumulativeDetected = cumulative;
      st.aliveAfter = aliveCount_;
      emit(st);
    }

    // Replay early exit: with every faulty circuit detected and dropped, the
    // remaining patterns would be pure good-machine replay. Their rows are
    // fully determined (no detections, no live circuits, no faulty solver
    // work) and the checkpoint supplies the end-of-sequence good states, so
    // the tail is synthesized instead of simulated — the lever that lets a
    // fault batch cost only as many patterns as its hardest fault needs.
    if (replay_ != nullptr && options_.dropDetected && aliveCount_ == 0 &&
        pi + 1 < replay_->numPatterns()) {
      if (emitRows) {
        for (std::uint64_t rest = pi + 1; rest < replay_->numPatterns();
             ++rest) {
          PatternStat tail;
          tail.index = static_cast<std::uint32_t>(rest);
          tail.cumulativeDetected = cumulative;
          emit(tail);
        }
      }
      earlyExit = true;
      break;
    }
  }

  FaultSimResult res;
  res.numFaults = numMachines_;
  res.numPatterns = replay_ != nullptr ? replay_->numPatterns() : pi;
  res.droppedDetected = options_.dropDetected;
  res.detectedAtPattern = detectedAt_;
  res.numDetected = cumulative;
  res.maxAlive = maxAliveObserved_;
  if (earlyExit) {
    res.finalGoodStates = replay_->finalGoodStates();
  } else {
    res.finalGoodStates.reserve(net_.numNodes());
    for (std::uint32_t n = 0; n < net_.numNodes(); ++n) {
      res.finalGoodStates.push_back(table_.good(NodeId(n)));
    }
  }
  res.finalRecords = table_.totalRecords();
  res.potentialDetections = potentialDetections_;
  res.totalSeconds = total.seconds();
  // One engine, one thread: aggregate engine time is the wall clock.
  res.totalCpuSeconds = res.totalSeconds;
  res.totalNodeEvals = nodeEvals() - evalsAtStart;
  return res;
}

FaultSimResult ConcurrentFaultSimulator::run(const TestSequence& seq) {
  return run(seq, nullptr);
}

FaultSimResult ConcurrentFaultSimulator::run(
    const TestSequence& seq,
    const std::function<void(const PatternStat&)>& onPattern) {
  FMOSSIM_ASSERT(!transientMode_,
                 "transient-mode engines run via runTransient/runTransientTail");
  if (replay_ != nullptr) {
    FMOSSIM_ASSERT(
        replay_->seqFingerprint() == GoodMachineCheckpoint::fingerprint(seq),
        "checkpoint was recorded for a different test sequence");
  }
  std::vector<PatternStat> rows;
  rows.reserve(seq.size());
  MaterializingRowSink sink(rows);
  MaterializedPatternSource source(seq);
  FaultSimResult res =
      patternLoop(replay_ == nullptr ? &source : nullptr, &sink, onPattern);
  res.perPattern = std::move(rows);
  return res;
}

FaultSimResult ConcurrentFaultSimulator::run(
    PatternSource& source, RowSink* sink,
    const std::function<void(const PatternStat&)>& onPattern) {
  FMOSSIM_ASSERT(replay_ == nullptr,
                 "streaming run does not take a replay checkpoint "
                 "(runReplay drives the sequence from the trace itself)");
  FMOSSIM_ASSERT(!transientMode_,
                 "transient-mode engines run via runTransient/runTransientTail");
  return patternLoop(&source, sink, onPattern);
}

FaultSimResult ConcurrentFaultSimulator::runReplay(
    RowSink* sink, const std::function<void(const PatternStat&)>& onPattern) {
  FMOSSIM_ASSERT(replay_ != nullptr,
                 "runReplay requires a replay-mode engine (checkpoint given)");
  FMOSSIM_ASSERT(!transientMode_,
                 "transient-mode engines run via runTransient/runTransientTail");
  return patternLoop(nullptr, sink, onPattern);
}

// --- transient (SEU) runs (see header and faults/transient.hpp) ------------

void ConcurrentFaultSimulator::loadTransientSpecs(
    std::span<const TransientFault> specs, std::uint64_t numPatterns) {
  if (specs.size() != numMachines_) {
    throw Error(
        "transient run: spec count does not match the engine's machine count");
  }
  for (std::uint32_t i = 0; i < numMachines_; ++i) {
    const TransientFault& f = specs[i];
    if (!f.node.valid() || f.node.value >= net_.numNodes()) {
      throw Error("transient fault references an unknown node");
    }
    if (net_.isInput(f.node)) {
      throw Error("transient fault on input node '" + net_.node(f.node).name +
                  "'");
    }
    if (f.atPattern >= numPatterns) {
      throw Error("transient fault '" + f.name +
                  "' injects past the end of the sequence");
    }
    TransientMachine& m = transient_[i];
    m.node = f.node;
    m.atPattern = f.atPattern;
    m.pulsePatterns = f.pulsePatterns;
  }
}

void ConcurrentFaultSimulator::scheduleTransientSite(CircuitId c, NodeId n) {
  // Exactly a node-stuck injection's event seeds: the node's own vicinity
  // must re-settle under the perturbed charge, and every transistor it
  // gates may now conduct differently in circuit c.
  scheduleFaulty(c, n);
  for (const TransId t : net_.node(n).gateOf) {
    const auto& tr = net_.transistor(t);
    scheduleFaulty(c, tr.source);
    scheduleFaulty(c, tr.drain);
  }
}

void ConcurrentFaultSimulator::injectTransientFlip(CircuitId c) {
  TransientMachine& m = transient_[c - 1];
  m.injected = true;
  const State good = table_.good(m.node);
  const State flipped = good == State::S0   ? State::S1
                        : good == State::S1 ? State::S0
                                            : State::SX;
  if (m.pulsePatterns == 0) {
    // Instantaneous flip: a plain divergence record (flipping an X is a
    // ternary no-op — the machine trivially stays silent).
    if (flipped == good) return;
    const StateTable::Reconciled rec = table_.reconcile(m.node, c, flipped);
    if (rec.inserted) {
      touchedInsert(c, m.node);
      addRecordWatch(m.node, +1);
      ++divCount_[m.node.value];
    }
    scheduleTransientSite(c, m.node);
    return;
  }
  // Pulse: hold the node at the flipped value (a temporary stuck-at — the
  // node becomes input-like in circuit c until release). Held even when
  // flipped == good == X: the good circuit may move on while the struck
  // node stays pinned.
  m.pulseActive = true;
  m.forcedValue = flipped;
  auto& v = nodeStuck_[m.node.value];
  const auto it = std::lower_bound(
      v.begin(), v.end(), c,
      [](const Override& o, CircuitId cc) { return o.circuit < cc; });
  v.insert(it, Override{c, flipped});
  addStuckWatch(m.node, +1);
  ++divCount_[m.node.value];
  scheduleTransientSite(c, m.node);
}

void ConcurrentFaultSimulator::releaseTransientPulse(CircuitId c) {
  TransientMachine& m = transient_[c - 1];
  FMOSSIM_ASSERT(m.pulseActive, "releaseTransientPulse without active pulse");
  m.pulseActive = false;
  auto& v = nodeStuck_[m.node.value];
  for (auto it = v.begin(); it != v.end(); ++it) {
    if (it->circuit == c) {
      v.erase(it);
      break;
    }
  }
  addStuckWatch(m.node, -1);
  --divCount_[m.node.value];
  // The held value stays behind as charge. A stuck node never carries a
  // record in its own circuit (it is input-like there), so reconciliation
  // inserts at most.
  if (m.forcedValue != table_.good(m.node)) {
    const StateTable::Reconciled rec =
        table_.reconcile(m.node, c, m.forcedValue);
    if (rec.inserted) {
      touchedInsert(c, m.node);
      addRecordWatch(m.node, +1);
      ++divCount_[m.node.value];
    }
  }
  scheduleTransientSite(c, m.node);
}

bool ConcurrentFaultSimulator::hasDivergence(CircuitId c) const {
  FMOSSIM_ASSERT(transientMode_, "hasDivergence is a transient-mode query");
  FMOSSIM_ASSERT(c >= 1 && c <= numMachines_, "hasDivergence: bad circuit id");
  const TransientMachine& m = transient_[c - 1];
  if (m.pulseActive && m.forcedValue != table_.good(m.node)) return true;
  for (const NodeId n : touched_[c]) {
    const StateTable::Lookup r = table_.lookup(n, c);
    if (r.diverges && r.value != table_.good(n)) return true;
  }
  return false;
}

FaultSimResult ConcurrentFaultSimulator::runTransient(
    const TestSequence& seq, std::span<const TransientFault> specs) {
  FMOSSIM_ASSERT(transientMode_ && replay_ == nullptr,
                 "runTransient is the naive (self-simulating) transient run");
  loadTransientSpecs(specs, seq.size());
  MaterializedPatternSource source(seq);
  return patternLoop(&source, nullptr, {});
}

FaultSimResult ConcurrentFaultSimulator::runTransientTail(
    std::span<const TransientFault> specs) {
  FMOSSIM_ASSERT(transientMode_ && replay_ != nullptr,
                 "runTransientTail requires a checkpoint-resumed engine");
  loadTransientSpecs(specs, replay_->numPatterns());
  for (const TransientFault& f : specs) {
    if (f.atPattern != resumeAfterPattern_) {
      throw Error("runTransientTail: injection '" + f.name +
                  "' is not at the engine's resume instant");
    }
  }
  return patternLoop(nullptr, nullptr, {});
}

}  // namespace fmossim
