#include "switch/logic_sim.hpp"

namespace fmossim {

/// CircuitView over a LogicSimulator's current state.
struct LogicSimView {
  const LogicSimulator* sim;

  State nodeState(NodeId n) const { return sim->states_[n.value]; }
  State conduction(TransId t) const { return sim->cond_[t.value]; }
  bool isInputNode(NodeId n) const {
    return sim->net_.isInput(n) || sim->forcedNode_[n.value] != LogicSimulator::kNoForce;
  }
};

LogicSimulator::LogicSimulator(const Network& net, SimOptions options)
    : net_(net),
      options_(options),
      states_(net.numNodes(), State::SX),
      cond_(net.numTransistors(), State::SX),
      forcedNode_(net.numNodes(), kNoForce),
      forcedTrans_(net.numTransistors(), kNoForce),
      seedStamp_(net.numNodes(), 0),
      vicBuilder_(net),
      solver_(net.domain()) {
  for (std::uint32_t t = 0; t < net_.numTransistors(); ++t) {
    cond_[t] = condOf(TransId(t));
  }
  scheduleAllStorage();
}

State LogicSimulator::condOf(TransId t) const {
  if (forcedTrans_[t.value] != kNoForce) {
    return static_cast<State>(forcedTrans_[t.value]);
  }
  const auto& tr = net_.transistor(t);
  if (tr.isFaultDevice()) return *tr.goodConduction;
  return conductionState(tr.type, states_[tr.gate.value]);
}

void LogicSimulator::seedStorage(NodeId n) {
  if (net_.isInput(n) || forcedNode_[n.value] != kNoForce) return;
  if (seedStamp_[n.value] == seedGen_) return;
  seedStamp_[n.value] = seedGen_;
  pendingSeeds_.push_back(n);
}

void LogicSimulator::seedChannelNeighbours(NodeId n) {
  for (const TransId t : net_.node(n).channelOf) {
    if (cond_[t.value] == State::S0) continue;
    seedStorage(net_.transistor(t).otherEnd(n));
  }
}

void LogicSimulator::updateGatedTransistors(NodeId n) {
  for (const TransId t : net_.node(n).gateOf) {
    const State nc = condOf(t);
    if (nc == cond_[t.value]) continue;
    cond_[t.value] = nc;
    ++counters_.transistorToggles;
    const auto& tr = net_.transistor(t);
    seedStorage(tr.source);
    seedStorage(tr.drain);
  }
}

void LogicSimulator::scheduleAllStorage() {
  for (std::uint32_t i = 0; i < net_.numNodes(); ++i) {
    seedStorage(NodeId(i));
  }
}

void LogicSimulator::setInput(NodeId n, State s) {
  if (!net_.isInput(n)) {
    throw Error("setInput: '" + net_.node(n).name + "' is not an input node");
  }
  if (forcedNode_[n.value] != kNoForce) return;  // stuck input: fault wins
  if (states_[n.value] == s) return;
  states_[n.value] = s;
  updateGatedTransistors(n);
  seedChannelNeighbours(n);
}

void LogicSimulator::forceNode(NodeId n, State s) {
  forcedNode_[n.value] = static_cast<std::uint8_t>(s);
  if (states_[n.value] != s) {
    states_[n.value] = s;
    updateGatedTransistors(n);
  }
  // Even without a state change the node is now an omega-strength source, so
  // its channel neighbourhood must be re-evaluated.
  seedChannelNeighbours(n);
}

void LogicSimulator::forceTransistor(TransId t, State conduction) {
  forcedTrans_[t.value] = static_cast<std::uint8_t>(conduction);
  const auto& tr = net_.transistor(t);
  if (cond_[t.value] != conduction) {
    cond_[t.value] = conduction;
    ++counters_.transistorToggles;
  }
  seedStorage(tr.source);
  seedStorage(tr.drain);
  // The terminals may be input nodes; their storage neighbours across the
  // (possibly now conducting) device still need re-evaluation.
  if (net_.isInput(tr.source) || forcedNode_[tr.source.value] != kNoForce) {
    seedChannelNeighbours(tr.source);
  }
  if (net_.isInput(tr.drain) || forcedNode_[tr.drain.value] != kNoForce) {
    seedChannelNeighbours(tr.drain);
  }
}

void LogicSimulator::clearForces() {
  for (std::uint32_t n = 0; n < net_.numNodes(); ++n) {
    forcedNode_[n] = kNoForce;
  }
  for (std::uint32_t t = 0; t < net_.numTransistors(); ++t) {
    forcedTrans_[t] = kNoForce;
    const State nc = condOf(TransId(t));
    if (nc != cond_[t]) {
      cond_[t] = nc;
      ++counters_.transistorToggles;
    }
  }
  scheduleAllStorage();
}

void LogicSimulator::resetState() {
  for (std::uint32_t n = 0; n < net_.numNodes(); ++n) {
    states_[n] = forcedNode_[n] != kNoForce ? static_cast<State>(forcedNode_[n])
                                            : State::SX;
  }
  for (std::uint32_t t = 0; t < net_.numTransistors(); ++t) {
    cond_[t] = condOf(TransId(t));
  }
  pendingSeeds_.clear();
  ++seedGen_;
  scheduleAllStorage();
}

SettleResult LogicSimulator::applyAssignments(
    std::span<const std::pair<NodeId, State>> assignments) {
  for (const auto& [node, value] : assignments) {
    setInput(node, value);
  }
  return settle();
}

SettleResult LogicSimulator::settle() {
  SettleResult result;
  ++counters_.settles;
  const LogicSimView view{this};
  bool coerce = false;
  // Once coercion starts, every change goes to X; since X is absorbing each
  // node can change at most once more, bounding the loop.
  const std::uint32_t hardLimit =
      options_.settleLimit + net_.numNodes() + 16;

  while (!pendingSeeds_.empty()) {
    FMOSSIM_ASSERT(result.phases < hardLimit,
                   "settle failed to terminate under X-coercion");
    if (result.phases >= options_.settleLimit && !coerce) {
      coerce = true;
      result.oscillated = true;
      ++counters_.oscillations;
    }

    takenSeeds_.swap(pendingSeeds_);
    pendingSeeds_.clear();
    ++seedGen_;  // seeds scheduled from here on belong to the next phase
    vicBuilder_.newGeneration();
    pendingChanges_.clear();

    for (const NodeId seed : takenSeeds_) {
      const bool grown = options_.staticPartitions
                             ? vicBuilder_.growStatic(view, seed, vic_)
                             : vicBuilder_.grow(view, seed, vic_);
      if (!grown) continue;
      // Single-machine solve: the good machine is the shared background
      // every faulty circuit diverges from.
      solver_.solve(vic_, newStates_);
      for (std::size_t i = 0; i < vic_.size(); ++i) {
        if (newStates_[i] != vic_.memberCharge[i]) {
          pendingChanges_.emplace_back(vic_.members[i], newStates_[i]);
        }
      }
    }
    takenSeeds_.clear();

    for (auto [node, value] : pendingChanges_) {
      if (coerce) value = State::SX;
      if (states_[node.value] == value) continue;
      states_[node.value] = value;
      updateGatedTransistors(node);
    }
    ++result.phases;
  }

  counters_.phases += result.phases;
  counters_.solves = solver_.solves();
  counters_.nodeEvals = solver_.nodeEvals();
  return result;
}

}  // namespace fmossim
