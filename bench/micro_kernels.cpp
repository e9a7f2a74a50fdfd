// Microbenchmarks (google-benchmark) for the engine's hot kernels:
// steady-state solves on representative vicinity shapes, vicinity growth,
// state-list (shadow-pointer) operations, and a whole RAM operation.
#include <benchmark/benchmark.h>

#include "circuits/cells.hpp"
#include "circuits/ram.hpp"
#include "core/state_table.hpp"
#include "patterns/ram_ops.hpp"
#include "switch/builder.hpp"
#include "switch/logic_sim.hpp"
#include "switch/solver.hpp"
#include "switch/vicinity.hpp"
#include "util/strings.hpp"

namespace fmossim {
namespace {

// A chain vicinity of n members, driven at one end: the typical shape of a
// pass-transistor datapath.
Vicinity makeChainVicinity(std::uint32_t n) {
  Vicinity vic;
  for (std::uint32_t i = 0; i < n; ++i) {
    vic.members.push_back(NodeId(i));
    vic.memberSize.push_back(1);
    vic.memberCharge.push_back(i % 2 ? State::S0 : State::S1);
  }
  for (std::uint32_t i = 0; i + 1 < n; ++i) {
    vic.edges.push_back({i, i + 1, 4, true});
  }
  vic.inputEdges.push_back({0, 4, true, State::S1});
  return vic;
}

// A star vicinity: one bus node with n leaves — the bit-line shape.
Vicinity makeStarVicinity(std::uint32_t n) {
  Vicinity vic;
  vic.members.push_back(NodeId(0));  // hub
  vic.memberSize.push_back(2);
  vic.memberCharge.push_back(State::S1);
  for (std::uint32_t i = 1; i <= n; ++i) {
    vic.members.push_back(NodeId(i));
    vic.memberSize.push_back(1);
    vic.memberCharge.push_back(State::SX);
    vic.edges.push_back({0, i, 4, i % 3 != 0});
  }
  vic.inputEdges.push_back({1, 4, true, State::S0});
  return vic;
}

void BM_SolverChain(benchmark::State& state) {
  const SignalDomain domain;
  SteadyStateSolver solver(domain);
  const Vicinity vic = makeChainVicinity(static_cast<std::uint32_t>(state.range(0)));
  std::vector<State> out;
  for (auto _ : state) {
    solver.solve(vic, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * vic.size());
}
BENCHMARK(BM_SolverChain)->Arg(4)->Arg(16)->Arg(64);

void BM_SolverStar(benchmark::State& state) {
  const SignalDomain domain;
  SteadyStateSolver solver(domain);
  const Vicinity vic = makeStarVicinity(static_cast<std::uint32_t>(state.range(0)));
  std::vector<State> out;
  for (auto _ : state) {
    solver.solve(vic, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * vic.size());
}
BENCHMARK(BM_SolverStar)->Arg(8)->Arg(32);

struct PassChainView {
  const Network* net;
  State nodeState(NodeId) const { return State::S1; }
  State conduction(TransId) const { return State::S1; }
  bool isInputNode(NodeId n) const { return net->isInput(n); }
};

void BM_VicinityGrow(benchmark::State& state) {
  NetworkBuilder b;
  NmosCells cells(b);
  const NodeId g = b.addInput("g");
  NodeId prev = b.addInput("d");
  for (int i = 0; i < state.range(0); ++i) {
    const NodeId next = b.addNode(format("n%d", i));
    cells.pass(g, prev, next);
    prev = next;
  }
  const Network net = b.build();
  VicinityBuilder vb(net);
  const PassChainView view{&net};
  Vicinity vic;
  for (auto _ : state) {
    vb.newGeneration();
    vb.grow(view, net.nodeByName("n0"), vic);
    benchmark::DoNotOptimize(vic.members.data());
  }
  state.SetItemsProcessed(state.iterations() * vic.size());
}
BENCHMARK(BM_VicinityGrow)->Arg(8)->Arg(64);

void BM_StateTableScan(benchmark::State& state) {
  // Shadow-pointer style scans: lookup across a node's record list.
  NetworkBuilder b;
  b.addNode("n");
  b.addNode("m");
  const Network net = b.build();
  StateTable table(net);
  const auto records = static_cast<std::uint32_t>(state.range(0));
  for (std::uint32_t c = 1; c <= records; ++c) {
    table.reconcile(NodeId(0), c * 3, State::S1);
  }
  std::uint64_t sum = 0;
  for (auto _ : state) {
    for (std::uint32_t c = 1; c <= records * 3 + 2; ++c) {
      sum += static_cast<std::uint64_t>(table.stateOf(NodeId(0), c));
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * (records * 3 + 2));
}
BENCHMARK(BM_StateTableScan)->Arg(8)->Arg(128);

void BM_RamOperation(benchmark::State& state) {
  const RamCircuit ram = buildRam(ram64Config());
  LogicSimulator sim(ram.net);
  std::uint32_t addr = 0;
  for (auto _ : state) {
    const Pattern p = ramOpPattern(
        ram, RamOp::writeOp(addr % ram.config.words(),
                            addr % 2 ? State::S1 : State::S0));
    for (const InputSetting& s : p.settings) {
      sim.applyAssignments(s.span());
    }
    ++addr;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RamOperation);

}  // namespace
}  // namespace fmossim

BENCHMARK_MAIN();
