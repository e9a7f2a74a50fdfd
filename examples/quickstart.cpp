// Quickstart: build a small switch-level circuit, simulate it, inject
// faults, and run a concurrent fault simulation.
//
//   $ ./build/examples/quickstart
//
// The circuit is a 2-input CMOS multiplexer built from a transmission-gate
// pair plus an output buffer — exactly the kind of pass-transistor structure
// gate-level fault simulators cannot model faithfully.
#include <cstdio>

#include "api/engine.hpp"
#include "circuits/cells.hpp"
#include "faults/universe.hpp"
#include "switch/builder.hpp"
#include "switch/logic_sim.hpp"

using namespace fmossim;

int main() {
  // 1. Describe the circuit, transistor by transistor (or via the cell
  //    library). Nodes are charge-storing; transistors are bidirectional
  //    switches.
  NetworkBuilder b;
  CmosCells cells(b);
  const NodeId a = b.addInput("a");
  const NodeId bIn = b.addInput("b");
  const NodeId sel = b.addInput("sel");
  const NodeId selBar = cells.inverter(sel, "selBar");
  const NodeId mid = b.addNode("mid");
  cells.transmissionGate(sel, selBar, a, mid);     // sel=1 passes a
  cells.transmissionGate(selBar, sel, bIn, mid);   // sel=0 passes b
  const NodeId out = cells.buffer(mid, "out");
  const Network net = b.build();
  std::printf("circuit: %u transistors, %u nodes\n", net.numTransistors(),
              net.numNodes());

  // 2. Logic-simulate the good circuit (MOSSIM II style).
  LogicSimulator sim(net);
  sim.setInput(net.nodeByName("Vdd"), State::S1);
  sim.setInput(net.nodeByName("Gnd"), State::S0);
  sim.setInput(a, State::S1);
  sim.setInput(bIn, State::S0);
  sim.setInput(sel, State::S1);
  sim.settle();
  std::printf("mux(sel=1): out=%c (expect 1)\n", stateChar(sim.state(out)));
  sim.setInput(sel, State::S0);
  sim.settle();
  std::printf("mux(sel=0): out=%c (expect 0)\n", stateChar(sim.state(out)));

  // 3. Build a fault universe: every storage node stuck-at-0/1 plus every
  //    transistor stuck-open/closed.
  FaultList faults = allStorageNodeStuckFaults(net);
  faults.append(allTransistorStuckFaults(net));
  std::printf("fault universe: %u faults\n", faults.size());

  // 4. Define a test sequence. Each pattern is a batch of input settings;
  //    the output node is observed after each pattern.
  TestSequence seq;
  seq.addOutput(out);
  const State vecs[][3] = {
      // a, b, sel
      {State::S1, State::S0, State::S1},
      {State::S0, State::S1, State::S1},
      {State::S1, State::S0, State::S0},
      {State::S0, State::S1, State::S0},
      {State::S1, State::S1, State::S0},
      {State::S0, State::S0, State::S1},
  };
  for (const auto& v : vecs) {
    Pattern p;
    InputSetting s;
    s.set(net.nodeByName("Vdd"), State::S1);
    s.set(net.nodeByName("Gnd"), State::S0);
    s.set(a, v[0]);
    s.set(bIn, v[1]);
    s.set(sel, v[2]);
    p.settings.push_back(std::move(s));
    seq.addPattern(std::move(p));
  }

  // 5. Run a fault simulation through the Engine facade. The backend is
  //    selectable (Backend::Serial replays each fault individually;
  //    Backend::Concurrent simulates all faults by difference; jobs > 1
  //    shards the concurrent run across threads) and runs are repeatable.
  EngineOptions opts;
  opts.backend = Backend::Concurrent;
  Engine engine(net, faults, opts);
  const FaultSimResult res = engine.run(seq);
  std::printf("\n%-10s %-10s %s\n", "pattern", "detected", "cumulative");
  for (const PatternStat& st : res.perPattern) {
    std::printf("%-10u %-10u %u\n", st.index, st.newlyDetected,
                st.cumulativeDetected);
  }
  std::printf("\ncoverage: %u / %u faults (%.1f%%), %llu potential (X) detections\n",
              res.numDetected, res.numFaults, 100.0 * res.coverage(),
              (unsigned long long)res.potentialDetections);

  // 6. Which faults escaped? Undetected faults direct the test engineer to
  //    the circuit regions that need more patterns (paper §6).
  std::printf("\nundetected faults:\n");
  for (std::uint32_t i = 0; i < faults.size(); ++i) {
    if (res.detectedAtPattern[i] < 0) {
      std::printf("  %s\n", faults[i].name.c_str());
    }
  }
  return 0;
}
