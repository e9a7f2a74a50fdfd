// Non-classical fault injection (paper §3): shorts and opens modeled with
// fault transistors, and transistor stuck-open faults that turn static logic
// into dynamic memory.
//
// The circuit is a precharged pass-transistor bus — the structure where
// these faults matter most (and what the RAM bit lines are).
#include <cstdio>

#include "circuits/demo_circuits.hpp"
#include "api/engine.hpp"
#include "faults/universe.hpp"
#include "switch/logic_sim.hpp"

using namespace fmossim;

namespace {

void banner(const char* s) { std::printf("\n--- %s ---\n", s); }

void showBus(LogicSimulator& sim, const PrechargedBus& bus, const char* when) {
  std::printf("  %-28s busA=%c busB=%c sense=%c\n", when,
              stateChar(sim.state(bus.busA)), stateChar(sim.state(bus.busB)),
              stateChar(sim.state(bus.sense)));
}

void initBus(LogicSimulator& sim, const PrechargedBus& bus) {
  sim.setInput(bus.vdd, State::S1);
  sim.setInput(bus.gnd, State::S0);
  sim.setInput(bus.phiP, State::S0);
  for (unsigned i = 0; i < bus.sources; ++i) {
    sim.setInput(bus.enable[i], State::S0);
    sim.setInput(bus.data[i], State::S0);
  }
  sim.settle();
}

void precharge(LogicSimulator& sim, const PrechargedBus& bus) {
  sim.setInput(bus.phiP, State::S1);
  sim.settle();
  sim.setInput(bus.phiP, State::S0);
  sim.settle();
}

}  // namespace

int main() {
  const PrechargedBus bus = buildPrechargedBus(4);
  std::printf("precharged bus: %u transistors (%u fault devices), %u nodes\n",
              bus.net.numTransistors(), bus.net.numFaultDevices(),
              bus.net.numNodes());

  banner("good circuit");
  {
    LogicSimulator sim(bus.net);
    initBus(sim, bus);
    precharge(sim, bus);
    showBus(sim, bus, "after precharge");
    sim.setInput(bus.enable[3], State::S1);
    sim.setInput(bus.data[3], State::S1);
    sim.settle();
    showBus(sim, bus, "source 3 discharges");
  }

  banner("open-circuit fault: the bus wire breaks in the middle");
  {
    LogicSimulator sim(bus.net);
    // The wire was built as two halves joined by an open fault device
    // (conducting in the good circuit). Breaking it = forcing it off.
    sim.forceTransistor(bus.openDevice, State::S0);
    initBus(sim, bus);
    precharge(sim, bus);
    showBus(sim, bus, "after precharge");
    sim.setInput(bus.enable[0], State::S1);  // source on the A half
    sim.setInput(bus.data[0], State::S1);
    sim.settle();
    showBus(sim, bus, "source 0 discharges only A");
  }

  banner("short-circuit fault: bus shorted to the en0 control line");
  {
    LogicSimulator sim(bus.net);
    sim.forceTransistor(bus.shortDevice, State::S1);
    initBus(sim, bus);
    precharge(sim, bus);
    showBus(sim, bus, "precharge loses to the short");
  }

  banner("stuck-open pull-down: charge trapped on the bus");
  {
    // Stuck-open the enable transistor of source 3: the bus can no longer
    // be discharged by that source and keeps its precharged 1 — dynamic
    // sequential behaviour from a single dead transistor.
    TransId enableT;
    for (const TransId t : bus.net.functionalTransistors()) {
      if (bus.net.transistor(t).gate == bus.enable[3]) enableT = t;
    }
    LogicSimulator sim(bus.net);
    sim.forceTransistor(enableT, State::S0);
    initBus(sim, bus);
    precharge(sim, bus);
    sim.setInput(bus.enable[3], State::S1);
    sim.setInput(bus.data[3], State::S1);
    sim.settle();
    showBus(sim, bus, "source 3 tries to discharge");
  }

  banner("the same faults, concurrently");
  {
    FaultList faults;
    faults.add(Fault::faultDeviceActive(bus.net, bus.openDevice));
    faults.add(Fault::faultDeviceActive(bus.net, bus.shortDevice));
    faults.append(allTransistorStuckFaults(bus.net));
    std::printf("  %u faults in one concurrent run\n", faults.size());

    TestSequence seq;
    seq.addOutput(bus.sense);
    for (unsigned src = 0; src < bus.sources; ++src) {
      Pattern p;
      InputSetting s0;
      s0.set(bus.vdd, State::S1);
      s0.set(bus.gnd, State::S0);
      for (unsigned i = 0; i < bus.sources; ++i) {
        s0.set(bus.enable[i], State::S0);
        s0.set(bus.data[i], State::S0);
      }
      s0.set(bus.phiP, State::S1);
      InputSetting s1;
      s1.set(bus.phiP, State::S0);
      InputSetting s2;
      s2.set(bus.enable[src], State::S1);
      s2.set(bus.data[src], State::S1);
      p.settings = {s0, s1, s2};
      p.label = "drive src " + std::to_string(src);
      seq.addPattern(std::move(p));
    }
    Engine engine(bus.net, faults);  // default backend: concurrent
    const FaultSimResult res = engine.run(seq);
    std::printf("  coverage %.1f%% (%u/%u) after %u patterns, %llu potential\n",
                100.0 * res.coverage(), res.numDetected, res.numFaults,
                seq.size(), (unsigned long long)res.potentialDetections);
  }
  return 0;
}
