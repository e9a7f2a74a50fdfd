// ConcurrentFaultSimulator: hand-verifiable scenarios on small circuits —
// divergence records, detection, dropping, stuck inputs, fault devices.
#include "core/concurrent_sim.hpp"

#include <gtest/gtest.h>

#include "circuits/cells.hpp"
#include "faults/universe.hpp"
#include "switch/builder.hpp"

namespace fmossim {
namespace {

// in -> INV -> mid -> INV -> out, all nMOS.
struct InvChain {
  NodeId in, mid, out, vdd, gnd;
  Network net;  // must be last: buildNet assigns the ids above

  InvChain() : net(buildNet(*this)) {}

  static Network buildNet(InvChain& f) {
    NetworkBuilder b;
    NmosCells cells(b);
    f.in = b.addInput("in");
    f.mid = cells.inverter(f.in, "mid");
    f.out = cells.inverter(f.mid, "out");
    Network net = b.build();
    f.vdd = net.nodeByName("Vdd");
    f.gnd = net.nodeByName("Gnd");
    return net;
  }

  InputSetting rails() const {
    InputSetting s;
    s.set(vdd, State::S1);
    s.set(gnd, State::S0);
    return s;
  }
  Pattern drivePattern(State v) const {
    Pattern p;
    InputSetting s = rails();
    s.set(in, v);
    p.settings.push_back(std::move(s));
    return p;
  }
};

TEST(ConcurrentBasicTest, NoFaultsMatchesLogicSimulator) {
  InvChain f;
  ConcurrentFaultSimulator sim(f.net, FaultList{});
  InputSetting s = f.rails();
  s.set(f.in, State::S0);
  sim.applySetting(s.span());
  EXPECT_EQ(sim.goodState(f.mid), State::S1);
  EXPECT_EQ(sim.goodState(f.out), State::S0);
  EXPECT_EQ(sim.recordCount(), 0u);
}

// Word-lane fault sharing was removed: the retained option accepts only 1
// and fails closed on anything else instead of being silently ignored.
TEST(ConcurrentBasicTest, LaneWidthMustBeOne) {
  InvChain f;
  FaultList faults;
  faults.add(Fault::nodeStuckAt(f.net, f.mid, State::S0));
  for (const std::uint32_t width : {0u, 2u, 32u}) {
    FsimOptions opts;
    opts.laneWidth = width;
    EXPECT_THROW(ConcurrentFaultSimulator(f.net, faults, opts), Error)
        << width;
  }
  EXPECT_NO_THROW(ConcurrentFaultSimulator(f.net, faults, FsimOptions{}));
}

// Checkpoint read-ahead was removed: the retained switch accepts only false
// and fails closed with an error naming the field.
TEST(ConcurrentBasicTest, CheckpointReadAheadMustBeFalse) {
  InvChain f;
  FaultList faults;
  faults.add(Fault::nodeStuckAt(f.net, f.mid, State::S0));
  FsimOptions opts;
  opts.checkpointReadAhead = true;
  try {
    ConcurrentFaultSimulator sim(f.net, faults, opts);
    ADD_FAILURE() << "no error for checkpointReadAhead = true";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("FsimOptions::checkpointReadAhead"),
              std::string::npos)
        << e.what();
  }
}

TEST(ConcurrentBasicTest, StuckNodeCreatesDivergenceDownstream) {
  InvChain f;
  FaultList faults;
  faults.add(Fault::nodeStuckAt(f.net, f.mid, State::S0));  // circuit 1
  ConcurrentFaultSimulator sim(f.net, faults);
  InputSetting s = f.rails();
  s.set(f.in, State::S0);
  sim.applySetting(s.span());
  // Good: mid=1, out=0. Faulty: mid stuck 0 -> out=1.
  EXPECT_EQ(sim.goodState(f.mid), State::S1);
  EXPECT_EQ(sim.goodState(f.out), State::S0);
  EXPECT_EQ(sim.faultyState(f.mid, 1), State::S0);
  EXPECT_EQ(sim.faultyState(f.out, 1), State::S1);
  EXPECT_GE(sim.recordCount(), 1u);  // divergence on out (mid is via stuck)
}

TEST(ConcurrentBasicTest, DivergenceDisappearsWhenFaultInvisible) {
  InvChain f;
  FaultList faults;
  faults.add(Fault::nodeStuckAt(f.net, f.mid, State::S0));
  ConcurrentFaultSimulator sim(f.net, faults);
  InputSetting s = f.rails();
  s.set(f.in, State::S1);  // good mid = 0 == stuck value
  sim.applySetting(s.span());
  EXPECT_EQ(sim.faultyState(f.out, 1), sim.goodState(f.out));
  EXPECT_EQ(sim.recordCount(), 0u) << "no records when circuits agree";
}

TEST(ConcurrentBasicTest, ObservationDetectsAndDrops) {
  InvChain f;
  FaultList faults;
  faults.add(Fault::nodeStuckAt(f.net, f.mid, State::S0));  // detectable at in=0
  faults.add(Fault::nodeStuckAt(f.net, f.out, State::S0));  // invisible at in=0
  ConcurrentFaultSimulator sim(f.net, faults);
  InputSetting s = f.rails();
  s.set(f.in, State::S0);
  sim.applySetting(s.span());
  EXPECT_EQ(sim.aliveCount(), 2u);
  const std::uint32_t newly = sim.observe({f.out}, 7);
  EXPECT_EQ(newly, 1u);
  EXPECT_FALSE(sim.alive(1));
  EXPECT_TRUE(sim.alive(2));
  EXPECT_EQ(sim.detectedAtPattern(0), 7);
  EXPECT_EQ(sim.detectedAtPattern(1), -1);
  EXPECT_EQ(sim.aliveCount(), 1u);
}

TEST(ConcurrentBasicTest, DroppedCircuitRecordsAreErased) {
  InvChain f;
  FaultList faults;
  faults.add(Fault::nodeStuckAt(f.net, f.mid, State::S0));
  ConcurrentFaultSimulator sim(f.net, faults);
  InputSetting s = f.rails();
  s.set(f.in, State::S0);
  sim.applySetting(s.span());
  EXPECT_GE(sim.recordCount(), 1u);
  sim.observe({f.out}, 0);
  EXPECT_EQ(sim.recordCount(), 0u);
  // After dropping, faultyState falls back to... the stuck table still
  // exists but the circuit is dead; callers check alive() first.
  EXPECT_FALSE(sim.alive(1));
}

TEST(ConcurrentBasicTest, StuckInputIgnoresStimulus) {
  InvChain f;
  FaultList faults;
  faults.add(Fault::nodeStuckAt(f.net, f.in, State::S0));  // frozen input
  ConcurrentFaultSimulator sim(f.net, faults);
  InputSetting s = f.rails();
  s.set(f.in, State::S1);
  sim.applySetting(s.span());
  EXPECT_EQ(sim.goodState(f.out), State::S1);
  EXPECT_EQ(sim.faultyState(f.in, 1), State::S0);
  EXPECT_EQ(sim.faultyState(f.mid, 1), State::S1);
  EXPECT_EQ(sim.faultyState(f.out, 1), State::S0);
}

TEST(ConcurrentBasicTest, TransistorStuckFaults) {
  // Pass transistor: in -pass(g)-> out.
  NetworkBuilder b;
  NmosCells cells(b);
  const NodeId d = b.addInput("d");
  const NodeId g = b.addInput("g");
  const NodeId out = b.addNode("out");
  const TransId t = cells.pass(g, d, out);
  const Network net = b.build();
  const NodeId vdd = net.nodeByName("Vdd");
  const NodeId gnd = net.nodeByName("Gnd");

  FaultList faults;
  faults.add(Fault::transistorStuckOpen(net, t));    // circuit 1
  faults.add(Fault::transistorStuckClosed(net, t));  // circuit 2
  ConcurrentFaultSimulator sim(net, faults);

  InputSetting s;
  s.set(vdd, State::S1);
  s.set(gnd, State::S0);
  s.set(g, State::S1);
  s.set(d, State::S1);
  sim.applySetting(s.span());
  EXPECT_EQ(sim.goodState(out), State::S1);
  EXPECT_EQ(sim.faultyState(out, 1), State::SX) << "stuck-open: never driven";
  EXPECT_EQ(sim.faultyState(out, 2), State::S1);

  InputSetting s2;
  s2.set(g, State::S0);
  s2.set(d, State::S0);
  sim.applySetting(s2.span());
  EXPECT_EQ(sim.goodState(out), State::S1) << "good holds charge";
  EXPECT_EQ(sim.faultyState(out, 2), State::S0) << "stuck-closed follows d";
}

TEST(ConcurrentBasicTest, ShortFaultDeviceActivation) {
  NetworkBuilder b;
  CmosCells cells(b);
  const NodeId i1 = b.addInput("i1");
  const NodeId i2 = b.addInput("i2");
  const NodeId n1 = cells.inverter(i1, "n1");
  const NodeId n2 = cells.inverter(i2, "n2");
  const TransId ft = b.addShortFaultDevice(n1, n2);
  const Network net = b.build();

  FaultList faults;
  faults.add(Fault::faultDeviceActive(net, ft));
  ConcurrentFaultSimulator sim(net, faults);

  InputSetting s;
  s.set(net.nodeByName("Vdd"), State::S1);
  s.set(net.nodeByName("Gnd"), State::S0);
  s.set(i1, State::S0);
  s.set(i2, State::S1);
  sim.applySetting(s.span());
  EXPECT_EQ(sim.goodState(n1), State::S1);
  EXPECT_EQ(sim.goodState(n2), State::S0);
  EXPECT_EQ(sim.faultyState(n1, 1), State::SX);
  EXPECT_EQ(sim.faultyState(n2, 1), State::SX);

  // Remove the disagreement: both inverters output 1, the short is benign.
  InputSetting s2;
  s2.set(i2, State::S0);
  sim.applySetting(s2.span());
  EXPECT_EQ(sim.faultyState(n1, 1), State::S1);
  EXPECT_EQ(sim.faultyState(n2, 1), State::S1);
  EXPECT_EQ(sim.recordCount(), 0u);
}

TEST(ConcurrentBasicTest, XMismatchIsPotentialUnderDefiniteOnlyPolicy) {
  // Pass transistor stuck-open: the faulty output floats at X while the good
  // circuit drives 1. A tester cannot distinguish X, so DefiniteOnly counts
  // a potential detection and keeps simulating.
  NetworkBuilder b;
  NmosCells cells(b);
  const NodeId d = b.addInput("d");
  const NodeId g = b.addInput("g");
  const NodeId out = b.addNode("out");
  const TransId t = cells.pass(g, d, out);
  const Network net = b.build();

  FaultList faults;
  faults.add(Fault::transistorStuckOpen(net, t));

  for (const DetectionPolicy policy :
       {DetectionPolicy::DefiniteOnly, DetectionPolicy::AnyDifference}) {
    FsimOptions opts;
    opts.policy = policy;
    ConcurrentFaultSimulator sim(net, faults, opts);
    InputSetting s;
    s.set(net.nodeByName("Vdd"), State::S1);
    s.set(net.nodeByName("Gnd"), State::S0);
    s.set(g, State::S1);
    s.set(d, State::S1);
    sim.applySetting(s.span());
    EXPECT_EQ(sim.goodState(out), State::S1);
    EXPECT_EQ(sim.faultyState(out, 1), State::SX);
    const std::uint32_t newly = sim.observe({out}, 0);
    if (policy == DetectionPolicy::DefiniteOnly) {
      EXPECT_EQ(newly, 0u);
      EXPECT_TRUE(sim.alive(1));
      EXPECT_GE(sim.potentialDetections(), 1u);
    } else {
      EXPECT_EQ(newly, 1u);
      EXPECT_FALSE(sim.alive(1));
    }
  }
}

TEST(ConcurrentBasicTest, StuckOpenPulldownPullsHigh) {
  InvChain f;
  FaultList faults;
  // Stuck-open the pull-down of the first inverter: with in=1 the faulty mid
  // floats (holds X from initialization).
  TransId pulldown;
  for (const TransId t : f.net.allTransistors()) {
    const auto& tr = f.net.transistor(t);
    if (tr.type == TransistorType::NType && tr.gate == f.in) pulldown = t;
  }
  ASSERT_TRUE(pulldown.valid());
  faults.add(Fault::transistorStuckOpen(f.net, pulldown));
  ConcurrentFaultSimulator sim(f.net, faults);
  InputSetting s = f.rails();
  s.set(f.in, State::S1);
  sim.applySetting(s.span());
  EXPECT_EQ(sim.goodState(f.mid), State::S0);
  EXPECT_EQ(sim.faultyState(f.mid, 1), State::S1) << "load pulls the floating node high";
  // Faulty out = 0, good out = 1: definite difference -> real detection.
  const std::uint32_t newly = sim.observe({f.out}, 0);
  EXPECT_EQ(newly, 1u);
}

TEST(ConcurrentBasicTest, NoDropModeKeepsSimulating) {
  InvChain f;
  FaultList faults;
  faults.add(Fault::nodeStuckAt(f.net, f.mid, State::S0));
  FsimOptions opts;
  opts.dropDetected = false;
  ConcurrentFaultSimulator sim(f.net, faults, opts);
  InputSetting s = f.rails();
  s.set(f.in, State::S0);
  sim.applySetting(s.span());
  EXPECT_EQ(sim.observe({f.out}, 3), 1u);
  EXPECT_TRUE(sim.alive(1)) << "circuit keeps simulating in no-drop mode";
  EXPECT_EQ(sim.detectedAtPattern(0), 3);
  // A later observation must not double-count.
  EXPECT_EQ(sim.observe({f.out}, 4), 0u);
}

TEST(ConcurrentBasicTest, RunProducesPerPatternStats) {
  InvChain f;
  FaultList faults;
  faults.add(Fault::nodeStuckAt(f.net, f.mid, State::S0));
  faults.add(Fault::nodeStuckAt(f.net, f.mid, State::S1));
  ConcurrentFaultSimulator sim(f.net, faults);

  TestSequence seq;
  seq.addOutput(f.out);
  seq.addPattern(f.drivePattern(State::S0));
  seq.addPattern(f.drivePattern(State::S1));
  const FaultSimResult res = sim.run(seq);

  ASSERT_EQ(res.perPattern.size(), 2u);
  EXPECT_EQ(res.numFaults, 2u);
  EXPECT_EQ(res.numDetected, 2u);  // SA0 seen at in=0, SA1 at in=1
  EXPECT_EQ(res.detectedAtPattern[0], 0);
  EXPECT_EQ(res.detectedAtPattern[1], 1);
  EXPECT_EQ(res.perPattern[0].cumulativeDetected, 1u);
  EXPECT_EQ(res.perPattern[1].cumulativeDetected, 2u);
  EXPECT_DOUBLE_EQ(res.coverage(), 1.0);
  EXPECT_GT(res.totalNodeEvals, 0u);
}

}  // namespace
}  // namespace fmossim
