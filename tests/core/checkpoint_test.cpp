// Good-machine checkpoint: recording, replay equivalence, snapshots.
//
// The core property: an engine replaying a checkpoint produces a result
// bit-identical — including the deterministic work counter restricted to
// faulty circuits — to a self-simulating engine over the same faults, for
// every field the differential oracle compares.
#include <gtest/gtest.h>

#include "circuits/ram.hpp"
#include "core/checkpoint.hpp"
#include "core/concurrent_sim.hpp"
#include "faults/sampling.hpp"
#include "faults/universe.hpp"
#include "gen/random_circuit.hpp"
#include "patterns/marching.hpp"
#include "util/rng.hpp"

namespace fmossim {
namespace {

struct RamWorkload {
  RamCircuit ram;
  FaultList faults;
  TestSequence seq;
};

RamWorkload smallRamWorkload() {
  RamWorkload w{buildRam(RamConfig{4, 4}), {}, {}};
  FaultList universe = allStorageNodeStuckFaults(w.ram.net);
  Rng rng(7);
  w.faults = sampleFaults(universe, 24, rng);
  w.seq = ramControlTests(w.ram);
  w.seq.append(ramRowMarch(w.ram));
  return w;
}

TEST(CheckpointTest, RecordIsDeterministic) {
  const RamWorkload w = smallRamWorkload();
  FsimOptions opts;
  const GoodMachineCheckpoint a =
      GoodMachineCheckpoint::record(w.ram.net, w.seq, opts);
  const GoodMachineCheckpoint b =
      GoodMachineCheckpoint::record(w.ram.net, w.seq, opts);
  EXPECT_EQ(a.seqFingerprint(), b.seqFingerprint());
  EXPECT_EQ(a.numSettles(), b.numSettles());
  EXPECT_EQ(a.totalGoodEvals(), b.totalGoodEvals());
  EXPECT_EQ(a.finalGoodStates(), b.finalGoodStates());
  EXPECT_EQ(a.perPatternGoodEvals(), b.perPatternGoodEvals());
  EXPECT_EQ(a.memoryBytes() > 0, true);
}

TEST(CheckpointTest, FingerprintDistinguishesSequences) {
  const RamWorkload w = smallRamWorkload();
  const std::uint64_t full = GoodMachineCheckpoint::fingerprint(w.seq);
  TestSequence truncated;
  truncated.setOutputs(w.seq.outputs());
  for (std::uint32_t pi = 0; pi + 1 < w.seq.size(); ++pi) {
    truncated.addPattern(w.seq[pi]);
  }
  EXPECT_NE(full, GoodMachineCheckpoint::fingerprint(truncated));
  EXPECT_EQ(full, GoodMachineCheckpoint::fingerprint(w.seq));
}

TEST(CheckpointTest, SettleCountMatchesSequenceStructure) {
  const RamWorkload w = smallRamWorkload();
  const GoodMachineCheckpoint ck =
      GoodMachineCheckpoint::record(w.ram.net, w.seq, {});
  // One settle per input setting plus the initial all-X evaluation.
  EXPECT_EQ(ck.numSettles(), 1u + w.seq.totalSettings());
  EXPECT_EQ(ck.numPatterns(), w.seq.size());
  // The initial settle must contain activity (the whole network evaluates);
  // an input settle carries the input changes applied before it.
  CheckpointReader reader(ck);
  reader.enterSettle(0);
  EXPECT_GT(reader.phaseCount(), 0u);
  EXPECT_TRUE(reader.inputChanges().empty());
  std::uint32_t inputChanges = 0;
  for (std::uint32_t si = 1; si < ck.numSettles(); ++si) {
    reader.enterSettle(si);
    inputChanges += static_cast<std::uint32_t>(reader.inputChanges().size());
  }
  EXPECT_GT(inputChanges, 0u);
}

// Replay with the full fault list in one engine must reproduce the
// self-simulating engine's result exactly; its own work counter must cover
// exactly the faulty share, with the checkpoint holding the good share.
TEST(CheckpointTest, ReplayMatchesSelfSimulationBitExactly) {
  const RamWorkload w = smallRamWorkload();
  FsimOptions opts;
  opts.policy = DetectionPolicy::AnyDifference;

  ConcurrentFaultSimulator plain(w.ram.net, w.faults, opts);
  const FaultSimResult ref = plain.run(w.seq);

  const GoodMachineCheckpoint ck =
      GoodMachineCheckpoint::record(w.ram.net, w.seq, opts);
  ConcurrentFaultSimulator replaying(w.ram.net, w.faults, opts, nullptr, &ck);
  const FaultSimResult got = replaying.run(w.seq);

  EXPECT_EQ(got.detectedAtPattern, ref.detectedAtPattern);
  EXPECT_EQ(got.numDetected, ref.numDetected);
  EXPECT_EQ(got.potentialDetections, ref.potentialDetections);
  EXPECT_EQ(got.finalGoodStates, ref.finalGoodStates);
  ASSERT_EQ(got.perPattern.size(), ref.perPattern.size());
  ASSERT_EQ(ck.perPatternGoodEvals().size(), ref.perPattern.size());
  for (std::size_t pi = 0; pi < ref.perPattern.size(); ++pi) {
    EXPECT_EQ(got.perPattern[pi].newlyDetected,
              ref.perPattern[pi].newlyDetected)
        << "pattern " << pi;
    EXPECT_EQ(got.perPattern[pi].aliveAfter, ref.perPattern[pi].aliveAfter);
    // Per-row work attribution (the Fig. 1/2 series): the pattern's good
    // evals (checkpoint) + its faulty evals (replay) == self-simulated row.
    EXPECT_EQ(ck.perPatternGoodEvals()[pi] + got.perPattern[pi].nodeEvals,
              ref.perPattern[pi].nodeEvals)
        << "pattern " << pi;
  }
  // good evals (checkpoint) + faulty evals (replay) == self-simulated total.
  EXPECT_EQ(ck.totalGoodEvals() + got.totalNodeEvals, ref.totalNodeEvals);
}

// run(seq) on a replay engine must be handed the recorded sequence: any
// other sequence trips the fingerprint assert instead of replaying a trace
// that does not belong to it.
TEST(CheckpointTest, ReplayRunRejectsADifferentSequence) {
  const RamWorkload w = smallRamWorkload();
  const GoodMachineCheckpoint ck =
      GoodMachineCheckpoint::record(w.ram.net, w.seq, {});
  TestSequence other = w.seq;
  other.addPattern(w.seq[0]);
  ConcurrentFaultSimulator replaying(w.ram.net, w.faults, {}, nullptr, &ck);
  EXPECT_DEATH(replaying.run(other), "different test sequence");
}

// Same equivalence under DefiniteOnly + no-drop (the early-exit path must
// stay disabled and potential detections must still line up).
TEST(CheckpointTest, ReplayMatchesSelfSimulationNoDrop) {
  const RamWorkload w = smallRamWorkload();
  FsimOptions opts;
  opts.policy = DetectionPolicy::DefiniteOnly;
  opts.dropDetected = false;

  ConcurrentFaultSimulator plain(w.ram.net, w.faults, opts);
  const FaultSimResult ref = plain.run(w.seq);
  const GoodMachineCheckpoint ck =
      GoodMachineCheckpoint::record(w.ram.net, w.seq, opts);
  ConcurrentFaultSimulator replaying(w.ram.net, w.faults, opts, nullptr, &ck);
  const FaultSimResult got = replaying.run(w.seq);

  EXPECT_EQ(got.detectedAtPattern, ref.detectedAtPattern);
  EXPECT_EQ(got.potentialDetections, ref.potentialDetections);
  EXPECT_EQ(got.finalGoodStates, ref.finalGoodStates);
  EXPECT_EQ(ck.totalGoodEvals() + got.totalNodeEvals, ref.totalNodeEvals);
}

// A replaying engine whose faults all drop early must still report the
// end-of-sequence good states (supplied by the checkpoint) and zeroed tail
// rows identical to what full simulation would produce.
TEST(CheckpointTest, EarlyExitTailMatchesFullSimulation) {
  const RamWorkload w = smallRamWorkload();
  FsimOptions opts;
  opts.policy = DetectionPolicy::AnyDifference;

  // Find a fault detected early by the reference run.
  ConcurrentFaultSimulator probe(w.ram.net, w.faults, opts);
  const FaultSimResult ref = probe.run(w.seq);
  std::int32_t bestAt = -1;
  std::uint32_t bestIdx = 0;
  for (std::uint32_t i = 0; i < w.faults.size(); ++i) {
    const std::int32_t at = ref.detectedAtPattern[i];
    if (at >= 0 && (bestAt < 0 || at < bestAt)) {
      bestAt = at;
      bestIdx = i;
    }
  }
  ASSERT_GE(bestAt, 0) << "workload must detect at least one fault";
  ASSERT_LT(bestAt + 1, static_cast<std::int32_t>(w.seq.size()))
      << "need patterns after the detection for the early-exit tail";

  FaultList one;
  one.add(w.faults[bestIdx]);
  const GoodMachineCheckpoint ck =
      GoodMachineCheckpoint::record(w.ram.net, w.seq, opts);
  ConcurrentFaultSimulator replaying(w.ram.net, one, opts, nullptr, &ck);
  const FaultSimResult got = replaying.run(w.seq);

  ASSERT_EQ(got.perPattern.size(), w.seq.size());
  EXPECT_EQ(got.detectedAtPattern[0], bestAt);
  EXPECT_EQ(got.finalGoodStates, ref.finalGoodStates);
  for (std::uint32_t pi = static_cast<std::uint32_t>(bestAt) + 1;
       pi < w.seq.size(); ++pi) {
    EXPECT_EQ(got.perPattern[pi].newlyDetected, 0u);
    EXPECT_EQ(got.perPattern[pi].aliveAfter, 0u);
    EXPECT_EQ(got.perPattern[pi].nodeEvals, 0u);
    EXPECT_EQ(got.perPattern[pi].cumulativeDetected, 1u);
  }
}

// The copy-on-write snapshot accessor must agree with the live good state
// of a simulating engine at every pattern boundary.
TEST(CheckpointTest, SnapshotsMatchLiveGoodStates) {
  const RamWorkload w = smallRamWorkload();
  FsimOptions opts;
  const GoodMachineCheckpoint ck =
      GoodMachineCheckpoint::record(w.ram.net, w.seq, opts);

  ConcurrentFaultSimulator sim(w.ram.net, FaultList(), opts);
  for (std::uint32_t pi = 0; pi < w.seq.size(); ++pi) {
    for (const InputSetting& setting : w.seq[pi].settings) {
      sim.applySetting(setting.span());
    }
    const std::vector<State> snap = ck.goodStateAfterPattern(pi);
    ASSERT_EQ(snap.size(), w.ram.net.numNodes());
    for (std::uint32_t n = 0; n < w.ram.net.numNodes(); ++n) {
      ASSERT_EQ(snap[n], sim.goodState(NodeId(n)))
          << "pattern " << pi << " node " << n;
    }
  }
  EXPECT_EQ(ck.goodStateAfterPattern(w.seq.size() - 1), ck.finalGoodStates());
}

// Replay also holds on a generated (non-RAM) workload with mixed fault
// kinds, exercising stuck-input neighbours and transistor overrides.
TEST(CheckpointTest, ReplayMatchesOnGeneratedWorkload) {
  GenOptions gen;
  gen.seed = 99;
  gen.numNodes = 24;
  gen.numInputs = 6;
  gen.numFaults = 40;
  gen.numPatterns = 12;
  const GeneratedWorkload w = generateWorkload(gen);

  FsimOptions opts;
  opts.policy = DetectionPolicy::AnyDifference;
  ConcurrentFaultSimulator plain(w.net, w.faults, opts);
  const FaultSimResult ref = plain.run(w.seq);

  const GoodMachineCheckpoint ck =
      GoodMachineCheckpoint::record(w.net, w.seq, opts);
  ConcurrentFaultSimulator replaying(w.net, w.faults, opts, nullptr, &ck);
  const FaultSimResult got = replaying.run(w.seq);

  EXPECT_EQ(got.detectedAtPattern, ref.detectedAtPattern);
  EXPECT_EQ(got.potentialDetections, ref.potentialDetections);
  EXPECT_EQ(got.finalGoodStates, ref.finalGoodStates);
  EXPECT_EQ(ck.totalGoodEvals() + got.totalNodeEvals, ref.totalNodeEvals);
}

}  // namespace
}  // namespace fmossim
