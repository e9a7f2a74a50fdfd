// Differential oracle: clean engines agree on random workloads; an
// intentionally injected concurrent-engine bug (lost trigger events, the
// classic missed-divergence-propagation failure mode) is caught and shrunk
// to a minimized seed reproducer that still diverges when replayed.
#include "gen/diff_oracle.hpp"

#include <gtest/gtest.h>

#include "circuits/demo_circuits.hpp"
#include "faults/universe.hpp"

namespace fmossim {
namespace {

/// Small bounded smoke corpus — every future optimization PR inherits it.
constexpr std::uint64_t kSmokeSeeds[] = {1, 2, 3, 4, 5, 6, 7, 8};

TEST(DiffOracleTest, CleanEnginesAgreeOnRandomWorkloads) {
  for (const std::uint64_t seed : kSmokeSeeds) {
    const GeneratedWorkload w = generateWorkload(GenOptions::randomized(seed));
    SCOPED_TRACE(describeWorkload(w));
    for (const DetectionPolicy policy :
         {DetectionPolicy::DefiniteOnly, DetectionPolicy::AnyDifference}) {
      OracleOptions opts;
      opts.policy = policy;
      opts.dropDetected = (seed % 2) == 0;
      DiffOracle oracle(opts);
      const OracleReport rep = oracle.check(w);
      EXPECT_TRUE(rep.ok) << rep.summary();
      EXPECT_EQ(rep.checkRuns, 1u);
    }
  }
}

TEST(DiffOracleTest, HandBuiltCircuitPassesTheOracle) {
  const ShiftRegister sr = buildShiftRegister(2);
  FaultList faults = allStorageNodeStuckFaults(sr.net);
  faults.append(allTransistorStuckFaults(sr.net));

  TestSequence seq;
  seq.addOutput(sr.out());
  const char bits[] = "1101001";
  for (const char* bit = bits; *bit; ++bit) {
    Pattern p;
    InputSetting s0;
    s0.set(sr.vdd, State::S1);
    s0.set(sr.gnd, State::S0);
    s0.set(sr.din, *bit == '1' ? State::S1 : State::S0);
    s0.set(sr.phi1, State::S1);
    s0.set(sr.phi2, State::S0);
    InputSetting s1;
    s1.set(sr.phi1, State::S0);
    s1.set(sr.phi2, State::S1);
    p.settings = {s0, s1};
    seq.addPattern(std::move(p));
  }

  DiffOracle oracle;
  const OracleReport rep = oracle.check(sr.net, faults, seq, /*seed=*/0);
  EXPECT_TRUE(rep.ok) << rep.summary();
  EXPECT_TRUE(rep.dropDetected);
  EXPECT_GT(rep.referenceDetected, 0u);
}

TEST(DiffOracleTest, InjectedConcurrentBugIsCaughtAndMinimized) {
  // Mutation test: lose every 3rd faulty-circuit trigger in the concurrent
  // backends only. The oracle must catch the resulting divergence on the
  // smoke corpus and produce a reproducer that (a) is smaller than the
  // original workload and (b) still diverges when replayed on its own.
  bool caught = false;
  for (const std::uint64_t seed : kSmokeSeeds) {
    const GeneratedWorkload w = generateWorkload(GenOptions::randomized(seed));
    OracleOptions opts;
    opts.debugLoseTriggerEvery = 3;
    DiffOracle oracle(opts);
    const OracleReport rep = oracle.check(w);
    if (rep.ok) continue;
    caught = true;
    SCOPED_TRACE(describeWorkload(w));
    SCOPED_TRACE(rep.summary());

    EXPECT_FALSE(rep.divergence.backend.empty());
    EXPECT_FALSE(rep.divergence.field.empty());
    ASSERT_FALSE(rep.faultIndices.empty());
    EXPECT_EQ(rep.faultNames.size(), rep.faultIndices.size());
    ASSERT_GE(rep.numPatterns, 1u);
    ASSERT_LE(rep.numPatterns, w.seq.size());
    // Shrinking made progress on at least one axis.
    EXPECT_TRUE(rep.faultIndices.size() < w.faults.size() ||
                rep.numPatterns < w.seq.size());

    // Replay the minimized reproducer: it must still diverge.
    FaultList minFaults;
    for (const std::uint32_t i : rep.faultIndices) minFaults.add(w.faults[i]);
    TestSequence minSeq;
    minSeq.setOutputs(w.seq.outputs());
    for (std::uint32_t p = 0; p < rep.numPatterns; ++p) {
      minSeq.addPattern(w.seq[p]);
    }
    OracleOptions replayOpts = opts;
    replayOpts.shrink = false;
    DiffOracle replay(replayOpts);
    const OracleReport again =
        replay.check(w.net, minFaults, minSeq, w.options.seed);
    EXPECT_FALSE(again.ok) << "minimized reproducer no longer diverges";

    // And the same minimized workload passes once the bug is removed.
    OracleOptions cleanOpts = replayOpts;
    cleanOpts.debugLoseTriggerEvery = 0;
    DiffOracle clean(cleanOpts);
    EXPECT_TRUE(clean.check(w.net, minFaults, minSeq, w.options.seed).ok);
    break;
  }
  EXPECT_TRUE(caught)
      << "injected trigger-loss bug evaded the oracle on the whole corpus";
}

TEST(DiffOracleTest, ReportSummariesAreHumanReadable) {
  const GeneratedWorkload w = generateWorkload(GenOptions::randomized(1));
  DiffOracle oracle;
  const OracleReport rep = oracle.check(w);
  EXPECT_NE(rep.summary().find("OK"), std::string::npos);
  EXPECT_NE(rep.summary().find("seed 1"), std::string::npos);
}

}  // namespace
}  // namespace fmossim
