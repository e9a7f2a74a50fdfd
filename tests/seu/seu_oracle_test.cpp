// SEU campaign oracle: checkpoint-replay transient grading must be
// bit-identical to naive from-scratch injection of each transient — per
// injection (outcome AND detecting pattern), not just in aggregate — and
// deterministic across worker counts and checkpoint cache state. The naive engine self-simulates the whole sequence per injection;
// the replay engine materializes the group's instant from the checkpoint
// and simulates only the tail, so every line of the resume construction is
// on trial here.
#include <gtest/gtest.h>

#include "circuits/cells.hpp"
#include "circuits/ram.hpp"
#include "gen/random_circuit.hpp"
#include "gen/transient_gen.hpp"
#include "patterns/marching.hpp"
#include "seu/seu_campaign.hpp"

namespace fmossim {
namespace {

using seu::CampaignOptions;
using seu::CampaignResult;
using seu::Outcome;
using seu::runSeuCampaign;

struct RamWorkload {
  RamCircuit ram;
  TestSequence seq;
};

RamWorkload ramWorkload() {
  RamWorkload w{buildRam(RamConfig{4, 4}), {}};
  w.seq = ramControlTests(w.ram);
  w.seq.append(ramRowMarch(w.ram));
  return w;
}

TransientList ramCampaign(const RamWorkload& w, std::uint64_t seed,
                          std::uint32_t maxInstants) {
  SeuGenOptions g;
  g.seed = seed;
  g.numInjections = 24;
  g.numPatterns = w.seq.size();
  g.maxInstants = maxInstants;
  g.pulseProbability = 0.35;
  g.maxPulse = 3;
  return generateSeuCampaign(w.ram.net, g);
}

void expectIdentical(const CampaignResult& got, const CampaignResult& ref) {
  ASSERT_EQ(got.injections.size(), ref.injections.size());
  for (std::size_t i = 0; i < ref.injections.size(); ++i) {
    EXPECT_EQ(got.injections[i].outcome, ref.injections[i].outcome)
        << "injection " << i << " (" << ref.injections[i].fault.name << ")";
    EXPECT_EQ(got.injections[i].detectedAtPattern,
              ref.injections[i].detectedAtPattern)
        << "injection " << i << " (" << ref.injections[i].fault.name << ")";
  }
  EXPECT_EQ(got.numDetected, ref.numDetected);
  EXPECT_EQ(got.numSilent, ref.numSilent);
  EXPECT_EQ(got.numLatent, ref.numLatent);
  EXPECT_EQ(got.checksum(), ref.checksum());
}

// The headline oracle: clustered campaign (shared tails, pulses included)
// on the RAM — replay vs. naive, per-injection bit identity.
TEST(SeuOracleTest, ReplayMatchesNaiveOnRam) {
  const RamWorkload w = ramWorkload();
  const TransientList campaign = ramCampaign(w, 11, 4);

  CampaignOptions naive;
  naive.naive = true;
  const CampaignResult ref = runSeuCampaign(w.ram.net, w.seq, campaign, naive);

  const CampaignResult got = runSeuCampaign(w.ram.net, w.seq, campaign, {});
  expectIdentical(got, ref);
  EXPECT_EQ(got.injections.size(), ref.numDetected + ref.numSilent +
                                       ref.numLatent);
  EXPECT_LE(got.numGroups, 4u);
  EXPECT_TRUE(got.recordedCheckpoint);
  EXPECT_FALSE(ref.recordedCheckpoint);
}

// Unclustered campaign (every injection its own instant -> one machine per
// tail engine) must also match, including under AnyDifference.
TEST(SeuOracleTest, ReplayMatchesNaiveUnclustered) {
  const RamWorkload w = ramWorkload();
  const TransientList campaign = ramCampaign(w, 23, 0);

  CampaignOptions naive;
  naive.naive = true;
  naive.policy = DetectionPolicy::AnyDifference;
  CampaignOptions replay;
  replay.policy = DetectionPolicy::AnyDifference;

  const CampaignResult ref = runSeuCampaign(w.ram.net, w.seq, campaign, naive);
  const CampaignResult got =
      runSeuCampaign(w.ram.net, w.seq, campaign, replay);
  expectIdentical(got, ref);
}

// Same oracle over generated circuits: pass-transistor paths, charge nodes,
// ratioed fights and X-rich state, where a broken resume construction would
// actually diverge.
TEST(SeuOracleTest, ReplayMatchesNaiveOnGeneratedCircuits) {
  for (const std::uint64_t seed : {3u, 17u, 42u}) {
    GenOptions gen;
    gen.seed = seed;
    gen.numNodes = 20;
    gen.numInputs = 5;
    gen.numFaults = 0;
    gen.numPatterns = 30;
    const GeneratedWorkload w = generateWorkload(gen);

    SeuGenOptions g;
    g.seed = seed + 100;
    g.numInjections = 16;
    g.numPatterns = w.seq.size();
    g.maxInstants = 5;
    const TransientList campaign = generateSeuCampaign(w.net, g);

    CampaignOptions naive;
    naive.naive = true;
    const CampaignResult ref = runSeuCampaign(w.net, w.seq, campaign, naive);
    const CampaignResult got = runSeuCampaign(w.net, w.seq, campaign, {});
    expectIdentical(got, ref);
  }
}

// Determinism: jobs sweeps must all checksum identically to naive.
TEST(SeuOracleTest, DeterministicAcrossJobs) {
  const RamWorkload w = ramWorkload();
  const TransientList campaign = ramCampaign(w, 5, 3);

  CampaignOptions naive;
  naive.naive = true;
  const std::uint64_t want =
      runSeuCampaign(w.ram.net, w.seq, campaign, naive).checksum();

  for (const unsigned jobs : {1u, 2u, 4u}) {
    CampaignOptions o;
    o.jobs = jobs;
    const CampaignResult got = runSeuCampaign(w.ram.net, w.seq, campaign, o);
    EXPECT_EQ(got.checksum(), want) << "jobs " << jobs;
  }
  // Naive mode parallelizes per injection; it must be jobs-invariant too.
  CampaignOptions n4 = naive;
  n4.jobs = 4;
  EXPECT_EQ(runSeuCampaign(w.ram.net, w.seq, campaign, n4).checksum(), want);
}

// The retired lane-sharing width fails closed in both modes instead of
// being silently ignored.
TEST(SeuOracleTest, LaneWidthMustBeOne) {
  const RamWorkload w = ramWorkload();
  const TransientList campaign = ramCampaign(w, 5, 3);
  for (const bool naive : {false, true}) {
    CampaignOptions o;
    o.naive = naive;
    o.laneWidth = 32;
    EXPECT_THROW(runSeuCampaign(w.ram.net, w.seq, campaign, o), Error);
  }
}

// A shared store records once; the second campaign hits the cache and still
// produces identical results.
TEST(SeuOracleTest, SharedStoreRecordsOnce) {
  const RamWorkload w = ramWorkload();
  const TransientList campaign = ramCampaign(w, 9, 4);

  CampaignOptions o;
  o.store = std::make_shared<CheckpointStore>();
  const CampaignResult first = runSeuCampaign(w.ram.net, w.seq, campaign, o);
  const CampaignResult second = runSeuCampaign(w.ram.net, w.seq, campaign, o);
  EXPECT_TRUE(first.recordedCheckpoint);
  EXPECT_FALSE(second.recordedCheckpoint);
  expectIdentical(second, first);
}

// Replay under a spilled (budgeted) private checkpoint window must still be
// bit-identical — eviction is a residency concern, never correctness.
TEST(SeuOracleTest, SpilledCheckpointWindowMatchesNaive) {
  const RamWorkload w = ramWorkload();
  const TransientList campaign = ramCampaign(w, 31, 5);

  CampaignOptions naive;
  naive.naive = true;
  const CampaignResult ref = runSeuCampaign(w.ram.net, w.seq, campaign, naive);

  CampaignOptions o;
  o.checkpointBudgetBytes = 1;  // clamps to the single-chunk window floor
  const CampaignResult got = runSeuCampaign(w.ram.net, w.seq, campaign, o);
  expectIdentical(got, ref);
}

// The campaign must grade a detected injection with the exact first
// divergent pattern, and classify a strike on a written-then-never-read
// location as non-detected. Use a hand-built pair on the RAM data array.
TEST(SeuOracleTest, OutcomesArePlausible) {
  const RamWorkload w = ramWorkload();
  const TransientList campaign = ramCampaign(w, 11, 4);
  const CampaignResult res = runSeuCampaign(w.ram.net, w.seq, campaign, {});
  // The marching workload reads back everything it writes, so a storage-cell
  // campaign of this size detects at least one strike...
  EXPECT_GT(res.numDetected, 0u);
  // ...and every detection carries a plausible pattern index strictly after
  // its injection instant.
  for (const auto& r : res.injections) {
    if (r.outcome == Outcome::Detected) {
      ASSERT_GE(r.detectedAtPattern, 0);
      EXPECT_GT(static_cast<std::uint64_t>(r.detectedAtPattern),
                r.fault.atPattern);
      EXPECT_LT(static_cast<std::uint64_t>(r.detectedAtPattern),
                w.seq.size());
    } else {
      EXPECT_EQ(r.detectedAtPattern, -1);
    }
  }
}

// Naive and replay share the classifier, so their equality cannot catch a
// classification bug; this pins each injection's outcome on a hand-built
// circuit instead. in -> pass(clk) -> latch -> INV -> out (observed);
// in -> pass(wr) -> hidden (read by nothing); in -> INV -> mid (read by
// nothing, re-driven). Pattern 0 writes 1 into latch and hidden, pattern 1
// closes both pass gates and drives in = 0, patterns 2 and 3 toggle in.
TEST(SeuOracleTest, ClassifiesHandBuiltInjections) {
  NetworkBuilder b;
  NmosCells cells(b);
  const NodeId in = b.addInput("in");
  const NodeId clk = b.addInput("clk");
  const NodeId wr = b.addInput("wr");
  const NodeId latch = cells.dynamicLatch(in, clk, "latch");
  const NodeId out = cells.inverter(latch, "out");
  const NodeId hidden = cells.dynamicLatch(in, wr, "hidden");
  const NodeId mid = cells.inverter(in, "mid");
  const Network net = b.build();

  TestSequence seq;
  seq.addOutput(out);
  const auto addPattern = [&](std::vector<InputSetting> settings) {
    Pattern p;
    p.settings = std::move(settings);
    seq.addPattern(std::move(p));
  };
  const auto setting =
      [](std::initializer_list<std::pair<NodeId, State>> values) {
        InputSetting s;
        for (const auto& [n, v] : values) s.set(n, v);
        return s;
      };
  addPattern({setting({{net.nodeByName("Vdd"), State::S1},
                       {net.nodeByName("Gnd"), State::S0},
                       {in, State::S1},
                       {clk, State::S1},
                       {wr, State::S1}})});
  addPattern({setting({{clk, State::S0}, {wr, State::S0}}),
              setting({{in, State::S0}})});
  addPattern({setting({{in, State::S1}})});
  addPattern({setting({{in, State::S0}})});

  struct Expected {
    TransientFault fault;
    Outcome outcome;
    std::int32_t detectedAt;
  };
  const std::vector<Expected> expected = {
      // The stored 1 flips to 0: out reads 1 at pattern 2.
      {TransientFault::flipAt(net, latch, 1), Outcome::Detected, 2},
      // The stored 1 flips to 0 and nothing ever reads it.
      {TransientFault::flipAt(net, hidden, 1), Outcome::Latent, -1},
      // The inverter re-drives mid at once.
      {TransientFault::flipAt(net, mid, 1), Outcome::Silent, -1},
      // Still holding 0 at the end, where the good mid is 1.
      {TransientFault::flipAt(net, mid, 1, 5), Outcome::Latent, -1},
      // Still holding 1 at the end, where the good mid is 1 too.
      {TransientFault::flipAt(net, mid, 2, 5), Outcome::Silent, -1},
      // Flipped after the last observation: out differs but is never read.
      {TransientFault::flipAt(net, latch, 3), Outcome::Latent, -1},
  };
  TransientList campaign;
  for (const Expected& e : expected) campaign.push_back(e.fault);

  const auto check = [&](const CampaignResult& res, const char* mode) {
    ASSERT_EQ(res.injections.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(res.injections[i].outcome, expected[i].outcome)
          << mode << ": " << expected[i].fault.name;
      EXPECT_EQ(res.injections[i].detectedAtPattern, expected[i].detectedAt)
          << mode << ": " << expected[i].fault.name;
    }
    EXPECT_EQ(res.numDetected, 1u) << mode;
    EXPECT_EQ(res.numLatent, 3u) << mode;
    EXPECT_EQ(res.numSilent, 2u) << mode;
  };
  for (const unsigned jobs : {1u, 2u}) {
    for (const bool naive : {false, true}) {
      CampaignOptions o;
      o.jobs = jobs;
      o.naive = naive;
      SCOPED_TRACE(::testing::Message() << "jobs " << jobs);
      check(runSeuCampaign(net, seq, campaign, o), naive ? "naive" : "replay");
    }
  }
}

// Campaign-level validation: bad specs fail before any engine runs.
TEST(SeuOracleTest, RejectsInvalidCampaigns) {
  const RamWorkload w = ramWorkload();
  EXPECT_THROW(runSeuCampaign(w.ram.net, w.seq, {}, {}), Error);

  TransientFault pastEnd;
  pastEnd.node = NodeId(0);
  pastEnd.atPattern = w.seq.size();
  pastEnd.name = "past-end";
  // NodeId(0) is Vdd (an input) on the RAM, so pick a storage node instead.
  for (std::uint32_t n = 0; n < w.ram.net.numNodes(); ++n) {
    if (!w.ram.net.isInput(NodeId(n))) {
      pastEnd.node = NodeId(n);
      break;
    }
  }
  EXPECT_THROW(runSeuCampaign(w.ram.net, w.seq, {pastEnd}, {}), Error);

  TransientFault onInput;
  onInput.node = NodeId(0);
  onInput.atPattern = 0;
  onInput.name = "on-input";
  ASSERT_TRUE(w.ram.net.isInput(onInput.node));
  EXPECT_THROW(runSeuCampaign(w.ram.net, w.seq, {onInput}, {}), Error);
}

// The cancellation hook aborts the campaign with the thrown error.
TEST(SeuOracleTest, CheckPointHookCancels) {
  const RamWorkload w = ramWorkload();
  const TransientList campaign = ramCampaign(w, 7, 2);
  CampaignOptions o;
  o.checkPoint = []() { throw Error("cancelled"); };
  EXPECT_THROW(runSeuCampaign(w.ram.net, w.seq, campaign, o), Error);
}

}  // namespace
}  // namespace fmossim
