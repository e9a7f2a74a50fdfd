// Wire protocol pieces: JSON value round trips, WorkloadSpec serialization,
// deterministic workload expansion, and the malformed-input error paths the
// daemon turns into protocol error responses.
#include "serve/protocol.hpp"

#include <gtest/gtest.h>

#include "patterns/sequence_io.hpp"
#include "serve/json.hpp"

namespace fmossim::serve {
namespace {

TEST(JsonValueTest, RoundTripsScalarsArraysAndObjects) {
  JsonValue obj = JsonValue::makeObject();
  obj.set("b", JsonValue::makeBool(true));
  obj.set("n", JsonValue::makeNumber(12.5));
  obj.set("s", JsonValue::makeString("he said \"hi\"\n"));
  obj.set("u", JsonValue::makeU64(1234567));
  obj.set("hex", JsonValue::makeHexU64(0xdeadbeefcafef00dULL));
  JsonValue arr = JsonValue::makeArray();
  arr.push(JsonValue::makeNumber(1));
  arr.push(JsonValue::makeNull());
  obj.set("a", std::move(arr));

  const JsonValue back = JsonValue::parse(obj.dump());
  EXPECT_TRUE(back.boolOr("b", false));
  EXPECT_DOUBLE_EQ(back.get("n").asNumber(), 12.5);
  EXPECT_EQ(back.get("s").asString(), "he said \"hi\"\n");
  EXPECT_EQ(back.get("u").asU64(), 1234567u);
  EXPECT_EQ(back.get("hex").asHexU64(), 0xdeadbeefcafef00dULL);
  EXPECT_EQ(back.get("a").items().size(), 2u);
  EXPECT_TRUE(back.get("a").items()[1].isNull());
}

TEST(JsonValueTest, RejectsMalformedDocuments) {
  EXPECT_THROW(JsonValue::parse("{"), Error);
  EXPECT_THROW(JsonValue::parse("{} trailing"), Error);
  EXPECT_THROW(JsonValue::parse("{'single':1}"), Error);
  EXPECT_THROW(JsonValue::parse(""), Error);
  // Type-mismatch accessors throw instead of coercing.
  const JsonValue v = JsonValue::parse("{\"x\": \"str\"}");
  EXPECT_THROW(v.get("x").asNumber(), Error);
  EXPECT_THROW(v.get("missing"), Error);
  // Non-exact u64 conversions are refused (precision loss).
  EXPECT_THROW(JsonValue::parse("{\"x\": 1.5}").get("x").asU64(), Error);
  EXPECT_THROW(JsonValue::parse("{\"x\": -2}").get("x").asU64(), Error);
  EXPECT_THROW(JsonValue::parse("{\"x\": 1e19}").get("x").asU64(), Error);
}

TEST(JsonValueTest, RejectsNestingPastTheDepthLimit) {
  // At the limit parses; one level deeper throws instead of recursing.
  const std::string ok(kJsonMaxDepth, '[');
  EXPECT_NO_THROW(JsonValue::parse(ok + std::string(kJsonMaxDepth, ']')));
  const std::string deep(kJsonMaxDepth + 1, '[');
  EXPECT_THROW(JsonValue::parse(deep + std::string(kJsonMaxDepth + 1, ']')),
               Error);
  EXPECT_THROW(JsonValue::parse(std::string(kJsonMaxDepth + 1, '{')), Error);
}

TEST(WorkloadSpecTest, GenSpecRoundTripsThroughJson) {
  WorkloadSpec spec;
  spec.circuitSeed = 0xfeedfacecafebeefULL;  // full 64-bit seed must survive
  spec.seqSeed = 0x123456789abcdef1ULL;
  spec.numNodes = 20;
  spec.numFaults = 28;
  spec.jobs = 3;
  spec.policy = DetectionPolicy::AnyDifference;
  spec.dropDetected = false;

  const WorkloadSpec back = WorkloadSpec::fromJson(spec.toJson());
  EXPECT_EQ(back.circuitSeed, spec.circuitSeed);
  EXPECT_EQ(back.seqSeed, spec.seqSeed);
  EXPECT_EQ(back.numNodes, spec.numNodes);
  EXPECT_EQ(back.numInputs, 0u);
  EXPECT_EQ(back.numFaults, spec.numFaults);
  EXPECT_EQ(back.jobs, spec.jobs);
  EXPECT_EQ(back.policy, spec.policy);
  EXPECT_FALSE(back.dropDetected);
  EXPECT_FALSE(back.isInline());
}

TEST(WorkloadSpecTest, InlineSpecRoundTripsAndBuilds) {
  WorkloadSpec spec;
  spec.netlist =
      "input in\n"
      "d out Vdd out\n"
      "n in out Gnd\n";
  spec.sequence =
      "outputs out\n"
      "pattern init\n"
      "  set Vdd=1 Gnd=0 in=0\n"
      "pattern p1\n"
      "  set in=1\n";
  spec.faults = "all-node-stuck\n";

  const WorkloadSpec back = WorkloadSpec::fromJson(spec.toJson());
  EXPECT_TRUE(back.isInline());
  EXPECT_EQ(back.netlist, spec.netlist);

  const BuiltWorkload w = buildWorkload(back);
  EXPECT_GT(w.net.numNodes(), 0u);
  EXPECT_FALSE(w.faults.empty());
  EXPECT_EQ(w.seq.size(), 2u);
}

TEST(WorkloadSpecTest, RejectsMalformedSpecs) {
  EXPECT_THROW(WorkloadSpec::fromJson(
                   JsonValue::parse("{\"kind\": \"mystery\"}")),
               Error);
  EXPECT_THROW(WorkloadSpec::fromJson(
                   JsonValue::parse("{\"policy\": \"maybe\"}")),
               Error);
  EXPECT_THROW(WorkloadSpec::fromJson(JsonValue::parse("{\"jobs\": 0}")),
               Error);
  // 32-bit fields past 2^32-1 are rejected with the field named, never
  // truncated (4294967308 would otherwise become 12).
  for (const char* field : {"nodes", "inputs", "faults", "jobs", "laneWidth"}) {
    const std::string doc = std::string("{\"") + field + "\": 4294967297}";
    try {
      WorkloadSpec::fromJson(JsonValue::parse(doc));
      ADD_FAILURE() << "accepted " << doc;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  }
  for (const char* doc :
       {"{\"kind\": \"seu\", \"seuInjections\": 4294967304}",
        "{\"kind\": \"seu\", \"seuInjections\": 4, "
        "\"seuInstants\": 4294967304}"}) {
    EXPECT_THROW(WorkloadSpec::fromJson(JsonValue::parse(doc)), Error) << doc;
  }
  // The largest u32 itself is a legal value of an unlimited count.
  EXPECT_EQ(WorkloadSpec::fromJson(
                JsonValue::parse("{\"kind\": \"seu\", \"seuInjections\": 4, "
                                 "\"seuInstants\": 4294967295}"))
                .seuInstants,
            4294967295u);
  WorkloadSpec inlineSpec;
  inlineSpec.netlist = "this is not a netlist";
  inlineSpec.sequence = "nor a sequence";
  inlineSpec.faults = "all-node-stuck";
  EXPECT_THROW(buildWorkload(inlineSpec), Error);
}

// Admission limits: every size a generated spec can request is bounded by a
// named constant; the limit itself is admitted and one past it is refused
// with the field named. Streamed sequences take any pattern count.
TEST(WorkloadSpecTest, AdmissionLimitsBoundGeneratedSizes) {
  struct Case {
    const char* field;
    std::uint64_t limit;
    const char* prefix;
  };
  for (const Case& c :
       {Case{"nodes", WorkloadSpec::kMaxNodes, "{"},
        Case{"inputs", WorkloadSpec::kMaxInputs, "{"},
        Case{"faults", WorkloadSpec::kMaxFaults, "{"},
        Case{"patterns", WorkloadSpec::kMaxMaterializedPatterns, "{"},
        Case{"seuInjections", WorkloadSpec::kMaxSeuInjections,
             "{\"kind\": \"seu\", "}}) {
    const auto doc = [&](std::uint64_t value) {
      return std::string(c.prefix) + "\"" + c.field +
             "\": " + std::to_string(value) + "}";
    };
    EXPECT_NO_THROW(WorkloadSpec::fromJson(JsonValue::parse(doc(c.limit))))
        << doc(c.limit);
    try {
      WorkloadSpec::fromJson(JsonValue::parse(doc(c.limit + 1)));
      ADD_FAILURE() << "admitted " << doc(c.limit + 1);
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(c.field), std::string::npos)
          << e.what();
    }
  }
  // A non-streamed request for 2^32-1 patterns fits the wire field but
  // would make buildWorkload materialize the whole sequence.
  EXPECT_THROW(WorkloadSpec::fromJson(
                   JsonValue::parse("{\"patterns\": 4294967295}")),
               Error);
  EXPECT_EQ(WorkloadSpec::fromJson(
                JsonValue::parse("{\"patterns\": 4294967296, "
                                 "\"stream\": true}"))
                .numPatterns,
            4294967296ull);
}

// Word-lane fault sharing was removed: laneWidth 1 (or absent) is the only
// accepted value, and the field never goes on the wire.
TEST(WorkloadSpecTest, LaneWidthMustBeOne) {
  EXPECT_EQ(WorkloadSpec::fromJson(JsonValue::parse("{\"laneWidth\": 1}"))
                .laneWidth,
            1u);
  for (const char* doc : {"{\"laneWidth\": 32}", "{\"laneWidth\": 0}"}) {
    try {
      WorkloadSpec::fromJson(JsonValue::parse(doc));
      ADD_FAILURE() << "accepted " << doc;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("laneWidth"), std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(WorkloadSpec{}.toJson().find("laneWidth"), nullptr);
  WorkloadSpec wide;
  wide.laneWidth = 32;
  EXPECT_THROW(wide.toJson(), Error);
}

TEST(WorkloadSpecTest, ExpansionIsDeterministicAcrossEndpoints) {
  WorkloadSpec spec;
  spec.circuitSeed = 7;
  spec.seqSeed = 0x9e3779b97f4a7c15ULL;
  spec.numNodes = 16;
  spec.numPatterns = 10;

  const BuiltWorkload a = buildWorkload(spec);
  const BuiltWorkload b = buildWorkload(WorkloadSpec::fromJson(spec.toJson()));
  EXPECT_EQ(networkFingerprint(a.net), networkFingerprint(b.net));
  EXPECT_EQ(faultListFingerprint(a.faults), faultListFingerprint(b.faults));
  EXPECT_EQ(Engine::sequenceFingerprint(a.seq),
            Engine::sequenceFingerprint(b.seq));
  // writeSequence is content-complete, so equal text means equal sequences.
  EXPECT_EQ(writeSequence(a.net, a.seq), writeSequence(b.net, b.seq));
}

TEST(WorkloadSpecTest, SeqSeedDerivesDistinctSequenceOverSameCircuit) {
  WorkloadSpec base;
  base.circuitSeed = 9;
  base.numNodes = 16;
  WorkloadSpec derived = base;
  derived.seqSeed = 12345;

  const BuiltWorkload a = buildWorkload(base);
  const BuiltWorkload b = buildWorkload(derived);
  EXPECT_EQ(networkFingerprint(a.net), networkFingerprint(b.net));
  EXPECT_NE(Engine::sequenceFingerprint(a.seq),
            Engine::sequenceFingerprint(b.seq));
  EXPECT_EQ(a.seq.size(), b.seq.size());
}

TEST(WorkloadSpecTest, SeuSpecRoundTripsThroughJson) {
  WorkloadSpec spec;
  spec.circuitSeed = 11;
  spec.numNodes = 18;
  spec.numPatterns = 24;
  spec.seuInjections = 12;
  spec.seuSeed = 0xfeedfacecafebeefULL;  // full 64-bit seed must survive
  spec.seuInstants = 3;
  spec.policy = DetectionPolicy::AnyDifference;
  ASSERT_TRUE(spec.isSeu());

  const JsonValue wire = spec.toJson();
  EXPECT_EQ(wire.stringOr("kind", ""), "seu");
  const WorkloadSpec back = WorkloadSpec::fromJson(wire);
  EXPECT_TRUE(back.isSeu());
  EXPECT_EQ(back.circuitSeed, spec.circuitSeed);
  EXPECT_EQ(back.seuInjections, spec.seuInjections);
  EXPECT_EQ(back.seuSeed, spec.seuSeed);
  EXPECT_EQ(back.seuInstants, spec.seuInstants);
  EXPECT_EQ(back.policy, spec.policy);
}

TEST(WorkloadSpecTest, SeuSpecBuildsDeterministicCampaign) {
  WorkloadSpec spec;
  spec.circuitSeed = 11;
  spec.numNodes = 18;
  spec.numPatterns = 24;
  spec.seuInjections = 12;
  spec.seuSeed = 99;
  spec.seuInstants = 3;

  const BuiltWorkload a = buildWorkload(spec);
  EXPECT_TRUE(a.faults.empty());  // campaign replaces the permanent universe
  ASSERT_EQ(a.seuCampaign.size(), 12u);
  const BuiltWorkload b = buildWorkload(WorkloadSpec::fromJson(spec.toJson()));
  ASSERT_EQ(b.seuCampaign.size(), a.seuCampaign.size());
  for (std::size_t i = 0; i < a.seuCampaign.size(); ++i) {
    EXPECT_EQ(a.seuCampaign[i].node, b.seuCampaign[i].node);
    EXPECT_EQ(a.seuCampaign[i].atPattern, b.seuCampaign[i].atPattern);
    EXPECT_EQ(a.seuCampaign[i].pulsePatterns, b.seuCampaign[i].pulsePatterns);
  }
}

TEST(WorkloadSpecTest, RejectsMalformedSeuSpecs) {
  // seu fields without the seu kind.
  EXPECT_THROW(WorkloadSpec::fromJson(JsonValue::parse(
                   "{\"kind\": \"gen\", \"seuInjections\": 4}")),
               Error);
  // seu kind without an injection count.
  EXPECT_THROW(
      WorkloadSpec::fromJson(JsonValue::parse("{\"kind\": \"seu\"}")), Error);
  // stream is incompatible with campaign grading.
  EXPECT_THROW(WorkloadSpec::fromJson(JsonValue::parse(
                   "{\"kind\": \"seu\", \"seuInjections\": 4, "
                   "\"stream\": true}")),
               Error);
}

TEST(JobResultTest, RoundTripsThroughJson) {
  JobResult r;
  r.checksum = 0xabcdef0123456789ULL;
  r.numFaults = 32;
  r.numDetected = 17;
  r.nodeEvals = 987654321;
  r.wallSeconds = 0.125;
  r.cpuSeconds = 0.25;
  r.queuedSeconds = 0.01;
  r.latencySeconds = 0.135;
  r.engineReused = true;
  r.backend = "sharded";

  const JobResult back = JobResult::fromJson(
      JsonValue::parse(r.toJson().dump()));
  EXPECT_EQ(back.checksum, r.checksum);
  EXPECT_EQ(back.numFaults, r.numFaults);
  EXPECT_EQ(back.numDetected, r.numDetected);
  EXPECT_EQ(back.nodeEvals, r.nodeEvals);
  EXPECT_DOUBLE_EQ(back.wallSeconds, r.wallSeconds);
  EXPECT_DOUBLE_EQ(back.latencySeconds, r.latencySeconds);
  EXPECT_TRUE(back.engineReused);
  EXPECT_EQ(back.backend, "sharded");
  EXPECT_TRUE(back.error.empty());
}

TEST(JobResultTest, RejectsCountsPastU32) {
  EXPECT_THROW(JobResult::fromJson(
                   JsonValue::parse("{\"numFaults\": 4294967304}")),
               Error);
  EXPECT_THROW(JobResult::fromJson(
                   JsonValue::parse("{\"numDetected\": 4294967298}")),
               Error);
}

}  // namespace
}  // namespace fmossim::serve
