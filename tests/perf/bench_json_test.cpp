// BENCH_*.json schema: writer/parser round trip, file naming, and rejection
// of malformed or version-mismatched documents.
#include "perf/bench_json.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

namespace fmossim::perf {
namespace {

ScenarioResult sample() {
  ScenarioResult r;
  r.scenario = "fuzz_small";
  r.description = "generated \"quoted\" workload\nwith a newline";
  r.transistors = 123;
  r.nodes = 45;
  r.faults = 32;
  r.patterns = 16;
  r.checkpointBudget = 8u << 20;
  r.checkpointRecordings = 1;
  r.checkpointResidentBytes = 1234567;
  BenchRow row;
  row.backend = "sharded-4";
  row.jobs = 4;
  row.policy = "definite";
  row.dropDetected = false;
  row.medianMs = 12.34375;
  row.stddevMs = 0.5;
  row.reps = 5;
  row.checksum = 0xdeadbeefcafef00dULL;  // needs full 64-bit round trip
  row.nodeEvals = 987654321;
  row.numDetected = 30;
  row.numFaults = 32;
  r.rows.push_back(row);
  row.backend = "serial";
  row.jobs = 1;
  row.checksum = 0x1;
  r.rows.push_back(row);
  row.backend = "sharded-4-hist";
  row.jobs = 4;
  row.schedule = "history";  // non-default: must round-trip
  r.rows.push_back(row);
  return r;
}

TEST(BenchJsonTest, RoundTripPreservesEveryField) {
  const ScenarioResult r = sample();
  const ScenarioResult back = parseBenchJson(toJson(r));
  EXPECT_EQ(back.schemaVersion, 1);
  EXPECT_EQ(back.scenario, r.scenario);
  EXPECT_EQ(back.description, r.description);
  EXPECT_EQ(back.transistors, r.transistors);
  EXPECT_EQ(back.nodes, r.nodes);
  EXPECT_EQ(back.faults, r.faults);
  EXPECT_EQ(back.patterns, r.patterns);
  EXPECT_EQ(back.checkpointBudget, r.checkpointBudget);
  EXPECT_EQ(back.checkpointRecordings, r.checkpointRecordings);
  EXPECT_EQ(back.checkpointResidentBytes, r.checkpointResidentBytes);
  ASSERT_EQ(back.rows.size(), r.rows.size());
  for (std::size_t i = 0; i < r.rows.size(); ++i) {
    EXPECT_EQ(back.rows[i].backend, r.rows[i].backend);
    EXPECT_EQ(back.rows[i].jobs, r.rows[i].jobs);
    EXPECT_EQ(back.rows[i].policy, r.rows[i].policy);
    EXPECT_EQ(back.rows[i].dropDetected, r.rows[i].dropDetected);
    EXPECT_DOUBLE_EQ(back.rows[i].medianMs, r.rows[i].medianMs);
    EXPECT_DOUBLE_EQ(back.rows[i].stddevMs, r.rows[i].stddevMs);
    EXPECT_EQ(back.rows[i].reps, r.rows[i].reps);
    EXPECT_EQ(back.rows[i].checksum, r.rows[i].checksum);
    EXPECT_EQ(back.rows[i].nodeEvals, r.rows[i].nodeEvals);
    EXPECT_EQ(back.rows[i].numDetected, r.rows[i].numDetected);
    EXPECT_EQ(back.rows[i].numFaults, r.rows[i].numFaults);
    EXPECT_EQ(back.rows[i].schedule, r.rows[i].schedule);
  }
}

// The schedule field is additive like streamed: contiguous (default) rows
// omit it entirely — their serialized bytes are unchanged from pre-schedule
// builds — and absent keys parse back as "contiguous".
TEST(BenchJsonTest, ScheduleFieldIsAdditive) {
  const ScenarioResult r = sample();
  const std::string json = toJson(r);
  // Exactly one row (the history one) carries the key.
  std::size_t count = 0;
  for (std::size_t pos = json.find("\"schedule\""); pos != std::string::npos;
       pos = json.find("\"schedule\"", pos + 1)) {
    ++count;
  }
  EXPECT_EQ(count, 1u);
  const ScenarioResult back = parseBenchJson(json);
  ASSERT_EQ(back.rows.size(), 3u);
  EXPECT_EQ(back.rows[0].schedule, "contiguous");
  EXPECT_EQ(back.rows[1].schedule, "contiguous");
  EXPECT_EQ(back.rows[2].schedule, "history");
}

TEST(BenchJsonTest, ChecksumSerializesAsHexString) {
  const std::string json = toJson(sample());
  EXPECT_NE(json.find("\"checksum\": \"0xdeadbeefcafef00d\""),
            std::string::npos);
}

// The checkpoint object is additive: untouched scenarios (and files written
// before the store existed) omit it, and the parser defaults its fields.
TEST(BenchJsonTest, CheckpointObjectIsOptional) {
  ScenarioResult plain = sample();
  plain.checkpointBudget = 0;
  plain.checkpointRecordings = 0;
  plain.checkpointResidentBytes = 0;
  const std::string json = toJson(plain);
  EXPECT_EQ(json.find("\"checkpoint\""), std::string::npos);
  const ScenarioResult back = parseBenchJson(json);
  EXPECT_EQ(back.checkpointBudget, 0u);
  EXPECT_EQ(back.checkpointRecordings, 0u);

  // Present when the store recorded, even without a budget.
  ScenarioResult recorded = plain;
  recorded.checkpointRecordings = 1;
  EXPECT_NE(toJson(recorded).find("\"checkpoint\""), std::string::npos);
  EXPECT_EQ(parseBenchJson(toJson(recorded)).checkpointRecordings, 1u);
}

// The host object is additive like the checkpoint one: synthetic results
// omit it, measured ones carry timestamp/concurrency/build type, and the
// parser tolerates absence (pre-host baselines stay readable).
TEST(BenchJsonTest, HostObjectIsOptionalAndRoundTrips) {
  const ScenarioResult plain = sample();
  EXPECT_EQ(toJson(plain).find("\"host\""), std::string::npos);
  const ScenarioResult back = parseBenchJson(toJson(plain));
  EXPECT_TRUE(back.hostTimestamp.empty());
  EXPECT_EQ(back.hostHardwareConcurrency, 0u);

  ScenarioResult hosted = plain;
  fillHostInfo(hosted);
  EXPECT_FALSE(hosted.hostTimestamp.empty());
  EXPECT_FALSE(hosted.hostBuildType.empty());
  const std::string json = toJson(hosted);
  EXPECT_NE(json.find("\"host\""), std::string::npos);
  const ScenarioResult hb = parseBenchJson(json);
  EXPECT_EQ(hb.hostTimestamp, hosted.hostTimestamp);
  EXPECT_EQ(hb.hostHardwareConcurrency, hosted.hostHardwareConcurrency);
  EXPECT_EQ(hb.hostBuildType, hosted.hostBuildType);
}

TEST(BenchJsonTest, ServiceObjectIsOptionalAndRoundTrips) {
  const ScenarioResult plain = sample();
  EXPECT_EQ(toJson(plain).find("\"service\""), std::string::npos);
  EXPECT_FALSE(parseBenchJson(toJson(plain)).service.has_value());

  ScenarioResult served = plain;
  ServiceSummary svc;
  svc.requests = 50;
  svc.distinctWorkloads = 10;
  svc.poolEngines = 4;
  svc.workers = 2;
  svc.requestsPerSec = 123.456;
  svc.p50Ms = 10.5;
  svc.p95Ms = 20.25;
  svc.p99Ms = 30.125;
  svc.storeHits = 19;
  svc.storeRecordings = 7;
  svc.engineReuses = 42;
  served.service = svc;
  const ScenarioResult back2 = parseBenchJson(toJson(served));
  ASSERT_TRUE(back2.service.has_value());
  EXPECT_EQ(back2.service->requests, svc.requests);
  EXPECT_EQ(back2.service->distinctWorkloads, svc.distinctWorkloads);
  EXPECT_EQ(back2.service->poolEngines, svc.poolEngines);
  EXPECT_EQ(back2.service->workers, svc.workers);
  EXPECT_DOUBLE_EQ(back2.service->requestsPerSec, svc.requestsPerSec);
  EXPECT_DOUBLE_EQ(back2.service->p50Ms, svc.p50Ms);
  EXPECT_DOUBLE_EQ(back2.service->p95Ms, svc.p95Ms);
  EXPECT_DOUBLE_EQ(back2.service->p99Ms, svc.p99Ms);
  EXPECT_EQ(back2.service->storeHits, svc.storeHits);
  EXPECT_EQ(back2.service->storeRecordings, svc.storeRecordings);
  EXPECT_EQ(back2.service->engineReuses, svc.engineReuses);
}

// The seu object is additive like the others: non-campaign scenarios omit
// it, SEU grading scenarios carry the deterministic outcome tally.
TEST(BenchJsonTest, SeuObjectIsOptionalAndRoundTrips) {
  const ScenarioResult plain = sample();
  EXPECT_EQ(toJson(plain).find("\"seu\""), std::string::npos);
  EXPECT_FALSE(parseBenchJson(toJson(plain)).seu.has_value());

  ScenarioResult graded = plain;
  SeuSummary seu;
  seu.injections = 32;
  seu.instants = 4;
  seu.detected = 20;
  seu.silent = 9;
  seu.latent = 3;
  graded.seu = seu;
  const std::string json = toJson(graded);
  EXPECT_NE(json.find("\"seu\""), std::string::npos);
  const ScenarioResult back = parseBenchJson(json);
  ASSERT_TRUE(back.seu.has_value());
  EXPECT_EQ(back.seu->injections, seu.injections);
  EXPECT_EQ(back.seu->instants, seu.instants);
  EXPECT_EQ(back.seu->detected, seu.detected);
  EXPECT_EQ(back.seu->silent, seu.silent);
  EXPECT_EQ(back.seu->latent, seu.latent);
}

TEST(BenchJsonTest, RejectsMalformedInput) {
  EXPECT_THROW(parseBenchJson(""), Error);
  EXPECT_THROW(parseBenchJson("{"), Error);
  EXPECT_THROW(parseBenchJson("{\"schemaVersion\": 1}{}"), Error);  // trailing
  EXPECT_THROW(parseBenchJson("{\"unknownKey\": 1}"), Error);
  // Version mismatch must be an error, not a silent misread.
  std::string v2 = toJson(sample());
  const auto pos = v2.find("\"schemaVersion\": 1");
  ASSERT_NE(pos, std::string::npos);
  v2.replace(pos, 18, "\"schemaVersion\": 2");
  EXPECT_THROW(parseBenchJson(v2), Error);
  // Checksum must be a hex string.
  EXPECT_THROW(
      parseBenchJson("{\"schemaVersion\": 1, \"scenario\": \"x\", "
                     "\"description\": \"\", \"rows\": [{\"backend\": \"s\", "
                     "\"checksum\": \"nothex\"}]}"),
      Error);
}

// Counts go through one checked integer reader: a negative, fractional or
// out-of-range value is an Error naming the key, never a cast of a double.
TEST(BenchJsonTest, RejectsCountsThatAreNotIntegersInRange) {
  const std::string good = toJson(sample());
  ASSERT_NO_THROW(parseBenchJson(good));
  struct Case {
    const char* from;
    const char* to;
    const char* key;
  };
  for (const Case& c : {Case{"\"jobs\": 4", "\"jobs\": -1", "jobs"},
                        Case{"\"reps\": 5", "\"reps\": 1e20", "reps"},
                        Case{"\"numFaults\": 32", "\"numFaults\": 2.5",
                             "numFaults"},
                        Case{"\"nodeEvals\": 987654321",
                             "\"nodeEvals\": 18446744073709551616",
                             "nodeEvals"},
                        Case{"\"schemaVersion\": 1",
                             "\"schemaVersion\": -1", "schemaVersion"}}) {
    std::string bad = good;
    const auto pos = bad.find(c.from);
    ASSERT_NE(pos, std::string::npos) << c.from;
    bad.replace(pos, std::string(c.from).size(), c.to);
    try {
      parseBenchJson(bad);
      ADD_FAILURE() << "accepted " << c.to;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(c.key), std::string::npos)
          << e.what();
    }
  }
  // The largest u64 itself is a legal nodeEvals, read exactly.
  std::string big = good;
  const std::string from = "\"nodeEvals\": 987654321";
  big.replace(big.find(from), from.size(),
              "\"nodeEvals\": 18446744073709551615");
  EXPECT_EQ(parseBenchJson(big).rows[0].nodeEvals, 18446744073709551615ull);
}

// The retired laneWidth row key is rejected like any other unknown key.
TEST(BenchJsonTest, RejectsLaneWidthRowKey) {
  std::string json = toJson(sample());
  const std::string from = "\"jobs\": 4, ";
  json.replace(json.find(from), from.size(), from + "\"laneWidth\": 1, ");
  EXPECT_THROW(parseBenchJson(json), Error);
}

TEST(BenchJsonTest, FileNamingAndWrite) {
  EXPECT_EQ(benchFileName("ram64_seq1"), "BENCH_ram64_seq1.json");
  const ScenarioResult r = sample();
  const std::string path = writeBenchFile(r, testing::TempDir());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), toJson(r));
  const ScenarioResult back = parseBenchJson(buf.str());
  EXPECT_EQ(back.scenario, r.scenario);
  std::remove(path.c_str());
  // Missing directories are created on demand (CI writes to build/bench/).
  const std::string nested = testing::TempDir() + "/bench_json_test_sub/dir";
  const std::string nestedPath = writeBenchFile(r, nested);
  std::ifstream nestedIn(nestedPath);
  EXPECT_TRUE(nestedIn.good());
  std::remove(nestedPath.c_str());
  // A path whose parent is a regular file still fails loudly.
  const std::string blocker = testing::TempDir() + "/bench_json_blocker";
  std::ofstream(blocker) << "not a directory";
  EXPECT_THROW(writeBenchFile(r, blocker + "/dir"), Error);
  std::remove(blocker.c_str());
}

}  // namespace
}  // namespace fmossim::perf
