// Sharded parallel fault simulation: determinism and merge correctness.
//
// The acceptance property: a sharded run (jobs = 2, 4) on RAM64 with a
// marching test produces detections bit-identical to the unsharded run,
// because faulty circuits are simulated purely by difference from the good
// circuit and never interact.
#include <gtest/gtest.h>

#include "api/engine.hpp"
#include "api/sharded_runner.hpp"
#include "circuits/ram.hpp"
#include "faults/sampling.hpp"
#include "faults/universe.hpp"
#include "patterns/marching.hpp"
#include "patterns/pattern_source.hpp"
#include "util/rng.hpp"

namespace fmossim {
namespace {

TEST(ShardedRunnerTest, MergeReindexesAndSums) {
  // Two synthetic shards: 2 + 3 faults over 2 patterns.
  std::vector<FaultSimResult> shards(2);
  shards[0].numFaults = 2;
  shards[0].detectedAtPattern = {1, -1};
  shards[0].numDetected = 1;
  shards[0].totalNodeEvals = 10;
  shards[0].totalCpuSeconds = 0.75;
  shards[0].maxAlive = 2;
  shards[0].perPattern = {{0, 0.5, 6, 0, 0, 2}, {1, 0.25, 4, 1, 1, 1}};
  shards[1].numFaults = 3;
  shards[1].detectedAtPattern = {0, -1, 1};
  shards[1].numDetected = 2;
  shards[1].totalNodeEvals = 20;
  shards[1].totalCpuSeconds = 1.5;
  shards[1].maxAlive = 3;
  shards[1].perPattern = {{0, 1.0, 12, 1, 1, 2}, {1, 0.5, 8, 1, 2, 1}};

  const std::vector<std::pair<std::uint32_t, std::uint32_t>> slices = {
      {0, 2}, {2, 5}};
  const FaultSimResult merged = mergeShardResults(shards, slices, 2);

  EXPECT_EQ(merged.numFaults, 5u);
  EXPECT_EQ(merged.numDetected, 3u);
  EXPECT_EQ(merged.totalNodeEvals, 30u);
  // The modeled single-engine peak: both batches peak at sequence start
  // (alive counts only fall), so the merged peak is the summed initial
  // populations — what a jobs=1 run of all 5 faults reports.
  EXPECT_EQ(merged.maxAlive, 5u);
  // Engine time sums across batches (CPU-like; the caller stamps the wall
  // clock separately).
  EXPECT_DOUBLE_EQ(merged.totalCpuSeconds, 2.25);
  const std::vector<std::int32_t> expected = {1, -1, 0, -1, 1};
  EXPECT_EQ(merged.detectedAtPattern, expected);
  ASSERT_EQ(merged.perPattern.size(), 2u);
  EXPECT_EQ(merged.perPattern[0].newlyDetected, 1u);
  EXPECT_EQ(merged.perPattern[0].cumulativeDetected, 1u);
  EXPECT_EQ(merged.perPattern[0].nodeEvals, 18u);
  EXPECT_EQ(merged.perPattern[0].aliveAfter, 4u);
  EXPECT_DOUBLE_EQ(merged.perPattern[0].seconds, 1.5);
  EXPECT_EQ(merged.perPattern[1].newlyDetected, 2u);
  EXPECT_EQ(merged.perPattern[1].cumulativeDetected, 3u);
  EXPECT_EQ(merged.perPattern[1].aliveAfter, 2u);
}

TEST(ShardedRunnerTest, Ram64MarchDetectionsIdenticalAcrossJobCounts) {
  // RAM64 (the paper's benchmark circuit) under a marching test: jobs 1, 2,
  // and 4 must produce identical detectedAtPattern vectors.
  const RamCircuit ram = buildRam(ram64Config());
  FaultList universe = allStorageNodeStuckFaults(ram.net);
  for (const TransId ft : ram.bitLineShorts) {
    universe.add(Fault::faultDeviceActive(ram.net, ft));
  }
  Rng rng(42);
  const FaultList faults = sampleFaults(universe, 72, rng);
  TestSequence seq = ramControlTests(ram);
  seq.append(ramRowMarch(ram));

  EngineOptions opts;
  opts.policy = DetectionPolicy::AnyDifference;

  FaultSimResult baseline;
  for (const unsigned jobs : {1u, 2u, 4u}) {
    opts.jobs = jobs;
    Engine engine(ram.net, faults, opts);
    const FaultSimResult res = engine.run(seq);
    ASSERT_EQ(res.detectedAtPattern.size(), faults.size());
    if (jobs == 1) {
      baseline = res;
      EXPECT_GT(baseline.numDetected, 0u);
      continue;
    }
    EXPECT_EQ(res.numDetected, baseline.numDetected) << "jobs=" << jobs;
    EXPECT_EQ(res.detectedAtPattern, baseline.detectedAtPattern)
        << "jobs=" << jobs;
    EXPECT_EQ(res.potentialDetections, baseline.potentialDetections);
    // Merged per-pattern detection counts match the unsharded series.
    ASSERT_EQ(res.perPattern.size(), baseline.perPattern.size());
    for (std::uint32_t pi = 0; pi < res.perPattern.size(); ++pi) {
      EXPECT_EQ(res.perPattern[pi].newlyDetected,
                baseline.perPattern[pi].newlyDetected)
          << "jobs=" << jobs << " pattern=" << pi;
      EXPECT_EQ(res.perPattern[pi].cumulativeDetected,
                baseline.perPattern[pi].cumulativeDetected);
    }
  }
}

TEST(ShardedRunnerTest, MoreJobsThanFaultsIsClamped) {
  const RamCircuit ram = buildRam(RamConfig{2, 2});
  FaultList faults;
  faults.add(Fault::nodeStuckAt(ram.net, ram.cell(0, 0), State::S0));
  faults.add(Fault::nodeStuckAt(ram.net, ram.cell(1, 1), State::S1));

  EngineOptions opts;
  opts.policy = DetectionPolicy::AnyDifference;
  opts.jobs = 16;  // far more than 2 faults
  Engine engine(ram.net, faults, opts);
  const TestSequence seq = ramArrayMarch(ram);
  const FaultSimResult res = engine.run(seq);
  EXPECT_EQ(res.numFaults, 2u);
  EXPECT_EQ(res.numDetected, 2u);
}

TEST(ShardedRunnerTest, ShardedRunIsRepeatable) {
  const RamCircuit ram = buildRam(RamConfig{2, 2});
  FaultList faults = allStorageNodeStuckFaults(ram.net);
  EngineOptions opts;
  opts.policy = DetectionPolicy::AnyDifference;
  opts.jobs = 3;
  Engine engine(ram.net, faults, opts);
  const TestSequence seq = ramArrayMarch(ram);
  const FaultSimResult first = engine.run(seq);
  const FaultSimResult second = engine.run(seq);
  EXPECT_EQ(first.detectedAtPattern, second.detectedAtPattern);
  EXPECT_EQ(first.totalNodeEvals, second.totalNodeEvals);
}

// A streamed recording omits the per-pattern good evaluations, so a
// materialized run on the same runner and sequence must not reuse it: its
// rows' work counters must equal a fresh runner's.
TEST(ShardedRunnerTest, MaterializedRunAfterStreamedRunKeepsRowWork) {
  const RamCircuit ram = buildRam(RamConfig{4, 4});
  const FaultList faults = allStorageNodeStuckFaults(ram.net);
  const TestSequence seq = ramArrayMarch(ram);
  FsimOptions opts;
  opts.policy = DetectionPolicy::AnyDifference;

  ShardedRunner fresh(ram.net, faults, opts, 2);
  const FaultSimResult ref = fresh.run(seq);

  ShardedRunner runner(ram.net, faults, opts, 2);
  MaterializedPatternSource source(seq);
  runner.runStream(source);
  const FaultSimResult got = runner.run(seq);
  EXPECT_EQ(got.totalNodeEvals, ref.totalNodeEvals);
  ASSERT_EQ(got.perPattern.size(), ref.perPattern.size());
  for (std::size_t pi = 0; pi < ref.perPattern.size(); ++pi) {
    EXPECT_EQ(got.perPattern[pi].nodeEvals, ref.perPattern[pi].nodeEvals)
        << "pattern " << pi;
  }
}

}  // namespace
}  // namespace fmossim
