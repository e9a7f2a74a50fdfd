// Work-stealing scheduler determinism matrix (the PR's acceptance property):
// jobs x dropDetected x batch size on RAM64 and a generated workload, every
// cell's merged result identical to the serial reference backend.
//
// The serial backend shares no code with the concurrent engine's difference
// simulation, the checkpoint replay, or the merge, so equality here vouches
// for the whole sharded pipeline end to end.
#include <gtest/gtest.h>

#include <cstdio>

#include "api/engine.hpp"
#include "api/sharded_runner.hpp"
#include "circuits/ram.hpp"
#include "faults/sampling.hpp"
#include "faults/universe.hpp"
#include "gen/random_circuit.hpp"
#include "patterns/marching.hpp"
#include "perf/bench_runner.hpp"
#include "sched/detection_history.hpp"
#include "sched/fault_schedule.hpp"
#include "util/rng.hpp"

namespace fmossim {
namespace {

struct MatrixWorkload {
  std::string name;
  Network net;
  FaultList faults;
  TestSequence seq;
};

std::vector<MatrixWorkload> matrixWorkloads() {
  std::vector<MatrixWorkload> out;
  {
    MatrixWorkload w;
    w.name = "ram64";
    RamCircuit ram = buildRam(ram64Config());
    FaultList universe = allStorageNodeStuckFaults(ram.net);
    for (const TransId ft : ram.bitLineShorts) {
      universe.add(Fault::faultDeviceActive(ram.net, ft));
    }
    Rng rng(1234);
    w.faults = sampleFaults(universe, 60, rng);
    w.seq = ramControlTests(ram);
    w.seq.append(ramRowMarch(ram));
    w.net = std::move(ram.net);
    out.push_back(std::move(w));
  }
  {
    MatrixWorkload w;
    w.name = "fuzz-seed-1";
    GenOptions gen;
    gen.seed = 1;
    gen.numNodes = 28;
    gen.numInputs = 6;
    gen.numFaults = 44;
    gen.numPatterns = 14;
    GeneratedWorkload g = generateWorkload(gen);
    w.net = std::move(g.net);
    w.faults = std::move(g.faults);
    w.seq = std::move(g.seq);
    out.push_back(std::move(w));
  }
  return out;
}

void expectEqualResults(const FaultSimResult& ref, const FaultSimResult& got,
                        const std::string& label) {
  EXPECT_EQ(got.numFaults, ref.numFaults) << label;
  EXPECT_EQ(got.detectedAtPattern, ref.detectedAtPattern) << label;
  EXPECT_EQ(got.numDetected, ref.numDetected) << label;
  EXPECT_EQ(got.potentialDetections, ref.potentialDetections) << label;
  EXPECT_EQ(got.finalGoodStates, ref.finalGoodStates) << label;
  ASSERT_EQ(got.perPattern.size(), ref.perPattern.size()) << label;
  for (std::size_t pi = 0; pi < ref.perPattern.size(); ++pi) {
    ASSERT_EQ(got.perPattern[pi].newlyDetected,
              ref.perPattern[pi].newlyDetected)
        << label << " pattern " << pi;
    ASSERT_EQ(got.perPattern[pi].cumulativeDetected,
              ref.perPattern[pi].cumulativeDetected)
        << label << " pattern " << pi;
    ASSERT_EQ(got.perPattern[pi].aliveAfter, ref.perPattern[pi].aliveAfter)
        << label << " pattern " << pi;
  }
  // The harness-level statement of the same fact.
  EXPECT_EQ(perf::resultChecksum(got), perf::resultChecksum(ref)) << label;
}

TEST(SchedulerMatrixTest, MergedResultsEqualSerialBackend) {
  for (const MatrixWorkload& w : matrixWorkloads()) {
    for (const bool drop : {true, false}) {
      EngineOptions serialOpts;
      serialOpts.backend = Backend::Serial;
      serialOpts.policy = DetectionPolicy::AnyDifference;
      serialOpts.dropDetected = drop;
      Engine serial(w.net, w.faults, serialOpts);
      const FaultSimResult ref = serial.run(w.seq);
      ASSERT_GT(ref.numDetected, 0u) << w.name;

      for (const unsigned jobs : {1u, 2u, 4u, 8u}) {
        for (const std::uint32_t batch : {1u, 16u, 0u}) {
          EngineOptions opts;
          opts.backend = Backend::Concurrent;
          opts.policy = DetectionPolicy::AnyDifference;
          opts.dropDetected = drop;
          opts.jobs = jobs;
          opts.batchFaults = batch;
          Engine engine(w.net, w.faults, opts);
          const FaultSimResult got = engine.run(w.seq);
          expectEqualResults(
              ref, got,
              w.name + " drop=" + (drop ? "on" : "off") +
                  " jobs=" + std::to_string(jobs) +
                  " batch=" + std::to_string(batch));
        }
      }
    }
  }
}

// Sharded work counters must equal the unsharded concurrent engine's for
// every jobs/batch combination: the checkpoint counts the good machine once,
// the batches partition the faulty work. The merged peak-concurrent-fault-
// machine count (the paper's Fig. statistic) must also equal the jobs=1
// peak exactly — per-batch peaks coincide at sequence start, so the merge's
// summed peaks reconstruct the modeled single-engine peak, not an upper
// bound (see FaultSimResult::maxAlive).
TEST(SchedulerMatrixTest, NodeEvalsAndMaxAliveInvariantAcrossJobsAndBatches) {
  const MatrixWorkload w = matrixWorkloads()[0];
  EngineOptions base;
  base.policy = DetectionPolicy::AnyDifference;
  Engine reference(w.net, w.faults, base);
  const FaultSimResult ref = reference.run(w.seq);

  for (const unsigned jobs : {2u, 4u}) {
    for (const std::uint32_t batch : {1u, 16u, 0u}) {
      EngineOptions opts = base;
      opts.jobs = jobs;
      opts.batchFaults = batch;
      Engine engine(w.net, w.faults, opts);
      const FaultSimResult got = engine.run(w.seq);
      EXPECT_EQ(got.totalNodeEvals, ref.totalNodeEvals)
          << "jobs=" << jobs << " batch=" << batch;
      EXPECT_EQ(got.maxAlive, ref.maxAlive)
          << "merged peak-alive must equal the jobs=1 peak (jobs=" << jobs
          << " batch=" << batch << ")";
      for (std::size_t pi = 0; pi < ref.perPattern.size(); ++pi) {
        ASSERT_EQ(got.perPattern[pi].nodeEvals, ref.perPattern[pi].nodeEvals)
            << "jobs=" << jobs << " batch=" << batch << " pattern=" << pi;
      }
    }
  }
}

// Schedule-policy matrix (the FaultSchedule layer's acceptance property):
// policy x jobs x seeding, every cell bit-identical to the contiguous
// default. The history rows are laid out by the detection record a prior
// contiguous run published into a shared HistoryStore — batch membership
// is permuted, results must not move. History rows WITHOUT any recorded
// history must silently fall back to the contiguous plan.
TEST(SchedulerMatrixTest, SchedulePolicyMatrixBitIdentical) {
  for (const MatrixWorkload& w : matrixWorkloads()) {
    EngineOptions refOpts;
    refOpts.backend = Backend::Concurrent;
    refOpts.policy = DetectionPolicy::AnyDifference;
    Engine reference(w.net, w.faults, refOpts);
    const FaultSimResult ref = reference.run(w.seq);
    ASSERT_GT(ref.numDetected, 0u) << w.name;

    // Seed the history store: one contiguous sharded run records per-fault
    // detection outcomes keyed on the fault-list fingerprint.
    auto history = std::make_shared<sched::HistoryStore>();
    {
      EngineOptions seedOpts = refOpts;
      seedOpts.jobs = 2;
      seedOpts.historyStore = history;
      Engine seeder(w.net, w.faults, seedOpts);
      expectEqualResults(ref, seeder.run(w.seq), w.name + " history seeder");
    }
    ASSERT_EQ(history->size(), 1u) << w.name;

    for (const sched::SchedulePolicy policy :
         {sched::SchedulePolicy::Contiguous, sched::SchedulePolicy::History}) {
      for (const unsigned jobs : {1u, 2u, 4u}) {
        for (const bool seeded : {true, false}) {
          EngineOptions opts = refOpts;
          opts.schedule = policy;
          opts.jobs = jobs;
          if (seeded) opts.historyStore = history;
          Engine engine(w.net, w.faults, opts);
          expectEqualResults(
              ref, engine.run(w.seq),
              w.name + " schedule=" + sched::schedulePolicyName(policy) +
                  " jobs=" + std::to_string(jobs) +
                  (seeded ? " seeded" : " unseeded"));
        }
      }
    }
  }
}

// History sidecar round-trip: a sharded run with a history file records the
// per-fault detection outcomes to disk; loading it back yields the run's
// exact detectedAtPattern vector, and a second runner scheduling from the
// sidecar stays bit-identical. A fingerprint mismatch must refuse the file.
TEST(SchedulerMatrixTest, HistorySidecarRoundTrip) {
  const MatrixWorkload w = matrixWorkloads()[1];
  const std::string path = testing::TempDir() + "/fmossim_history_test.txt";
  std::remove(path.c_str());

  FsimOptions fopts;
  fopts.policy = DetectionPolicy::AnyDifference;
  ShardedRunner writer(w.net, w.faults, fopts, 2, 0, nullptr, 0,
                       sched::SchedulePolicy::Contiguous, nullptr, path);
  const FaultSimResult ref = writer.run(w.seq);

  const auto loaded = sched::loadHistoryFile(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->detectedAtPattern, ref.detectedAtPattern);

  ShardedRunner reader(w.net, w.faults, fopts, 4, 0, nullptr, 0,
                       sched::SchedulePolicy::History, nullptr, path);
  const FaultSimResult got = reader.run(w.seq);
  EXPECT_EQ(got.detectedAtPattern, ref.detectedAtPattern);
  EXPECT_EQ(got.totalNodeEvals, ref.totalNodeEvals);
  EXPECT_EQ(perf::resultChecksum(got), perf::resultChecksum(ref));

  // Keyed load: the wrong fingerprint must be rejected (another tenant's
  // fault list never schedules from this record), the right one accepted.
  EXPECT_FALSE(sched::loadHistoryFile(path, loaded->faultsFingerprint + 1)
                   .has_value());
  EXPECT_TRUE(sched::loadHistoryFile(path, loaded->faultsFingerprint)
                  .has_value());
  std::remove(path.c_str());
}

// A truncated or tampered sidecar is advisory input, never trusted: load
// must return nullopt (and the runner falls back to contiguous layout).
TEST(SchedulerMatrixTest, HistorySidecarRejectsMalformedFiles) {
  const std::string path = testing::TempDir() + "/fmossim_history_bad.txt";
  const auto writeText = [&](const char* text) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(text, f);
    std::fclose(f);
  };
  EXPECT_FALSE(sched::loadHistoryFile("/nonexistent/history").has_value());
  writeText("");
  EXPECT_FALSE(sched::loadHistoryFile(path).has_value());
  writeText("not-a-history v1\nfaults 00000000000000aa 1\n3\n");
  EXPECT_FALSE(sched::loadHistoryFile(path).has_value());
  writeText("fmossim-history v9\nfaults 00000000000000aa 1\n3\n");
  EXPECT_FALSE(sched::loadHistoryFile(path).has_value());
  // Truncated: header promises two entries, file holds one.
  writeText("fmossim-history v1\nfaults 00000000000000aa 2\n3\n");
  EXPECT_FALSE(sched::loadHistoryFile(path).has_value());
  // Trailing garbage after the promised entries.
  writeText("fmossim-history v1\nfaults 00000000000000aa 1\n3\nextra\n");
  EXPECT_FALSE(sched::loadHistoryFile(path).has_value());
  // A hostile count (2^60) must be refused, not used to size an allocation
  // (it used to abort the process with std::bad_alloc).
  writeText("fmossim-history v1\nfaults 00000000000000aa 1152921504606846976\n"
            "3\n");
  EXPECT_FALSE(sched::loadHistoryFile(path).has_value());
  // Entry below -1 (no such pattern index).
  writeText("fmossim-history v1\nfaults 00000000000000aa 1\n-2\n");
  EXPECT_FALSE(sched::loadHistoryFile(path).has_value());
  // The well-formed version of the same bytes loads.
  writeText("fmossim-history v1\nfaults 00000000000000aa 1\n3\n");
  const auto ok = sched::loadHistoryFile(path);
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->faultsFingerprint, 0xaaULL);
  ASSERT_EQ(ok->detectedAtPattern.size(), 1u);
  EXPECT_EQ(ok->detectedAtPattern[0], 3);
  std::remove(path.c_str());
}

// The batch schedule itself: contiguous, ascending, covering, respecting
// the fixed-size knob and the auto floor.
TEST(SchedulerMatrixTest, MakeBatchesCoversUniverse) {
  for (const std::uint32_t n : {0u, 1u, 31u, 32u, 100u, 1398u}) {
    for (const unsigned jobs : {1u, 2u, 4u, 8u}) {
      for (const std::uint32_t batch : {0u, 1u, 16u, 500u}) {
        const auto batches = sched::contiguousBatches(n, jobs, batch);
        std::uint32_t expect = 0;
        for (const auto& [begin, end] : batches) {
          ASSERT_EQ(begin, expect);
          ASSERT_LT(begin, end);
          expect = end;
        }
        EXPECT_EQ(expect, n);
        if (batch > 0) {
          for (const auto& [begin, end] : batches) {
            EXPECT_LE(end - begin, batch);
          }
        } else if (n > 0) {
          // Auto: at most ceil(n/32) batches (the 32-fault floor).
          EXPECT_LE(batches.size(), (n + 31) / 32);
        }
      }
    }
  }
}

// Degenerate batching inputs must still produce valid schedules: a batch
// size past the universe yields one full batch, an empty universe yields no
// batches, and more jobs than faults never manufactures empty batches.
TEST(SchedulerMatrixTest, MakeBatchesEdgeCases) {
  // batchFaults far beyond the fault list: one batch, the whole universe.
  {
    const auto batches = sched::contiguousBatches(7, 4, 1000);
    ASSERT_EQ(batches.size(), 1u);
    EXPECT_EQ(batches[0].first, 0u);
    EXPECT_EQ(batches[0].second, 7u);
  }
  // Empty universe: no batches at all (not one empty batch).
  for (const std::uint32_t batch : {0u, 1u, 64u}) {
    EXPECT_TRUE(sched::contiguousBatches(0, 4, batch).empty());
  }
  // jobs >> faults: every batch non-empty, coverage exact.
  for (const std::uint32_t n : {1u, 3u, 31u}) {
    for (const unsigned jobs : {8u, 64u, 1000u}) {
      const auto batches = sched::contiguousBatches(n, jobs, 0);
      std::uint32_t covered = 0;
      for (const auto& [begin, end] : batches) {
        ASSERT_LT(begin, end);
        ASSERT_EQ(begin, covered);
        covered = end;
      }
      EXPECT_EQ(covered, n);
    }
  }
}

// End-to-end on the same degenerate shapes: more jobs than faults and a
// batch size past the universe must merge to the exact reference result.
TEST(SchedulerMatrixTest, DegenerateBatchShapesMergeExactly) {
  const MatrixWorkload w = matrixWorkloads()[1];
  EngineOptions base;
  base.backend = Backend::Concurrent;
  base.policy = DetectionPolicy::AnyDifference;
  Engine reference(w.net, w.faults, base);
  const FaultSimResult ref = reference.run(w.seq);

  struct Shape {
    unsigned jobs;
    std::uint32_t batch;
  };
  for (const Shape s : {Shape{64, 0}, Shape{8, 1000}, Shape{1000, 1}}) {
    EngineOptions opts = base;
    opts.jobs = s.jobs;
    opts.batchFaults = s.batch;
    Engine engine(w.net, w.faults, opts);
    expectEqualResults(ref, engine.run(w.seq),
                       "jobs=" + std::to_string(s.jobs) +
                           " batch=" + std::to_string(s.batch));
  }
}

// The history plan is a valid permutation schedule: order permutes
// [0, n), slices cover every position exactly once with no empty batch,
// and hint windows are in range. Undetected faults sort to the end of the
// permutation (the co-batching that motivates the policy).
TEST(SchedulerMatrixTest, HistoryPlanIsValidPermutation) {
  auto history = std::make_shared<sched::DetectionHistory>();
  history->faultsFingerprint = 1;
  const std::uint32_t n = 100;
  history->detectedAtPattern.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    // A mix: every third fault undetected, the rest detected at varying
    // depths, deliberately not sorted.
    history->detectedAtPattern[i] =
        (i % 3 == 0) ? -1 : static_cast<std::int32_t>((i * 37) % 50);
  }
  const sched::HistorySchedule schedule(history);
  for (const unsigned jobs : {1u, 2u, 4u, 8u}) {
    const sched::BatchPlan plan = schedule.plan(n, jobs, 0);
    ASSERT_EQ(plan.order.size(), n);
    std::vector<bool> seen(n, false);
    for (const std::uint32_t g : plan.order) {
      ASSERT_LT(g, n);
      ASSERT_FALSE(seen[g]);
      seen[g] = true;
    }
    std::vector<bool> covered(n, false);
    for (const auto& [begin, end] : plan.slices) {
      ASSERT_LT(begin, end);
      ASSERT_LE(end, n);
      for (std::uint32_t pos = begin; pos < end; ++pos) {
        ASSERT_FALSE(covered[pos]);
        covered[pos] = true;
      }
    }
    for (std::uint32_t pos = 0; pos < n; ++pos) EXPECT_TRUE(covered[pos]);
    // Undetected faults occupy the tail of the permutation: everything
    // after the first undetected position must also be undetected.
    bool sawUndetected = false;
    for (std::uint32_t pos = 0; pos < n; ++pos) {
      const bool undetected =
          history->detectedAtPattern[plan.order[pos]] < 0;
      if (sawUndetected) EXPECT_TRUE(undetected) << "position " << pos;
      sawUndetected = sawUndetected || undetected;
    }
  }
  // The retired lane-sharing width fails closed.
  EXPECT_THROW(schedule.plan(n, 2, 0, 32), Error);
  // Size mismatch (history from a different fault list): contiguous
  // fallback — identity order, the default slices.
  const sched::BatchPlan fallback = schedule.plan(n + 5, 2, 0);
  EXPECT_TRUE(fallback.order.empty());
  EXPECT_EQ(fallback.slices, sched::contiguousBatches(n + 5, 2, 0));
}

// With the good-machine trace spilled to disk (tiny budget), every replaying
// batch of every schedule must still produce the exact reference result —
// the window only decides which chunks stay decoded, never what is replayed.
TEST(SchedulerMatrixTest, SpilledReplayBitIdentical) {
  const MatrixWorkload w = matrixWorkloads()[0];
  EngineOptions base;
  base.backend = Backend::Concurrent;
  base.policy = DetectionPolicy::AnyDifference;
  Engine reference(w.net, w.faults, base);
  const FaultSimResult ref = reference.run(w.seq);

  for (const sched::SchedulePolicy policy :
       {sched::SchedulePolicy::Contiguous, sched::SchedulePolicy::History}) {
    EngineOptions opts = base;
    opts.jobs = 4;
    opts.schedule = policy;
    opts.checkpointBudgetBytes = 4096;  // forces the spill/window path
    Engine engine(w.net, w.faults, opts);
    expectEqualResults(ref, engine.run(w.seq),
                       std::string("spilled schedule=") +
                           sched::schedulePolicyName(policy));
  }
}

// Checkpoint reuse across run() calls: the second run must not re-record
// (same object), results stay identical; reset() drops the cache.
TEST(SchedulerMatrixTest, CheckpointIsReusedAcrossRuns) {
  const MatrixWorkload w = matrixWorkloads()[1];
  FsimOptions fopts;
  fopts.policy = DetectionPolicy::AnyDifference;
  ShardedRunner runner(w.net, w.faults, fopts, 4);
  EXPECT_EQ(runner.checkpoint(), nullptr);
  const FaultSimResult first = runner.run(w.seq);
  const GoodMachineCheckpoint* ck = runner.checkpoint();
  ASSERT_NE(ck, nullptr);
  const FaultSimResult second = runner.run(w.seq);
  EXPECT_EQ(runner.checkpoint(), ck);  // reused, not re-recorded
  EXPECT_EQ(first.detectedAtPattern, second.detectedAtPattern);
  EXPECT_EQ(first.totalNodeEvals, second.totalNodeEvals);
  runner.reset();
  EXPECT_EQ(runner.checkpoint(), nullptr);
}

}  // namespace
}  // namespace fmossim
