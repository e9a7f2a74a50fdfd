// ram256_j1 / ram256_j4: closed-loop grading of the paper's RAM256 with
// test sequence 1 and the paper's fault universe (1398 faults, 1447
// patterns, AnyDifference, drop on).
//
// j1 is the paper's Fig. 3 measurement: one self-simulating concurrent
// engine does all the work. j4 records one shared checkpoint during set-up
// and each grading run replays it on min(4, nproc) workers, so checkpoint
// replay, the batch plan and the shard merge carry the run.
#include <numeric>
#include <optional>
#include <tuple>
#include <utility>

#include "core/checkpoint_store.hpp"
#include "core/concurrent_sim.hpp"
#include "perf/bench_runner.hpp"
#include "perf/scenarios.hpp"
#include "sched/fault_schedule.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace fmossim;

namespace {

// The exact result BENCH_ram256_seq1.json pins for every backend and jobs
// count: result checksum and deterministic node-evaluation count.
constexpr std::uint64_t kChecksum = 0x6aa5d500c6291e09ULL;
constexpr std::uint64_t kNodeEvals = 1775994;
constexpr std::uint32_t kFaults = 1398;
constexpr std::uint32_t kPatterns = 1447;

// Set-up repetitions before the first grading run; untraced runs add one
// after every grading run (j1) or every fourth (j4, whose set-up records a
// checkpoint and costs about as much as a grading run).
constexpr int kSetupReps = 3;
constexpr std::uint32_t kSetupEveryJ1 = 1;
constexpr std::uint32_t kSetupEveryJ4 = 4;
constexpr int kGoodRuns = 3;

}  // namespace

void runRam256(const Options& opt, Report& rep, Tracer& tr) {
  const bool sharded = opt.workload == "ram256_j4";
  const unsigned jobs = sharded ? std::min(4u, hardwareThreads()) : 1;
  if (jobs < 2 && sharded) {
    throw UsageError("ram256_j4 needs at least 2 hardware threads");
  }
  rep.note("jobs used: " + std::to_string(jobs));
  const std::uint64_t expected =
      opt.expectChecksum != 0 ? opt.expectChecksum : kChecksum;

  EngineOptions eo = perf::paperEngineOptions();
  eo.jobs = jobs;
  const FsimOptions fo = coreOptions(eo);

  // One set-up, right after a speed probe: the workload build, plus for j4
  // the shared checkpoint recording (a cold CheckpointStore::acquire into a
  // fresh store). setup_s is the median of every repetition in the run.
  Calibrator cal;
  std::vector<double> setupS;
  const auto setupOnce = [&](std::uint32_t i) {
    perf::Workload built;
    std::shared_ptr<CheckpointStore> store;
    const double ms = cal.scaled([&] {
      Span s(tr, "setup", i);
      built = perf::buildScenarioWorkload("ram256_seq1");
      if (sharded) {
        store = std::make_shared<CheckpointStore>();
        Span r(tr, "checkpoint.record", i);
        store->acquire(built.net, built.seq, fo);
      }
      return s.stop();
    });
    setupS.push_back(ms / 1000.0);
    return std::make_pair(std::move(built), std::move(store));
  };
  perf::Workload w;
  std::tie(w, eo.checkpointStore) = setupOnce(0);
  for (int i = 1; i < kSetupReps; ++i) setupOnce(static_cast<std::uint32_t>(i));
  if (w.faults.size() != kFaults || w.seq.size() != kPatterns) {
    throw std::runtime_error("ram256_seq1 is not the paper's workload");
  }
  Engine engine(w.net, w.faults, eo);

  const auto checkResult = [&](const FaultSimResult& r, const std::string& what) {
    const std::uint64_t cs = perf::resultChecksum(r);
    rep.check(cs == expected && r.totalNodeEvals == kNodeEvals,
              what + ": checksum " + hex(cs) + " nodeEvals " +
                  std::to_string(r.totalNodeEvals) + ", expected " +
                  hex(expected) + " / " + std::to_string(kNodeEvals));
  };
  checkResult(engine.run(w.seq), "warm-up run");

  std::vector<double> cpuMs;
  std::uint32_t run = 0;
  // One grading run as a user calls it: Engine::run.
  const auto gradeOnce = [&](Tracer& t, std::uint32_t id) {
    Span g(t, "grade", id);
    const FaultSimResult r = engine.run(w.seq);
    const double ms = g.stop();
    checkResult(r, "grading run " + std::to_string(id));
    cpuMs.push_back(r.totalCpuSeconds * 1000.0);
    return ms;
  };

  if (!tr.enabled()) {
    // Set-ups between grading runs sample the same host phases as the runs.
    runClosedLoop(rep, cal, opt.seconds, run, sharded ? kSetupEveryJ4 : kSetupEveryJ1,
                  [&](std::uint32_t id) { return gradeOnce(tr, id); }, setupOnce, setupS);
    return;
  }

  // Traced mode: traced and untraced grading runs alternate on one call
  // path. j1 splits the grading run at the core engine's public boundary —
  // construction injects every fault, run() simulates the sequence; j4
  // times Engine::run.
  const auto splitGrade = [&](Tracer& t, std::uint32_t id) {
    Span g(t, "grade", id);
    FaultSimResult r;
    {
      std::optional<ConcurrentFaultSimulator> sim;
      {
        Span s(t, "core.inject", id);
        sim.emplace(w.net, w.faults, fo);
      }
      {
        Span s(t, "core.run", id);
        r = sim->run(w.seq);
      }
      setCoreCounters(rep, *sim, r);
    }
    const double ms = g.stop();
    checkResult(r, "grading run " + std::to_string(id));
    return ms;
  };
  const double gradeP50 = median(
      sharded ? tracedPairs(rep, cal, tr, opt.seconds / 2, run, gradeOnce)
              : tracedPairs(rep, cal, tr, opt.seconds / 2, run, splitGrade));

  for (int i = 0; i < kGoodRuns; ++i) {
    Span s(tr, "switch.good_run", run++);
    engine.runGood(w.seq);
  }
  const double goodMs = median(tr.durationsMs("switch.good_run"));
  rep.set("switch.good_run_ms", goodMs);
  rep.set("switch.cost_ratio", gradeP50 / goodMs);
  rep.set("core.node_evals", static_cast<double>(kNodeEvals));
  rep.set("core.ns_per_node_eval",
          gradeP50 * 1e6 / static_cast<double>(kNodeEvals));

  if (!sharded) {
    rep.set("core.inject_ms", median(tr.durationsMs("core.inject")));
    return;
  }

  // j4 layer probes against the shared checkpoint, repeated until the run's
  // time is used: a single-thread replay of the whole fault list, then a
  // serial walk of the scheduler's batch plan and the shard merge over the
  // walk's batch results. Every probe's merged result must reproduce the
  // reference exactly.
  const std::shared_ptr<const GoodMachineCheckpoint> ck =
      eo.checkpointStore->acquire(w.net, w.seq, fo);
  rep.set("checkpoint.resident_bytes", static_cast<double>(ck->memoryBytes()));
  rep.set("checkpoint.record_ms", median(tr.durationsMs("checkpoint.record")));
  const std::uint32_t nf = w.faults.size();
  const std::uint32_t np = w.seq.size();
  std::size_t batches = 0;
  std::size_t earlyExits = 0;
  const Clock::time_point probeStart = Clock::now();
  for (int round = 0; round < 2 || seconds(probeStart, Clock::now()) < opt.seconds / 2;
       ++round) {
    const std::uint32_t id = run++;
    {
      FaultSimResult r;
      std::optional<ConcurrentFaultSimulator> sim;
      {
        Span s(tr, "core.inject", id);
        sim.emplace(w.net, w.faults, fo, nullptr, ck.get());
      }
      {
        Span s(tr, "checkpoint.replay", id);
        r = sim->run(w.seq);
      }
      setCoreCounters(rep, *sim, r);
      const std::vector<std::pair<std::uint32_t, std::uint32_t>> whole = {{0, nf}};
      checkResult(mergeShardResults({r}, whole, np, ck.get()),
                  "single-thread replay " + std::to_string(id));
    }

    sched::BatchPlan plan;
    {
      Span s(tr, "sched.plan", id);
      plan = sched::makeSchedule(eo.schedule, nullptr)
                 ->plan(nf, jobs, eo.batchFaults, eo.laneWidth);
    }
    std::vector<FaultSimResult> results;
    for (const auto& [begin, end] : plan.slices) {
      std::vector<Fault> gathered;
      for (std::uint32_t pos = begin; pos < end; ++pos) {
        gathered.push_back(w.faults.all()[plan.globalIndex(pos)]);
      }
      const FaultList batch(std::move(gathered));
      Span s(tr, "sched.batch", id);
      ConcurrentFaultSimulator sim(w.net, batch, fo, nullptr, ck.get());
      results.push_back(sim.run(w.seq));
      ++batches;
      if (results.back().numDetected == batch.size()) ++earlyExits;
    }
    FaultSimResult merged;
    {
      Span s(tr, "api.merge", id);
      merged = mergeShardResults(results, plan.slices, np, ck.get(),
                                 plan.order.empty() ? nullptr : &plan.order);
    }
    checkResult(merged, "serial batch walk " + std::to_string(id));
  }
  rep.set("core.inject_ms", median(tr.durationsMs("core.inject")));
  rep.set("checkpoint.replay_ms", median(tr.durationsMs("checkpoint.replay")));
  rep.set("sched.plan_us", median(tr.durationsMs("sched.plan")) * 1000.0);
  std::vector<double> batchMax, batchSum;
  for (const auto& [id, ms] : tr.durationsByRun("sched.batch")) {
    batchMax.push_back(*std::max_element(ms.begin(), ms.end()));
    batchSum.push_back(std::accumulate(ms.begin(), ms.end(), 0.0));
  }
  rep.set("sched.batches",
          static_cast<double>(batches) / static_cast<double>(batchMax.size()));
  rep.set("sched.batch_ms_max", median(batchMax));
  rep.set("sched.batch_ms_sum", median(batchSum));
  rep.set("sched.early_exit_frac",
          static_cast<double>(earlyExits) / static_cast<double>(batches));
  rep.set("api.merge_ms", median(tr.durationsMs("api.merge")));
  const double cpu = median(cpuMs);
  rep.set("api.cpu_sum_ms", cpu);
  rep.set("api.parallel_eff", cpu / (gradeP50 * jobs));
}

}  // namespace perfbench
