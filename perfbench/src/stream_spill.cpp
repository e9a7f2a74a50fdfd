// stream_spill: the fuzz_xlarge_seq scenario (10 nodes, 16 faults) cut to
// its first 10,000 patterns, streamed through
// Engine::runStream at jobs=2 under a checkpoint budget several times
// smaller than the good-machine trace. Every grading run gets a fresh
// store, so it records the trace to a spill file and then replays it
// through the sliding decode window. Per-pattern fixed cost and spill I/O
// dominate; per-fault work is small. All 16 faults fit one auto batch (the
// batch floor is 32), so one worker replays.
#include <optional>

#include "core/checkpoint_store.hpp"
#include "core/concurrent_sim.hpp"
#include "perf/scenarios.hpp"
#include "patterns/pattern_source.hpp"
#include "perf/bench_runner.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace fmossim;

namespace {

constexpr std::uint64_t kPatterns = 10000;
/// About a fifth of the in-memory trace of these circuits (2.5-3 MB at
/// 10k patterns), so the replay window must slide.
constexpr std::size_t kBudgetBytes = std::size_t{512} << 10;
constexpr unsigned kJobs = 2;
// Set-up repetitions before the first grading run; untraced runs add one
// after every grading run.
constexpr int kSetupReps = 3;

}  // namespace

void runStreamSpill(const Options& opt, Report& rep, Tracer& tr) {
  if (kJobs > hardwareThreads()) {
    throw UsageError("stream_spill needs " + std::to_string(kJobs) +
                     " hardware threads");
  }
  rep.note("jobs used: " + std::to_string(kJobs));

  // Set-up: the fuzz_xlarge_seq scenario's workload (perf/scenarios.cpp),
  // cut to its first kPatterns patterns. The seed changes nothing here:
  // other generated circuits differ in cost several-fold, and other pattern
  // streams over this circuit by a quarter, which would make the spread
  // between runs a property of the seed rather than of the program.
  // Each set-up runs right after a speed probe; setup_s is the median of
  // every repetition in the run.
  Calibrator cal;
  std::vector<double> setupS;
  const auto setupOnce = [&](std::uint32_t i) {
    perf::Workload built;
    const double ms = cal.scaled([&] {
      Span s(tr, "setup", i);
      built = perf::buildScenarioWorkload("fuzz_xlarge_seq");
      built.streamConfig->numPatterns = kPatterns;
      return s.stop();
    });
    setupS.push_back(ms / 1000.0);
    return built;
  };
  const perf::Workload w = setupOnce(0);
  for (int i = 1; i < kSetupReps; ++i) setupOnce(static_cast<std::uint32_t>(i));
  const GeneratedSequenceConfig& seqConfig = *w.streamConfig;

  EngineOptions eo = w.rows.front().engineOptions();  // the scenario's jobs=1 row
  const FsimOptions fo = coreOptions(eo);

  // Reference: a jobs=1 direct stream of the same patterns, no checkpoint.
  FaultSimResult ref;
  {
    Engine direct(w.net, w.faults, eo);
    GeneratedPatternSource source(seqConfig);
    ref = direct.runStream(source);
  }
  const std::uint64_t refChecksum = perf::resultChecksum(ref);
  rep.note("reference (jobs=1 direct stream): checksum " + hex(refChecksum) +
           ", " + std::to_string(ref.numDetected) + "/" +
           std::to_string(ref.numFaults) + " detected");

  CheckpointStore::Options storeOptions;
  storeOptions.budgetBytes = kBudgetBytes;
  storeOptions.spillDir = opt.spillDir;
  eo.jobs = kJobs;

  std::vector<double> cpuMs;
  const auto gradeOnce = [&](Tracer& t, std::uint32_t id) {
    eo.checkpointStore = std::make_shared<CheckpointStore>(storeOptions);
    Span s(t, "grade", id);
    Engine engine(w.net, w.faults, eo);
    GeneratedPatternSource source(seqConfig);
    const FaultSimResult r = engine.runStream(source);
    const double ms = s.stop();
    const std::uint64_t cs = perf::resultChecksum(r);
    // One recording, kept within the budget: the run spilled and replayed
    // through the window rather than holding the trace in memory.
    const CheckpointStore& store = *eo.checkpointStore;
    rep.check(cs == refChecksum && r.totalNodeEvals == ref.totalNodeEvals &&
                  store.recordings() == 1 && store.memoryBytes() <= kBudgetBytes,
              "spilled stream " + std::to_string(id) + ": checksum " + hex(cs) +
                  " nodeEvals " + std::to_string(r.totalNodeEvals) + ", " +
                  std::to_string(store.recordings()) + " recording(s) of " +
                  std::to_string(store.memoryBytes()) +
                  " resident bytes; direct stream " + hex(refChecksum) + " / " +
                  std::to_string(ref.totalNodeEvals));
    cpuMs.push_back(r.totalCpuSeconds * 1000.0);
    return ms;
  };

  std::uint32_t run = 0;
  if (!tr.enabled()) {
    // Set-ups between grading runs sample the same host phases as the runs.
    runClosedLoop(rep, cal, opt.seconds, run, 1,
                  [&](std::uint32_t id) { return gradeOnce(tr, id); }, setupOnce, setupS);
    return;
  }

  // Traced mode: traced and untraced grading runs alternate, then the
  // layer probes.
  const double gradeP50 =
      median(tracedPairs(rep, cal, tr, opt.seconds / 2, run, gradeOnce));
  const double cpu = median(cpuMs);
  rep.set("api.cpu_sum_ms", cpu);
  rep.set("api.parallel_eff", cpu / (gradeP50 * kJobs));
  rep.set("core.ns_per_pattern", gradeP50 * 1e6 / static_cast<double>(kPatterns));
  rep.set("core.node_evals", static_cast<double>(ref.totalNodeEvals));
  rep.set("core.ns_per_node_eval",
          gradeP50 * 1e6 / static_cast<double>(ref.totalNodeEvals));

  // Probes, repeated until the run's time is used: pattern generation
  // alone, the spilled streaming record, and a replay of every fault from
  // that recording, which must match the direct stream's detections.
  const Clock::time_point probeStart = Clock::now();
  std::shared_ptr<const GoodMachineCheckpoint> ck;
  for (int round = 0; round < 2 || seconds(probeStart, Clock::now()) < opt.seconds / 2;
       ++round) {
    const std::uint32_t id = run++;
    {
      GeneratedPatternSource source(seqConfig);
      Pattern p;
      std::uint64_t n = 0;
      Span s(tr, "patterns.next", id);
      while (source.next(p)) ++n;
      s.stop();
      rep.check(n == kPatterns, "pattern source yielded " + std::to_string(n));
    }
    {
      CheckpointStore store(storeOptions);
      GeneratedPatternSource source(seqConfig);
      Span s(tr, "checkpoint.record_stream", id);
      ck = store.acquireStream(w.net, source, fo);
    }
    FaultSimResult r;
    std::optional<ConcurrentFaultSimulator> sim;
    {
      Span s(tr, "core.inject", id);
      sim.emplace(w.net, w.faults, fo, nullptr, ck.get());
    }
    {
      Span s(tr, "checkpoint.replay", id);
      r = sim->runReplay();
    }
    setCoreCounters(rep, *sim, r);
    rep.check(ck->spilled() && r.detectedAtPattern == ref.detectedAtPattern &&
                  r.totalNodeEvals + ck->totalGoodEvals() == ref.totalNodeEvals,
              "spilled replay probe " + std::to_string(id) +
                  " differs from the direct stream");
  }
  rep.set("patterns.next_ns",
          median(tr.durationsMs("patterns.next")) * 1e6 / static_cast<double>(kPatterns));
  rep.set("checkpoint.record_stream_ms",
          median(tr.durationsMs("checkpoint.record_stream")));
  rep.set("checkpoint.replay_ms", median(tr.durationsMs("checkpoint.replay")));
  rep.set("core.inject_ms", median(tr.durationsMs("core.inject")));
  rep.set("checkpoint.spill_chunks", static_cast<double>(ck->spillChunkCount()));
  rep.set("checkpoint.max_chunk_bytes", static_cast<double>(ck->maxChunkBytes()));
  rep.set("checkpoint.window_budget_bytes",
          static_cast<double>(ck->windowBudgetBytes()));
  rep.set("checkpoint.resident_bytes", static_cast<double>(ck->memoryBytes()));
}

}  // namespace perfbench
