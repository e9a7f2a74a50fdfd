// Ablation: fault dropping on vs. off (the "tail end effect" of §5).
//
// The paper's performance ratio of 18 for Figure 1 "is gained largely during
// the tail end of the simulation, when many faults can be simulated
// concurrently at little additional cost" — but only because detected faults
// are dropped. Without dropping, every detected fault keeps diverging and
// the cost stays high.
#include <cstdio>

#include "bench_util.hpp"

using namespace fmossim;
using namespace fmossim::bench;

int main() {
  banner("Ablation: fault dropping on/off (RAM64, sequence 1)");

  // The workload is the registry's "ram64_seq1" scenario — the same bytes
  // the BENCH_ram64_seq1.json harness rows measure.
  const perf::Workload w = perf::buildScenarioWorkload("ram64_seq1");
  const FaultList& faults = w.faults;
  const TestSequence& seq = w.seq;

  EngineOptions dropOff = paperEngineOptions();
  dropOff.dropDetected = false;

  Engine engineOn(w.net, faults, paperEngineOptions());
  const FaultSimResult on = engineOn.run(seq);
  Engine engineOff(w.net, faults, dropOff);
  const FaultSimResult off = engineOff.run(seq);

  std::printf("  %-22s %14s %16s %14s\n", "configuration", "total (s)",
              "node evals", "final records");
  std::printf("  %-22s %14.3f %16llu %14llu\n", "dropping ON", on.totalSeconds,
              (unsigned long long)on.totalNodeEvals,
              (unsigned long long)on.finalRecords);
  std::printf("  %-22s %14.3f %16llu %14llu\n", "dropping OFF", off.totalSeconds,
              (unsigned long long)off.totalNodeEvals,
              (unsigned long long)off.finalRecords);

  const double speedup = double(off.totalNodeEvals) / double(on.totalNodeEvals);
  std::printf("\n  dropping saves %.1fx in work units (%.1fx wall)\n", speedup,
              off.totalSeconds / on.totalSeconds);
  std::printf("  detections identical: %s (%u vs %u)\n",
              on.numDetected == off.numDetected ? "yes" : "NO",
              on.numDetected, off.numDetected);

  // Per-pattern cost late in the run: with dropping the tail is cheap.
  const double tailOn = meanNodeEvalsPerPattern(on, 300, seq.size());
  const double tailOff = meanNodeEvalsPerPattern(off, 300, seq.size());
  std::printf("  tail (patterns 300+) evals/pattern: ON %.0f vs OFF %.0f (%.1fx)\n",
              tailOn, tailOff, tailOff / tailOn);

  bool ok = true;
  ok &= on.numDetected == off.numDetected;  // dropping must not change results
  ok &= speedup > 1.5;
  ok &= tailOff > 2.0 * tailOn;
  std::printf("\n  Shape checks: %s\n", ok ? "[OK]" : "[FAILED]");
  return ok ? 0 : 1;
}
