// The benchmark's workloads. Each one builds its inputs through the
// library's own scenario registry and generators, times calls into the
// library's public functions from outside, checks every output, and fills
// the Report with the end-to-end metrics (untraced) or the per-layer
// metrics (traced).
#pragma once

#include <algorithm>
#include <thread>

#include "api/engine.hpp"
#include "core/concurrent_sim.hpp"
#include "report.hpp"

namespace perfbench {

/// ram256_j1 and ram256_j4: the paper's RAM256 test sequence 1.
void runRam256(const Options& options, Report& report, Tracer& tracer);

/// stream_spill: a long generated sequence streamed through a spilled
/// checkpoint.
void runStreamSpill(const Options& options, Report& report, Tracer& tracer);

/// serve_open: open-loop traffic into an in-process daemon.
void runServe(const Options& options, Report& report, Tracer& tracer);

/// The core-engine options Engine derives from EngineOptions for its
/// concurrent backends (api/engine.cpp), so direct ConcurrentFaultSimulator
/// calls run exactly what Engine::run runs.
inline fmossim::FsimOptions coreOptions(const fmossim::EngineOptions& e) {
  fmossim::FsimOptions f;
  f.sim = e.sim;
  f.policy = e.policy;
  f.dropDetected = e.dropDetected;
  f.laneWidth = e.laneWidth;
  f.checkpointReadAhead = e.checkpointReadAhead;
  return f;
}

/// The core engine's work counters after a run that returned `r`.
inline void setCoreCounters(Report& rep, const fmossim::ConcurrentFaultSimulator& sim,
                            const fmossim::FaultSimResult& r) {
  rep.set("core.inject_node_evals",
          static_cast<double>(sim.nodeEvals() - r.totalNodeEvals));
  rep.set("core.phases", static_cast<double>(sim.phaseCount()));
  rep.set("core.triggered_events", static_cast<double>(sim.triggeredEvents()));
  rep.set("core.memo_probes", static_cast<double>(sim.memoProbes()));
  rep.set("core.memo_hits", static_cast<double>(sim.memoHits()));
  rep.set("core.memo_hit_ratio",
          sim.memoProbes() == 0 ? 0.0
                                : static_cast<double>(sim.memoHits()) /
                                      static_cast<double>(sim.memoProbes()));
  rep.set("core.records_final", static_cast<double>(r.finalRecords));
  rep.set("core.max_alive", static_cast<double>(r.maxAlive));
}

inline unsigned hardwareThreads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

}  // namespace perfbench
