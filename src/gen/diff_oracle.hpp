// Cross-backend differential oracle.
//
// The paper's central correctness claim is that concurrent fault simulation
// produces *exactly* the results of serially simulating every faulty
// circuit, only faster. The oracle checks that claim mechanically: it runs
// one workload through the serial backend (ground truth) and through the
// concurrent backend at every configured shard count, and diffs the full
// FaultSimResults — per-fault detection patterns, detection counts,
// potential (X) detections, per-pattern rows and final good-circuit node
// states.
//
// On a divergence the oracle shrinks the workload to a minimized reproducer
// by delta-debugging the fault list and truncating the pattern sequence,
// re-checking after every candidate reduction. Together with the seeded
// generator (random_circuit.hpp) a failure report is fully reproducible
// from its seed alone.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "api/engine.hpp"
#include "gen/random_circuit.hpp"

namespace fmossim {

struct OracleOptions {
  DetectionPolicy policy = DetectionPolicy::DefiniteOnly;
  bool dropDetected = true;
  /// Concurrent-side comparands: one engine per jobs value (1 = plain
  /// concurrent, >1 = sharded). The serial backend is always ground truth.
  /// Besides the full result diff, all concurrent-family comparands must
  /// report the same totalNodeEvals (the work counter is shard invariant).
  std::vector<unsigned> jobsVariants = {1, 2, 4};
  SimOptions sim;
  /// Shrink failing workloads to a minimized reproducer.
  bool shrink = true;
  /// Upper bound on cross-backend comparison runs spent shrinking.
  std::uint32_t maxShrinkRuns = 160;
  /// Bug injector forwarded to the concurrent comparands (never the serial
  /// reference) — the oracle's own mutation test. 0 = off.
  std::uint32_t debugLoseTriggerEvery = 0;
  /// Also run every concurrent-family comparand through the streaming entry
  /// (Engine::runStream over a MaterializedPatternSource), derive its rows
  /// (core/row_sink.hpp) and hold it to the same full diff + totalNodeEvals
  /// invariant — the property that the pull-based pattern path is
  /// bit-identical to the materialized one.
  bool checkStreaming = true;
};

/// First observed cross-backend mismatch.
struct Divergence {
  std::string backend;  ///< diverging comparand ("concurrent", "sharded-4")
  std::string field;    ///< result field ("detectedAtPattern", ...)
  std::string detail;   ///< human-readable first mismatch
};

struct OracleReport {
  std::uint64_t seed = 0;
  bool ok = true;
  /// Valid when !ok; refers to the *minimized* workload.
  Divergence divergence;
  /// Minimized reproducer: indices into the original fault list, and the
  /// surviving pattern-sequence prefix length.
  std::vector<std::uint32_t> faultIndices;
  std::vector<std::string> faultNames;
  std::uint32_t numPatterns = 0;
  /// Cross-backend comparison runs performed (1 check + shrinking).
  std::uint32_t checkRuns = 0;

  /// Multi-line human report ("OK ..." / "DIVERGENCE ... minimized: ...").
  std::string summary() const;
};

class DiffOracle {
 public:
  explicit DiffOracle(OracleOptions options = {});

  const OracleOptions& options() const { return options_; }

  /// Checks one workload; `seed` only labels the report. On divergence the
  /// workload is shrunk to a minimized reproducer (if options().shrink).
  OracleReport check(const Network& net, const FaultList& faults,
                     const TestSequence& seq, std::uint64_t seed = 0);

  OracleReport check(const GeneratedWorkload& w) {
    return check(w.net, w.faults, w.seq, w.options.seed);
  }

 private:
  /// `backendName` (optional out) receives the name of the backend that
  /// actually ran, suffixed with the jobs count for sharded runs and
  /// "-stream" for streaming runs. `stream`
  /// drives the sequence through Engine::runStream (a
  /// MaterializedPatternSource over `seq`) and derives the rowless result's
  /// per-pattern rows so the caller can diff it like a materialized one.
  FaultSimResult runBackend(const Network& net, const FaultList& faults,
                            const TestSequence& seq, Backend backend,
                            unsigned jobs, std::string* backendName,
                            bool stream = false) const;
  /// One full serial-vs-all-comparands comparison.
  std::optional<Divergence> diverges(const Network& net,
                                     const FaultList& faults,
                                     const TestSequence& seq,
                                     std::uint32_t& runs) const;

  OracleOptions options_;
};

}  // namespace fmossim
