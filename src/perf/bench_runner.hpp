/// \file
/// BenchRunner — the reproducible performance harness.
///
/// Wraps the Engine API: for every named scenario (scenarios.hpp) it runs
/// the scenario's configuration matrix with warmup + repetition, reports
/// median and standard deviation of wall-clock time plus the deterministic
/// work counter, and computes a result checksum over the semantically
/// meaningful result fields (detections, per-pattern detection rows, final
/// good states) so bit-identity across backends and across optimization PRs
/// is visible in the emitted numbers themselves.
///
/// Results serialize to schema-versioned BENCH_<scenario>.json files
/// (bench_json.hpp); docs/BENCHMARKING.md documents the schema and CI
/// uploads the files as artifacts.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "perf/scenarios.hpp"

namespace fmossim::perf {

/// Harness knobs. The defaults are the full measurement configuration; smoke
/// mode (CI, ctest) drops to one repetition with no warmup so the harness
/// stays exercised without costing minutes.
struct BenchConfig {
  unsigned warmup = 1;  ///< unmeasured runs before the measured repetitions
  unsigned reps = 5;    ///< measured repetitions per row (median reported)
  /// Smoke mode: forces warmup = 0, reps = 1 (harness self-test speed).
  bool smoke = false;
  /// Scenario-name filter; empty means every registered scenario, in
  /// scenarioNames() order. Unknown names throw Error.
  std::vector<std::string> only;
  /// Overrides every scenario's checkpoint-store memory budget (bytes; 0 =
  /// unbounded) when set — the CLI's `--checkpoint-budget`. Unset keeps each
  /// scenario's own Workload::checkpointBudgetBytes.
  std::optional<std::size_t> checkpointBudget;

  /// Warmup runs actually performed (0 in smoke mode).
  unsigned effectiveWarmup() const { return smoke ? 0 : warmup; }
  /// Measured repetitions actually performed (1 in smoke mode).
  unsigned effectiveReps() const { return smoke ? 1 : reps; }
};

/// One measured (scenario, configuration) cell.
struct BenchRow {
  std::string backend;  ///< "serial", "concurrent", "sharded-<jobs>" (plus a
                        ///< "-hist" suffix for history-scheduled rows)
  unsigned jobs = 1;    ///< shard count (1 for serial/plain concurrent)
  std::string policy;   ///< "any" or "definite"
  bool dropDetected = true;  ///< drop faulty circuits once detected
  /// True when the row ran through Engine::runStream over a pattern source
  /// (Workload::streamConfig) instead of a materialized sequence. The
  /// checksum stays comparable either way: resultChecksum folds the derived
  /// row triples for rowless streaming results.
  bool streamed = false;
  /// Batch-layout policy the row ran under ("contiguous" or "history").
  /// Additive schema field: emitted only when non-default, so baselines
  /// written by older builds parse unchanged (like `streamed`).
  std::string schedule = "contiguous";
  double medianMs = 0.0;  ///< median wall-clock per full run, milliseconds
  double stddevMs = 0.0;  ///< sample stddev over the repetitions
  unsigned reps = 0;      ///< number of measured repetitions
  /// FNV-1a checksum over detections, per-pattern detection rows and final
  /// good-circuit states (resultChecksum). Equal checksums across rows mean
  /// the backends produced bit-identical results.
  std::uint64_t checksum = 0;
  std::uint64_t nodeEvals = 0;  ///< deterministic work counter (machine-free)
  std::uint32_t numDetected = 0;  ///< faults detected by the sequence
  std::uint32_t numFaults = 0;    ///< fault-universe size
};

/// Service-mode measurement summary (the `loadgen` harness's
/// BENCH_serve_mixed.json): client-observed latency percentiles and the
/// daemon-side reuse counters that make the numbers interpretable. Absent
/// from ordinary bench files.
struct ServiceSummary {
  std::uint32_t requests = 0;           ///< requests replayed
  std::uint32_t distinctWorkloads = 0;  ///< distinct (circuit, sequence) pairs
  std::uint32_t poolEngines = 0;        ///< daemon engine slots
  std::uint32_t workers = 0;            ///< daemon worker threads
  double requestsPerSec = 0.0;          ///< completed / wall time
  double p50Ms = 0.0;  ///< median client-observed latency, milliseconds
  double p95Ms = 0.0;  ///< 95th-percentile latency
  double p99Ms = 0.0;  ///< 99th-percentile latency
  std::uint64_t storeHits = 0;        ///< checkpoint-store cache hits
  std::uint64_t storeRecordings = 0;  ///< good-machine recordings performed
  std::uint64_t engineReuses = 0;     ///< requests served by a live engine
};

/// SEU campaign measurement summary (scenarios with Workload::seuCampaign):
/// the campaign shape and its outcome tally. Identical across the
/// scenario's rows (the rows are bit-identical gradings of one campaign),
/// so it is recorded once per scenario. Absent from ordinary bench files.
struct SeuSummary {
  std::uint32_t injections = 0;  ///< transient faults graded
  std::uint32_t instants = 0;    ///< distinct injection instants (= groups)
  std::uint32_t detected = 0;    ///< output mismatch at some pattern
  std::uint32_t silent = 0;      ///< reconverged, no divergence left
  std::uint32_t latent = 0;      ///< undetected but state differs at end
};

/// One scenario's complete measurement (a BENCH_<scenario>.json file).
struct ScenarioResult {
  int schemaVersion = 1;     ///< see docs/BENCHMARKING.md
  std::string scenario;      ///< registry name
  std::string description;   ///< scenario description (incl. paper reference)
  std::uint32_t transistors = 0;  ///< circuit size
  std::uint32_t nodes = 0;        ///< circuit size
  std::uint32_t faults = 0;       ///< fault-universe size
  std::uint32_t patterns = 0;     ///< test-sequence length
  std::vector<BenchRow> rows;     ///< one row per measured configuration
  /// Checkpoint-store memory budget the scenario ran under (bytes; 0 =
  /// unbounded in-memory traces).
  std::uint64_t checkpointBudget = 0;
  /// Good-machine recordings the scenario's shared checkpoint store
  /// performed across ALL its rows, warmups and repetitions — exactly 1 for
  /// any scenario with sharded rows (the cross-row sharing guarantee), 0
  /// for scenarios without them.
  std::uint32_t checkpointRecordings = 0;
  /// Resident footprint (memoryBytes()) of the store's checkpoints after
  /// the measured runs — stays within checkpointBudget when one is set.
  std::uint64_t checkpointResidentBytes = 0;
  /// Measurement host provenance (additive: absent fields parse as empty,
  /// so older baselines stay readable). UTC timestamp, "YYYY-MM-DDTHH:MM:SSZ".
  std::string hostTimestamp;
  /// std::thread::hardware_concurrency() on the measuring host (0 = unknown).
  std::uint32_t hostHardwareConcurrency = 0;
  /// "release" or "debug" (from NDEBUG); empty = unknown (pre-host baseline).
  std::string hostBuildType;
  /// Service-mode summary; set only by the loadgen harness.
  std::optional<ServiceSummary> service;
  /// SEU campaign summary; set only for SEU grading scenarios.
  std::optional<SeuSummary> seu;
};

/// Stamps the host provenance fields (timestamp, hardware concurrency, build
/// type) into a result; used by both the bench runner and the loadgen
/// harness so every emitted BENCH file records where it was measured.
void fillHostInfo(ScenarioResult& r);

/// Checksum of the backend-invariant result fields (the same fields the
/// differential oracle compares): per-fault detecting patterns, detection
/// counts, potential detections, per-pattern detection rows, final
/// good-circuit states. FNV-1a, stable across platforms. For a rowless
/// streaming result (perPattern empty, numPatterns > 0) the per-pattern
/// triples are folded from the derived rows (core/row_sink.hpp), so a
/// streamed run's checksum equals the materialized run's exactly.
std::uint64_t resultChecksum(const FaultSimResult& res);

/// Runs the scenario matrix; see the file comment.
class BenchRunner {
 public:
  /// Constructs a runner with the given measurement configuration.
  explicit BenchRunner(BenchConfig config = {});

  /// The configuration this runner measures with.
  const BenchConfig& config() const { return config_; }

  /// The scenarios this runner will measure, honoring config().only, in
  /// deterministic registry order. Throws Error on unknown filter names.
  std::vector<std::string> selectedScenarios() const;

  /// Measures one scenario (every row in its matrix).
  ScenarioResult runScenario(const std::string& name) const;

  /// Like runScenario(); `onRow` fires live after each measured row.
  ScenarioResult runScenario(
      const std::string& name,
      const std::function<void(const ScenarioResult&, const BenchRow&)>&
          onRow) const;

  /// Measures every selected scenario. `onRow` (optional) fires after each
  /// measured row for live progress reporting.
  std::vector<ScenarioResult> runAll(
      const std::function<void(const ScenarioResult&, const BenchRow&)>&
          onRow = nullptr) const;

 private:
  BenchConfig config_;
};

}  // namespace fmossim::perf
