// perfbench — the repository benchmark program.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1
//             [--trace-dir DIR] [--spill-dir DIR] [--expect-checksum HEX]
//
// Runs one workload in this process for S seconds, checks every output,
// prints human-readable notes and then, as the last line, one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Untraced runs report the
// end-to-end metrics, traced runs the per-layer metrics (BENCHMARK.json
// names both sets; README.md defines them). Exit codes: 0 all operations
// correct, 1 a failed or wrong operation (the JSON line is still printed),
// 2 a bad invocation, 3 an error before any result.
#include <sys/resource.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "workloads.hpp"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json (selftest.py checks it).
constexpr MetricDef kEndToEnd[] = {
    {"grade_ms_p50", "ms"},
    {"grade_ms_tail", "ms"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

constexpr MetricDef kPerLayer[] = {
    {"core.inject_ms", "ms"},
    {"core.node_evals", "count"},
    {"core.inject_node_evals", "count"},
    {"core.phases", "count"},
    {"core.triggered_events", "count"},
    {"core.memo_probes", "count"},
    {"core.memo_hits", "count"},
    {"core.memo_hit_ratio", "ratio"},
    {"core.records_final", "count"},
    {"core.max_alive", "count"},
    {"core.ns_per_node_eval", "ns"},
    {"core.ns_per_pattern", "ns"},
    {"switch.good_run_ms", "ms"},
    {"switch.cost_ratio", "ratio"},
    {"checkpoint.record_ms", "ms"},
    {"checkpoint.resident_bytes", "bytes"},
    {"checkpoint.replay_ms", "ms"},
    {"checkpoint.record_stream_ms", "ms"},
    {"checkpoint.spill_chunks", "count"},
    {"checkpoint.max_chunk_bytes", "bytes"},
    {"checkpoint.window_budget_bytes", "bytes"},
    {"sched.plan_us", "us"},
    {"sched.batches", "count"},
    {"sched.batch_ms_max", "ms"},
    {"sched.batch_ms_sum", "ms"},
    {"sched.early_exit_frac", "ratio"},
    {"api.merge_ms", "ms"},
    {"api.cpu_sum_ms", "ms"},
    {"api.parallel_eff", "ratio"},
    {"seu.campaign_ms", "ms"},
    {"seu.injections_per_s", "1/s"},
    {"seu.node_evals", "count"},
    {"seu.groups", "count"},
    {"serve.exec_ms_p50", "ms"},
    {"serve.wait_ms_p50", "ms"},
    {"serve.submit_us", "us"},
    {"serve.store_hit_ratio", "ratio"},
    {"serve.engine_reuse_ratio", "ratio"},
    {"serve.rejected", "count"},
    {"serve.gen_lag_ms", "ms"},
    {"patterns.next_ns", "ns"},
    {"trace.overhead_ms", "ms"},
};

const char* const kWorkloads[] = {"ram256_j1", "ram256_j4", "stream_spill",
                                  "serve_open"};

std::uint64_t parseCount(const std::string& flag, const char* text) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 0);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') {
    throw UsageError(flag + ": not a non-negative integer: " + text);
  }
  return v;
}

double parsePositive(const std::string& flag, const char* text) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !(v > 0) || !std::isfinite(v)) {
    throw UsageError(flag + ": not a positive number: " + text);
  }
  return v;
}

Options parseArgs(int argc, char** argv) {
  Options o;
  bool haveWorkload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw UsageError(flag + " needs a value");
    const char* v = argv[++i];
    if (flag == "--workload") {
      o.workload = v;
      haveWorkload = true;
    } else if (flag == "--seed") {
      o.seed = parseCount(flag, v);
    } else if (flag == "--seconds") {
      o.seconds = parsePositive(flag, v);
    } else if (flag == "--trace") {
      const std::uint64_t t = parseCount(flag, v);
      if (t > 1) throw UsageError("--trace takes 0 or 1");
      o.trace = t == 1;
    } else if (flag == "--expect-checksum") {
      o.expectChecksum = parseCount(flag, v);
    } else if (flag == "--trace-dir") {
      o.traceDir = v;
    } else if (flag == "--spill-dir") {
      o.spillDir = v;
    } else {
      throw UsageError("unknown flag " + flag);
    }
  }
  if (!haveWorkload) throw UsageError("--workload is required");
  bool known = false;
  for (const char* w : kWorkloads) known = known || o.workload == w;
  if (!known) throw UsageError("unknown workload " + o.workload);
  return o;
}

void printResult(const Options& o, const Report& rep) {
  std::string out = "{\"correct\": ";
  out += rep.correct && rep.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(rep.attempted);
  out += ", \"failed\": " + std::to_string(rep.failed);
  out += ", \"metrics\": {";
  bool first = true;
  const auto emit = [&](const MetricDef& m) {
    const auto it = rep.metrics.find(m.name);
    const double v = it == rep.metrics.end() ? 0.0 : it->second;
    char num[40];
    if (std::isfinite(v)) {
      std::snprintf(num, sizeof num, "%.17g", v);
    } else {
      std::snprintf(num, sizeof num, "null");  // a refused request
    }
    if (!first) out += ", ";
    first = false;
    out.append("\"").append(m.name).append("\": {\"value\": ").append(num);
    out.append(", \"unit\": \"").append(m.unit).append("\"}");
  };
  if (o.trace) {
    for (const MetricDef& m : kPerLayer) emit(m);
  } else {
    for (const MetricDef& m : kEndToEnd) emit(m);
  }
  out += "}}";
  std::cout << out << std::endl;
}

int run(int argc, char** argv) {
  Options o;
  try {
    o = parseArgs(argc, argv);
  } catch (const UsageError& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
  Tracer tracer(o.trace);
  Report rep;
  try {
    if (o.workload == "ram256_j1" || o.workload == "ram256_j4") {
      runRam256(o, rep, tracer);
    } else if (o.workload == "stream_spill") {
      runStreamSpill(o, rep, tracer);
    } else {
      runServe(o, rep, tracer);
    }
  } catch (const UsageError& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << o.workload << ": " << e.what() << "\n";
    return 3;
  }

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  rep.set("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0);

  std::cout << "workload " << o.workload << ", seed " << o.seed << ", "
            << o.seconds << " s, trace " << o.trace << ", nproc "
            << hardwareThreads() << ", build " << FMOSSIM_BENCH_BUILD_TYPE << "\n";
  for (const std::string& n : rep.notes) std::cout << "  " << n << "\n";
  if (o.trace) {
    for (const MetricDef& m : kPerLayer) {
      if (rep.metrics.count(m.name) == 0) {
        std::cout << "  " << m.name << ": layer not exercised by this workload (0)\n";
      }
    }
    if (!o.traceDir.empty()) {
      const std::string path = o.traceDir + "/" + o.workload + "-seed" +
                               std::to_string(o.seed) + ".spans.jsonl";
      tracer.write(path);
      std::cout << "  " << tracer.size() << " spans written to " << path << "\n";
    }
  }
  printResult(o, rep);
  return rep.correct && rep.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
