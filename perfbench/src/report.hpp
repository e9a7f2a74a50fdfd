// Shared types: the parsed command line, the per-run report every
// workload fills, and the order statistics the metrics are built from.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "calibration.hpp"
#include "trace.hpp"

namespace perfbench {

/// Bad invocation (unknown workload, too few hardware threads): exit code 2.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Replaces the RAM256 reference checksum (the self-test's negative case).
  std::uint64_t expectChecksum = 0;
  std::string traceDir;  ///< where the traced mode writes its spans
  std::string spillDir;  ///< where spilled checkpoints write their traces
};

/// What one run measured and checked.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  std::vector<std::string> notes;  ///< human-readable lines before the JSON

  /// Counts one operation; a false `ok` counts it failed and, for a wrong
  /// output, marks the run incorrect.
  void check(bool ok, const std::string& what, bool wrongOutput = true) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (wrongOutput) correct = false;
    if (notes.size() < 64) notes.push_back("FAILED: " + what);
  }
  void note(const std::string& line) { notes.push_back(line); }
  void set(const std::string& name, double value) { metrics[name] = value; }
};

/// Samples a timed loop needs before it may stop: the tail statistic needs
/// ten samples beyond it.
constexpr std::size_t kMinSamples = 11;

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The highest percentile with at least ten samples beyond it: the 11th
/// largest sample, at nearest-rank percentile 100 * (n - 10) / n.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t n = 0;
};

inline Tail tail(std::vector<double> v) {
  if (v.size() < kMinSamples) {
    throw std::runtime_error("tail needs at least 11 samples, have " +
                             std::to_string(v.size()));
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return {v[n - 11], 100.0 * static_cast<double>(n - 10) / static_cast<double>(n),
          n};
}

inline double seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Reports the end-to-end metrics: the scaled time of each operation
/// (`ms`: a grading run, or a request from due to done), the same times as
/// measured (`rawMs`), and the scaled seconds of each set-up (`setupS`).
inline void setEndToEndMetrics(Report& rep, const std::vector<double>& ms,
                               const std::vector<double>& rawMs,
                               const std::vector<double>& setupS) {
  const Tail t = tail(ms);
  rep.set("grade_ms_p50", median(ms));
  rep.set("grade_ms_tail", t.value);
  rep.set("setup_s", median(setupS));
  rep.note("grade_ms_tail is p" + std::to_string(t.percentile) + " of n=" +
           std::to_string(t.n));
  rep.note("measured (unscaled) grade_ms_p50 " + std::to_string(median(rawMs)) +
           " ms, tail " + std::to_string(tail(rawMs).value) + " ms");
}

/// The untraced loop of a closed-loop workload: until `secs` have passed
/// and at least kMinSamples runs were made, a probe then `grade(id)`, and
/// after every `setupEvery`-th run `setup(id)` (which probes for itself).
/// Reports the end-to-end metrics.
template <typename Grade, typename Setup>
void runClosedLoop(Report& rep, Calibrator& cal, double secs, std::uint32_t& run,
                   std::uint32_t setupEvery, Grade&& grade, Setup&& setup,
                   const std::vector<double>& setupS) {
  std::vector<double> ms, raw;
  const Clock::time_point start = Clock::now();
  while (ms.size() < kMinSamples || seconds(start, Clock::now()) < secs) {
    const std::uint32_t id = run++;
    double r = 0.0;
    ms.push_back(cal.scaled([&] { return grade(id); }, &r));
    raw.push_back(r);
    if (id % setupEvery == 0) setup(id);
  }
  setEndToEndMetrics(rep, ms, raw, setupS);
}

/// The traced mode's grading loop: until `secs` have passed and at least
/// three pairs were made, `op(tracer, id)` runs once untraced and once into
/// `tr`, in alternating order, each right after a speed probe, so the two
/// runs of a pair share host phase, call path and warm state. Sets
/// trace.overhead_ms to the median over the pairs of traced minus
/// untraced scaled time; returns the traced runs' measured milliseconds.
template <typename Op>
std::vector<double> tracedPairs(Report& rep, Calibrator& cal, Tracer& tr, double secs,
                                std::uint32_t& run, Op&& op) {
  Tracer off(false);
  std::vector<double> diff, raw;
  const Clock::time_point start = Clock::now();
  while (raw.size() < 3 || seconds(start, Clock::now()) < secs) {
    double traced = 0.0, untraced = 0.0, r = 0.0;
    const auto runTraced = [&] { traced = cal.scaled([&] { return op(tr, run++); }, &r); };
    const auto runUntraced = [&] { untraced = cal.scaled([&] { return op(off, run++); }); };
    if (raw.size() % 2 == 0) {
      runUntraced();
      runTraced();
    } else {
      runTraced();
      runUntraced();
    }
    diff.push_back(traced - untraced);
    raw.push_back(r);
  }
  rep.set("trace.overhead_ms", median(diff));
  return raw;
}

}  // namespace perfbench
