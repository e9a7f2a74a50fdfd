// In-memory span recorder for the benchmark's traced mode.
//
// A span is one timed call into a library layer: name, start, end, the span
// that was open on the same thread when it started (its parent), and a run
// id shared by every span of one grading run or request. Spans stay in
// memory while the benchmark measures and are written out once at exit, so
// recording costs two clock reads and one locked append per call.
//
// With tracing off a Span still times its interval (the untraced mode uses
// the same stopwatch) but records nothing.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct SpanRecord {
  std::string name;
  std::uint32_t run = 0;
  std::int64_t parent = -1;  ///< index into the span list, -1 for a root
  double startUs = 0.0;      ///< microseconds since the tracer's origin
  double endUs = 0.0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Opens a span under the calling thread's innermost open span; returns
  /// its index. Only called when enabled.
  std::int64_t open(std::string_view name, std::uint32_t run,
                    Clock::time_point start);
  void close(std::int64_t id, Clock::time_point end);

  /// Durations in milliseconds of every closed span called `name`.
  std::vector<double> durationsMs(std::string_view name) const;
  /// The same, grouped by run id.
  std::map<std::uint32_t, std::vector<double>> durationsByRun(
      std::string_view name) const;

  /// Writes one JSON object per span and line.
  void write(const std::string& path) const;

  std::size_t size() const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // guarded by mu_
};

/// Times one call; records it in the tracer when tracing is on.
class Span {
 public:
  Span(Tracer& tracer, std::string_view name, std::uint32_t run)
      : tracer_(tracer), start_(Clock::now()) {
    if (tracer_.enabled()) id_ = tracer_.open(name, run, start_);
  }
  ~Span() { stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Closes the span (idempotent) and returns its duration in milliseconds.
  double stop() {
    if (!stopped_) {
      end_ = Clock::now();
      stopped_ = true;
      if (id_ >= 0) tracer_.close(id_, end_);
    }
    return std::chrono::duration<double, std::milli>(end_ - start_).count();
  }

 private:
  Tracer& tracer_;
  Clock::time_point start_;
  Clock::time_point end_;
  std::int64_t id_ = -1;
  bool stopped_ = false;
};

}  // namespace perfbench
