// Host-speed calibration for the end-to-end times.
//
// The shared hosts this benchmark runs on change speed by up to 2x for
// seconds to minutes at a time (other tenants' load; thread CPU time rises
// with wall time, so it is not stolen time). Raw wall times of one build
// then differ between runs by more than the regressions the benchmark must
// catch. A fixed CPU-bound probe run right before each measured operation
// tracks that speed: an xorshift generator with a data-dependent branch, no
// memory traffic and no library code, so no change to the program moves
// it. Probes run only while the program is idle (between closed-loop
// operations, between rounds of serve traffic), so the program cannot slow
// its own probe. Each time is scaled by kReferenceProbeMs / probe time: the
// time the operation would have taken on a host where the probe takes
// kReferenceProbeMs.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

namespace perfbench {

/// The reference host speed: the probe takes this long there. A fixed unit,
/// near the probe time on the 4-vCPU Xeon VM the benchmark was defined on.
constexpr double kReferenceProbeMs = 10.0;

class Calibrator {
 public:
  /// Runs the probe; returns its wall time in milliseconds.
  double probeMs() {
    const auto start = std::chrono::steady_clock::now();
    std::uint64_t x = state_;
    std::uint64_t acc = 0;
    for (std::uint32_t i = 0; i < kSteps; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      if ((x & 1) != 0) {
        acc += x >> 3;
      } else {
        acc ^= x * 3;
      }
    }
    // Keeps the loop: its result is otherwise dead once inlined.
    asm volatile("" : : "r"(acc) : "memory");
    state_ = x;
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
  }

  /// Runs the probe on `threads` threads at once; returns the slowest
  /// thread's wall time in milliseconds: the speed of a job that needs
  /// that many threads to finish.
  double parallelProbeMs(unsigned threads) {
    std::vector<double> ms(threads);
    std::vector<std::thread> others;
    for (unsigned t = 1; t < threads; ++t) {
      others.emplace_back([&ms, t] { ms[t] = Calibrator().probeMs(); });
    }
    ms[0] = probeMs();
    for (std::thread& th : others) th.join();
    return *std::max_element(ms.begin(), ms.end());
  }

  /// Runs a probe, then `work` (which returns its milliseconds); returns the
  /// work's time scaled to the reference host speed and stores the measured
  /// time in `*raw` when given.
  template <typename Work>
  double scaled(Work&& work, double* raw = nullptr) {
    const double probe = probeMs();
    const double ms = work();
    if (raw != nullptr) *raw = ms;
    return ms * kReferenceProbeMs / probe;
  }

 private:
  static constexpr std::uint32_t kSteps = 1000000;
  std::uint64_t state_ = 0x9e3779b97f4a7c15ULL;
};

}  // namespace perfbench
