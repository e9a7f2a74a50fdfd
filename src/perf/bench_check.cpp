#include "perf/bench_check.hpp"

#include <cinttypes>
#include <cstdio>
#include <filesystem>

#include "perf/bench_json.hpp"
#include "util/strings.hpp"

namespace fmossim::perf {

namespace {

std::string rowKey(const BenchRow& row) {
  return format("%s jobs=%u policy=%s drop=%s%s%s",
                row.backend.c_str(), row.jobs, row.policy.c_str(),
                row.dropDetected ? "yes" : "no",
                row.streamed ? " streamed" : "",
                row.schedule != "contiguous"
                    ? (" schedule=" + row.schedule).c_str()
                    : "");
}

const BenchRow* findRow(const ScenarioResult& sr, const BenchRow& like) {
  for (const BenchRow& row : sr.rows) {
    if (row.backend == like.backend && row.jobs == like.jobs &&
        row.policy == like.policy && row.dropDetected == like.dropDetected &&
        row.streamed == like.streamed &&
        row.schedule == like.schedule) {
      return &row;
    }
  }
  return nullptr;
}

std::string readFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw Error("cannot read baseline file '" + path + "'");
  }
  std::string text;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  const bool bad = std::ferror(f) != 0;
  std::fclose(f);
  if (bad) throw Error("error reading baseline file '" + path + "'");
  return text;
}

}  // namespace

void checkScenarioAgainstBaseline(const ScenarioResult& fresh,
                                  const ScenarioResult& baseline,
                                  double tolerancePct, CheckReport& report) {
  const auto issue = [&](const std::string& row, std::string detail) {
    report.issues.push_back({fresh.scenario, row, std::move(detail)});
  };
  if (fresh.faults != baseline.faults || fresh.patterns != baseline.patterns ||
      fresh.transistors != baseline.transistors ||
      fresh.nodes != baseline.nodes) {
    issue("", format("workload shape changed: baseline %u faults/%u patterns/"
                     "%u transistors, fresh %u/%u/%u — refresh the baseline",
                     baseline.faults, baseline.patterns, baseline.transistors,
                     fresh.faults, fresh.patterns, fresh.transistors));
    return;  // row comparisons would only repeat the message
  }
  // SEU grading scenarios: the campaign outcome tally is deterministic, so
  // it is gated exactly like checksums — any drift means the grading
  // semantics changed.
  if (fresh.seu.has_value() != baseline.seu.has_value()) {
    issue("", fresh.seu.has_value()
                  ? "fresh results carry an seu summary the baseline lacks — "
                    "refresh the baseline"
                  : "baseline carries an seu summary the fresh results lack");
  } else if (fresh.seu.has_value()) {
    const SeuSummary& f = *fresh.seu;
    const SeuSummary& b = *baseline.seu;
    if (f.injections != b.injections || f.instants != b.instants ||
        f.detected != b.detected || f.silent != b.silent ||
        f.latent != b.latent) {
      issue("", format("seu grading drift: baseline %u injections/%u instants "
                       "-> %u detected/%u silent/%u latent, fresh %u/%u -> "
                       "%u/%u/%u — the campaign result changed",
                       b.injections, b.instants, b.detected, b.silent,
                       b.latent, f.injections, f.instants, f.detected,
                       f.silent, f.latent));
    }
  }
  for (const BenchRow& base : baseline.rows) {
    if (findRow(fresh, base) == nullptr) {
      issue(rowKey(base), "row missing from fresh results (matrix changed "
                          "without a baseline refresh)");
    }
  }
  for (const BenchRow& row : fresh.rows) {
    const BenchRow* base = findRow(baseline, row);
    if (base == nullptr) {
      issue(rowKey(row), "row missing from baseline (matrix changed without "
                         "a baseline refresh)");
      continue;
    }
    ++report.rowsChecked;
    if (row.checksum != base->checksum) {
      issue(rowKey(row),
            format("result checksum drift: baseline 0x%016" PRIx64
                   ", fresh 0x%016" PRIx64 " — the simulation result changed",
                   base->checksum, row.checksum));
    }
    if (row.nodeEvals != base->nodeEvals) {
      issue(rowKey(row),
            format("nodeEvals drift: baseline %llu, fresh %llu — the "
                   "deterministic work counter changed",
                   static_cast<unsigned long long>(base->nodeEvals),
                   static_cast<unsigned long long>(row.nodeEvals)));
    }
    if (row.numDetected != base->numDetected ||
        row.numFaults != base->numFaults) {
      issue(rowKey(row), format("detection drift: baseline %u/%u, fresh %u/%u",
                                base->numDetected, base->numFaults,
                                row.numDetected, row.numFaults));
    }
    const double limit = base->medianMs * (1.0 + tolerancePct / 100.0);
    if (row.medianMs > limit) {
      issue(rowKey(row),
            format("wall-clock regression: baseline median %.3f ms, fresh "
                   "%.3f ms (+%.1f%%, tolerance %.0f%%)",
                   base->medianMs, row.medianMs,
                   100.0 * (row.medianMs / base->medianMs - 1.0),
                   tolerancePct));
    }
  }
}

void checkServiceBaselineShape(const ScenarioResult& baseline,
                               CheckReport& report) {
  const auto issue = [&](std::string detail) {
    report.issues.push_back({baseline.scenario, "", std::move(detail)});
  };
  if (!baseline.service.has_value()) {
    issue("not a service benchmark (no \"service\" object)");
    return;
  }
  const ServiceSummary& s = *baseline.service;
  if (baseline.rows.empty()) issue("service benchmark has no rows");
  if (s.requests == 0) issue("service benchmark replayed zero requests");
  if (s.requestsPerSec <= 0.0) issue("requestsPerSec must be positive");
  if (s.p99Ms <= 0.0) issue("p99 latency must be positive");
  if (s.p50Ms > s.p95Ms || s.p95Ms > s.p99Ms) {
    issue(format("latency percentiles out of order: p50 %.3f, p95 %.3f, "
                 "p99 %.3f",
                 s.p50Ms, s.p95Ms, s.p99Ms));
  }
  if (s.storeRecordings == 0) {
    issue("service benchmark performed no good-machine recordings (the "
          "shared checkpoint store was never engaged)");
  }
  if (s.distinctWorkloads > 0 && s.requests > s.distinctWorkloads &&
      s.storeHits == 0) {
    issue("repeat submissions but zero checkpoint-store hits — engine reuse "
          "is broken");
  }
  for (const BenchRow& row : baseline.rows) {
    ++report.rowsChecked;
    if (row.checksum == 0) {
      issue(rowKey(row) + ": zero result checksum");
    }
  }
}

CheckReport checkAgainstBaselines(const std::vector<ScenarioResult>& fresh,
                                  const CheckOptions& options) {
  CheckReport report;
  for (const ScenarioResult& sr : fresh) {
    const std::string path = (options.baselineDir.empty()
                                  ? std::string(".")
                                  : options.baselineDir) +
                             "/" + benchFileName(sr.scenario);
    ScenarioResult baseline;
    try {
      baseline = parseBenchJson(readFile(path));
    } catch (const Error& e) {
      report.issues.push_back({sr.scenario, "", e.what()});
      continue;
    }
    checkScenarioAgainstBaseline(sr, baseline, options.tolerancePct, report);
  }
  if (options.expectComplete) {
    // The reverse direction: every baseline file must still have a live
    // scenario, or the registry changed without cleaning up.
    const std::string dir =
        options.baselineDir.empty() ? std::string(".") : options.baselineDir;
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("BENCH_", 0) != 0 ||
          name.find(".json") != name.size() - 5) {
        continue;
      }
      const std::string scenario = name.substr(6, name.size() - 6 - 5);
      bool live = false;
      for (const ScenarioResult& sr : fresh) {
        if (sr.scenario == scenario) {
          live = true;
          break;
        }
      }
      if (!live) {
        // A baseline with no live scenario is stale — unless it is a
        // service benchmark (loadgen emits BENCH_serve_mixed.json outside
        // the scenario registry); those are shape-validated instead of
        // compared.
        bool handled = false;
        try {
          const ScenarioResult baseline =
              parseBenchJson(readFile(entry.path().string()));
          if (baseline.service.has_value()) {
            checkServiceBaselineShape(baseline, report);
            handled = true;
          }
        } catch (const Error&) {
          // Unparsable: fall through to the stale-baseline issue below.
        }
        if (!handled) {
          report.issues.push_back(
              {scenario, "",
               "stale baseline file '" + name +
                   "' has no matching scenario in the fresh run — remove it "
                   "or restore the scenario"});
        }
      }
    }
    if (ec) {
      report.issues.push_back(
          {"", "", "cannot scan baseline directory '" + dir +
                       "': " + ec.message()});
    }
  }
  return report;
}

}  // namespace fmossim::perf
