#include "perf/bench_json.hpp"

#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>

#include "util/strings.hpp"

namespace fmossim::perf {

namespace {

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out;
}

// Fixed-precision float rendering: stable round-trip without locale traps.
std::string num(double v) { return format("%.6f", v); }

// ----------------------------------------------------------------- parser --
//
// Minimal recursive-descent JSON parser covering the subset toJson() emits
// (objects, arrays, strings with the escapes above, numbers, booleans).
// Errors carry the byte offset for debuggability.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  // --- values ---------------------------------------------------------------

  void expect(char c) {
    skipWs();
    if (pos_ >= text_.size() || text_[pos_] != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool tryConsume(char c) {
    skipWs();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  std::string parseString() {
    expect('"');
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("unterminated escape");
        const char e = text_[pos_++];
        switch (e) {
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          default: fail("unsupported escape");
        }
      }
      out += c;
    }
    expect('"');
    return out;
  }

  double parseNumber() {
    skipWs();
    const char* start = text_.c_str() + pos_;
    char* end = nullptr;
    const double v = std::strtod(start, &end);
    if (end == start) fail("expected number");
    pos_ += static_cast<std::size_t>(end - start);
    return v;
  }

  /// A count member: a plain non-negative decimal integer that fits T, read
  /// exactly (no double round trip). A sign, fraction, exponent or
  /// out-of-range value throws Error naming `key`.
  template <typename T>
  T parseCount(const std::string& key) {
    skipWs();
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.')) {
      ++pos_;
    }
    const std::string token = text_.substr(start, pos_ - start);
    const std::uint64_t max = std::numeric_limits<T>::max();
    const ParsedNumber n = parseDecimal(token, max);
    if (n.status != NumberStatus::Ok) {
      pos_ = start;
      fail(format("'%s' must be an integer in [0, %llu], got '%s'",
                  key.c_str(), static_cast<unsigned long long>(max),
                  token.c_str()));
    }
    return static_cast<T>(n.value);
  }

  bool parseBool() {
    skipWs();
    if (text_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      return false;
    }
    fail("expected boolean");
    return false;  // unreachable
  }

  /// Iterates an object: calls onKey(key) for each member (the callback must
  /// consume the value).
  template <typename F>
  void parseObject(F onKey) {
    expect('{');
    if (tryConsume('}')) return;
    do {
      const std::string key = parseString();
      expect(':');
      onKey(key);
    } while (tryConsume(','));
    expect('}');
  }

  template <typename F>
  void parseArray(F onElement) {
    expect('[');
    if (tryConsume(']')) return;
    do {
      onElement();
    } while (tryConsume(','));
    expect(']');
  }

  void end() {
    skipWs();
    if (pos_ != text_.size()) fail("trailing garbage");
  }

  [[noreturn]] void fail(const std::string& what) {
    throw Error(format("bench JSON: %s at byte %zu", what.c_str(), pos_));
  }

 private:
  void skipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

std::uint64_t parseChecksum(const std::string& s) {
  if (s.size() < 3 || s[0] != '0' || s[1] != 'x') {
    throw Error("bench JSON: checksum must be a 0x-prefixed hex string");
  }
  char* end = nullptr;
  const std::uint64_t v = std::strtoull(s.c_str() + 2, &end, 16);
  if (end == nullptr || *end != '\0') {
    throw Error("bench JSON: malformed checksum '" + s + "'");
  }
  return v;
}

}  // namespace

std::string toJson(const ScenarioResult& r) {
  std::string out;
  out += "{\n";
  out += format("  \"schemaVersion\": %d,\n", r.schemaVersion);
  out += "  \"scenario\": \"" + escape(r.scenario) + "\",\n";
  out += "  \"description\": \"" + escape(r.description) + "\",\n";
  out += format(
      "  \"circuit\": {\"transistors\": %u, \"nodes\": %u, \"faults\": %u, "
      "\"patterns\": %u},\n",
      r.transistors, r.nodes, r.faults, r.patterns);
  // Checkpoint-store accounting (PR 5): absent for scenarios that never
  // touched the store, so their files — and older baselines — stay
  // byte-compatible.
  if (r.checkpointRecordings > 0 || r.checkpointBudget > 0) {
    out += format(
        "  \"checkpoint\": {\"budgetBytes\": %llu, \"recordings\": %u, "
        "\"residentBytes\": %llu},\n",
        static_cast<unsigned long long>(r.checkpointBudget),
        r.checkpointRecordings,
        static_cast<unsigned long long>(r.checkpointResidentBytes));
  }
  // Host provenance (PR 6): additive like the checkpoint object, omitted
  // when unset so synthetic results round-trip unchanged.
  if (!r.hostTimestamp.empty() || r.hostHardwareConcurrency > 0 ||
      !r.hostBuildType.empty()) {
    out += format(
        "  \"host\": {\"timestamp\": \"%s\", \"hardwareConcurrency\": %u, "
        "\"buildType\": \"%s\"},\n",
        escape(r.hostTimestamp).c_str(), r.hostHardwareConcurrency,
        escape(r.hostBuildType).c_str());
  }
  // Service-mode summary (PR 6): only the loadgen harness sets it.
  if (r.service.has_value()) {
    const ServiceSummary& s = *r.service;
    out += format(
        "  \"service\": {\"requests\": %u, \"distinctWorkloads\": %u, "
        "\"poolEngines\": %u, \"workers\": %u, \"requestsPerSec\": %s, "
        "\"p50Ms\": %s, \"p95Ms\": %s, \"p99Ms\": %s, \"storeHits\": %llu, "
        "\"storeRecordings\": %llu, \"engineReuses\": %llu},\n",
        s.requests, s.distinctWorkloads, s.poolEngines, s.workers,
        num(s.requestsPerSec).c_str(), num(s.p50Ms).c_str(),
        num(s.p95Ms).c_str(), num(s.p99Ms).c_str(),
        static_cast<unsigned long long>(s.storeHits),
        static_cast<unsigned long long>(s.storeRecordings),
        static_cast<unsigned long long>(s.engineReuses));
  }
  // SEU campaign summary (PR 9): additive like the service object, present
  // only for transient-fault grading scenarios.
  if (r.seu.has_value()) {
    const SeuSummary& s = *r.seu;
    out += format(
        "  \"seu\": {\"injections\": %u, \"instants\": %u, \"detected\": %u, "
        "\"silent\": %u, \"latent\": %u},\n",
        s.injections, s.instants, s.detected, s.silent, s.latent);
  }
  out += "  \"rows\": [\n";
  for (std::size_t i = 0; i < r.rows.size(); ++i) {
    const BenchRow& row = r.rows[i];
    out += "    {";
    out += "\"backend\": \"" + escape(row.backend) + "\", ";
    out += format("\"jobs\": %u, ", row.jobs);
    out += "\"policy\": \"" + escape(row.policy) + "\", ";
    out += format("\"dropDetected\": %s, ", row.dropDetected ? "true" : "false");
    // Additive: emitted only for streaming rows, so materialized rows — and
    // older baselines — stay byte-compatible.
    if (row.streamed) out += "\"streamed\": true, ";
    // Additive like streamed: emitted only for non-default schedule
    // policies, so contiguous rows — and older parsers — are unaffected.
    if (row.schedule != "contiguous") {
      out += "\"schedule\": \"" + escape(row.schedule) + "\", ";
    }
    out += "\"medianMs\": " + num(row.medianMs) + ", ";
    out += "\"stddevMs\": " + num(row.stddevMs) + ", ";
    out += format("\"reps\": %u, ", row.reps);
    out += format("\"checksum\": \"0x%016" PRIx64 "\", ", row.checksum);
    out += format("\"nodeEvals\": %llu, ",
                  static_cast<unsigned long long>(row.nodeEvals));
    out += format("\"numDetected\": %u, ", row.numDetected);
    out += format("\"numFaults\": %u", row.numFaults);
    out += i + 1 < r.rows.size() ? "},\n" : "}\n";
  }
  out += "  ]\n";
  out += "}\n";
  return out;
}

ScenarioResult parseBenchJson(const std::string& text) {
  ScenarioResult r;
  r.schemaVersion = 0;
  Parser p(text);
  p.parseObject([&](const std::string& key) {
    if (key == "schemaVersion") {
      r.schemaVersion = p.parseCount<int>(key);
    } else if (key == "scenario") {
      r.scenario = p.parseString();
    } else if (key == "description") {
      r.description = p.parseString();
    } else if (key == "circuit") {
      p.parseObject([&](const std::string& ck) {
        std::uint32_t* dest = ck == "transistors" ? &r.transistors
                              : ck == "nodes"     ? &r.nodes
                              : ck == "faults"    ? &r.faults
                              : ck == "patterns"  ? &r.patterns
                                                  : nullptr;
        if (dest == nullptr) {
          throw Error("bench JSON: unknown circuit key '" + ck + "'");
        }
        *dest = p.parseCount<std::uint32_t>(ck);
      });
    } else if (key == "checkpoint") {
      // Optional (schema 1 additive): absent in files written before the
      // checkpoint store existed.
      p.parseObject([&](const std::string& ck) {
        if (ck == "budgetBytes") {
          r.checkpointBudget = p.parseCount<std::uint64_t>(ck);
        } else if (ck == "recordings") {
          r.checkpointRecordings = p.parseCount<std::uint32_t>(ck);
        } else if (ck == "residentBytes") {
          r.checkpointResidentBytes = p.parseCount<std::uint64_t>(ck);
        } else {
          throw Error("bench JSON: unknown checkpoint key '" + ck + "'");
        }
      });
    } else if (key == "host") {
      // Optional (schema 1 additive): absent in files written before host
      // provenance existed.
      p.parseObject([&](const std::string& hk) {
        if (hk == "timestamp") {
          r.hostTimestamp = p.parseString();
        } else if (hk == "hardwareConcurrency") {
          r.hostHardwareConcurrency = p.parseCount<std::uint32_t>(hk);
        } else if (hk == "buildType") {
          r.hostBuildType = p.parseString();
        } else {
          throw Error("bench JSON: unknown host key '" + hk + "'");
        }
      });
    } else if (key == "service") {
      // Optional: present only in loadgen-emitted service benchmarks.
      ServiceSummary s;
      p.parseObject([&](const std::string& sk) {
        if (sk == "requests") s.requests = p.parseCount<std::uint32_t>(sk);
        else if (sk == "distinctWorkloads") s.distinctWorkloads = p.parseCount<std::uint32_t>(sk);
        else if (sk == "poolEngines") s.poolEngines = p.parseCount<std::uint32_t>(sk);
        else if (sk == "workers") s.workers = p.parseCount<std::uint32_t>(sk);
        else if (sk == "requestsPerSec") s.requestsPerSec = p.parseNumber();
        else if (sk == "p50Ms") s.p50Ms = p.parseNumber();
        else if (sk == "p95Ms") s.p95Ms = p.parseNumber();
        else if (sk == "p99Ms") s.p99Ms = p.parseNumber();
        else if (sk == "storeHits") s.storeHits = p.parseCount<std::uint64_t>(sk);
        else if (sk == "storeRecordings") s.storeRecordings = p.parseCount<std::uint64_t>(sk);
        else if (sk == "engineReuses") s.engineReuses = p.parseCount<std::uint64_t>(sk);
        else throw Error("bench JSON: unknown service key '" + sk + "'");
      });
      r.service = s;
    } else if (key == "seu") {
      // Optional: present only in SEU grading scenario benchmarks.
      SeuSummary s;
      p.parseObject([&](const std::string& sk) {
        std::uint32_t* dest = sk == "injections" ? &s.injections
                              : sk == "instants" ? &s.instants
                              : sk == "detected" ? &s.detected
                              : sk == "silent"   ? &s.silent
                              : sk == "latent"   ? &s.latent
                                                 : nullptr;
        if (dest == nullptr) {
          throw Error("bench JSON: unknown seu key '" + sk + "'");
        }
        *dest = p.parseCount<std::uint32_t>(sk);
      });
      r.seu = s;
    } else if (key == "rows") {
      p.parseArray([&] {
        BenchRow row;
        p.parseObject([&](const std::string& rk) {
          if (rk == "backend") row.backend = p.parseString();
          else if (rk == "jobs") row.jobs = p.parseCount<unsigned>(rk);
          else if (rk == "policy") row.policy = p.parseString();
          else if (rk == "dropDetected") row.dropDetected = p.parseBool();
          // Additive: absent in pre-streaming baselines (materialized rows).
          else if (rk == "streamed") row.streamed = p.parseBool();
          // Additive: absent in pre-schedule baselines (contiguous rows).
          else if (rk == "schedule") row.schedule = p.parseString();
          else if (rk == "medianMs") row.medianMs = p.parseNumber();
          else if (rk == "stddevMs") row.stddevMs = p.parseNumber();
          else if (rk == "reps") row.reps = p.parseCount<unsigned>(rk);
          else if (rk == "checksum") row.checksum = parseChecksum(p.parseString());
          else if (rk == "nodeEvals") row.nodeEvals = p.parseCount<std::uint64_t>(rk);
          else if (rk == "numDetected") row.numDetected = p.parseCount<std::uint32_t>(rk);
          else if (rk == "numFaults") row.numFaults = p.parseCount<std::uint32_t>(rk);
          else throw Error("bench JSON: unknown row key '" + rk + "'");
        });
        r.rows.push_back(std::move(row));
      });
    } else {
      throw Error("bench JSON: unknown key '" + key + "'");
    }
  });
  p.end();
  if (r.schemaVersion != 1) {
    throw Error(format("bench JSON: unsupported schemaVersion %d (want 1)",
                       r.schemaVersion));
  }
  return r;
}

std::string benchFileName(const std::string& scenario) {
  return "BENCH_" + scenario + ".json";
}

std::string writeBenchFile(const ScenarioResult& result,
                           const std::string& outDir) {
  const std::string dir = outDir.empty() ? std::string(".") : outDir;
  // CI writes into build/bench/ so artifact upload cannot race a dirty
  // checkout; create the directory on demand.
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    throw Error("cannot create benchmark output directory '" + dir +
                "': " + ec.message());
  }
  const std::string path = dir + "/" + benchFileName(result.scenario);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    throw Error("cannot write benchmark file '" + path + "'");
  }
  const std::string json = toJson(result);
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  const bool closed = std::fclose(f) == 0;
  if (!ok || !closed) {
    throw Error("short write to benchmark file '" + path + "'");
  }
  return path;
}

}  // namespace fmossim::perf
