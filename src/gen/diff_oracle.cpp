#include "gen/diff_oracle.hpp"

#include <algorithm>

#include "core/row_sink.hpp"
#include "patterns/pattern_source.hpp"
#include "util/strings.hpp"

namespace fmossim {

namespace {

/// Diffs a comparand result against the serial reference. Only fields with
/// exact cross-backend semantics are compared; timing, work counters and
/// backend-specific capacity numbers (maxAlive, finalRecords) are not.
std::optional<Divergence> diffResults(const FaultList& faults,
                                      const FaultSimResult& ref,
                                      const FaultSimResult& got,
                                      const std::string& backend) {
  const auto div = [&](const char* field, std::string detail) {
    return Divergence{backend, field, std::move(detail)};
  };
  if (got.numFaults != ref.numFaults) {
    return div("numFaults", format("serial=%u, %s=%u", ref.numFaults,
                                   backend.c_str(), got.numFaults));
  }
  if (got.detectedAtPattern.size() != ref.detectedAtPattern.size() ||
      ref.detectedAtPattern.size() != ref.numFaults) {
    return div("detectedAtPattern",
               format("serial has %zu entries, %s has %zu (numFaults=%u)",
                      ref.detectedAtPattern.size(), backend.c_str(),
                      got.detectedAtPattern.size(), ref.numFaults));
  }
  for (std::uint32_t fi = 0; fi < ref.numFaults; ++fi) {
    if (got.detectedAtPattern[fi] != ref.detectedAtPattern[fi]) {
      return div("detectedAtPattern",
                 format("fault %u '%s': serial=%d, %s=%d", fi,
                        faults[fi].name.c_str(), ref.detectedAtPattern[fi],
                        backend.c_str(), got.detectedAtPattern[fi]));
    }
  }
  if (got.numDetected != ref.numDetected) {
    return div("numDetected", format("serial=%u, %s=%u", ref.numDetected,
                                     backend.c_str(), got.numDetected));
  }
  if (got.potentialDetections != ref.potentialDetections) {
    return div("potentialDetections",
               format("serial=%llu, %s=%llu",
                      static_cast<unsigned long long>(ref.potentialDetections),
                      backend.c_str(),
                      static_cast<unsigned long long>(got.potentialDetections)));
  }
  if (got.perPattern.size() != ref.perPattern.size()) {
    return div("perPattern", format("serial has %zu rows, %s has %zu",
                                    ref.perPattern.size(), backend.c_str(),
                                    got.perPattern.size()));
  }
  for (std::size_t pi = 0; pi < ref.perPattern.size(); ++pi) {
    const PatternStat& r = ref.perPattern[pi];
    const PatternStat& g = got.perPattern[pi];
    if (g.newlyDetected != r.newlyDetected || g.cumulativeDetected != r.cumulativeDetected ||
        g.aliveAfter != r.aliveAfter) {
      return div("perPattern",
                 format("pattern %zu: serial newly/cum/alive=%u/%u/%u, "
                        "%s=%u/%u/%u",
                        pi, r.newlyDetected, r.cumulativeDetected,
                        r.aliveAfter, backend.c_str(), g.newlyDetected,
                        g.cumulativeDetected, g.aliveAfter));
    }
  }
  if (got.finalGoodStates.size() != ref.finalGoodStates.size()) {
    return div("finalGoodStates",
               format("serial has %zu nodes, %s has %zu",
                      ref.finalGoodStates.size(), backend.c_str(),
                      got.finalGoodStates.size()));
  }
  for (std::size_t n = 0; n < ref.finalGoodStates.size(); ++n) {
    if (got.finalGoodStates[n] != ref.finalGoodStates[n]) {
      return div("finalGoodStates",
                 format("node %zu: serial=%c, %s=%c", n,
                        stateChar(ref.finalGoodStates[n]), backend.c_str(),
                        stateChar(got.finalGoodStates[n])));
    }
  }
  return std::nullopt;
}

TestSequence prefixSequence(const TestSequence& seq, std::uint32_t length) {
  TestSequence out;
  out.setOutputs(seq.outputs());
  for (std::uint32_t pi = 0; pi < length; ++pi) out.addPattern(seq[pi]);
  return out;
}

FaultList subsetFaults(const FaultList& faults,
                       const std::vector<std::uint32_t>& indices) {
  FaultList out;
  for (const std::uint32_t i : indices) out.add(faults[i]);
  return out;
}

}  // namespace

DiffOracle::DiffOracle(OracleOptions options) : options_(std::move(options)) {
  if (options_.jobsVariants.empty()) options_.jobsVariants = {1};
}

FaultSimResult DiffOracle::runBackend(const Network& net,
                                      const FaultList& faults,
                                      const TestSequence& seq, Backend backend,
                                      unsigned jobs,
                                      std::string* backendName,
                                      bool stream) const {
  EngineOptions opts;
  opts.backend = backend;
  opts.sim = options_.sim;
  opts.policy = options_.policy;
  opts.dropDetected = options_.dropDetected;
  opts.jobs = jobs;
  if (backend == Backend::Concurrent) {
    opts.debugLoseTriggerEvery = options_.debugLoseTriggerEvery;
  }
  Engine engine(net, faults, opts);
  if (backendName != nullptr) {
    // Report what actually ran: the engine falls back to a plain concurrent
    // backend when the (possibly shrunk) fault list is too small to shard.
    *backendName = engine.backendName();
    if (*backendName == "sharded") *backendName += format("-%u", jobs);
    if (stream) *backendName += "-stream";
  }
  if (!stream) return engine.run(seq);
  MaterializedPatternSource source(seq);
  FaultSimResult res = engine.runStream(source);
  // Native streaming backends return rowless results; materialize the
  // derived triples so diffResults can compare them row by row.
  derivePerPattern(res);
  return res;
}

std::optional<Divergence> DiffOracle::diverges(const Network& net,
                                               const FaultList& faults,
                                               const TestSequence& seq,
                                               std::uint32_t& runs) const {
  ++runs;
  const FaultSimResult ref =
      runBackend(net, faults, seq, Backend::Serial, 1, nullptr);
  // diffResults deliberately skips work counters (serial evaluates
  // differently by construction), but within the concurrent family
  // totalNodeEvals is deterministic and shard invariant — compare every
  // comparand against the first one.
  bool haveEvals = false;
  std::uint64_t refEvals = 0;
  std::string refEvalsName;
  const auto checkEvals =
      [&](const FaultSimResult& r,
          const std::string& n) -> std::optional<Divergence> {
    if (!haveEvals) {
      haveEvals = true;
      refEvals = r.totalNodeEvals;
      refEvalsName = n;
      return std::nullopt;
    }
    if (r.totalNodeEvals == refEvals) return std::nullopt;
    return Divergence{
        n, "totalNodeEvals",
        format("%s=%llu, %s=%llu", refEvalsName.c_str(),
               static_cast<unsigned long long>(refEvals), n.c_str(),
               static_cast<unsigned long long>(r.totalNodeEvals))};
  };
  for (const unsigned jobs : options_.jobsVariants) {
    std::string name;
    const FaultSimResult got =
        runBackend(net, faults, seq, Backend::Concurrent, jobs, &name);
    if (auto d = diffResults(faults, ref, got, name)) return d;
    if (auto d = checkEvals(got, name)) return d;
    if (options_.checkStreaming) {
      // The pull-based pattern path must be bit-identical to the
      // materialized one — same full diff, same deterministic work
      // counter (the streamed sharded run's recording + replay evals sum
      // to an unsharded run's).
      std::string sname;
      const FaultSimResult sgot =
          runBackend(net, faults, seq, Backend::Concurrent, jobs, &sname,
                     /*stream=*/true);
      if (auto d = diffResults(faults, ref, sgot, sname)) return d;
      if (auto d = checkEvals(sgot, sname)) return d;
    }
  }
  return std::nullopt;
}

OracleReport DiffOracle::check(const Network& net, const FaultList& faults,
                               const TestSequence& seq, std::uint64_t seed) {
  OracleReport rep;
  rep.seed = seed;
  rep.numPatterns = seq.size();
  rep.faultIndices.resize(faults.size());
  for (std::uint32_t i = 0; i < faults.size(); ++i) rep.faultIndices[i] = i;

  auto first = diverges(net, faults, seq, rep.checkRuns);
  if (!first) {
    rep.ok = true;
    return rep;
  }
  rep.ok = false;
  rep.divergence = *first;
  if (!options_.shrink) {
    for (const std::uint32_t i : rep.faultIndices) {
      rep.faultNames.push_back(faults[i].name);
    }
    return rep;
  }

  const auto budgetLeft = [&]() {
    return rep.checkRuns < options_.maxShrinkRuns;
  };
  const auto stillDiverges = [&](const std::vector<std::uint32_t>& idx,
                                 std::uint32_t numPatterns)
      -> std::optional<Divergence> {
    return diverges(net, subsetFaults(faults, idx),
                    prefixSequence(seq, numPatterns), rep.checkRuns);
  };

  // 1. Truncate the pattern sequence (cheapens every later shrink run).
  while (rep.numPatterns > 1 && budgetLeft()) {
    const auto d = stillDiverges(rep.faultIndices, rep.numPatterns - 1);
    if (!d) break;
    rep.divergence = *d;
    --rep.numPatterns;
  }

  // 2. Delta-debug the fault list: drop chunks at shrinking granularity.
  for (std::size_t chunk = (rep.faultIndices.size() + 1) / 2;
       chunk >= 1 && rep.faultIndices.size() > 1 && budgetLeft();
       chunk = (chunk == 1) ? 0 : std::max<std::size_t>(1, chunk / 2)) {
    for (std::size_t start = 0;
         start < rep.faultIndices.size() && budgetLeft();) {
      if (rep.faultIndices.size() <= 1) break;
      std::vector<std::uint32_t> candidate;
      candidate.reserve(rep.faultIndices.size());
      for (std::size_t i = 0; i < rep.faultIndices.size(); ++i) {
        if (i < start || i >= start + chunk) {
          candidate.push_back(rep.faultIndices[i]);
        }
      }
      if (candidate.empty()) {
        start += chunk;
        continue;
      }
      const auto d = stillDiverges(candidate, rep.numPatterns);
      if (d) {
        rep.divergence = *d;
        rep.faultIndices = std::move(candidate);
        // Same start now covers the next chunk.
      } else {
        start += chunk;
      }
    }
  }

  // 3. One more pattern pass — a smaller fault set often needs fewer
  // patterns to diverge.
  while (rep.numPatterns > 1 && budgetLeft()) {
    const auto d = stillDiverges(rep.faultIndices, rep.numPatterns - 1);
    if (!d) break;
    rep.divergence = *d;
    --rep.numPatterns;
  }

  for (const std::uint32_t i : rep.faultIndices) {
    rep.faultNames.push_back(faults[i].name);
  }
  return rep;
}

std::string OracleReport::summary() const {
  if (ok) {
    return format("seed %llu: OK (%u comparison run%s)",
                  static_cast<unsigned long long>(seed), checkRuns,
                  checkRuns == 1 ? "" : "s");
  }
  std::string out = format(
      "seed %llu: DIVERGENCE — backend '%s' differs from serial in %s\n"
      "  first mismatch: %s\n"
      "  minimized reproducer: %zu fault(s), %u pattern(s), found in %u "
      "comparison runs\n",
      static_cast<unsigned long long>(seed), divergence.backend.c_str(),
      divergence.field.c_str(), divergence.detail.c_str(),
      faultIndices.size(), numPatterns, checkRuns);
  for (std::size_t i = 0; i < faultNames.size(); ++i) {
    out += format("    fault[%u] %s\n", faultIndices[i],
                  faultNames[i].c_str());
  }
  return out;
}

}  // namespace fmossim
