#include "api/backends.hpp"

#include "patterns/pattern_source.hpp"

namespace fmossim {

ConcurrentBackend::ConcurrentBackend(const Network& net, FaultList faults,
                                     FsimOptions options)
    : net_(net), faults_(std::move(faults)), options_(options) {}

FaultSimResult ConcurrentBackend::run(const TestSequence& seq,
                                      const PatternCallback& onPattern) {
  // The core engine is single-shot; a fresh instance per call makes the
  // interface-level run() repeatable.
  ConcurrentFaultSimulator sim(net_, faults_, options_);
  return sim.run(seq, onPattern);
}

FaultSimResult ConcurrentBackend::runStream(PatternSource& source,
                                            RowSink* sink,
                                            const PatternCallback& onPattern) {
  source.rewind();
  ConcurrentFaultSimulator sim(net_, faults_, options_);
  return sim.run(source, sink, onPattern);
}

SerialBackend::SerialBackend(const Network& net, FaultList faults,
                             SerialOptions options, bool dropDetected)
    : net_(net),
      faults_(std::move(faults)),
      options_(options),
      dropDetected_(dropDetected) {}

FaultSimResult toFaultSimResult(const SerialRunResult& serial,
                                std::uint32_t numPatterns,
                                bool dropDetected) {
  FaultSimResult res;
  res.numFaults = static_cast<std::uint32_t>(serial.detectedAtPattern.size());
  res.numPatterns = numPatterns;
  res.droppedDetected = dropDetected;
  res.detectedAtPattern = serial.detectedAtPattern;
  res.numDetected = serial.numDetected;
  res.potentialDetections = serial.potentialDetections;
  res.totalSeconds = serial.good.totalSeconds + serial.faultSeconds;
  // Single-threaded replay: aggregate engine time is the wall clock.
  res.totalCpuSeconds = res.totalSeconds;
  res.totalNodeEvals = serial.good.totalNodeEvals + serial.faultNodeEvals;
  res.finalGoodStates = serial.good.finalStates;
  // Row semantics ("faults still being simulated after this pattern") map
  // onto the undetected-so-far count when dropping, or the full fault count
  // otherwise — matching the concurrent engine's aliveAfter in both modes.
  std::vector<std::uint32_t> newlyAt(numPatterns, 0);
  for (const std::int32_t at : serial.detectedAtPattern) {
    if (at >= 0 && static_cast<std::uint32_t>(at) < numPatterns) {
      ++newlyAt[at];
    }
  }
  res.perPattern.reserve(numPatterns);
  std::uint32_t cumulative = 0;
  for (std::uint32_t pi = 0; pi < numPatterns; ++pi) {
    PatternStat st;
    st.index = pi;
    st.seconds =
        pi < serial.patternSeconds.size() ? serial.patternSeconds[pi] : 0.0;
    st.nodeEvals =
        pi < serial.patternNodeEvals.size() ? serial.patternNodeEvals[pi] : 0;
    st.newlyDetected = newlyAt[pi];
    cumulative += newlyAt[pi];
    st.cumulativeDetected = cumulative;
    st.aliveAfter = dropDetected ? res.numFaults - cumulative : res.numFaults;
    res.perPattern.push_back(st);
  }
  // The serial replay holds exactly one faulty circuit live at a time.
  res.maxAlive = res.numFaults == 0 ? 0 : 1;
  return res;
}

FaultSimResult SerialBackend::run(const TestSequence& seq,
                                  const PatternCallback& onPattern) {
  SerialFaultSimulator sim(net_, options_);
  last_ = sim.run(seq, faults_);
  const FaultSimResult res = toFaultSimResult(last_, seq.size(), dropDetected_);
  if (onPattern) {
    // Serial simulation iterates fault-major, so rows only exist after the
    // whole run; deliver them in pattern order like the sharded runner does.
    for (const PatternStat& st : res.perPattern) onPattern(st);
  }
  return res;
}

}  // namespace fmossim
