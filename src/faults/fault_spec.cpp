#include "faults/fault_spec.hpp"

#include <fstream>
#include <limits>
#include <sstream>
#include <string_view>

#include "faults/sampling.hpp"
#include "faults/universe.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace fmossim {

namespace {

[[noreturn]] void fail(std::size_t lineNo, const std::string& msg) {
  throw Error(format("fault spec line %zu: %s", lineNo, msg.c_str()));
}

/// Strict unsigned decimal parse (util/strings.hpp parseDecimal), so that
/// "12abc", "-1" or an out-of-range id is a line-numbered error rather than
/// a silent stoul truncation.
std::uint64_t parseUint64(std::string_view tok, std::size_t lineNo,
                          const char* what, std::uint64_t maxValue) {
  const ParsedNumber n = parseDecimal(tok, maxValue);
  if (n.status == NumberStatus::NotANumber) {
    fail(lineNo, format("invalid %s '%s'", what, std::string(tok).c_str()));
  }
  if (n.status == NumberStatus::OutOfRange) {
    fail(lineNo, format("%s '%s' out of range", what, std::string(tok).c_str()));
  }
  return n.value;
}

std::uint32_t parseUint32(std::string_view tok, std::size_t lineNo,
                          const char* what) {
  return static_cast<std::uint32_t>(
      parseUint64(tok, lineNo, what, std::numeric_limits<std::uint32_t>::max()));
}

}  // namespace

FaultList parseFaultSpec(const Network& net, const std::string& text) {
  FaultList faults;
  bool doSample = false;
  std::uint32_t sampleCount = 0;
  std::uint64_t sampleSeed = 0;

  std::istringstream stream(text);
  std::string line;
  std::size_t lineNo = 0;
  while (std::getline(stream, line)) {
    ++lineNo;
    const auto trimmed = trim(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    const auto tok = splitWhitespace(trimmed);
    const std::string kind = toUpper(tok[0]);

    if (kind == "NODE") {
      if (tok.size() != 3) fail(lineNo, "node requires <name> sa0|sa1");
      const NodeId n = net.findNode(std::string(tok[1]));
      if (!n.valid()) fail(lineNo, "unknown node '" + std::string(tok[1]) + "'");
      const std::string what = toUpper(tok[2]);
      if (what == "SA0") {
        faults.add(Fault::nodeStuckAt(net, n, State::S0));
      } else if (what == "SA1") {
        faults.add(Fault::nodeStuckAt(net, n, State::S1));
      } else {
        fail(lineNo, "expected sa0 or sa1, got '" + std::string(tok[2]) + "'");
      }
    } else if (kind == "TRANSISTOR") {
      if (tok.size() != 3) fail(lineNo, "transistor requires <id> open|closed");
      const std::uint32_t id = parseUint32(tok[1], lineNo, "transistor id");
      if (id >= net.numTransistors()) fail(lineNo, "transistor id out of range");
      const std::string what = toUpper(tok[2]);
      try {
        if (what == "OPEN") {
          faults.add(Fault::transistorStuckOpen(net, TransId(id)));
        } else if (what == "CLOSED") {
          faults.add(Fault::transistorStuckClosed(net, TransId(id)));
        } else {
          fail(lineNo, "expected open or closed");
        }
      } catch (const Error& e) {
        fail(lineNo, e.what());
      }
    } else if (kind == "ALL-NODE-STUCK") {
      faults.append(allStorageNodeStuckFaults(net));
    } else if (kind == "ALL-TRANSISTOR-STUCK") {
      faults.append(allTransistorStuckFaults(net));
    } else if (kind == "ALL-FAULT-DEVICES") {
      faults.append(allFaultDeviceFaults(net));
    } else if (kind == "SAMPLE") {
      if (tok.size() != 3) fail(lineNo, "sample requires <count> <seed>");
      sampleCount = parseUint32(tok[1], lineNo, "sample count");
      sampleSeed = parseUint64(tok[2], lineNo, "sample seed",
                               std::numeric_limits<std::uint64_t>::max());
      doSample = true;
    } else {
      fail(lineNo, "unknown directive '" + std::string(tok[0]) + "'");
    }
  }

  if (faults.empty()) {
    throw Error("fault spec produces no faults");
  }
  if (doSample) {
    if (sampleCount > faults.size()) {
      throw Error("fault spec: sample count exceeds fault list size");
    }
    Rng rng(sampleSeed);
    faults = sampleFaults(faults, sampleCount, rng);
  }
  return faults;
}

FaultList loadFaultSpecFile(const Network& net, const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw Error("cannot open fault spec '" + path + "'");
  }
  std::stringstream ss;
  ss << in.rdbuf();
  return parseFaultSpec(net, ss.str());
}

}  // namespace fmossim
