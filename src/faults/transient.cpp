#include "faults/transient.hpp"

#include <fstream>
#include <limits>
#include <sstream>
#include <string_view>

#include "util/strings.hpp"

namespace fmossim {

namespace {

[[noreturn]] void fail(std::size_t lineNo, const std::string& msg) {
  throw Error(format("transient spec line %zu: %s", lineNo, msg.c_str()));
}

/// Strict unsigned decimal parse (util/strings.hpp parseDecimal) with
/// line-numbered errors.
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

}  // namespace

TransientFault TransientFault::flipAt(const Network& net, NodeId n,
                                      std::uint64_t atPattern,
                                      std::uint32_t pulsePatterns) {
  if (!n.valid() || n.value >= net.numNodes()) {
    throw Error("transient fault references an unknown node");
  }
  if (net.isInput(n)) {
    throw Error("transient fault on input node '" + net.node(n).name +
                "' (inputs are re-driven every pattern; flip a storage node)");
  }
  TransientFault f;
  f.node = n;
  f.atPattern = atPattern;
  f.pulsePatterns = pulsePatterns;
  if (pulsePatterns == 0) {
    f.name = format("%s/flip@%llu", net.node(n).name.c_str(),
                    static_cast<unsigned long long>(atPattern));
  } else {
    f.name = format("%s/flip@%llu+p%u", net.node(n).name.c_str(),
                    static_cast<unsigned long long>(atPattern), pulsePatterns);
  }
  return f;
}

TransientList parseTransientSpec(const Network& net, const std::string& text) {
  TransientList campaign;
  std::istringstream stream(text);
  std::string line;
  std::size_t lineNo = 0;
  while (std::getline(stream, line)) {
    ++lineNo;
    const auto trimmed = trim(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    const auto tok = splitWhitespace(trimmed);
    const std::string kind = toUpper(tok[0]);

    if (kind == "FLIP") {
      if (tok.size() != 4 && tok.size() != 6) {
        fail(lineNo, "flip requires <node> @ <pattern> [pulse <d>]");
      }
      const NodeId n = net.findNode(std::string(tok[1]));
      if (!n.valid()) fail(lineNo, "unknown node '" + std::string(tok[1]) + "'");
      if (tok[2] != "@") {
        fail(lineNo, "expected '@', got '" + std::string(tok[2]) + "'");
      }
      const std::uint64_t at =
          parseUint64(tok[3], lineNo, "pattern index",
                      std::numeric_limits<std::uint64_t>::max());
      std::uint32_t pulse = 0;
      if (tok.size() == 6) {
        if (toUpper(tok[4]) != "PULSE") {
          fail(lineNo, "expected 'pulse', got '" + std::string(tok[4]) + "'");
        }
        pulse = static_cast<std::uint32_t>(
            parseUint64(tok[5], lineNo, "pulse duration",
                        std::numeric_limits<std::uint32_t>::max()));
        if (pulse == 0) fail(lineNo, "pulse duration must be positive");
      }
      try {
        campaign.push_back(TransientFault::flipAt(net, n, at, pulse));
      } catch (const Error& e) {
        fail(lineNo, e.what());
      }
    } else {
      fail(lineNo, "unknown directive '" + std::string(tok[0]) + "'");
    }
  }
  if (campaign.empty()) {
    throw Error("transient spec produces no injections");
  }
  return campaign;
}

TransientList loadTransientSpecFile(const Network& net,
                                    const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw Error("cannot open transient spec '" + path + "'");
  }
  std::stringstream ss;
  ss << in.rdbuf();
  return parseTransientSpec(net, ss.str());
}

}  // namespace fmossim
