// Small string helpers shared by the netlist parsers and report writers.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace fmossim {

/// Strips leading and trailing ASCII whitespace.
std::string_view trim(std::string_view s);

/// Splits on any run of the given delimiter characters; empty tokens are
/// dropped.
std::vector<std::string_view> splitWhitespace(std::string_view s);

/// Splits on a single delimiter character, keeping empty fields.
std::vector<std::string_view> split(std::string_view s, char delim);

/// True if s begins with the given prefix.
bool startsWith(std::string_view s, std::string_view prefix);

/// Uppercases ASCII letters.
std::string toUpper(std::string_view s);

/// Outcome of parseDecimal: "not a number" and "out of range" are distinct
/// so each caller can word its own error.
enum class NumberStatus : std::uint8_t { Ok, NotANumber, OutOfRange };

/// Result of parseDecimal; `value` is meaningful only when status is Ok.
struct ParsedNumber {
  NumberStatus status = NumberStatus::NotANumber;
  std::uint64_t value = 0;
};

/// The one strict unsigned decimal parser shared by the file readers and
/// the CLI. `text` must be one or more ASCII digits (no sign, whitespace,
/// prefix or suffix), else NotANumber; a value above `maxValue` is
/// OutOfRange, detected before any multiply can wrap.
ParsedNumber parseDecimal(
    std::string_view text,
    std::uint64_t maxValue = std::numeric_limits<std::uint64_t>::max());

/// printf-style formatting into a std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace fmossim
