#include "util/error.hpp"

#include <cstdio>
#include <cstdlib>

namespace fmossim {

void requireUnitLaneWidth(const char* field, std::uint32_t laneWidth) {
  if (laneWidth != 1) {
    throw Error(std::string(field) + " must be 1: word-lane fault sharing was "
                "removed (got " + std::to_string(laneWidth) + ")");
  }
}

void requireNoReadAhead(const char* field, bool readAhead) {
  if (readAhead) {
    throw Error(std::string(field) + " must be false: checkpoint read-ahead "
                "was removed");
  }
}

namespace detail {

void assertFailed(const char* expr, const char* file, int line,
                  const char* msg) {
  std::fprintf(stderr, "fmossim assertion failed: %s\n  at %s:%d\n  %s\n",
               expr, file, line, msg);
  std::abort();
}

}  // namespace detail
}  // namespace fmossim
