// Error handling primitives for the fmossim library.
//
// Construction-time and parse-time failures throw fmossim::Error; internal
// invariants are checked with FMOSSIM_ASSERT, which stays active in release
// builds (the checks are cheap relative to simulation work and a silently
// corrupted simulation is far worse than an abort).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace fmossim {

/// Exception thrown for user-visible failures: malformed netlists, bad
/// configuration, references to unknown nodes, and similar boundary errors.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// The retired word-lane fault-sharing width fields (FsimOptions,
/// EngineOptions, seu::CampaignOptions, serve::WorkloadSpec and the
/// FaultSchedule::plan argument) stay for source compatibility but accept
/// only 1: throws Error naming `field` for any other value, so no setting is
/// silently ignored.
void requireUnitLaneWidth(const char* field, std::uint32_t laneWidth);

/// The retired checkpoint read-ahead fields (FsimOptions, EngineOptions)
/// stay for source compatibility but accept only false: throws Error naming
/// `field` when set.
void requireNoReadAhead(const char* field, bool readAhead);

namespace detail {
[[noreturn]] void assertFailed(const char* expr, const char* file, int line,
                               const char* msg);
}  // namespace detail

}  // namespace fmossim

/// Invariant check that is active in all build types.
#define FMOSSIM_ASSERT(expr, msg)                                     \
  do {                                                                \
    if (!(expr)) {                                                    \
      ::fmossim::detail::assertFailed(#expr, __FILE__, __LINE__, msg); \
    }                                                                 \
  } while (0)
