// Steady-state response solver (paper §4; model from Bryant, IEEE ToC 1984).
//
// Given a vicinity — a set of storage nodes connected by conducting
// transistors, bounded by input nodes — the solver computes the new state of
// every member node. Signals are <strength, value> pairs; stronger signals
// absorb weaker ones, equal-strength conflicting values merge to X.
//
// Three bucketed max-min relaxations per vicinity (see DESIGN.md §3):
//
//  1. def[n]  — strength of the strongest *definite* signal at n, using only
//               transistors in state 1. Every member sources its own charge
//               <size, state>; input edges source <omega, state> attenuated
//               by the transistor strength.
//  2. H[n]    — strongest possibly-winning signal carrying value in {1,X},
//               using transistors in state 1 or X, where a signal of running
//               strength sigma is blocked at any node m with sigma < def[m]
//               (the definite signal there absorbs it).
//     L[n]    — likewise for values in {0,X}.
//  3. state'  — 1 if only H wins, 0 if only L wins, X if both can.
//
// This yields ratioed-logic resolution (weak pull-up loses to strong
// pull-down), charge sharing by node size, precharged-bus reads, and
// conservative X propagation through uncertain switches.
#pragma once

#include <cstdint>
#include <vector>

#include "switch/vicinity.hpp"

namespace fmossim {

/// Reusable steady-state solver. Not thread-safe (owns scratch buffers);
/// create one per simulation engine.
class SteadyStateSolver {
 public:
  explicit SteadyStateSolver(const SignalDomain& domain);

  /// Computes the steady state of the vicinity. `out` is resized to
  /// vic.size(); out[i] is the new state of vic.members[i].
  void solve(const Vicinity& vic, std::vector<State>& out);

  /// Total member-node evaluations performed (deterministic work counter
  /// used by the benchmarks alongside wall-clock time).
  std::uint64_t nodeEvals() const { return nodeEvals_; }
  /// Total vicinity solves performed.
  std::uint64_t solves() const { return solves_; }

  void resetCounters() {
    nodeEvals_ = 0;
    solves_ = 0;
  }

 private:
  // Directed arc of the dense vicinity graph.
  struct Arc {
    std::uint32_t to;
    Strength strength;
    bool definite;
  };

  void buildAdjacency(const Vicinity& vic);
  void relaxDefinite(const Vicinity& vic);
  // Relaxes H (wantHigh=true: sources with value 1 or X) or L into `field`.
  void relaxValue(const Vicinity& vic, bool wantHigh, std::vector<Strength>& field);

  // Edge-free vicinities (isolated storage nodes, or an input seed fanning
  // out to unconnected neighbours) need no relaxation at all: every member's
  // response is a direct max over its own charge and its input edges. This
  // is the overwhelmingly common case in practice (mean vicinity size on the
  // paper's RAM workloads is ~1.3 members), so it bypasses the CSR build and
  // the bucket queues entirely. Bit-identical to the general path.
  void solveEdgeless(const Vicinity& vic, std::vector<State>& out);

  // Bucket-queue helpers over strength levels.
  void bucketPush(std::uint32_t node, Strength level);

  unsigned numLevels_;

  // CSR adjacency, rebuilt per solve.
  std::vector<std::uint32_t> arcOffset_;
  std::vector<Arc> arcs_;
  std::vector<std::uint32_t> cursor_;  // buildAdjacency scratch (hoisted)

  std::vector<Strength> def_;
  std::vector<Strength> hstr_;
  std::vector<Strength> lstr_;
  std::vector<std::vector<std::uint32_t>> buckets_;
  Strength topLevel_ = 0;  // highest level seeded in the current relaxation

  std::uint64_t nodeEvals_ = 0;
  std::uint64_t solves_ = 0;
};

}  // namespace fmossim
