// Per-node state lists — the central data structure of the concurrent
// algorithm (paper §4):
//
//   "we maintain a separate state list for each node, containing records of
//    the form <i, s_i>, indicating that in circuit i ... this node has state
//    s_i. Such records are maintained only for the good circuit, and for
//    those circuits i such that s_i != s_0."
//
// The good circuit's state is a flat array; each node additionally carries
// its divergence records as one vector of <circuit, state> records sorted by
// circuit, so a lookup is a binary search and a scan walks the records in
// ascending circuit order.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "faults/fault.hpp"
#include "switch/network.hpp"

namespace fmossim {

/// Good-circuit state plus per-node sorted divergence record lists.
class StateTable {
 public:
  explicit StateTable(const Network& net)
      : good_(net.numNodes(), State::SX), records_(net.numNodes()) {}

  // --- good circuit --------------------------------------------------------

  /// State of node n in the good circuit.
  State good(NodeId n) const { return good_[n.value]; }
  /// Sets the good-circuit state of node n (divergence records unchanged).
  void setGood(NodeId n, State s) { good_[n.value] = s; }

  // --- divergence records --------------------------------------------------

  /// Divergence lookup result: whether circuit c holds a record at the node,
  /// and the recorded state if so.
  struct Lookup {
    bool diverges = false;
    State value = State::SX;
  };

  /// Circuit c's divergence at node n, if any. O(log records at n).
  Lookup lookup(NodeId n, CircuitId c) const {
    const std::vector<Record>& v = records_[n.value];
    const auto it = lowerBound(v, c);
    if (it == v.end() || it->circuit != c) return {};
    return {true, it->state};
  }

  /// State of node n in circuit c: its record if present, else the good
  /// state (the concurrent representation invariant).
  State stateOf(NodeId n, CircuitId c) const {
    if (c != kGoodCircuit) {
      const Lookup r = lookup(n, c);
      if (r.diverges) return r.value;
    }
    return good_[n.value];
  }

  /// True if circuit c diverges from the good circuit at node n.
  bool hasRecord(NodeId n, CircuitId c) const { return lookup(n, c).diverges; }

  /// Invokes fn(CircuitId, State) for every divergence record of node n, in
  /// ascending circuit order (the iteration order the concurrent algorithm's
  /// trigger and observation scans rely on).
  template <typename Fn>
  void forEachRecord(NodeId n, Fn&& fn) const {
    for (const Record& r : records_[n.value]) fn(r.circuit, r.state);
  }

  /// Number of divergence records at node n.
  std::uint32_t recordCountAt(NodeId n) const {
    return static_cast<std::uint32_t>(records_[n.value].size());
  }

  /// Outcome of a reconcile(): whether the circuit now diverges at the node,
  /// and whether the call inserted or erased a record (for callers that
  /// maintain derived indexes over record existence).
  struct Reconciled {
    bool diverges;  ///< a record now exists
    bool inserted;  ///< this call created the record
    bool erased;    ///< this call removed a previously existing record
  };

  /// Establishes circuit c's state at node n: removes the record if the
  /// value re-converges with the good circuit, else inserts/updates it.
  Reconciled reconcile(NodeId n, CircuitId c, State value) {
    FMOSSIM_ASSERT(c != kGoodCircuit, "reconcile is for faulty circuits");
    std::vector<Record>& v = records_[n.value];
    const auto it = lowerBound(v, c);
    const bool present = it != v.end() && it->circuit == c;
    if (value == good_[n.value]) {
      if (!present) return {false, false, false};
      v.erase(it);
      --totalRecords_;
      return {false, false, true};
    }
    if (present) {
      it->state = value;
      return {true, false, false};
    }
    v.insert(it, Record{c, value});
    ++totalRecords_;
    return {true, true, false};
  }

  /// Removes circuit c's record at node n if present; returns true if a
  /// record was removed.
  bool erase(NodeId n, CircuitId c) {
    std::vector<Record>& v = records_[n.value];
    const auto it = lowerBound(v, c);
    if (it == v.end() || it->circuit != c) return false;
    v.erase(it);
    --totalRecords_;
    return true;
  }

  /// Removes every record at node n whose circuit satisfies dead(CircuitId);
  /// returns how many were removed.
  template <typename Pred>
  std::uint32_t eraseIf(NodeId n, Pred&& dead) {
    const auto removed = static_cast<std::uint32_t>(std::erase_if(
        records_[n.value], [&](const Record& r) { return dead(r.circuit); }));
    totalRecords_ -= removed;
    return removed;
  }

  /// Total number of divergence records (statistics).
  std::uint64_t totalRecords() const { return totalRecords_; }

 private:
  /// One divergence record: circuit `circuit` holds `state` at the node.
  struct Record {
    CircuitId circuit;
    State state;
  };

  /// First record of v (const or not) whose circuit is not below c.
  template <typename Vec>
  static auto lowerBound(Vec& v, CircuitId c) -> decltype(v.begin()) {
    return std::lower_bound(
        v.begin(), v.end(), c,
        [](const Record& r, CircuitId cc) { return r.circuit < cc; });
  }

  std::vector<State> good_;
  std::vector<std::vector<Record>> records_;
  std::uint64_t totalRecords_ = 0;
};

}  // namespace fmossim
