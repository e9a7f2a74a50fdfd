// StateTable: the per-node <circuit, state> record lists of paper §4.
#include "core/state_table.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "switch/builder.hpp"
#include "util/rng.hpp"

namespace fmossim {
namespace {

Network twoNodeNet() {
  NetworkBuilder b;
  b.addNode("a");
  b.addNode("b");
  return b.build();
}

TEST(StateTableTest, GoodStateDefaultsToX) {
  const Network net = twoNodeNet();
  StateTable t(net);
  EXPECT_EQ(t.good(NodeId(0)), State::SX);
  t.setGood(NodeId(0), State::S1);
  EXPECT_EQ(t.good(NodeId(0)), State::S1);
}

TEST(StateTableTest, StateOfFallsBackToGood) {
  const Network net = twoNodeNet();
  StateTable t(net);
  t.setGood(NodeId(0), State::S1);
  EXPECT_EQ(t.stateOf(NodeId(0), 5), State::S1);
  EXPECT_FALSE(t.hasRecord(NodeId(0), 5));
}

TEST(StateTableTest, ReconcileCreatesRecordOnlyOnDivergence) {
  const Network net = twoNodeNet();
  StateTable t(net);
  t.setGood(NodeId(0), State::S1);
  EXPECT_FALSE(t.reconcile(NodeId(0), 3, State::S1).diverges);  // agrees
  EXPECT_EQ(t.totalRecords(), 0u);
  EXPECT_TRUE(t.reconcile(NodeId(0), 3, State::S0).inserted);  // diverges
  EXPECT_EQ(t.totalRecords(), 1u);
  EXPECT_EQ(t.stateOf(NodeId(0), 3), State::S0);
  // Re-convergence removes the record.
  EXPECT_TRUE(t.reconcile(NodeId(0), 3, State::S1).erased);
  EXPECT_EQ(t.totalRecords(), 0u);
  EXPECT_EQ(t.stateOf(NodeId(0), 3), State::S1);
}

TEST(StateTableTest, RecordsStaySortedByCircuit) {
  const Network net = twoNodeNet();
  StateTable t(net);
  t.setGood(NodeId(0), State::S0);
  for (const CircuitId c : {7u, 2u, 9u, 4u, 1u}) {
    t.reconcile(NodeId(0), c, State::S1);
  }
  std::vector<CircuitId> circuits;
  t.forEachRecord(NodeId(0), [&](CircuitId c, State v) {
    circuits.push_back(c);
    EXPECT_EQ(v, State::S1);
  });
  ASSERT_EQ(circuits.size(), 5u);
  for (std::size_t i = 1; i < circuits.size(); ++i) {
    EXPECT_LT(circuits[i - 1], circuits[i]);
  }
}

TEST(StateTableTest, RecordsAreIndependentAcrossCircuitsAndNodes) {
  const Network net = twoNodeNet();
  StateTable t(net);
  t.setGood(NodeId(0), State::S0);
  t.setGood(NodeId(1), State::S1);
  t.reconcile(NodeId(0), 1, State::S1);
  t.reconcile(NodeId(0), 2, State::SX);
  t.reconcile(NodeId(1), 1, State::S0);
  EXPECT_EQ(t.stateOf(NodeId(0), 1), State::S1);
  EXPECT_EQ(t.stateOf(NodeId(0), 2), State::SX);
  EXPECT_EQ(t.stateOf(NodeId(0), 3), State::S0);
  EXPECT_EQ(t.stateOf(NodeId(1), 1), State::S0);
  EXPECT_EQ(t.stateOf(NodeId(1), 2), State::S1);
  EXPECT_EQ(t.totalRecords(), 3u);
}

TEST(StateTableTest, GoodChangeFlipsDivergenceMeaning) {
  // A record whose value equals the *new* good state is stale but harmless:
  // stateOf still answers correctly, and reconcile cleans it up.
  const Network net = twoNodeNet();
  StateTable t(net);
  t.setGood(NodeId(0), State::S0);
  t.reconcile(NodeId(0), 1, State::S1);
  t.setGood(NodeId(0), State::S1);  // good moves to the faulty value
  EXPECT_EQ(t.stateOf(NodeId(0), 1), State::S1);
  EXPECT_TRUE(t.reconcile(NodeId(0), 1, State::S1).erased);
  EXPECT_EQ(t.totalRecords(), 0u);
}

TEST(StateTableTest, EraseIsIdempotent) {
  const Network net = twoNodeNet();
  StateTable t(net);
  t.setGood(NodeId(0), State::S0);
  t.reconcile(NodeId(0), 1, State::S1);
  t.erase(NodeId(0), 1);
  EXPECT_EQ(t.totalRecords(), 0u);
  t.erase(NodeId(0), 1);  // no-op
  EXPECT_EQ(t.totalRecords(), 0u);
  EXPECT_EQ(t.stateOf(NodeId(0), 1), State::S0);
}

TEST(StateTableTest, LookupReportsDivergenceOnlyWhenRecorded) {
  const Network net = twoNodeNet();
  StateTable t(net);
  t.reconcile(NodeId(0), 2, State::S1);
  EXPECT_TRUE(t.lookup(NodeId(0), 2).diverges);
  EXPECT_EQ(t.lookup(NodeId(0), 2).value, State::S1);
  EXPECT_FALSE(t.lookup(NodeId(0), 1).diverges);
  EXPECT_FALSE(t.lookup(NodeId(0), 3).diverges);
  EXPECT_FALSE(t.lookup(NodeId(1), 2).diverges);
}

// --- lane encoding ---------------------------------------------------------
//
// The table packs 32 circuits' ternary states into one 64-bit word (2 bits
// per lane). These tests pin the SWAR helpers and the word-wide commit
// (commitLanes) to a straightforward per-circuit reference.

TEST(StateTableLanesTest, SwarHelpersRoundTrip) {
  // spread2 sets both bits of lane l iff mask bit l is set, no others.
  for (const std::uint32_t mask :
       {0u, 1u, 0x80000000u, 0xAAAAAAAAu, 0x12345678u, 0xFFFFFFFFu}) {
    const std::uint64_t field = lanes::spread2(mask);
    for (std::uint32_t l = 0; l < lanes::kLaneCount; ++l) {
      const std::uint64_t lane = (field >> (2 * l)) & 3u;
      EXPECT_EQ(lane, ((mask >> l) & 1u) ? 3u : 0u);
    }
  }
  // splat2 puts the state value in every lane; laneState reads it back.
  for (const State v : {State::S0, State::S1, State::SX}) {
    const std::uint64_t bits = lanes::splat2(v);
    for (std::uint32_t l = 0; l < lanes::kLaneCount; ++l) {
      EXPECT_EQ(lanes::laneState(bits, l), v);
    }
  }
}

TEST(StateTableLanesTest, LaneIndexingCrossesGroupBoundaries) {
  EXPECT_EQ(lanes::groupOf(1), 0u);
  EXPECT_EQ(lanes::laneOf(1), 0u);
  EXPECT_EQ(lanes::groupOf(32), 0u);
  EXPECT_EQ(lanes::laneOf(32), 31u);
  EXPECT_EQ(lanes::groupOf(33), 1u);
  EXPECT_EQ(lanes::laneOf(33), 0u);
  for (CircuitId c = 1; c <= 100; ++c) {
    EXPECT_EQ(lanes::circuitAt(lanes::groupOf(c), lanes::laneOf(c)), c);
  }
  // Records for lane-boundary circuits stay independent.
  const Network net = twoNodeNet();
  StateTable t(net);
  t.setGood(NodeId(0), State::S0);
  for (const CircuitId c : {1u, 32u, 33u, 64u, 65u}) {
    t.reconcile(NodeId(0), c, c % 2 ? State::S1 : State::SX);
  }
  EXPECT_EQ(t.totalRecords(), 5u);
  for (const CircuitId c : {1u, 32u, 33u, 64u, 65u}) {
    EXPECT_EQ(t.stateOf(NodeId(0), c), c % 2 ? State::S1 : State::SX);
  }
  EXPECT_FALSE(t.hasRecord(NodeId(0), 2));
  EXPECT_FALSE(t.hasRecord(NodeId(0), 31));
  EXPECT_FALSE(t.hasRecord(NodeId(0), 34));
}

TEST(StateTableLanesTest, CommitLanesEqualsPerCircuitReconcile) {
  const Network net = twoNodeNet();
  Rng rng(456);
  const auto randomState = [&] {
    const std::uint32_t r = rng.below(3);
    return r == 0 ? State::S0 : r == 1 ? State::S1 : State::SX;
  };
  for (int trial = 0; trial < 300; ++trial) {
    StateTable word(net);
    StateTable scalar(net);
    const State g = randomState();
    word.setGood(NodeId(0), g);
    scalar.setGood(NodeId(0), g);
    // Seed both tables identically with per-circuit reconciles.
    for (int k = 0; k < 8; ++k) {
      const CircuitId c = 1 + rng.below(64);
      const State v = randomState();
      word.reconcile(NodeId(0), c, v);
      scalar.reconcile(NodeId(0), c, v);
    }
    // One word-wide commit vs the per-circuit loop.
    const std::uint32_t group = rng.below(2);
    const std::uint32_t mask = rng.next() & 0xFFFFFFFFu;
    const State v = randomState();
    const StateTable::LaneCommit lc =
        word.commitLanes(NodeId(0), group, mask, v);
    std::uint32_t insertedRef = 0;
    std::uint32_t erasedRef = 0;
    for (std::uint32_t l = 0; l < lanes::kLaneCount; ++l) {
      if (((mask >> l) & 1u) == 0) continue;
      const StateTable::Reconciled r =
          scalar.reconcile(NodeId(0), lanes::circuitAt(group, l), v);
      if (r.inserted) insertedRef |= 1u << l;
      if (r.erased) erasedRef |= 1u << l;
    }
    EXPECT_EQ(lc.insertedMask, insertedRef);
    EXPECT_EQ(lc.erasedMask, erasedRef);
    EXPECT_EQ(word.totalRecords(), scalar.totalRecords());
    for (CircuitId c = 1; c <= 64; ++c) {
      EXPECT_EQ(word.stateOf(NodeId(0), c), scalar.stateOf(NodeId(0), c));
      EXPECT_EQ(word.hasRecord(NodeId(0), c), scalar.hasRecord(NodeId(0), c));
    }
  }
}

// --- arena parity ----------------------------------------------------------
//
// The record blocks live in a shared arena with power-of-two capacity
// classes and free-list recycling (see state_table.hpp). This drives a long
// random insert/update/lookup/delete sequence against a straightforward
// reference model (one std::map per node) and checks full behavioural
// parity after every operation batch — the arena must be an invisible
// storage optimization.
TEST(StateTableArenaTest, RandomOpsMatchReferenceModel) {
  NetworkBuilder b;
  constexpr unsigned kNodes = 8;
  for (unsigned i = 0; i < kNodes; ++i) b.addNode("n" + std::to_string(i));
  const Network net = b.build();
  StateTable t(net);
  std::vector<std::map<CircuitId, State>> model(kNodes);
  std::vector<State> goodModel(kNodes, State::SX);

  Rng rng(20260726);
  const auto randomState = [&] {
    const std::uint32_t r = rng.below(3);
    return r == 0 ? State::S0 : r == 1 ? State::S1 : State::SX;
  };

  for (int step = 0; step < 20000; ++step) {
    const NodeId n(rng.below(kNodes));
    const CircuitId c = 1 + rng.below(64);  // dense circuit space: collisions
    switch (rng.below(4)) {
      case 0: {  // setGood: changes the divergence meaning of records
        const State g = randomState();
        t.setGood(n, g);
        goodModel[n.value] = g;
        break;
      }
      case 1:
      case 2: {  // reconcile
        const State v = randomState();
        const StateTable::Reconciled rec = t.reconcile(n, c, v);
        auto& m = model[n.value];
        const bool present = m.count(c) != 0;
        if (v == goodModel[n.value]) {
          EXPECT_FALSE(rec.diverges);
          EXPECT_EQ(rec.erased, present);
          m.erase(c);
        } else {
          EXPECT_TRUE(rec.diverges);
          EXPECT_EQ(rec.inserted, !present);
          m[c] = v;
        }
        break;
      }
      case 3: {  // erase
        const bool had = model[n.value].count(c) != 0;
        EXPECT_EQ(t.erase(n, c), had);
        model[n.value].erase(c);
        break;
      }
    }

    if (step % 251 == 0 || step > 19900) {
      // Full-table parity sweep.
      std::uint64_t total = 0;
      for (unsigned ni = 0; ni < kNodes; ++ni) {
        const NodeId node(ni);
        const auto& m = model[ni];
        total += m.size();
        std::vector<std::pair<CircuitId, State>> recs;
        t.forEachRecord(node,
                        [&](CircuitId c, State v) { recs.emplace_back(c, v); });
        ASSERT_EQ(recs.size(), m.size());
        ASSERT_EQ(t.recordCountAt(node), m.size());
        std::size_t k = 0;
        for (const auto& [circuit, value] : m) {  // map iterates sorted
          EXPECT_EQ(recs[k].first, circuit);
          EXPECT_EQ(recs[k].second, value);
          EXPECT_TRUE(t.hasRecord(node, circuit));
          EXPECT_EQ(t.stateOf(node, circuit), value);
          ++k;
        }
        // Absent circuits fall back to the good state.
        for (CircuitId probe = 1; probe <= 64; ++probe) {
          if (m.count(probe) == 0) {
            EXPECT_FALSE(t.hasRecord(node, probe));
            EXPECT_EQ(t.stateOf(node, probe), goodModel[ni]);
          }
        }
      }
      EXPECT_EQ(t.totalRecords(), total);
    }
  }
  // The arena recycles blocks: after 20k ops over 8 nodes it must stay far
  // below one-slot-per-operation growth.
  EXPECT_LT(t.arenaSize(), 4096u);
}

}  // namespace
}  // namespace fmossim
