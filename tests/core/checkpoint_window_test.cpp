// Sliding-window eviction boundaries of the spilled checkpoint store:
// a window budget exactly at a chunk edge, the single-chunk floor, and
// re-pinning a chunk after the window evicted it. Each case must replay
// content-identically to a resident (budget 0) recording read through the
// same CheckpointReader — resident chunks are kept as recorded, spilled ones
// go through encode/decode and eviction, which is purely a residency
// concern, never a correctness one.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/concurrent_sim.hpp"
#include "gen/random_circuit.hpp"

namespace fmossim {
namespace {

GeneratedWorkload windowWorkload() {
  GenOptions gen;
  gen.seed = 31;
  gen.numNodes = 24;
  gen.numInputs = 6;
  gen.numFaults = 36;
  gen.numPatterns = 300;
  return generateWorkload(gen);
}

/// Settle `si`'s full trace content as a reader yields it, flattened into
/// one word list: phase count, input changes, then per phase each
/// vicinity's members and the committed changes (each list count-prefixed).
std::vector<std::uint32_t> settleContent(CheckpointReader& rd,
                                         std::uint32_t si) {
  rd.enterSettle(si);
  std::vector<std::uint32_t> out{rd.phaseCount()};
  const auto addChanges = [&out](const auto& changes) {
    out.push_back(static_cast<std::uint32_t>(changes.size()));
    for (const GoodMachineCheckpoint::Change& ch : changes) {
      out.push_back(ch.node.value);
      out.push_back(static_cast<std::uint32_t>(ch.value));
    }
  };
  addChanges(rd.inputChanges());
  for (std::uint32_t k = 0; k < rd.phaseCount(); ++k) {
    const auto vics = rd.vicinities(k);
    out.push_back(static_cast<std::uint32_t>(vics.size()));
    for (const GoodMachineCheckpoint::VicinitySpan& v : vics) {
      out.push_back(v.memberCount);
      for (const NodeId n : rd.members(v)) out.push_back(n.value);
    }
    addChanges(rd.changes(k));
  }
  return out;
}

struct WindowFixture : ::testing::Test {
  void SetUp() override {
    w = windowWorkload();
    mem = GoodMachineCheckpoint::record(w.net, w.seq, opts);
    ASSERT_FALSE(mem.spilled());
    ref = std::make_unique<CheckpointReader>(mem);
  }

  /// Asserts `rd` yields settle `si` exactly as the resident recording does.
  void expectSameSettle(CheckpointReader& rd, std::uint32_t si) {
    ASSERT_EQ(settleContent(rd, si), settleContent(*ref, si))
        << "settle " << si;
  }

  /// Records with `budget` and asserts the spill path engaged with the same
  /// deterministic chunking as any other sub-32-KiB budget (the chunk
  /// target clamps to its floor there, so chunk layout is budget-invariant).
  GoodMachineCheckpoint spill(std::size_t budget) {
    GoodMachineCheckpoint ck =
        GoodMachineCheckpoint::record(w.net, w.seq, opts, budget);
    EXPECT_TRUE(ck.spilled());
    EXPECT_GT(ck.spillChunkCount(), 2u)
        << "workload too small to exercise eviction";
    EXPECT_EQ(ck.seqFingerprint(), mem.seqFingerprint());
    EXPECT_EQ(ck.numSettles(), mem.numSettles());
    EXPECT_EQ(ck.finalGoodStates(), mem.finalGoodStates());
    return ck;
  }

  GeneratedWorkload w;
  FsimOptions opts;
  GoodMachineCheckpoint mem;
  std::unique_ptr<CheckpointReader> ref;  ///< over `mem`
};

// Budget below the window floor: the window is clamped to exactly one
// decodable chunk (maxChunkBytes), so every cross-chunk step evicts — and
// the full trace content must still come back bit-identically.
TEST_F(WindowFixture, SingleChunkWindowYieldsFullTrace) {
  GoodMachineCheckpoint ck = spill(1);
  EXPECT_EQ(ck.windowBudgetBytes(), ck.maxChunkBytes());
  CheckpointReader rd(ck);
  for (std::uint32_t si = 0; si < mem.numSettles(); ++si) {
    expectSameSettle(rd, si);
  }
}

// Budget exactly at a chunk edge: fixed footprint + exactly one max-sized
// chunk. The window budget lands exactly on maxChunkBytes (no slack for a
// second chunk), the boundary where an off-by-one in eviction accounting
// would either thrash or overrun the budget.
TEST_F(WindowFixture, BudgetExactlyAtChunkEdge) {
  // Self-calibrating: right after recording no decoded chunks are resident,
  // so memoryBytes() is exactly the fixed (non-window) footprint. Iterate
  // budget -> fixed(budget) + maxChunk(budget) to the fixed point where the
  // budget sits exactly one max-sized chunk above the fixed footprint — the
  // boundary where an off-by-one in window accounting would either evict
  // the only decodable chunk or overrun the budget.
  std::size_t budget = std::size_t{48} << 10;
  GoodMachineCheckpoint ck = spill(budget);
  bool converged = false;
  for (int i = 0; i < 10 && !converged; ++i) {
    const std::size_t edge = ck.memoryBytes() + ck.maxChunkBytes();
    converged = edge == budget;
    if (!converged) {
      budget = edge;
      ck = spill(budget);
    }
  }
  ASSERT_TRUE(converged) << "fixed footprint did not stabilize";
  EXPECT_EQ(ck.windowBudgetBytes(), ck.maxChunkBytes());

  ConcurrentFaultSimulator plain(w.net, w.faults, opts);
  const FaultSimResult ref = plain.run(w.seq);
  ConcurrentFaultSimulator replaying(w.net, w.faults, opts, nullptr, &ck);
  const FaultSimResult got = replaying.run(w.seq);
  EXPECT_EQ(got.detectedAtPattern, ref.detectedAtPattern);
  EXPECT_EQ(got.finalGoodStates, ref.finalGoodStates);
  EXPECT_EQ(ck.totalGoodEvals() + got.totalNodeEvals, ref.totalNodeEvals);
  EXPECT_LE(ck.memoryBytes(), budget) << "resident after a full replay";
}

// goodStateAfterPattern at arbitrary mid-sequence instants: the fold that
// SEU campaigns use to materialize an injection instant must yield the same
// snapshot from a spilled single-chunk window as from the unbounded
// recording — including out-of-order access, which forces the reader to
// seek backwards across evicted chunks.
TEST_F(WindowFixture, GoodStateAfterPatternMatchesUnbounded) {
  GoodMachineCheckpoint ck = spill(1);
  const std::uint64_t numPatterns = mem.numPatterns();
  ASSERT_GT(numPatterns, 8u);
  const std::uint64_t probes[] = {0,
                                  1,
                                  numPatterns / 3,
                                  numPatterns / 2,
                                  numPatterns - 2,
                                  numPatterns - 1,
                                  2,  // backwards after reaching the end
                                  numPatterns / 2};
  for (const std::uint64_t p : probes) {
    EXPECT_EQ(ck.goodStateAfterPattern(p), mem.goodStateAfterPattern(p))
        << "pattern " << p;
    EXPECT_EQ(ck.settleEndingPattern(p), mem.settleEndingPattern(p))
        << "pattern " << p;
  }
  EXPECT_EQ(ck.goodStateAfterPattern(numPatterns - 1), ck.finalGoodStates());
}

// Re-pin after eviction: walk the whole trace forward (sliding the
// single-chunk window off chunk 0), then seek back to settle 0 — the
// evicted chunk must reload with identical content, repeatedly.
TEST_F(WindowFixture, RePinAfterEvictionReloadsIdenticalContent) {
  GoodMachineCheckpoint ck = spill(1);
  CheckpointReader rd(ck);
  const std::uint32_t last = mem.numSettles() - 1;
  for (int round = 0; round < 2; ++round) {
    expectSameSettle(rd, 0);
    expectSameSettle(rd, mem.numSettles() / 2);
    expectSameSettle(rd, last);
  }
  // Two concurrent readers at opposite ends of the file keep forcing each
  // other's chunks out of a one-chunk window; both must stay correct.
  CheckpointReader a(ck), b(ck);
  for (int round = 0; round < 2; ++round) {
    expectSameSettle(a, 0);
    expectSameSettle(b, last);
    expectSameSettle(a, 1);
    expectSameSettle(b, last - 1);
  }
}

// The resident recording is chunked too (chunks up to 64 KiB, none spilled):
// a reader walking its settles backward across chunk boundaries, then
// forward again, yields exactly what one forward walk does.
TEST_F(WindowFixture, ResidentChunksReadInAnyOrder) {
  ASSERT_GT(mem.numChunks(), 1u) << "workload too small to span chunks";
  EXPECT_EQ(mem.spillChunkCount(), 0u);
  std::vector<std::vector<std::uint32_t>> forward;
  for (std::uint32_t si = 0; si < mem.numSettles(); ++si) {
    forward.push_back(settleContent(*ref, si));
  }
  CheckpointReader rd(mem);
  for (std::uint32_t si = mem.numSettles(); si-- > 0;) {
    ASSERT_EQ(settleContent(rd, si), forward[si]) << "backward, settle " << si;
  }
  for (std::uint32_t si = 0; si < mem.numSettles(); ++si) {
    ASSERT_EQ(settleContent(rd, si), forward[si]) << "forward, settle " << si;
  }
}

}  // namespace
}  // namespace fmossim
