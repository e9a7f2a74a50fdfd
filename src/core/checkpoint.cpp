#include "core/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <filesystem>
#include <list>
#include <mutex>
#include <unordered_map>

#include "core/concurrent_sim.hpp"
#include "patterns/pattern_source.hpp"
#include "util/hash.hpp"

namespace fmossim {

namespace {

template <typename T>
std::size_t vecBytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

// --- chunk (de)serialization -------------------------------------------------
//
// A spilled chunk is six raw POD arrays behind a count header. The file is
// private to the process (created unlinked, read back by the same build), so
// native layout is fine — no endianness or padding concerns.

struct BlockHeader {
  std::uint32_t settles, phases, vics, members, changes, inputs;
};

template <typename T>
void appendRaw(std::string& out, const std::vector<T>& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (v.empty()) return;
  const std::size_t off = out.size();
  out.resize(off + v.size() * sizeof(T));
  std::memcpy(out.data() + off, v.data(), v.size() * sizeof(T));
}

template <typename T>
const char* readRaw(const char* p, const char* end, std::vector<T>& v,
                    std::uint32_t count) {
  static_assert(std::is_trivially_copyable_v<T>);
  v.resize(count);
  if (count == 0) return p;
  const std::size_t bytes = std::size_t(count) * sizeof(T);
  FMOSSIM_ASSERT(p + bytes <= end, "checkpoint spill chunk truncated");
  std::memcpy(v.data(), p, bytes);
  return p + bytes;
}

std::string encodeBlock(const GoodMachineCheckpoint::SettleBlock& b) {
  std::string out;
  const BlockHeader h{static_cast<std::uint32_t>(b.settles.size()),
                      static_cast<std::uint32_t>(b.phases.size()),
                      static_cast<std::uint32_t>(b.vics.size()),
                      static_cast<std::uint32_t>(b.members.size()),
                      static_cast<std::uint32_t>(b.changes.size()),
                      static_cast<std::uint32_t>(b.inputChanges.size())};
  out.append(reinterpret_cast<const char*>(&h), sizeof h);
  appendRaw(out, b.settles);
  appendRaw(out, b.phases);
  appendRaw(out, b.vics);
  appendRaw(out, b.members);
  appendRaw(out, b.changes);
  appendRaw(out, b.inputChanges);
  return out;
}

void decodeBlock(const char* p, std::size_t size,
                 GoodMachineCheckpoint::SettleBlock& b) {
  const char* end = p + size;
  FMOSSIM_ASSERT(size >= sizeof(BlockHeader), "checkpoint spill chunk truncated");
  BlockHeader h;
  std::memcpy(&h, p, sizeof h);
  p += sizeof h;
  p = readRaw(p, end, b.settles, h.settles);
  p = readRaw(p, end, b.phases, h.phases);
  p = readRaw(p, end, b.vics, h.vics);
  p = readRaw(p, end, b.members, h.members);
  p = readRaw(p, end, b.changes, h.changes);
  p = readRaw(p, end, b.inputChanges, h.inputs);
  FMOSSIM_ASSERT(p == end, "checkpoint spill chunk has trailing bytes");
}

}  // namespace

std::size_t GoodMachineCheckpoint::SettleBlock::bytes() const {
  return vecBytes(settles) + vecBytes(phases) + vecBytes(vics) +
         vecBytes(members) + vecBytes(changes) + vecBytes(inputChanges);
}

std::size_t GoodMachineCheckpoint::SettleBlock::contentBytes() const {
  return settles.size() * sizeof(Settle) + phases.size() * sizeof(Phase) +
         vics.size() * sizeof(VicinitySpan) + members.size() * sizeof(NodeId) +
         changes.size() * sizeof(Change) + inputChanges.size() * sizeof(Change);
}

// --- spill state ------------------------------------------------------------

/// The temp-file backing store plus the sliding replay window: an LRU cache
/// of decoded chunks, internally synchronized so concurrently replaying
/// engines (one CheckpointReader each) share it. A reader pins its current
/// chunk via shared_ptr; pinned chunks are never evicted, so spans handed
/// out by a reader stay valid until its next enterSettle().
struct GoodMachineCheckpoint::SpillState {
  int fd = -1;
  std::vector<std::uint64_t> blockOff;  ///< numChunks + 1 file offsets
  std::size_t windowBudget = 0;         ///< bytes of decoded chunks to keep
  std::size_t maxBlockBytes = 0;        ///< largest encoded chunk seen

  mutable std::mutex mu;
  struct Entry {
    std::shared_ptr<const SettleBlock> block;
    std::list<std::uint32_t>::iterator lruIt;
    std::size_t bytes = 0;
  };
  mutable std::list<std::uint32_t> lru;  ///< front = most recently used
  mutable std::unordered_map<std::uint32_t, Entry> cache;
  mutable std::size_t cachedBytes = 0;

  ~SpillState() {
    if (fd >= 0) ::close(fd);
  }

  void open(const std::string& spillDir) {
    std::string dir = spillDir;
    if (dir.empty()) {
      std::error_code ec;
      const std::filesystem::path tmp = std::filesystem::temp_directory_path(ec);
      // (ternary + move assignment rather than `dir = "..."`: GCC 12's
      // -Wrestrict false-fires on the char* assign inlined here)
      dir = ec ? std::string(1, '.') : tmp.string();
    }
    std::string tmpl = dir + "/fmossim-checkpoint-XXXXXX";
    fd = ::mkstemp(tmpl.data());
    if (fd < 0) {
      throw Error("cannot create checkpoint spill file in '" + dir + "'");
    }
    // Unlink immediately: the kernel reclaims the blocks when the last fd
    // closes, so no crash can leak a spill file.
    ::unlink(tmpl.c_str());
    blockOff.push_back(0);
  }

  void appendBlock(const std::string& encoded) {
    const std::uint64_t off = blockOff.back();
    std::size_t done = 0;
    while (done < encoded.size()) {
      const ssize_t n = ::pwrite(fd, encoded.data() + done,
                                 encoded.size() - done,
                                 static_cast<off_t>(off + done));
      if (n < 0) throw Error("checkpoint spill write failed");
      done += static_cast<std::size_t>(n);
    }
    blockOff.push_back(off + encoded.size());
    maxBlockBytes = std::max(maxBlockBytes, encoded.size());
  }

  void readBlock(std::uint32_t i, std::string& buf) const {
    const std::uint64_t off = blockOff[i];
    const std::size_t size = static_cast<std::size_t>(blockOff[i + 1] - off);
    buf.resize(size);
    std::size_t done = 0;
    while (done < size) {
      const ssize_t n = ::pread(fd, buf.data() + done, size - done,
                                static_cast<off_t>(off + done));
      if (n <= 0) throw Error("checkpoint spill read failed");
      done += static_cast<std::size_t>(n);
    }
  }
};

// --- GoodMachineCheckpoint ---------------------------------------------------

GoodMachineCheckpoint::GoodMachineCheckpoint() = default;
GoodMachineCheckpoint::GoodMachineCheckpoint(GoodMachineCheckpoint&&) noexcept =
    default;
GoodMachineCheckpoint& GoodMachineCheckpoint::operator=(
    GoodMachineCheckpoint&&) noexcept = default;
GoodMachineCheckpoint::~GoodMachineCheckpoint() = default;

std::uint64_t GoodMachineCheckpoint::fingerprint(const TestSequence& seq) {
  std::uint64_t h = kFnvOffsetBasis;
  fnvMix(h, seq.size());
  for (const Pattern& p : seq.patterns()) {
    fnvMix(h, p.settings.size());
    for (const InputSetting& s : p.settings) {
      fnvMix(h, s.assignments.size());
      for (const auto& [n, v] : s.assignments) {
        fnvMix(h, (std::uint64_t(n.value) << 8) | std::uint64_t(v));
      }
    }
  }
  fnvMix(h, seq.outputs().size());
  for (const NodeId out : seq.outputs()) fnvMix(h, out.value);
  return h;
}

GoodMachineCheckpoint GoodMachineCheckpoint::record(const Network& net,
                                                    const TestSequence& seq,
                                                    const FsimOptions& options,
                                                    std::size_t budgetBytes,
                                                    const std::string& spillDir) {
  MaterializedPatternSource source(seq);
  return recordImpl(net, source, options, budgetBytes, spillDir,
                    /*keepPerPatternEvals=*/true);
}

GoodMachineCheckpoint GoodMachineCheckpoint::record(const Network& net,
                                                    PatternSource& source,
                                                    const FsimOptions& options,
                                                    std::size_t budgetBytes,
                                                    const std::string& spillDir) {
  return recordImpl(net, source, options, budgetBytes, spillDir,
                    /*keepPerPatternEvals=*/false);
}

GoodMachineCheckpoint GoodMachineCheckpoint::recordImpl(
    const Network& net, PatternSource& source, const FsimOptions& options,
    std::size_t budgetBytes, const std::string& spillDir,
    bool keepPerPatternEvals) {
  GoodMachineCheckpoint ck;
  ck.budgetBytes_ = budgetBytes;
  ck.streamed_ = !keepPerPatternEvals;
  if (budgetBytes > 0) {
    ck.spill_ = std::make_unique<SpillState>();
    ck.spill_->open(spillDir);
  }
  // One fingerprint pass first (the source rewinds around it) — the
  // identical fold to fingerprint(seq), so a streamed recording of a
  // generator-backed sequence keys the same as its materialized twin.
  ck.seqFingerprint_ = source.fingerprint();
  ck.outputs_ = source.outputs();
  CheckpointRecorder rec(ck);
  // A fault-free concurrent run *is* the good machine: every phase it
  // executes is a good phase, in exactly the order and with exactly the
  // coercion timing any engine simulating this sequence reproduces.
  ConcurrentFaultSimulator sim(net, FaultList(), options, &rec);
  ck.initialGoodStates_.reserve(net.numNodes());
  for (std::uint32_t n = 0; n < net.numNodes(); ++n) {
    ck.initialGoodStates_.push_back(sim.goodState(NodeId(n)));
  }
  std::function<void(const PatternStat&)> onPattern;
  if (keepPerPatternEvals) {
    ck.perPatternGoodEvals_.reserve(
        static_cast<std::size_t>(source.numPatterns()));
    onPattern = [&ck](const PatternStat& st) {
      ck.perPatternGoodEvals_.push_back(st.nodeEvals);
    };
  }
  const FaultSimResult res = sim.run(source, nullptr, onPattern);
  rec.finish();
  ck.finalGoodStates_ = res.finalGoodStates;
  ck.totalGoodEvals_ = res.totalNodeEvals;
  ck.recordSeconds_ = res.totalSeconds;
  FMOSSIM_ASSERT(ck.numPatterns_ == source.numPatterns(),
                 "checkpoint recording lost a pattern boundary");
  FMOSSIM_ASSERT(
      ck.settleCount_ > 0 && ck.patternEndsAtSettle(ck.settleCount_ - 1),
      "checkpoint recording lost a settle");
  // Push-back growth leaves up to 2x slack in the index vectors; return it
  // so memoryBytes() reports (and the budget governs) real content.
  ck.firstSettle_.shrink_to_fit();
  ck.resident_.shrink_to_fit();
  ck.initialGoodStates_.shrink_to_fit();
  ck.perPatternGoodEvals_.shrink_to_fit();
  ck.patternEndBits_.shrink_to_fit();
  ck.outputs_.shrink_to_fit();
  if (ck.spill_ != nullptr) {
    ck.spill_->blockOff.shrink_to_fit();
    // The replay window gets whatever the budget leaves above the fixed
    // resident floor, but always at least the largest chunk: one chunk
    // must be decodable or replay cannot proceed at all.
    const std::size_t fixed = ck.fixedBytes();
    ck.spill_->windowBudget =
        std::max(budgetBytes > fixed ? budgetBytes - fixed : std::size_t{0},
                 ck.spill_->maxBlockBytes);
  }
  return ck;
}

std::uint32_t GoodMachineCheckpoint::settleEndingPattern(
    std::uint64_t p) const {
  FMOSSIM_ASSERT(p < numPatterns_,
                 "settleEndingPattern: pattern index out of range");
  // The (p+1)-th set pattern-end bit (word-skipping popcount scan).
  std::uint64_t need = p + 1;
  for (std::size_t w = 0; w < patternEndBits_.size(); ++w) {
    std::uint64_t word = patternEndBits_[w];
    const auto count = static_cast<std::uint64_t>(std::popcount(word));
    if (count < need) {
      need -= count;
      continue;
    }
    std::uint32_t b = 0;
    for (;; ++b, word >>= 1) {
      if ((word & 1) != 0 && --need == 0) break;
    }
    return static_cast<std::uint32_t>(w * 64 + b);
  }
  FMOSSIM_ASSERT(false, "pattern-end bits inconsistent");
  return 0;
}

std::vector<State> GoodMachineCheckpoint::goodStateAfterPattern(
    std::uint64_t p) const {
  const std::uint32_t settleEnd = settleEndingPattern(p) + 1;
  std::vector<State> state = initialGoodStates_;
  CheckpointReader reader(*this);
  for (std::uint32_t s = 1; s < settleEnd; ++s) {
    reader.enterSettle(s);
    for (const Change& ch : reader.inputChanges()) {
      state[ch.node.value] = ch.value;
    }
    for (std::uint32_t ph = 0; ph < reader.phaseCount(); ++ph) {
      for (const Change& ch : reader.changes(ph)) {
        state[ch.node.value] = ch.value;
      }
    }
  }
  return state;
}

std::size_t GoodMachineCheckpoint::fixedBytes() const {
  std::size_t n = vecBytes(firstSettle_) + vecBytes(initialGoodStates_) +
                  vecBytes(finalGoodStates_) + vecBytes(perPatternGoodEvals_) +
                  vecBytes(patternEndBits_) + vecBytes(outputs_);
  if (spill_ != nullptr) n += vecBytes(spill_->blockOff);
  return n;
}

std::size_t GoodMachineCheckpoint::memoryBytes() const {
  std::size_t n = fixedBytes();
  if (spill_ != nullptr) {
    std::lock_guard<std::mutex> lock(spill_->mu);
    return n + spill_->cachedBytes;
  }
  n += vecBytes(resident_);
  for (const auto& block : resident_) n += block->bytes();
  return n;
}

std::size_t GoodMachineCheckpoint::maxChunkBytes() const {
  return spill_ == nullptr ? 0 : spill_->maxBlockBytes;
}

std::size_t GoodMachineCheckpoint::windowBudgetBytes() const {
  return spill_ == nullptr ? 0 : spill_->windowBudget;
}

std::shared_ptr<const GoodMachineCheckpoint::SettleBlock>
GoodMachineCheckpoint::loadBlock(std::uint32_t c) const {
  if (spill_ == nullptr) return resident_[c];
  SpillState& sp = *spill_;
  {
    std::lock_guard<std::mutex> lock(sp.mu);
    if (auto it = sp.cache.find(c); it != sp.cache.end()) {
      sp.lru.splice(sp.lru.begin(), sp.lru, it->second.lruIt);
      return it->second.block;
    }
  }
  // Miss: read and decode OUTSIDE the window lock — pread is thread-safe
  // and this is the expensive part, so concurrently replaying engines must
  // not serialize on each other's file I/O. Two threads missing the same
  // chunk both decode it; the loser's copy is dropped below (wasted work is
  // bounded by one chunk and is far cheaper than holding the lock across
  // disk reads).
  std::string buf;
  sp.readBlock(c, buf);
  auto block = std::make_shared<SettleBlock>();
  decodeBlock(buf.data(), buf.size(), *block);
  const std::size_t bytes = block->bytes();

  std::lock_guard<std::mutex> lock(sp.mu);
  if (auto it = sp.cache.find(c); it != sp.cache.end()) {
    sp.lru.splice(sp.lru.begin(), sp.lru, it->second.lruIt);
    return it->second.block;  // another reader inserted it meanwhile
  }
  sp.lru.push_front(c);
  sp.cache.emplace(c, SpillState::Entry{block, sp.lru.begin(), bytes});
  sp.cachedBytes += bytes;
  // Slide the window: drop least-recently-used chunks past the budget,
  // never a pinned one (a reader still hands out spans into it) and never
  // the chunk just loaded.
  for (auto it = std::prev(sp.lru.end());
       sp.cachedBytes > sp.windowBudget && it != sp.lru.begin();) {
    const auto cur = it--;
    auto entry = sp.cache.find(*cur);
    if (entry->second.block.use_count() > 1) continue;  // pinned by a reader
    sp.cachedBytes -= entry->second.bytes;
    sp.cache.erase(entry);
    sp.lru.erase(cur);
  }
  return block;
}

// --- CheckpointReader --------------------------------------------------------

CheckpointReader::CheckpointReader(const GoodMachineCheckpoint& ck)
    : ck_(&ck) {}

void CheckpointReader::enterSettle(std::uint32_t i) {
  FMOSSIM_ASSERT(i < ck_->numSettles(), "reader settle index out of range");
  // Settles of the pinned chunk — the sequential replay fast path — reuse
  // the pin (an index below pinFirst_ wraps past every chunk size). Any
  // other settle looks its chunk up and pins it. The previous pin is
  // released BEFORE loading: spans into it are invalidated by this call
  // anyway, and holding it across a spilled load would make the window need
  // two chunks per reader (old + new), overshooting the budget exactly when
  // it is tightest. With the pin dropped first, the eviction pass inside
  // loadBlock can reclaim the previous chunk, so one chunk per reader is
  // the true floor (as documented on memoryBytes()).
  std::uint32_t local = i - pinFirst_;
  if (pin_ == nullptr || local >= pin_->settles.size()) {
    const std::vector<std::uint32_t>& fs = ck_->firstSettle_;
    const auto c = static_cast<std::uint32_t>(
        std::upper_bound(fs.begin(), fs.end(), i) - fs.begin() - 1);
    pin_.reset();
    pin_ = ck_->loadBlock(c);
    pinFirst_ = fs[c];
    local = i - pinFirst_;
  }
  const GoodMachineCheckpoint::Settle& s = pin_->settles[local];
  phaseCount_ = s.phaseCount;
  inputCount_ = s.inputCount;
  phases_ = pin_->phases.data() + s.phaseOff;
  vicBase_ = pin_->vics.data();
  memberBase_ = pin_->members.data();
  changeBase_ = pin_->changes.data();
  inputs_ = pin_->inputChanges.data() + s.inputOff;
}

// --- CheckpointRecorder ------------------------------------------------------

CheckpointRecorder::CheckpointRecorder(GoodMachineCheckpoint& into)
    : ck_(into) {
  // /16: several chunks fit the window even when the budget is mostly
  // consumed by the fixed floor; clamped so tiny budgets still amortize
  // encode/decode and huge ones keep eviction granular. Resident chunks
  // (budget 0) take the ceiling.
  constexpr std::size_t kCeiling = std::size_t{64} << 10;
  chunkTarget_ = ck_.spill_ == nullptr
                     ? kCeiling
                     : std::clamp<std::size_t>(ck_.budgetBytes_ / 16,
                                               std::size_t{2} << 10, kCeiling);
}

void CheckpointRecorder::inputChange(NodeId n, State v) {
  pendingInputs_.push_back({n, v});
}

void CheckpointRecorder::flushChunk() {
  GoodMachineCheckpoint::SettleBlock& b = pending_;
  if (b.settles.empty()) return;
  ck_.firstSettle_.push_back(ck_.settleCount_ -
                             static_cast<std::uint32_t>(b.settles.size()));
  if (ck_.spill_ != nullptr) {
    ck_.spill_->appendBlock(encodeBlock(b));
  } else {
    // An exact-size copy, so memoryBytes() counts content; the pending
    // buffers keep their capacity for the next chunk.
    ck_.resident_.push_back(
        std::make_shared<const GoodMachineCheckpoint::SettleBlock>(b));
  }
  b.settles.clear();
  b.phases.clear();
  b.vics.clear();
  b.members.clear();
  b.changes.clear();
  b.inputChanges.clear();
}

void CheckpointRecorder::beginSettle() {
  // Chunks hold whole settles: the pending one closes at a settle boundary
  // once it has reached the target.
  if (pending_.contentBytes() >= chunkTarget_) flushChunk();
  const auto inputOff = static_cast<std::uint32_t>(pending_.inputChanges.size());
  const auto inputCount = static_cast<std::uint32_t>(pendingInputs_.size());
  pending_.inputChanges.insert(pending_.inputChanges.end(),
                               pendingInputs_.begin(), pendingInputs_.end());
  pendingInputs_.clear();
  pending_.settles.push_back(
      {static_cast<std::uint32_t>(pending_.phases.size()), 0, inputOff,
       inputCount});
  ++ck_.settleCount_;
}

void CheckpointRecorder::beginPhase() {
  FMOSSIM_ASSERT(!pending_.settles.empty(), "phase recorded before any settle");
  pending_.phases.push_back(
      {static_cast<std::uint32_t>(pending_.vics.size()), 0,
       static_cast<std::uint32_t>(pending_.changes.size()), 0});
  ++pending_.settles.back().phaseCount;
}

void CheckpointRecorder::goodVicinity(const Vicinity& vic) {
  pending_.vics.push_back({static_cast<std::uint32_t>(pending_.members.size()),
                           static_cast<std::uint32_t>(vic.members.size())});
  pending_.members.insert(pending_.members.end(), vic.members.begin(),
                          vic.members.end());
  ++pending_.phases.back().vicCount;
}

void CheckpointRecorder::goodCommit(NodeId n, State v) {
  pending_.changes.push_back({n, v});
  ++pending_.phases.back().changeCount;
}

void CheckpointRecorder::endPattern() {
  FMOSSIM_ASSERT(ck_.settleCount_ > 0, "pattern end recorded before any settle");
  const std::uint32_t i = ck_.settleCount_ - 1;
  auto& bits = ck_.patternEndBits_;
  if ((i >> 6) >= bits.size()) bits.resize((i >> 6) + 1, 0);
  const std::uint64_t mask = std::uint64_t{1} << (i & 63);
  FMOSSIM_ASSERT((bits[i >> 6] & mask) == 0,
                 "two pattern boundaries on one settle");
  bits[i >> 6] |= mask;
  ++ck_.numPatterns_;
}

void CheckpointRecorder::finish() {
  FMOSSIM_ASSERT(pendingInputs_.empty(),
                 "input changes recorded after the last settle");
  flushChunk();
}

}  // namespace fmossim
