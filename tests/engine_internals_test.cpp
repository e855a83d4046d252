//===- tests/engine_internals_test.cpp - Engine building blocks -----------==//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//
//
// Direct unit tests for the engine's building blocks, which until now were
// covered only through whole-checker runs: the Arena's rewind/overflow
// block reuse and geometric growth (the guarantees that a corpus run
// performs a bounded number of real heap allocations and that a shard's
// reserve follows its high-water), the TranspositionTable's allocation on
// first insert, lazy growth, spread of keys that share their low bits,
// allocation-free forgetting and always-replace-at-capacity semantics (the
// guarantee that memo pressure costs re-exploration, never a wrong
// verdict), the LiveWindow's 64-slot storage through folds, stride regrows
// and an overflow excursion, plus the CorpusDriver's agreement with a
// hand-run warm session.
//
//===----------------------------------------------------------------------===//

#include "adt/Consensus.h"
#include "adt/Queue.h"
#include "adt/Register.h"
#include "adt/Universal.h"
#include "engine/CorpusDriver.h"
#include "engine/Incremental.h"
#include "engine/Transposition.h"
#include "lin/LinChecker.h"
#include "lin/Witness.h"
#include "slin/SlinWitness.h"
#include "spec/SpecAutomaton.h"
#include "support/AllocGauge.h"
#include "support/Arena.h"
#include "trace/Gen.h"
#include "trace/TraceIo.h"

#include <gtest/gtest.h>

#include <deque>
#include <functional>

SLIN_DEFINE_ALLOC_GAUGE()

using namespace slin;

//===----------------------------------------------------------------------===//
// Arena: bump allocation, rewind, and overflow-block reuse.
//===----------------------------------------------------------------------===//

TEST(ArenaTest, AllocationsAreDisjointAndAligned) {
  Arena A;
  std::int32_t *X = A.allocZeroed<std::int32_t>(10);
  std::int64_t *Y = A.allocArray<std::int64_t>(5);
  ASSERT_NE(X, nullptr);
  ASSERT_NE(Y, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(Y) % alignof(std::int64_t), 0u);
  // Writing one allocation must not disturb the other.
  for (int I = 0; I != 10; ++I)
    X[I] = I;
  for (int I = 0; I != 5; ++I)
    Y[I] = -1;
  for (int I = 0; I != 10; ++I)
    EXPECT_EQ(X[I], I);
  EXPECT_EQ(A.bytesAllocated(), 10 * sizeof(std::int32_t) +
                                    5 * sizeof(std::int64_t));
}

TEST(ArenaTest, ResetRewindsToTheSameStorage) {
  Arena A;
  void *First = A.allocate(128);
  A.reset();
  EXPECT_EQ(A.bytesAllocated(), 0u);
  // After a rewind the first allocation reuses the first block's storage:
  // no new heap allocation, same address handed back.
  void *Again = A.allocate(128);
  EXPECT_EQ(First, Again);
}

TEST(ArenaTest, OverflowBlocksAreRetainedAndReused) {
  // A tiny block size forces overflow chaining immediately.
  Arena A(/*BlockBytes=*/64);
  void *Small = A.allocate(16);
  void *Big = A.allocate(1024); // Cannot fit a 64-byte block: dedicated block.
  ASSERT_NE(Small, nullptr);
  ASSERT_NE(Big, nullptr);
  A.reset();
  // The rewound arena must serve the same shapes from the retained blocks.
  void *Small2 = A.allocate(16);
  void *Big2 = A.allocate(1024);
  EXPECT_EQ(Small, Small2);
  EXPECT_EQ(Big, Big2);
}

TEST(ArenaTest, ZeroedArraysAreZeroAfterDirtyReuse) {
  Arena A(/*BlockBytes=*/64);
  std::int32_t *X = A.allocZeroed<std::int32_t>(8);
  for (int I = 0; I != 8; ++I)
    X[I] = 0x5A5A5A5A;
  A.reset();
  // allocZeroed must clear recycled (dirty) storage.
  std::int32_t *Y = A.allocZeroed<std::int32_t>(8);
  for (int I = 0; I != 8; ++I)
    EXPECT_EQ(Y[I], 0);
}

TEST(ArenaTest, BlocksGrowGeometricallyAndPassesReuseThem) {
  // A search-shaped pass: per obligation one dense count row (8 inputs)
  // and a candidate buffer, deepening to 40 obligations.
  constexpr std::size_t First = 256;
  Arena A(First);
  auto Pass = [&A] {
    std::vector<void *> Ptrs;
    for (std::size_t Q = 1; Q <= 40; ++Q) {
      Ptrs.push_back(A.allocZeroed<std::int32_t>(8));
      Ptrs.push_back(A.allocArray<std::uint32_t>(Q));
    }
    return Ptrs;
  };
  std::vector<void *> Ptrs = Pass();
  const std::size_t Reserved = A.reservedBytes();
  const std::size_t Blocks = A.blockCount();
  // Doubling blocks: the reserve stays within twice the high-water (plus
  // the first block), in a logarithmic number of blocks.
  EXPECT_LE(Reserved, First + 2 * A.highWaterBytes());
  EXPECT_GT(Blocks, 1u);
  EXPECT_LE(Blocks, 6u);
  // The same shape again after a rewind lands in the retained blocks:
  // same addresses, no new block.
  A.reset();
  EXPECT_EQ(Pass(), Ptrs);
  EXPECT_EQ(A.reservedBytes(), Reserved);
  EXPECT_EQ(A.blockCount(), Blocks);
}

TEST(ArenaTest, RewindToAMarkFreesOnlyWhatFollowedIt) {
  Arena A(/*FirstBlockBytes=*/64);
  std::int32_t *Kept = A.allocZeroed<std::int32_t>(4);
  const Arena::Mark M = A.mark();
  void *First = A.allocate(32);
  A.allocate(256); // Spills into a second block.
  A.rewind(M);
  EXPECT_EQ(A.bytesAllocated(), 4 * sizeof(std::int32_t));
  // The next allocation reuses the first block's tail, and what preceded
  // the mark is untouched.
  EXPECT_EQ(A.allocate(32), First);
  EXPECT_EQ(Kept[3], 0);
  const std::size_t Blocks = A.blockCount();
  A.rewind(M);
  A.allocate(32);
  A.allocate(256);
  EXPECT_EQ(A.blockCount(), Blocks) << "the spilled block is reused";
}

TEST(ArenaTest, OversizedRequestGetsItsOwnBlock) {
  // A request beyond twice the last block is served by a block of its own
  // size; the next block doubles from there.
  Arena A(/*FirstBlockBytes=*/64);
  A.allocate(16, 16);
  A.allocate(1000, 16);
  EXPECT_EQ(A.blockCount(), 2u);
  EXPECT_EQ(A.reservedBytes(), 64u + 1016u);
  A.allocate(1000, 16); // Does not fit the 1016 B block's tail.
  EXPECT_EQ(A.blockCount(), 3u);
  EXPECT_EQ(A.reservedBytes(), 64u + 1016u + 2032u);
}

//===----------------------------------------------------------------------===//
// TranspositionTable: allocation on first insert, lazy growth, the mixed
// home slot, forgetting and always-replace at capacity.
//===----------------------------------------------------------------------===//

TEST(TranspositionTest, NoSlotArrayUntilTheFirstInsert) {
  TranspositionTable T;
  EXPECT_EQ(T.memoryBytes(), 0u);
  EXPECT_EQ(T.capacity(), 0u);
  // Probing an empty table misses and allocates nothing.
  T.prefetch(42);
  EXPECT_FALSE(T.contains(42));
  EXPECT_FALSE(T.contains(0));
  EXPECT_EQ(T.liveKeys(), 0u);
  EXPECT_EQ(T.memoryBytes(), 0u);

  T.insert(42);
  EXPECT_EQ(T.capacity(), 512u);
  EXPECT_EQ(T.memoryBytes(), 512u * sizeof(std::uint64_t));
  EXPECT_TRUE(T.contains(42));

  // A bound below the initial capacity caps the first array too.
  TranspositionTable Small(/*MaxCapacity=*/64);
  EXPECT_EQ(Small.memoryBytes(), 0u);
  Small.insert(7);
  EXPECT_EQ(Small.capacity(), 64u);
}

TEST(TranspositionTest, ShrinkToInitialFreesTheSlotArray) {
  TranspositionTable T(/*MaxCapacity=*/1u << 14);
  Rng R(0x5A1);
  for (int I = 0; I != 1 << 12; ++I)
    T.insert(R.next());
  ASSERT_GT(T.capacity(), 512u);
  T.shrinkToInitial();
  EXPECT_EQ(T.memoryBytes(), 0u);
  EXPECT_EQ(T.capacity(), 0u);
  EXPECT_EQ(T.liveKeys(), 0u);
  EXPECT_FALSE(T.contains(42));
  // The next insert starts over at the initial array.
  T.insert(42);
  EXPECT_EQ(T.capacity(), 512u);
  EXPECT_TRUE(T.contains(42));
}

TEST(TranspositionTest, KeysSharingLowBitsSpread) {
  // A session's keys often share their low bits. The home slot mixes the
  // whole key, so 64 keys that differ only above bit 20 still fit the first
  // array: no probe window fills, no key is lost, nothing grows.
  TranspositionTable T;
  std::vector<std::uint64_t> Keys;
  for (std::uint64_t I = 1; I <= 64; ++I)
    Keys.push_back((I << 21) | 0x0AE4Cu);
  for (std::uint64_t K : Keys)
    T.insert(K);
  EXPECT_EQ(T.capacity(), 512u);
  EXPECT_EQ(T.liveKeys(), Keys.size());
  for (std::uint64_t K : Keys)
    EXPECT_TRUE(T.contains(K)) << std::hex << K;
}

TEST(TranspositionTest, AFullProbeWindowAtLowLoadDoesNotGrow) {
  // Twelve keys with one home slot fill its 8-slot probe window at a load
  // of 12/512. Growth is by load alone: the keys past the window take the
  // next empty slots, the table stays at its first array and every key is
  // found.
  TranspositionTable T;
  T.insert(1); // Allocates the first array: 512 slots, so Shift is 55.
  ASSERT_EQ(T.capacity(), 512u);
  // The home slot is the top 9 bits of Key * Phi; Phi is odd, so a key
  // with any chosen product is that product times Phi's inverse.
  const std::uint64_t Phi = 0x9E3779B97F4A7C15ull;
  std::uint64_t Inv = Phi; // Newton's iteration doubles the correct bits.
  for (int I = 0; I != 6; ++I)
    Inv *= 2 - Phi * Inv;
  ASSERT_EQ(Phi * Inv, 1u);
  std::vector<std::uint64_t> Keys;
  for (std::uint64_t I = 1; I <= 12; ++I)
    Keys.push_back(((std::uint64_t(300) << 55) | I) * Inv);
  for (std::uint64_t K : Keys)
    T.insert(K);
  EXPECT_EQ(T.capacity(), 512u);
  EXPECT_EQ(T.liveKeys(), Keys.size() + 1);
  for (std::uint64_t K : Keys)
    EXPECT_TRUE(T.contains(K)) << std::hex << K;
  EXPECT_TRUE(T.contains(1));
  // Forgetting empties every slot; the same keys place again.
  T.forget();
  for (std::uint64_t K : Keys)
    EXPECT_FALSE(T.contains(K)) << std::hex << K;
  for (std::uint64_t K : Keys)
    T.insert(K);
  EXPECT_EQ(T.capacity(), 512u);
  for (std::uint64_t K : Keys)
    EXPECT_TRUE(T.contains(K)) << std::hex << K;
}

TEST(TranspositionTest, ForgetKeepsTheArray) {
  TranspositionTable T;
  // Forgetting a table that never stored a key touches nothing.
  T.forget();
  EXPECT_EQ(T.capacity(), 0u);
  Rng R(0xF06);
  std::vector<std::uint64_t> Keys;
  for (int I = 0; I != 100; ++I) {
    Keys.push_back(R.next());
    T.insert(Keys.back());
  }
  const std::size_t Cap = T.capacity();
  ASSERT_GT(T.liveKeys(), 0u);
  T.forget();
  EXPECT_EQ(T.liveKeys(), 0u);
  EXPECT_EQ(T.capacity(), Cap);
  EXPECT_EQ(T.memoryBytes(), Cap * sizeof(std::uint64_t));
  for (std::uint64_t K : Keys)
    EXPECT_FALSE(T.contains(K)) << std::hex << K;
  // The next inserts reuse the kept array: no heap allocation.
  const std::uint64_t Allocs0 = AllocGauge::count();
  for (std::uint64_t K : Keys)
    T.insert(K);
  if (AllocGauge::active()) {
    EXPECT_EQ(AllocGauge::count() - Allocs0, 0u);
  }
  EXPECT_EQ(T.capacity(), Cap);
  EXPECT_EQ(T.liveKeys(), Keys.size());
  EXPECT_TRUE(T.contains(Keys.front()));
}

TEST(TranspositionTest, InsertThenContains) {
  TranspositionTable T(1u << 12);
  EXPECT_FALSE(T.contains(42));
  T.insert(42);
  EXPECT_TRUE(T.contains(42));
  EXPECT_EQ(T.liveKeys(), 1u);
  // A second store of the same key takes no second slot.
  T.insert(42);
  EXPECT_EQ(T.liveKeys(), 1u);
}

TEST(TranspositionTest, ZeroKeyIsStorable) {
  // 0 is the internal empty sentinel; the table must remap, not lose it.
  TranspositionTable T;
  EXPECT_FALSE(T.contains(0));
  T.insert(0);
  EXPECT_TRUE(T.contains(0));
}

TEST(TranspositionTest, GrowsUpToMaxCapacityUnderLoad) {
  TranspositionTable T(/*MaxCapacity=*/1u << 14);
  T.insert(1);
  std::size_t Initial = T.capacity();
  Rng R(0x7AB1E);
  for (int I = 0; I != 1 << 13; ++I)
    T.insert(R.next());
  EXPECT_GT(T.capacity(), Initial);
  EXPECT_LE(T.capacity(), 1u << 14);
}

TEST(TranspositionTest, CapacityIsBoundedAndReplacementKeepsNewKeys) {
  // A deliberately tiny table: inserts far beyond capacity must neither
  // grow it past the bound nor ever fail to record the newest key.
  TranspositionTable T(/*MaxCapacity=*/64);
  Rng R(0xCAFE);
  std::vector<std::uint64_t> Keys;
  for (int I = 0; I != 4096; ++I) {
    Keys.push_back(R.next());
    T.insert(Keys.back());
    // Always-replace: the key just inserted is always findable, even when
    // its probe window was full and a victim was evicted.
    EXPECT_TRUE(T.contains(Keys.back()));
  }
  EXPECT_EQ(T.capacity(), 64u);
  EXPECT_LE(T.liveKeys(), T.capacity());
  // Stores past a full window overwrote older keys: at most a table's worth
  // of the 4,096 is still found.
  std::size_t Found = 0;
  for (std::uint64_t K : Keys)
    Found += T.contains(K);
  EXPECT_LE(Found, T.capacity());
}

//===----------------------------------------------------------------------===//
// ChainSearch behind a retired prefix: the engine never sees the retired
// ids, so only an adoptable retained state may stand in for them.
//===----------------------------------------------------------------------===//

TEST(ChainSearchTest, RetiredSeedAnswersOnlyFromAnAdoptableState) {
  // Retired master [write(1)]; one live obligation read() -> 1.
  RegisterAdt Reg;
  InputInterner Interner;
  const InputId W1 = Interner.intern(reg::write(1));
  const InputId Rd = Interner.intern(reg::read());
  const std::vector<std::int32_t> Avail = {1, 1};
  CommitObligation Ob;
  Ob.In = Rd;
  Ob.Out = Output{1};
  Ob.Available = Avail.data();
  ChainProblemView V;
  V.Type = &Reg;
  V.AlphabetSize = Interner.size();
  V.Commits = &Ob;
  V.NumCommits = 1;
  V.SeedBase = 1;

  // The retired-boundary state a session would hand the engine.
  auto boundary = [&](bool HasSeqHash) {
    FrontierState F;
    F.State = Reg.makeState();
    F.Used.assign(Interner.size(), 0);
    F.HasSeqHash = HasSeqHash;
    F.Valid = true;
    advanceFrontierState(F, Interner, &W1, 1);
    return F;
  };
  auto run = [&](FrontierState *Retained, bool SequenceSensitive) {
    TranspositionTable Memo;
    Arena Scratch;
    V.Retained = Retained;
    V.SequenceSensitive = SequenceSensitive;
    return ChainSearch(Interner, Memo, Scratch).run(V, ChainLimits{});
  };
  auto expectRefused = [](const ChainResult &R, const char *Setup) {
    EXPECT_EQ(R.Outcome, Verdict::Unknown) << Setup;
    EXPECT_EQ(R.Reason, RetiredSeedUnavailableReason) << Setup;
    EXPECT_FALSE(R.BudgetLimited) << Setup;
    EXPECT_EQ(R.Stats.Nodes, 0u) << Setup;
  };

  // (a) No retained state, or one that cannot be adopted.
  expectRefused(run(nullptr, false), "no Retained");
  FrontierState Empty;
  expectRefused(run(&Empty, false), "invalid Retained");
  // (b) Sequence-sensitive, but the boundary's sequence hash was never
  // folded.
  FrontierState Unhashed = boundary(/*HasSeqHash=*/false);
  expectRefused(run(&Unhashed, true), "sequence-sensitive, no SeqHash");

  // Controls: the same boundary adopted where it can be answers Yes, with
  // the commit length absolute (retired write ++ live read).
  for (bool SequenceSensitive : {false, true}) {
    FrontierState F = boundary(/*HasSeqHash=*/SequenceSensitive);
    ChainResult R = run(&F, SequenceSensitive);
    ASSERT_EQ(R.Outcome, Verdict::Yes) << R.Reason;
    ASSERT_EQ(R.Commits.size(), 1u);
    EXPECT_EQ(R.Commits[0].second, 2u);
    EXPECT_EQ(R.Stats.SeedStepsSkipped, 1u);
    EXPECT_EQ(R.Stats.SeedStepsReplayed, 0u);
  }
}

TEST(ChainSearchTest, AcceptLeafSeesTheLongestCommitAndCanReject) {
  // Two unordered writes, write(1) -> 1 and write(2) -> 2, each available
  // once: the search reaches the leaf [w1, w2] first, and a predicate that
  // rejects it must make the search go on to [w2, w1].
  RegisterAdt Reg;
  InputInterner Interner;
  const InputId W1 = Interner.intern(reg::write(1));
  const InputId W2 = Interner.intern(reg::write(2));
  const std::vector<std::int32_t> Avail = {1, 1};
  CommitObligation Obs[2];
  Obs[0].Tag = 10;
  Obs[0].In = W1;
  Obs[0].Out = Output{1};
  Obs[0].Available = Avail.data();
  Obs[1].Tag = 11;
  Obs[1].In = W2;
  Obs[1].Out = Output{2};
  Obs[1].Available = Avail.data();
  std::vector<History> Seen;
  const std::function<bool(const History &)> Leaf =
      [&Seen](const History &LongestCommit) {
        Seen.push_back(LongestCommit);
        return LongestCommit.back() != reg::write(2);
      };
  ChainProblemView V;
  V.Type = &Reg;
  V.AlphabetSize = Interner.size();
  V.Commits = Obs;
  V.NumCommits = 2;
  V.AcceptLeaf = &Leaf;
  TranspositionTable Memo;
  Arena Scratch;
  ChainResult R = ChainSearch(Interner, Memo, Scratch).run(V, ChainLimits{});
  ASSERT_EQ(R.Outcome, Verdict::Yes);
  const History First = {reg::write(1), reg::write(2)};
  const History Second = {reg::write(2), reg::write(1)};
  EXPECT_EQ(Seen, (std::vector<History>{First, Second}));
  EXPECT_EQ(R.Stats.LeafChecks, 2u);
  EXPECT_EQ(R.Master, (std::vector<InputId>{W2, W1}));
  EXPECT_EQ(Interner.history(R.Master), Second);
  using Rows = std::vector<std::pair<std::size_t, std::size_t>>;
  EXPECT_EQ(R.Commits, (Rows{{11, 1}, {10, 2}}));

  // A resumed leaf: the seed [w1, w2] with write(1), the only obligation,
  // pre-committed at length 1. The master runs past the longest commit, and
  // the predicate sees exactly the commit prefix [w1], not the master.
  const InputId Seed[] = {W1, W2};
  const std::pair<std::size_t, std::size_t> SeedRows[] = {{10, 1}};
  V.NumCommits = 1;
  V.Seed = Seed;
  V.SeedLen = 2;
  V.SeedRows = SeedRows;
  V.NumSeedRows = 1;
  V.SeedCommitted = 1;
  Seen.clear();
  R = ChainSearch(Interner, Memo, Scratch).run(V, ChainLimits{});
  ASSERT_EQ(R.Outcome, Verdict::Yes);
  EXPECT_EQ(Seen, (std::vector<History>{{reg::write(1)}}));
  EXPECT_EQ(R.Master, (std::vector<InputId>{W1, W2}));

  // The same leaf rejected: nothing is left to search, so the run is a No.
  const std::function<bool(const History &)> Reject =
      [&Seen](const History &LongestCommit) {
        Seen.push_back(LongestCommit);
        return false;
      };
  V.AcceptLeaf = &Reject;
  Seen.clear();
  R = ChainSearch(Interner, Memo, Scratch).run(V, ChainLimits{});
  EXPECT_EQ(R.Outcome, Verdict::No);
  EXPECT_EQ(Seen, (std::vector<History>{{reg::write(1)}}));
}

namespace {

/// Plain linearizability of \p T as engine obligations, one per response in
/// trace order: availability is the inputs invoked before the response,
/// and a response must follow every response before its invocation.
struct LinProblem {
  InputInterner Interner;
  std::vector<std::vector<std::int32_t>> Avail;
  std::vector<CommitObligation> Obs;

  explicit LinProblem(const Trace &T) {
    for (const Action &A : T)
      Interner.intern(A.In);
    std::vector<std::int32_t> Invoked(Interner.size(), 0);
    std::vector<std::size_t> OpenAt(64, 0);
    std::vector<std::size_t> InvokeOf;
    for (std::size_t I = 0; I != T.size(); ++I) {
      const Action &A = T[I];
      if (isInvoke(A)) {
        ++Invoked[Interner.intern(A.In)];
        OpenAt[A.Client] = I;
        continue;
      }
      CommitObligation Ob;
      Ob.Tag = I;
      Ob.In = Interner.intern(A.In);
      Ob.Out = A.Out;
      for (std::size_t Q = 0; Q != Obs.size(); ++Q)
        if (Obs[Q].Tag < OpenAt[A.Client])
          Ob.MustFollow |= 1ull << Q;
      Obs.push_back(Ob);
      Avail.push_back(Invoked);
    }
    for (std::size_t Q = 0; Q != Obs.size(); ++Q)
      Obs[Q].Available = Avail[Q].data();
  }

  ChainProblemView view(const Adt &Type) const {
    ChainProblemView V;
    V.Type = &Type;
    V.AlphabetSize = Interner.size();
    V.Commits = Obs.data();
    V.NumCommits = Obs.size();
    return V;
  }
};

} // namespace

TEST(ChainSearchTest, SeedRowsResumeExactlyLikeTheReplayedSeed) {
  // Shuffled one-write register rounds: every round boundary is a point
  // where the chain's rows commit exactly a prefix of the obligations.
  RegisterAdt Reg;
  Rng R(0xC5EED);
  const LinProblem P(genShuffledRegisterRounds(6, 4, 1, R));
  ASSERT_EQ(P.Obs.size(), 24u);
  using Rows = std::vector<std::pair<std::size_t, std::size_t>>;
  auto run = [&](const ChainProblemView &V, ChainResult &Out) {
    TranspositionTable Memo;
    Arena Scratch;
    ChainSearch(P.Interner, Memo, Scratch).run(V, ChainLimits{}, 7, Out);
  };
  ChainResult Root;
  run(P.view(Reg), Root);
  ASSERT_EQ(Root.Outcome, Verdict::Yes);
  ASSERT_EQ(Root.Commits.size(), 24u);

  // Seed points: the rows that commit exactly obligations [0, K).
  std::vector<std::size_t> Points;
  std::uint64_t Seen = 0;
  for (std::size_t K = 1; K != Root.Commits.size(); ++K) {
    for (std::size_t Q = 0; Q != P.Obs.size(); ++Q)
      if (P.Obs[Q].Tag == Root.Commits[K - 1].first)
        Seen |= 1ull << Q;
    if (Seen == (1ull << K) - 1)
      Points.push_back(K);
  }
  ASSERT_GE(Points.size(), 3u);

  for (std::size_t K : Points) {
    const std::size_t L = Root.Commits[K - 1].second;
    ChainProblemView V = P.view(Reg);
    V.Seed = Root.Master.data();
    V.SeedLen = L;
    V.SeedRows = Root.Commits.data();
    V.NumSeedRows = K;
    V.SeedCommitted = (1ull << K) - 1;

    // The seed replayed from the root into a fresh state.
    ChainResult Replayed;
    run(V, Replayed);
    // The same seed point adopted from a state positioned at it.
    FrontierState F;
    F.State = Reg.makeState();
    F.Used.assign(P.Interner.size(), 0);
    F.Valid = true;
    advanceFrontierState(F, P.Interner, Root.Master.data(), L);
    V.Retained = &F;
    ChainResult Adopted;
    run(V, Adopted);
    // And adopted in place: the output buffers already hold the chain.
    FrontierState G;
    G.State = Reg.makeState();
    G.Used.assign(P.Interner.size(), 0);
    G.Valid = true;
    advanceFrontierState(G, P.Interner, Root.Master.data(), L);
    ChainResult InPlace;
    InPlace.Master = Root.Master;
    InPlace.Commits = Root.Commits;
    V.Seed = InPlace.Master.data();
    V.SeedRows = InPlace.Commits.data();
    V.Retained = &G;
    run(V, InPlace);

    for (const ChainResult *X : {&Replayed, &Adopted, &InPlace}) {
      ASSERT_EQ(X->Outcome, Verdict::Yes) << "K = " << K;
      // The first leaf in DFS order below the seed point is the root
      // search's own: memo prunes only subtrees without a leaf.
      EXPECT_EQ(X->Master, Root.Master) << "K = " << K;
      EXPECT_EQ(X->Commits, Root.Commits) << "K = " << K;
      EXPECT_EQ(X->Stats.Nodes, Replayed.Stats.Nodes) << "K = " << K;
      EXPECT_EQ(X->Stats.CommitMoves, Replayed.Stats.CommitMoves);
      EXPECT_EQ(X->Stats.FillerMoves, Replayed.Stats.FillerMoves);
    }
    EXPECT_EQ(Replayed.Stats.SeedStepsReplayed, L);
    EXPECT_EQ(Adopted.Stats.SeedStepsReplayed, 0u);
    EXPECT_EQ(Adopted.Stats.SeedStepsSkipped, L);
    EXPECT_EQ(F.Len, Root.Master.size()) << "the leaf is captured";
  }

  // A seed point that cannot complete: the last seed point with the final
  // obligation's output changed. The run fails, and in place it leaves the
  // seed and its rows as they were.
  const std::size_t K = Points.back();
  const std::size_t L = Root.Commits[K - 1].second;
  LinProblem Bad = P;
  Bad.Obs.back().Out = Output{99};
  for (std::size_t Q = 0; Q != Bad.Obs.size(); ++Q)
    Bad.Obs[Q].Available = Bad.Avail[Q].data();
  ChainResult InPlace;
  InPlace.Master = Root.Master;
  InPlace.Commits = Root.Commits;
  ChainProblemView V = Bad.view(Reg);
  V.Seed = InPlace.Master.data();
  V.SeedLen = L;
  V.SeedRows = InPlace.Commits.data();
  V.NumSeedRows = K;
  V.SeedCommitted = (1ull << K) - 1;
  run(V, InPlace);
  EXPECT_EQ(InPlace.Outcome, Verdict::No);
  EXPECT_EQ(InPlace.Master,
            std::vector<InputId>(Root.Master.begin(),
                                 Root.Master.begin() +
                                     static_cast<std::ptrdiff_t>(L)));
  EXPECT_EQ(InPlace.Commits,
            Rows(Root.Commits.begin(),
                 Root.Commits.begin() + static_cast<std::ptrdiff_t>(K)));
}

TEST(LiveWindowTest, AlignedPrefixesIsThePermutationTest) {
  // Live responses at tags 11, 13, 15, 17 (a retired one sat at tag 9).
  LiveWindow W;
  const std::vector<std::int32_t> Invoked = {1};
  for (std::size_t Tag : {11u, 13u, 15u, 17u})
    W.pushResponse(Tag, 0, Output{0}, Tag - 1, 0, 0, 0, Invoked);
  using Rows = std::vector<std::pair<std::size_t, std::size_t>>;
  auto Aligned = [&W](const Rows &R, std::size_t From = 0) {
    return W.alignedPrefixes(R.data(), R.size(), From);
  };
  // Any order of window [0, k) is aligned at k: here k = 2, 3, 4. The
  // first row alone is window [0, 1) only if it is tag 11.
  const Rows Perm = {{13, 1}, {11, 2}, {15, 3}, {17, 4}};
  EXPECT_EQ(Aligned(Perm), 0b1110u);
  EXPECT_EQ(Aligned({{17, 1}, {15, 2}, {13, 3}, {11, 4}}), 0b1000u);
  // From an aligned prefix on, only the later bits are computed.
  EXPECT_EQ(Aligned(Perm, 2), 0b1100u);
  EXPECT_EQ(Aligned(Perm, 4), 0u);
  // A foreign tag: retired (below the window) or beyond it.
  EXPECT_EQ(Aligned({{9, 1}, {13, 2}}), 0u);
  EXPECT_EQ(Aligned({{11, 1}, {19, 2}}), 0b01u);
  // A gap: window [0, 2) is {11, 13}, not {11, 15}.
  EXPECT_EQ(Aligned({{11, 1}, {15, 2}}), 0b01u);
  EXPECT_EQ(Aligned({{15, 1}, {11, 2}, {17, 3}}), 0u);
  // More rows than live obligations: no bit past the window.
  EXPECT_EQ(Aligned({{11, 1}, {13, 2}, {15, 3}, {17, 4}, {19, 5}}), 0b1111u);
  EXPECT_EQ(Aligned({}), 0u);
}

TEST(ChainSearchTest, BudgetStopLeavesTheAdoptedStateAsItWas) {
  // A refuted problem searched from an adopted seed point on every budget
  // short of the refutation: the run stops at its budget, and the search
  // stops there too. Each move enters a node, and only the root is not
  // entered by a move, so every move but the one into the refused node
  // expanded a node: a run that applied, refused and undid siblings after
  // the budget ran out would report more moves than nodes. The adopted
  // state, undone move by move, comes back exactly as it was.
  RegisterAdt Reg;
  Rng R(0xC5EED);
  LinProblem P(genShuffledRegisterRounds(6, 4, 1, R));
  ChainResult Root;
  {
    TranspositionTable Memo;
    Arena Scratch;
    ChainSearch(P.Interner, Memo, Scratch).run(P.view(Reg), ChainLimits{}, 7,
                                               Root);
  }
  ASSERT_EQ(Root.Outcome, Verdict::Yes);
  // The chain's first round, pre-committed; the last response corrupted.
  const std::size_t K = 4, L = Root.Commits[K - 1].second;
  P.Obs.back().Out = Output{99};
  ChainProblemView V = P.view(Reg);
  V.Seed = Root.Master.data();
  V.SeedLen = L;
  V.SeedRows = Root.Commits.data();
  V.NumSeedRows = K;
  V.SeedCommitted = (1ull << K) - 1;
  auto run = [&](std::uint64_t Budget, FrontierState &F) {
    F.State = Reg.makeState();
    F.Used.assign(P.Interner.size(), 0);
    F.UsedHash = 0;
    F.Len = 0;
    F.Valid = true;
    advanceFrontierState(F, P.Interner, Root.Master.data(), L);
    V.Retained = &F;
    TranspositionTable Memo;
    Arena Scratch;
    ChainResult Out;
    ChainSearch(P.Interner, Memo, Scratch).run(V, ChainLimits{Budget}, 7, Out);
    return Out;
  };
  FrontierState Full;
  const ChainResult Refuted = run(ChainLimits{}.NodeBudget, Full);
  ASSERT_EQ(Refuted.Outcome, Verdict::No);
  ASSERT_GT(Refuted.Stats.Nodes, 8u);
  const std::uint64_t Digest = Full.State->digest();
  for (std::uint64_t Budget = 1; Budget != Refuted.Stats.Nodes; ++Budget) {
    SCOPED_TRACE(testing::Message() << "budget " << Budget);
    FrontierState F;
    const ChainResult Out = run(Budget, F);
    ASSERT_EQ(Out.Outcome, Verdict::Unknown);
    ASSERT_TRUE(Out.BudgetLimited);
    EXPECT_EQ(Out.Stats.Nodes, Budget);
    EXPECT_EQ(Out.Stats.CommitMoves + Out.Stats.FillerMoves, Budget);
    EXPECT_LE(Out.Stats.MemoStores, Refuted.Stats.MemoStores);
    ASSERT_TRUE(F.Valid && F.State);
    EXPECT_EQ(F.State->digest(), Digest);
    EXPECT_EQ(F.Used, Full.Used);
    EXPECT_EQ(F.UsedHash, Full.UsedHash);
    EXPECT_EQ(F.Len, L);
  }
}

//===----------------------------------------------------------------------===//
// LiveWindow: 64-slot storage through folds, stride regrows and an
// overflow excursion.
//===----------------------------------------------------------------------===//

namespace {

/// Drives a LiveWindow the way a windowed session does (one availability
/// snapshot per response, a fold of the front whenever a push would pass
/// the 64-slot window) next to a plain model of every live obligation, and
/// checks after every step that each live row equals the row rebuilt from
/// the invocation counts it snapshotted, zero-extended to the stride.
class LiveWindowHarness {
public:
  /// Invokes and responds one operation on input \p In.
  void respond(InputId In) {
    if (In >= Invoked.size())
      Invoked.resize(In + 1, 0);
    ++Invoked[In];
    const std::size_t InvokeIdx = Events++;
    const std::size_t Tag = Events++;
    // Some must-follow edge to the previous live obligation, so a fold's
    // mask shift is observable. Past the window no mask is representable
    // (the session leaves it 0 there too).
    const std::size_t Live = Model.size();
    const std::uint64_t Mask =
        Live != 0 && Live <= IncrementalWindowLimit && Tag % 3 == 0
            ? 1ull << (Live - 1)
            : 0;
    W.pushResponse(Tag, In, Output{static_cast<std::int64_t>(In)}, InvokeIdx,
                   Mask, static_cast<ClientId>(Tag % 4), 0, Invoked);
    Model.push_back({Tag, In, InvokeIdx, Mask, Invoked});
  }

  /// Retires the first \p K live obligations.
  void fold(std::size_t K) {
    W.eraseFront(K);
    W.shiftMasks(K);
    Model.erase(Model.begin(), Model.begin() + static_cast<std::ptrdiff_t>(K));
    for (Row &R : Model)
      R.Mask >>= K;
  }

  /// Responds on \p In, first folding all but \p Keep obligations when
  /// the window is at its limit (the session's fold before a push).
  void respondFolding(InputId In, std::size_t Keep) {
    if (W.size() == IncrementalWindowLimit)
      fold(IncrementalWindowLimit - Keep);
    respond(In);
  }

  void expectRowsMatchModel() const {
    ASSERT_EQ(W.size(), Model.size());
    for (std::size_t Q = 0; Q != Model.size(); ++Q) {
      const Row &R = Model[Q];
      ASSERT_EQ(W.tag(Q), R.Tag);
      ASSERT_EQ(W.in(Q), R.In);
      ASSERT_EQ(W.invokeIdx(Q), R.InvokeIdx);
      ASSERT_EQ(W.mustFollow(Q), R.Mask);
      const std::int32_t *Avail = W.availRow(Q);
      for (std::size_t Id = 0; Id != W.stride(); ++Id)
        ASSERT_EQ(Avail[Id], Id < R.Snapshot.size() ? R.Snapshot[Id] : 0)
            << "row " << Q << " (tag " << R.Tag << "), input " << Id;
    }
  }

  /// The window's bytes at \p Slots slots of \p Stride-wide rows.
  static std::size_t bytesAt(std::size_t Slots, std::size_t Stride) {
    return Slots * (sizeof(CommitObligation) + sizeof(std::size_t) +
                    sizeof(ClientId) + sizeof(std::uint32_t) +
                    Stride * sizeof(std::int32_t));
  }

  LiveWindow W;
  std::vector<std::int32_t> Invoked;

private:
  struct Row {
    std::size_t Tag;
    InputId In;
    std::size_t InvokeIdx;
    std::uint64_t Mask;
    std::vector<std::int32_t> Snapshot;
  };
  std::deque<Row> Model;
  std::size_t Events = 0;
};

} // namespace

TEST(LiveWindowTest, SixtyFourSlotsThroughFoldsRegrowAndExcursion) {
  LiveWindowHarness H;
  // Folds at every 64th response: each leaves 4 live rows behind, which
  // the next push compacts to the front of the same 64 slots.
  for (unsigned K = 0; K != 280; ++K) {
    H.respondFolding(static_cast<InputId>(K % 4), /*Keep=*/4);
    ASSERT_NO_FATAL_FAILURE(H.expectRowsMatchModel());
  }
  EXPECT_EQ(H.W.stride(), 16u);
  EXPECT_EQ(H.W.memoryBytes(), LiveWindowHarness::bytesAt(64, 16));

  // The alphabet passes 16 inputs mid-window: the rows are re-laid out
  // once at stride 32, keeping every count.
  ASSERT_GT(H.W.size(), 8u);
  ASSERT_LT(H.W.size(), 48u);
  for (InputId In = 4; In != 20; ++In) {
    H.respond(In);
    ASSERT_NO_FATAL_FAILURE(H.expectRowsMatchModel());
    EXPECT_EQ(H.W.stride(), In < 16 ? 16u : 32u);
  }
  for (unsigned K = 0; K != 200; ++K) {
    H.respondFolding(static_cast<InputId>(K % 20), /*Keep=*/6);
    ASSERT_NO_FATAL_FAILURE(H.expectRowsMatchModel());
  }
  EXPECT_EQ(H.W.memoryBytes(), LiveWindowHarness::bytesAt(64, 32));

  // An overflow excursion: nothing folds while 80 rows are live, so the
  // storage doubles once; after the fold the session keeps that capacity.
  while (H.W.size() != 80) {
    H.respond(static_cast<InputId>(H.W.size() % 20));
    ASSERT_NO_FATAL_FAILURE(H.expectRowsMatchModel());
  }
  EXPECT_EQ(H.W.memoryBytes(), LiveWindowHarness::bytesAt(128, 32));
  H.fold(40); // Two drain rounds, each within the 64-bit mask shift.
  ASSERT_NO_FATAL_FAILURE(H.expectRowsMatchModel());
  H.fold(35);
  ASSERT_NO_FATAL_FAILURE(H.expectRowsMatchModel());
  for (unsigned K = 0; K != 200; ++K) {
    H.respondFolding(static_cast<InputId>(K % 20), /*Keep=*/3);
    ASSERT_NO_FATAL_FAILURE(H.expectRowsMatchModel());
  }
  EXPECT_EQ(H.W.memoryBytes(), LiveWindowHarness::bytesAt(128, 32));

  // finalize() publishes each slot's row for an engine run.
  const CommitObligation *Slots =
      H.W.finalize(static_cast<InputId>(H.Invoked.size()));
  for (std::size_t Q = 0; Q != H.W.size(); ++Q)
    EXPECT_EQ(Slots[Q].Available, H.W.availRow(Q));
}

// The same three storage events inside a lin session, checked against the
// batch checker wherever it decides (at most 64 operations, nothing
// retired) and past that against the independent witness verifier: a
// register stream of quiescing rounds whose alphabet passes 16 inputs
// after the first folds, then a straggling read that stays open across 80
// completions (an overflow excursion) and finally responds.
TEST(LiveWindowTest, SessionVerdictsHoldThroughFoldsRegrowAndExcursion) {
  RegisterAdt Reg;
  std::unique_ptr<AdtState> Model = Reg.makeState();
  Rng R(0x64);
  Trace T;
  auto Round = [&](std::int64_t MaxWrite) {
    const unsigned Ops = 1 + static_cast<unsigned>(R.next() % 3);
    std::vector<Input> Ins;
    for (unsigned C = 0; C != Ops; ++C) {
      const std::int64_t V =
          static_cast<std::int64_t>(R.next() % (MaxWrite + 1));
      Ins.push_back(V == 0 ? reg::read() : reg::write(V));
      T.push_back(makeInvoke(C, 1, Ins.back()));
    }
    for (unsigned C = 0; C != Ops; ++C)
      T.push_back(makeRespond(C, 1, Ins[C], Model->apply(Ins[C])));
  };
  while (T.size() < 2 * 100)
    Round(3); // Four inputs (read, write 1..3): stride 16.
  while (T.size() < 2 * 200)
    Round(20); // 21 inputs: the stride regrows to 32 mid-window.
  // The straggler reads the value at its response: a read linearized at
  // its end, after the 80 completions it overlaps.
  const Input StragglerIn = reg::read();
  T.push_back(makeInvoke(7, 1, StragglerIn));
  const std::size_t StragglerFrom = T.size();
  while (T.size() < StragglerFrom + 2 * 80)
    Round(20);
  T.push_back(makeRespond(7, 1, StragglerIn, Model->apply(StragglerIn)));
  while (T.size() < StragglerFrom + 2 * 200)
    Round(20);

  IncrementalLinSession Inc(Reg);
  Trace Prefix;
  std::size_t Responses = 0;
  bool SawExcursion = false;
  for (const Action &A : T) {
    ASSERT_TRUE(static_cast<bool>(Inc.append(A)));
    Prefix.push_back(A);
    Responses += isRespond(A);
    LinCheckResult V = Inc.verdict();
    SawExcursion |= Inc.overflowed();
    if (Responses <= 64 && Inc.retiredObligations() == 0) {
      ASSERT_EQ(V.Outcome, checkLinearizable(Prefix, Reg).Outcome)
          << "prefix " << Prefix.size();
    }
    if (V.Outcome == Verdict::Yes) {
      WellFormedness W = verifyLinWitness(Prefix, Reg, V.Witness);
      ASSERT_TRUE(static_cast<bool>(W))
          << "prefix " << Prefix.size() << ": " << W.Reason;
    } else {
      // Only the pinned excursion may leave the definitive verdict, and
      // then only for the graded first-64 Yes.
      ASSERT_TRUE(Inc.overflowed()) << "prefix " << Prefix.size() << ": "
                                    << V.Reason;
      ASSERT_EQ(V.Grade, VerdictGrade::BoundedYes) << V.Reason;
    }
  }
  EXPECT_TRUE(SawExcursion);
  EXPECT_FALSE(Inc.overflowed());
  EXPECT_EQ(Inc.verdict().Outcome, Verdict::Yes);
  EXPECT_EQ(Inc.stats().WindowOverflows, 1u);
  EXPECT_GT(Inc.stats().LiveWindowHighWater, 64u);
  EXPECT_GT(Inc.retiredObligations(), 300u);
}

//===----------------------------------------------------------------------===//
// CorpusDriver: one warm session, in corpus order.
//===----------------------------------------------------------------------===//

namespace {

std::vector<Trace> mixedConsensusCorpus(unsigned Count) {
  ConsensusAdt Cons;
  GenOptions G;
  G.NumClients = 4;
  G.NumOps = 8;
  G.Alphabet = {cons::propose(1), cons::propose(2), cons::propose(3)};
  G.Outputs = {cons::decide(1), cons::decide(2), cons::decide(3)};
  Rng R(0xD21E);
  std::vector<Trace> Corpus;
  for (unsigned I = 0; I != Count; ++I) {
    Corpus.push_back(genLinearizableTrace(Cons, G, R));
    Corpus.push_back(genArbitraryTrace(G, R));
  }
  return Corpus;
}

} // namespace

TEST(CorpusDriverTest, MatchesOneWarmSessionTraceByTrace) {
  // The driver is one warm CheckSession fed the corpus in order: every
  // row, budget-limited Unknowns included, and every tally equal a
  // hand-run loop, at the default budget and at a budget that starves.
  ConsensusAdt Cons;
  std::vector<Trace> Corpus = mixedConsensusCorpus(60);
  LinCheckOptions Tight;
  Tight.NodeBudget = 1;
  for (const LinCheckOptions &Check : {LinCheckOptions{}, Tight}) {
    CheckSession Warm(Cons);
    std::uint64_t Yes = 0, No = 0, Unknown = 0, BudgetLimited = 0;
    CorpusReport R = CorpusDriver(Cons).checkLin(Corpus, Check);
    ASSERT_EQ(R.Results.size(), Corpus.size());
    for (std::size_t I = 0; I != Corpus.size(); ++I) {
      LinCheckResult Want = Warm.checkLin(Corpus[I], Check);
      Yes += Want.Outcome == Verdict::Yes;
      No += Want.Outcome == Verdict::No;
      Unknown += Want.Outcome == Verdict::Unknown;
      BudgetLimited += Want.BudgetLimited;
      EXPECT_EQ(R.Results[I].Outcome, Want.Outcome) << "trace " << I;
      EXPECT_EQ(R.Results[I].BudgetLimited, Want.BudgetLimited)
          << "trace " << I;
      EXPECT_EQ(R.Results[I].NodesExplored, Want.NodesExplored)
          << "trace " << I;
    }
    EXPECT_EQ(R.Yes, Yes);
    EXPECT_EQ(R.No, No);
    EXPECT_EQ(R.Unknown, Unknown);
    EXPECT_EQ(R.BudgetLimited, BudgetLimited);
    EXPECT_EQ(R.Aggregate.Checks, Corpus.size());
    EXPECT_EQ(R.Aggregate.Search.Nodes, Warm.stats().Search.Nodes);
    if (Check.NodeBudget == Tight.NodeBudget) {
      EXPECT_GT(R.BudgetLimited, 0u);
    } else {
      EXPECT_EQ(R.Unknown, 0u);
    }
  }
}

namespace {

/// Siblings over one 4-event consensus prefix: W is linearizable, V splits
/// the decision (No), and X/Y share an ill-formed fifth event (No).
std::vector<Trace> siblingConsensusCorpus() {
  Trace P4;
  P4.push_back(makeInvoke(0, 1, cons::propose(1)));
  P4.push_back(makeRespond(0, 1, cons::propose(1), cons::decide(1)));
  P4.push_back(makeInvoke(1, 1, cons::propose(2)));
  P4.push_back(makeInvoke(2, 1, cons::propose(3)));
  Action Doomer = makeInvoke(1, 1, cons::propose(2)); // Client 1 pending.

  Trace W = P4;
  W.push_back(makeRespond(1, 1, cons::propose(2), cons::decide(1)));
  Trace V = P4;
  V.push_back(makeRespond(1, 1, cons::propose(2), cons::decide(2)));
  Trace X = P4;
  X.push_back(Doomer);
  X.push_back(makeInvoke(3, 1, cons::propose(1)));
  Trace Y = P4;
  Y.push_back(Doomer);
  Y.push_back(makeInvoke(3, 1, cons::propose(2)));
  return {W, X, Y, V};
}

} // namespace

TEST(CorpusDriverTest, AggregateCountsEveryCheck) {
  // One verdict per trace, whatever the drain: sharing a prefix must not
  // add checks of its own.
  ConsensusAdt Cons;
  for (bool SharePrefixes : {false, true}) {
    for (const std::vector<Trace> &Corpus :
         {mixedConsensusCorpus(20), siblingConsensusCorpus()}) {
      CorpusOptions O;
      O.SharePrefixes = SharePrefixes;
      CorpusReport R = CorpusDriver(Cons, O).checkLin(Corpus);
      EXPECT_EQ(R.Aggregate.Checks, Corpus.size())
          << "SharePrefixes " << SharePrefixes << ", " << Corpus.size()
          << " traces";
      EXPECT_EQ(R.Yes + R.No + R.Unknown, Corpus.size());
      EXPECT_GT(R.Aggregate.Search.Nodes, 0u);
    }
  }
}

//===----------------------------------------------------------------------===//
// Resumable sessions: frontier reuse, absorption, and budget-stop recovery.
//===----------------------------------------------------------------------===//

TEST(IncrementalSessionTest, ResumptionPaysOnlyForTheSuffix) {
  // On linearizable-by-construction growing histories the resumable
  // session must (a) agree with a batch check of every prefix and
  // (b) spend strictly fewer total nodes than those batch checks: each
  // verdict resumes from the retained frontier instead of re-deriving the
  // witness.
  ConsensusAdt Cons;
  GenOptions G;
  G.NumClients = 4;
  G.NumOps = 12;
  G.PendingFraction = 0;
  G.Alphabet = {cons::propose(1), cons::propose(2), cons::propose(3)};
  G.Outputs = {cons::decide(1), cons::decide(2), cons::decide(3)};
  Rng R(0xA120);
  std::uint64_t ResumeNodes = 0, FullNodes = 0;
  for (int I = 0; I != 10; ++I) {
    Trace T = genLinearizableTrace(Cons, G, R);
    IncrementalLinSession Fast(Cons);
    Trace Prefix;
    for (const Action &A : T) {
      Fast.append(A);
      Prefix.push_back(A);
      LinCheckResult RF = Fast.verdict();
      LinCheckResult RS = checkLinearizable(Prefix, Cons);
      ASSERT_EQ(RF.Outcome, RS.Outcome);
      ResumeNodes += RF.NodesExplored;
      FullNodes += RS.NodesExplored;
    }
  }
  EXPECT_LT(ResumeNodes, FullNodes)
      << "frontier resumption did not reduce search work";
}

TEST(IncrementalSessionTest, InvokeAppendsAndNoAreAbsorbed) {
  QueueAdt Q;
  IncrementalLinSession Inc(Q);
  Inc.append(makeInvoke(0, 1, queue::enq(1)));
  Inc.append(makeRespond(0, 1, queue::enq(1), Output{1}));
  ASSERT_EQ(Inc.verdict().Outcome, Verdict::Yes);
  // An appended invocation changes no obligation: O(1), zero nodes.
  Inc.append(makeInvoke(1, 1, queue::enq(2)));
  LinCheckResult R = Inc.verdict();
  EXPECT_EQ(R.Outcome, Verdict::Yes);
  EXPECT_EQ(R.NodesExplored, 0u);
  // A dequeue that returns a value never enqueued: conclusive No...
  Inc.append(makeInvoke(2, 1, queue::deq()));
  Inc.append(makeRespond(2, 1, queue::deq(), Output{77}));
  ASSERT_EQ(Inc.verdict().Outcome, Verdict::No);
  // ...which is final under extension, at zero additional nodes.
  Inc.append(makeInvoke(0, 1, queue::enq(3)));
  Inc.append(makeRespond(0, 1, queue::enq(3), Output{3}));
  R = Inc.verdict();
  EXPECT_EQ(R.Outcome, Verdict::No);
  EXPECT_EQ(R.NodesExplored, 0u);
}

TEST(IncrementalSessionTest, BudgetExhaustionRecoversCleanly) {
  // Soundness regression: a budget-limited verdict leaves its memo keys
  // behind, and the next verdict probes them under the same salt. The
  // engine stores no key for an ancestor of an unexplored subtree, so the
  // full verdict that follows must still reach the batch checker's answer.
  ConsensusAdt Cons;
  GenOptions G;
  G.NumClients = 4;
  G.NumOps = 8;
  G.Alphabet = {cons::propose(1), cons::propose(2), cons::propose(3)};
  G.Outputs = {cons::decide(1), cons::decide(2), cons::decide(3)};
  Rng R(0xA121);
  for (int I = 0; I != 20; ++I) {
    Trace T = I % 2 ? genArbitraryTrace(G, R) : genLinearizableTrace(Cons, G, R);
    IncrementalLinSession Inc(Cons);
    for (const Action &A : T)
      Inc.append(A);
    LinCheckOptions Tight;
    Tight.NodeBudget = 1;
    LinCheckResult Starved = Inc.verdict(Tight);
    if (Starved.Outcome == Verdict::Unknown) {
      EXPECT_TRUE(Starved.BudgetLimited);
    }
    LinCheckResult Recovered = Inc.verdict();
    LinCheckResult Batch = checkLinearizable(T, Cons);
    ASSERT_EQ(Recovered.Outcome, Batch.Outcome) << "trace " << I;
  }
}

TEST(IncrementalSessionTest, ZeroBudgetAnswersBeforeAnySearch) {
  // With no node to spend a verdict that needs a search is the budget
  // Unknown at once: no member is prepared, no run starts. The shortcuts
  // that need no search still answer ahead of it.
  RegisterAdt Reg;
  IncrementalLinSession Inc(Reg);
  LinCheckOptions Empty;
  Empty.WantWitness = false;
  Empty.NodeBudget = 0;
  ASSERT_TRUE(Inc.append(makeInvoke(0, 1, reg::write(1))));
  ASSERT_TRUE(Inc.append(makeRespond(0, 1, reg::write(1), Output{1})));
  LinCheckResult Starved = Inc.verdict(Empty);
  EXPECT_EQ(Starved.Outcome, Verdict::Unknown);
  EXPECT_TRUE(Starved.BudgetLimited);
  EXPECT_EQ(Starved.Reason, NodeBudgetReason);
  EXPECT_EQ(Starved.NodesExplored, 0u);
  EXPECT_EQ(Inc.stats().Search.Nodes, 0u);
  EXPECT_EQ(Inc.stats().RootSearches, 0u);
  EXPECT_EQ(Inc.stats().FrontierResumes, 0u);
  // A full verdict then searches; an invocation alone keeps its Yes.
  ASSERT_EQ(Inc.verdict().Outcome, Verdict::Yes);
  ASSERT_TRUE(Inc.append(makeInvoke(0, 1, reg::read())));
  EXPECT_EQ(Inc.verdict(Empty).Outcome, Verdict::Yes);
  // A cached No stands too.
  ASSERT_TRUE(Inc.append(makeRespond(0, 1, reg::read(), Output{7})));
  ASSERT_EQ(Inc.verdict().Outcome, Verdict::No);
  ASSERT_TRUE(Inc.append(makeInvoke(1, 1, reg::read())));
  ASSERT_TRUE(Inc.append(makeRespond(1, 1, reg::read(), Output{1})));
  LinCheckResult No = Inc.verdict(Empty);
  EXPECT_EQ(No.Outcome, Verdict::No);
  EXPECT_FALSE(No.BudgetLimited);
}

TEST(IncrementalSessionTest, BudgetLimitedRunReportsExactlyItsBudget) {
  // The budget counts expanded nodes: a run that runs out reports the
  // budget, not the refused node on top of it.
  RegisterAdt Reg;
  for (std::uint64_t Budget : {1ull, 2ull, 3ull}) {
    IncrementalLinSession Inc(Reg);
    for (std::int64_t K = 1; K <= 4; ++K) {
      ASSERT_TRUE(Inc.append(makeInvoke(K, 1, reg::write(K))));
    }
    for (std::int64_t K = 1; K <= 4; ++K) {
      ASSERT_TRUE(Inc.append(makeRespond(K, 1, reg::write(K), Output{K})));
    }
    ASSERT_TRUE(Inc.append(makeInvoke(0, 1, reg::read())));
    ASSERT_TRUE(Inc.append(makeRespond(0, 1, reg::read(), Output{1})));
    LinCheckOptions Tight;
    Tight.NodeBudget = Budget;
    LinCheckResult R = Inc.verdict(Tight);
    ASSERT_TRUE(R.BudgetLimited) << "budget " << Budget;
    EXPECT_EQ(R.NodesExplored, Budget);
  }
}

TEST(IncrementalSessionTest, BudgetLadderOnResumedSessionsStaysSound) {
  // The frontier resume and the completeness fallback share ONE budget
  // (the fallback runs on what the resumed subtree left, never on a fresh
  // full budget — see IncrementalLinSession::verdict). Walking a budget
  // ladder over a resumed session must stay sound at every rung: an
  // exhausted verdict is Unknown+BudgetLimited, a conclusive one matches
  // the batch checker. The engine's own unwinding can overshoot any
  // budget by the abandoned siblings on the stack (batch behaves the
  // same), so node counts are sanity-bounded, not pinned.
  ConsensusAdt Cons;
  GenOptions G;
  G.NumClients = 4;
  G.NumOps = 10;
  G.PendingFraction = 0;
  G.Alphabet = {cons::propose(1), cons::propose(2), cons::propose(3)};
  G.Outputs = {cons::decide(1), cons::decide(2), cons::decide(3)};
  Rng R(0xA122);
  for (int I = 0; I != 10; ++I) {
    Trace T = genLinearizableTrace(Cons, G, R);
    // A split decision: decide a value different from the history's (the
    // resumed subtree must fail and fall back).
    std::int64_t Decided = 1;
    for (const Action &A : T)
      if (isRespond(A)) {
        Decided = A.Out.Val;
        break;
      }
    std::int64_t Other = Decided == 1 ? 2 : 1;
    Trace Extended = T;
    Extended.push_back(makeInvoke(60, 1, cons::propose(Other)));
    Extended.push_back(
        makeRespond(60, 1, cons::propose(Other), cons::decide(Other)));
    for (std::uint64_t Budget : {1ull, 4ull, 64ull, 1ull << 20}) {
      // Fresh session per rung so the frontier path runs at every budget.
      IncrementalLinSession Inc(Cons);
      for (const Action &A : T)
        Inc.append(A);
      ASSERT_EQ(Inc.verdict().Outcome, Verdict::Yes); // Prime the frontier.
      Inc.append(Extended[T.size()]);
      Inc.append(Extended[T.size() + 1]);
      LinCheckOptions Opts;
      Opts.NodeBudget = Budget;
      LinCheckResult V = Inc.verdict(Opts);
      LinCheckResult Batch = checkLinearizable(Extended, Cons, Opts);
      if (V.Outcome == Verdict::Unknown) {
        EXPECT_TRUE(V.BudgetLimited);
      } else {
        EXPECT_EQ(V.Outcome, Verdict::No);
      }
      if (Batch.Outcome != Verdict::Unknown && V.Outcome != Verdict::Unknown) {
        EXPECT_EQ(V.Outcome, Batch.Outcome);
      }
      // Shared-budget sanity: nowhere near two fresh budgets of real work
      // at the big rung (the old bug), and bounded unwinding at small ones.
      EXPECT_LE(V.NodesExplored,
                2 * Budget + 8 * Extended.size())
          << "trace " << I << " budget " << Budget;
    }
  }
}

TEST(CorpusDriverTest, SharePrefixesPreservesVerdicts) {
  // Prefix sharing changes order and warmth, never conclusive verdicts: a
  // prefix-closed corpus (every even prefix of growing histories — the
  // shape an online monitor's log re-check produces) and a mixed corpus
  // must agree row by row with the unshared baseline.
  ConsensusAdt Cons;
  GenOptions G;
  G.NumClients = 4;
  G.NumOps = 10;
  G.PendingFraction = 0;
  G.Alphabet = {cons::propose(1), cons::propose(2), cons::propose(3)};
  G.Outputs = {cons::decide(1), cons::decide(2), cons::decide(3)};
  Rng R(0xD22E);
  std::vector<Trace> Corpus;
  for (int I = 0; I != 8; ++I) {
    Trace T = genLinearizableTrace(Cons, G, R);
    for (std::size_t Len = 2; Len <= T.size(); Len += 2)
      Corpus.emplace_back(T.begin(), T.begin() + Len);
    Corpus.push_back(genArbitraryTrace(G, R));
  }

  CorpusReport Base = CorpusDriver(Cons).checkLin(Corpus);
  CorpusOptions Shared;
  Shared.SharePrefixes = true;
  CorpusReport Rep = CorpusDriver(Cons, Shared).checkLin(Corpus);
  ASSERT_EQ(Rep.Results.size(), Corpus.size());
  for (std::size_t I = 0; I != Corpus.size(); ++I)
    ASSERT_EQ(Rep.Results[I].Outcome, Base.Results[I].Outcome)
        << "trace " << I;
  EXPECT_EQ(Rep.Yes, Base.Yes);
  EXPECT_EQ(Rep.No, Base.No);
  EXPECT_EQ(Rep.Unknown, Base.Unknown);
  // What sharing is for: each prefix-closed trace streams only its delta,
  // so the shared session searches fewer nodes.
  EXPECT_LT(Rep.Aggregate.Search.Nodes, Base.Aggregate.Search.Nodes);
}

TEST(CorpusDriverTest, SharePrefixesDoomedPrefixDoesNotPoisonSiblings) {
  // A doomed view is reset, never extended: it lacks the rejected event,
  // so a sibling sharing only the *accepted* events would otherwise
  // inherit the doom and wrongly report No. X and Y share an ill-formed
  // event at index 4 (both genuinely No) and sort first (an invocation
  // orders before a response), so W — which shares only the 4 valid
  // events and is linearizable — follows a doomed view that is a prefix of
  // it. V splits the decision (No).
  ConsensusAdt Cons;
  std::vector<Trace> Corpus = siblingConsensusCorpus();
  CorpusReport Base = CorpusDriver(Cons).checkLin(Corpus);
  CorpusOptions Shared;
  Shared.SharePrefixes = true;
  CorpusReport Rep = CorpusDriver(Cons, Shared).checkLin(Corpus);
  for (std::size_t I = 0; I != Corpus.size(); ++I)
    EXPECT_EQ(Rep.Results[I].Outcome, Base.Results[I].Outcome)
        << "trace " << I;
  EXPECT_EQ(Base.Results[0].Outcome, Verdict::Yes);
  EXPECT_EQ(Base.Results[1].Outcome, Verdict::No);
  EXPECT_EQ(Base.Results[2].Outcome, Verdict::No);
  EXPECT_EQ(Base.Results[3].Outcome, Verdict::No);
}

TEST(CorpusDriverTest, SlinCorpusRunsThroughTheDriver) {
  ConsensusAdt Cons;
  UniversalInitRelation Rel;
  PhaseSignature Sig(1, 2);
  SpecAutomaton A(Sig, 3);
  SpecAutomaton::WalkOptions W;
  W.Steps = 8;
  W.Alphabet = {cons::propose(1), cons::propose(2)};
  W.InitChoices = {{cons::ghostPropose(1)},
                   {cons::ghostPropose(1), cons::ghostPropose(2)}};
  Rng R(0xD21F);
  std::vector<Trace> Corpus;
  for (int I = 0; I != 30; ++I)
    Corpus.push_back(A.randomWalk(W, R, Rel));

  // One warm session in corpus order, row by row and in the tallies.
  CorpusReport Base = CorpusDriver(Cons).checkSlin(Corpus, Sig, Rel);
  ASSERT_EQ(Base.Results.size(), Corpus.size());
  CheckSession Warm(Cons);
  std::uint64_t Yes = 0, No = 0;
  for (std::size_t I = 0; I != Corpus.size(); ++I) {
    SlinVerdict Want = Warm.checkSlin(Corpus[I], Sig, Rel);
    Yes += Want.Outcome == Verdict::Yes;
    No += Want.Outcome == Verdict::No;
    EXPECT_EQ(Base.Results[I].Outcome, Want.Outcome) << "trace " << I;
    EXPECT_EQ(Base.Results[I].BudgetLimited, Want.BudgetLimited)
        << "trace " << I;
    EXPECT_EQ(Base.Results[I].NodesExplored, Want.NodesExplored)
        << "trace " << I;
  }
  EXPECT_EQ(Base.Yes, Yes);
  EXPECT_EQ(Base.No, No);
  EXPECT_EQ(Base.Aggregate.Checks, Warm.stats().Checks);
  EXPECT_GT(Base.Yes + Base.No, 0u);
}

//===----------------------------------------------------------------------===//
// Retained replay state and slin frontier resumption (O(1) steady state).
//===----------------------------------------------------------------------===//

TEST(IncrementalSessionTest, SteadyStateDoesZeroSeedReplay) {
  // The monitor's inner loop: once a Yes is cached, every later verdict
  // must adopt the retained AdtState instead of replaying the seed prefix
  // — SeedStepsReplayed must not grow, event after event, regardless of
  // history length.
  RegisterAdt Reg;
  GenOptions G;
  G.NumClients = 4;
  G.NumOps = 24;
  G.PendingFraction = 0;
  G.Alphabet = {reg::read(), reg::write(1), reg::write(2), reg::write(3)};
  G.Outputs = {Output{1}, Output{2}, Output{NoValue}};
  Rng R(0xA123);
  Trace T = genLinearizableTrace(Reg, G, R);
  IncrementalLinSession Inc(Reg);
  // Prime on the first quarter.
  std::size_t Primed = T.size() / 4;
  for (std::size_t I = 0; I != Primed; ++I)
    Inc.append(T[I]);
  ASSERT_EQ(Inc.verdict().Outcome, Verdict::Yes);
  std::uint64_t ReplayedAfterPriming = Inc.stats().Search.SeedStepsReplayed;
  for (std::size_t I = Primed; I != T.size(); ++I) {
    Inc.append(T[I]);
    LinCheckOptions O;
    O.WantWitness = false; // The O(1) monitor path.
    LinCheckResult V = Inc.verdict(O);
    ASSERT_EQ(V.Outcome, Verdict::Yes);
    EXPECT_EQ(Inc.stats().Search.SeedStepsReplayed, ReplayedAfterPriming)
        << "verdict after event " << I << " replayed the seed prefix";
  }
  // The retained state did absorb the seeds the replays used to pay for.
  EXPECT_GT(Inc.stats().Search.SeedStepsSkipped, 0u);
  EXPECT_GT(Inc.stats().FrontierResumes, 0u);
}

TEST(IncrementalSessionTest, SlinResumptionPaysOnlyForTheSuffix) {
  // The slin analogue of ResumptionPaysOnlyForTheSuffix: on speculatively
  // linearizable growing phase traces (spec-automaton walks checked in the
  // Section 6 universal instantiation — every prefix is Yes) the
  // per-interpretation frontier must (a) agree with a batch check of every
  // prefix and (b) spend strictly fewer total nodes than those checks.
  UniversalAdt Uni;
  UniversalInitRelation Rel;
  Rng R(0xA124);
  std::uint64_t ResumeNodes = 0, FullNodes = 0;
  for (int I = 0; I != 10; ++I) {
    PhaseId M = 1 + (I % 2); // M=2 walks include init actions (recoveries).
    PhaseSignature Sig(M, M + 1);
    SpecAutomaton A(Sig, 3);
    SpecAutomaton::WalkOptions W;
    W.Steps = 12;
    W.Alphabet = {cons::propose(1), cons::propose(2)};
    W.InitChoices = {{cons::ghostPropose(1)}};
    W.AbortProbability = 0; // Positive family: every prefix stays Yes.
    Trace T = A.randomWalk(W, R, Rel);
    IncrementalSlinSession Fast(Uni, Sig, Rel);
    bool SawYes = false;
    Trace Prefix;
    for (const Action &Act : T) {
      Fast.append(Act);
      Prefix.push_back(Act);
      SlinVerdict VF = Fast.verdict();
      SlinVerdict VS = checkSlin(Prefix, Sig, Uni, Rel);
      ASSERT_EQ(VF.Outcome, VS.Outcome) << "walk " << I;
      SawYes |= VF.Outcome == Verdict::Yes;
      ResumeNodes += VF.NodesExplored;
      FullNodes += VS.NodesExplored;
    }
    EXPECT_TRUE(SawYes) << "walk " << I;
    EXPECT_GT(Fast.stats().FrontierResumes, 0u) << "walk " << I;
  }
  EXPECT_LT(ResumeNodes, FullNodes)
      << "slin frontier resumption did not reduce search work";
}

TEST(IncrementalSessionTest, SlinBudgetStopKeepsRetainedFrontiersSound) {
  // Soundness regression: a budget-limited slin verdict keeps the epoch,
  // so the retained frontier's next resumption probes the memo entries it
  // left under the same salts. Only fully refuted subtrees hold an entry,
  // so the recovery verdict must match the batch checker.
  UniversalAdt Uni;
  PhaseSignature Sig(1, 2);
  UniversalInitRelation Rel;
  SpecAutomaton A(Sig, 3);
  SpecAutomaton::WalkOptions W;
  W.Steps = 10;
  W.Alphabet = {cons::propose(1), cons::propose(2)};
  W.InitChoices = {{cons::ghostPropose(1)},
                   {cons::ghostPropose(1), cons::ghostPropose(2)}};
  W.AbortProbability = 0.3; // Injected aborts exercise the budget caps.
  Rng R(0xA125);
  for (int I = 0; I != 12; ++I) {
    Trace T = A.randomWalk(W, R, Rel);
    IncrementalSlinSession Inc(Uni, Sig, Rel);
    std::size_t Fed = 0;
    // Prime a frontier on the first half (walks are Yes by construction).
    for (; Fed != T.size() / 2; ++Fed)
      Inc.append(T[Fed]);
    SlinCheckOptions Full;
    ASSERT_EQ(Inc.verdict(Full).Outcome, Verdict::Yes);
    // Stream the rest, starving every other verdict.
    for (; Fed != T.size(); ++Fed) {
      Inc.append(T[Fed]);
      SlinCheckOptions Tight;
      Tight.Search.NodeBudget = 1;
      SlinVerdict Starved = Inc.verdict(Tight);
      if (Starved.Outcome == Verdict::Unknown) {
        EXPECT_TRUE(Starved.BudgetLimited);
      }
      SlinVerdict Recovered = Inc.verdict(Full);
      Trace Prefix(T.begin(), T.begin() + static_cast<std::ptrdiff_t>(Fed) + 1);
      SlinVerdict Batch = checkSlin(Prefix, Sig, Uni, Rel, Full);
      ASSERT_EQ(Recovered.Outcome, Batch.Outcome)
          << "walk " << I << " at prefix " << Prefix.size() << ":\n"
          << formatTrace(Prefix);
    }
  }
}

//===----------------------------------------------------------------------===//
// Obligation retirement: the live window, the quiescent-cut fold, the
// structural overflow, and the WindowRetired soundness contract.
//===----------------------------------------------------------------------===//

namespace {

/// A linearizable register stream of \p Ops sequential operations (each op
/// completes before the next is invoked, so every position is a quiescence
/// cut) with a verdict after every event. \p Model carries the
/// linearization order across calls on one session (null: fresh stream).
void streamSequentialRegisterOps(IncrementalLinSession &Inc, unsigned Ops,
                                 const LinCheckOptions &Opts,
                                 bool VerdictPerEvent,
                                 AdtState *Model = nullptr) {
  RegisterAdt Reg;
  std::unique_ptr<AdtState> Fresh;
  if (!Model) {
    Fresh = Reg.makeState();
    Model = Fresh.get();
  }
  AdtState *S = Model;
  for (unsigned K = 0; K != Ops; ++K) {
    Input In = K % 3 ? reg::write(static_cast<std::int64_t>(1 + K % 3))
                     : reg::read();
    Output Out = S->apply(In);
    ASSERT_TRUE(Inc.append(makeInvoke(K % 4, 1, In)));
    if (VerdictPerEvent)
      Inc.verdict(Opts);
    ASSERT_TRUE(Inc.append(makeRespond(K % 4, 1, In, Out)));
    if (VerdictPerEvent) {
      LinCheckResult R = Inc.verdict(Opts);
      if (!Inc.overflowed()) { // Excursions (pinned cuts) answer Unknown.
        ASSERT_EQ(R.Outcome, Verdict::Yes) << "op " << K;
      }
    }
  }
}

/// The counters an excursion's capped round (its folds and its graded
/// verdicts) moves, as a session reads them at one point of an excursion.
struct CappedWork {
  std::uint64_t Nodes, BoundedYes, RootSearches, Overflows, Retired;
};

void expectCappedWork(const SessionStats &S, const CappedWork &Want) {
  EXPECT_EQ(S.Search.Nodes, Want.Nodes);
  EXPECT_EQ(S.BoundedYesVerdicts, Want.BoundedYes);
  EXPECT_EQ(S.RootSearches, Want.RootSearches);
  EXPECT_EQ(S.WindowOverflows, Want.Overflows);
  EXPECT_EQ(S.RetiredObligations, Want.Retired);
}

} // namespace

TEST(IncrementalSessionTest, RetirementLiftsTheObligationCeiling) {
  // 200 operations — over three times the engine's 64-obligation bound —
  // with definitive Yes verdicts at every event, zero seed replay in the
  // steady state, a bounded live window, and a replay-valid witness at the
  // end.
  RegisterAdt Reg;
  IncrementalLinSession Inc(Reg);
  LinCheckOptions Opts;
  Opts.WantWitness = false;
  streamSequentialRegisterOps(Inc, 200, Opts, /*VerdictPerEvent=*/true);
  EXPECT_GT(Inc.retiredObligations(), 100u);
  EXPECT_LE(Inc.stats().LiveWindowHighWater, 64u);
  EXPECT_EQ(Inc.stats().WindowOverflows, 0u);
  EXPECT_FALSE(Inc.overflowed());
  // The final witness (retired prefix ++ live chain) must replay-validate
  // against the whole 400-event trace.
  LinCheckResult Final = Inc.verdict();
  ASSERT_EQ(Final.Outcome, Verdict::Yes);
  WellFormedness V = verifyLinWitness(Inc.trace(), Reg, Final.Witness);
  EXPECT_TRUE(bool(V)) << V.Reason;
  EXPECT_EQ(Final.Witness.Commits.size(), 200u);
}

TEST(IncrementalSessionTest, OverflowDrainRecoversWithoutACachedChain) {
  // A stream that outgrows the window with no verdict ever taken has no
  // cached chain to retire against: the excursion is noted at the append
  // (counter + overflowed()), and the next verdict *drains* it with
  // prefix sub-searches — no cached Yes required — then answers
  // definitively.
  RegisterAdt Reg;
  IncrementalLinSession Inc(Reg);
  LinCheckOptions Opts;
  streamSequentialRegisterOps(Inc, 70, Opts, /*VerdictPerEvent=*/false);
  EXPECT_TRUE(Inc.overflowed());
  EXPECT_EQ(Inc.stats().WindowOverflows, 1u);
  LinCheckResult R = Inc.verdict();
  EXPECT_EQ(R.Outcome, Verdict::Yes);
  EXPECT_FALSE(Inc.overflowed());
  EXPECT_GT(Inc.retiredObligations(), 0u);
  EXPECT_LE(Inc.liveWindow(), 64u);
  // The drain's capped sub-searches and the search that follows them.
  expectCappedWork(Inc.stats(), {70, 0, 1, 1, 64});
}

TEST(IncrementalSessionTest, StragglerPinsTheCutThenDrainRecovers) {
  // A straggling operation that overlaps more than 64 completions pins
  // the quiescent cut. Verdicts during the excursion are *graded*: the
  // first pinned verdict runs one capped sub-search over the first 64
  // live obligations and reports BoundedYes (Outcome Unknown, the
  // out-of-window tail as Interference); later pinned verdicts serve the
  // cached sub-Yes with zero nodes. Once the straggler responds the
  // excursion folds the backlog with that same round and definitive
  // verdicts resume.
  RegisterAdt Reg;
  IncrementalLinSession Inc(Reg);
  LinCheckOptions Opts;
  Opts.WantWitness = false;
  std::unique_ptr<AdtState> Model = Reg.makeState();
  // The straggler invokes first and stays open.
  ASSERT_TRUE(Inc.append(makeInvoke(63, 1, reg::write(9))));
  streamSequentialRegisterOps(Inc, 70, Opts, /*VerdictPerEvent=*/true,
                              Model.get());
  EXPECT_TRUE(Inc.overflowed());
  EXPECT_EQ(Inc.stats().WindowOverflows, 1u);
  EXPECT_GE(Inc.stats().BoundedYesVerdicts, 1u);
  LinCheckResult Pinned = Inc.verdict(Opts);
  EXPECT_EQ(Pinned.Outcome, Verdict::Unknown);
  EXPECT_EQ(Pinned.Reason, WindowBoundedReason);
  EXPECT_EQ(Pinned.Grade, VerdictGrade::BoundedYes);
  EXPECT_EQ(Pinned.Interference, 6u);
  EXPECT_EQ(Pinned.NodesExplored, 0u)
      << "a pinned excursion searches its restriction once, then caches";
  // The work up to here: the ladder before the excursion and the round's
  // capped sub-search.
  expectCappedWork(Inc.stats(), {128, 12, 2, 1, 0});
  // The straggler completes; its write lands here in the real-time order.
  Output Out = Model->apply(reg::write(9));
  ASSERT_TRUE(Inc.append(makeRespond(63, 1, reg::write(9), Out)));
  LinCheckResult R = Inc.verdict(Opts);
  EXPECT_EQ(R.Outcome, Verdict::Yes);
  EXPECT_EQ(R.Grade, VerdictGrade::Yes);
  EXPECT_FALSE(Inc.overflowed());
  EXPECT_GT(Inc.retiredObligations(), 0u);
  // The fold reads the round the grade kept: the recovery searches only
  // the ladder after it, not the first 64 obligations again.
  EXPECT_EQ(R.NodesExplored, 7u);
  expectCappedWork(Inc.stats(), {135, 12, 3, 1, 64});
  // And the steady state continues definitively after the excursion.
  streamSequentialRegisterOps(Inc, 5, Opts, /*VerdictPerEvent=*/true,
                              Model.get());
}

TEST(IncrementalSessionTest, NoPastRetirementDegradesToWindowRetired) {
  // After retirement a live-window No is not conclusive (a different
  // linearization of the pinned retired prefix might have worked): the
  // verdict must be the stable WindowRetired Unknown, never No — and a
  // dooming (ill-formed) event must still conclude No.
  RegisterAdt Reg;
  IncrementalLinSession Inc(Reg);
  LinCheckOptions Opts;
  Opts.WantWitness = false;
  streamSequentialRegisterOps(Inc, 100, Opts, /*VerdictPerEvent=*/true);
  ASSERT_GT(Inc.retiredObligations(), 0u);
  // Well-formed but inexplicable: the register never held 77.
  ASSERT_TRUE(Inc.append(makeInvoke(9, 1, reg::read())));
  ASSERT_TRUE(Inc.append(makeRespond(9, 1, reg::read(), Output{77})));
  LinCheckResult R = Inc.verdict(Opts);
  EXPECT_EQ(R.Outcome, Verdict::Unknown);
  EXPECT_EQ(R.Reason, WindowRetiredReason);
  EXPECT_GE(Inc.stats().WindowRetiredUnknowns, 1u);

  // Dooming path on a fresh long stream: ill-formedness is No regardless
  // of how much was retired ("batch on the suffix says No").
  IncrementalLinSession Doomy(Reg);
  streamSequentialRegisterOps(Doomy, 100, Opts, /*VerdictPerEvent=*/true);
  ASSERT_GT(Doomy.retiredObligations(), 0u);
  Action Dup = makeRespond(9, 1, reg::read(), Output{0});
  Doomy.append(Dup); // No matching open invocation: ill-formed.
  EXPECT_TRUE(Doomy.doomed());
  EXPECT_EQ(Doomy.verdict(Opts).Outcome, Verdict::No);
}

TEST(IncrementalSessionTest, CyclingInterpretationsKeepTheHotFrontier) {
  // Regression for the frontier-table eviction policy: a consensus stream
  // whose proposals keep raising the trace maximum makes the relation's
  // extended-extreme interpretations change hash at every verdict (two
  // fresh admissions per verdict, >64 total), while the canonical
  // interpretation recurs every time. Eviction must be
  // least-recently-resumed and never the in-flight hash, so the hot
  // canonical frontier keeps resuming — FrontierResumes keeps climbing —
  // no matter how many one-shot interpretations cycle through.
  ConsensusAdt Cons;
  PhaseSignature Sig(2, 3);
  ConsensusInitRelation Rel;
  IncrementalSlinSession Inc(Cons, Sig, Rel);
  SlinCheckOptions O;
  O.WantWitness = false;

  // Both clients switch into the phase with value 5 and decide it (a
  // backup-phase client must enter via an init action before it can
  // invoke).
  ASSERT_TRUE(
      Inc.append(makeSwitch(1, 2, cons::proposeBy(5, 1), SwitchValue{5})));
  ASSERT_TRUE(
      Inc.append(makeRespond(1, 2, cons::proposeBy(5, 1), cons::decide(5))));
  ASSERT_TRUE(
      Inc.append(makeSwitch(2, 2, cons::proposeBy(5, 2), SwitchValue{5})));
  ASSERT_TRUE(
      Inc.append(makeRespond(2, 2, cons::proposeBy(5, 2), cons::decide(5))));
  ASSERT_EQ(Inc.verdict(O).Outcome, Verdict::Yes);

  const unsigned Rounds = 55; // Stays within the 64-response window.
  for (unsigned K = 0; K != Rounds; ++K) {
    Input In = cons::proposeBy(100 + static_cast<std::int64_t>(K), 2);
    ASSERT_TRUE(Inc.append(makeInvoke(2, 2, In)));
    ASSERT_TRUE(Inc.append(makeRespond(2, 2, In, cons::decide(5))));
    ASSERT_EQ(Inc.verdict(O).Outcome, Verdict::Yes) << "round " << K;
  }
  // Two fresh extended interpretations per verdict cycle through the
  // 64-entry bound...
  EXPECT_LE(Inc.retainedFrontiers(), 64u);
  // ...but the canonical frontier must have kept resuming: one resume per
  // verdict after the first capture (conservative floor: the admissions
  // alone exceed the table bound, so an arbitrary-eviction policy would
  // have dropped the canonical entry on some rounds).
  EXPECT_GE(Inc.stats().FrontierResumes, static_cast<std::uint64_t>(Rounds))
      << "cycling interpretations thrashed the hot frontier";
}

TEST(IncrementalSessionTest, SlinOverflowDrainRecoversWithoutACachedChain) {
  // The slin analogue of OverflowDrainRecoversWithoutACachedChain: 100
  // completions with no verdict in between overflow the window silently;
  // the next verdict drains it — capped prefix sub-searches per
  // interpretation, folded at the family's common alignment — and answers
  // definitively.
  RegisterAdt Reg;
  PhaseSignature Sig(1, 2);
  UniversalInitRelation Rel;
  IncrementalSlinSession Inc(Reg, Sig, Rel);
  std::unique_ptr<AdtState> Model = Reg.makeState();
  for (unsigned K = 0; K != 100; ++K) {
    Input In = K % 3 ? reg::write(static_cast<std::int64_t>(1 + K % 3))
                     : reg::read();
    Output Out = Model->apply(In);
    ASSERT_TRUE(Inc.append(makeInvoke(K % 4, 1, In)));
    ASSERT_TRUE(Inc.append(makeRespond(K % 4, 1, In, Out)));
  }
  EXPECT_TRUE(Inc.overflowed());
  EXPECT_EQ(Inc.stats().WindowOverflows, 1u);
  SlinCheckOptions O;
  O.WantWitness = false;
  SlinVerdict R = Inc.verdict(O);
  EXPECT_EQ(R.Outcome, Verdict::Yes) << R.Reason;
  EXPECT_EQ(R.Grade, VerdictGrade::Yes);
  EXPECT_FALSE(Inc.overflowed());
  EXPECT_GT(Inc.retiredObligations(), 0u);
  EXPECT_LE(Inc.liveWindow(), 64u);
  expectCappedWork(Inc.stats(), {100, 0, 1, 1, 64});
}

TEST(IncrementalSessionTest, SlinStragglerPinsTheCutThenDrainRecovers) {
  // The slin analogue of StragglerPinsTheCutThenDrainRecovers: while a
  // straggling invocation pins the quiescent cut past the window, pinned
  // verdicts report the graded BoundedYes (every family member linearized
  // the first 64 live obligations; only the out-of-window tail is
  // unchecked), served from cache after the first capped sub-search. Once
  // the straggler responds, the backlog folds with that same round and
  // definitive verdicts resume — the excursion was transient and counted
  // once.
  RegisterAdt Reg;
  PhaseSignature Sig(1, 2);
  UniversalInitRelation Rel;
  IncrementalSlinSession Inc(Reg, Sig, Rel);
  SlinCheckOptions O;
  O.WantWitness = false;
  std::unique_ptr<AdtState> Model = Reg.makeState();
  // The straggler invokes first and stays open.
  ASSERT_TRUE(Inc.append(makeInvoke(63, 1, reg::write(9))));
  for (unsigned K = 0; K != 70; ++K) {
    Input In = K % 3 ? reg::write(static_cast<std::int64_t>(1 + K % 3))
                     : reg::read();
    Output Out = Model->apply(In);
    ASSERT_TRUE(Inc.append(makeInvoke(K % 4, 1, In)));
    ASSERT_TRUE(Inc.append(makeRespond(K % 4, 1, In, Out)));
    SlinVerdict V = Inc.verdict(O);
    if (!Inc.overflowed())
      ASSERT_EQ(V.Outcome, Verdict::Yes) << "op " << K;
    else
      ASSERT_EQ(V.Grade, VerdictGrade::BoundedYes)
          << "op " << K << " (reason: " << V.Reason << ")";
  }
  EXPECT_TRUE(Inc.overflowed());
  EXPECT_EQ(Inc.stats().WindowOverflows, 1u);
  EXPECT_GE(Inc.stats().BoundedYesVerdicts, 1u);
  SlinVerdict Pinned = Inc.verdict(O);
  EXPECT_EQ(Pinned.Outcome, Verdict::Unknown);
  EXPECT_EQ(Pinned.Reason, WindowBoundedReason);
  EXPECT_EQ(Pinned.Grade, VerdictGrade::BoundedYes);
  EXPECT_EQ(Pinned.Interference, 6u);
  EXPECT_EQ(Pinned.NodesExplored, 0u)
      << "a pinned excursion searches its restriction once, then caches";
  expectCappedWork(Inc.stats(), {128, 7, 1, 1, 0});
  // The straggler completes; its write lands here in the real-time order.
  Output Out = Model->apply(reg::write(9));
  ASSERT_TRUE(Inc.append(makeRespond(63, 1, reg::write(9), Out)));
  SlinVerdict R = Inc.verdict(O);
  EXPECT_EQ(R.Outcome, Verdict::Yes) << R.Reason;
  EXPECT_EQ(R.Grade, VerdictGrade::Yes);
  EXPECT_FALSE(Inc.overflowed());
  EXPECT_GT(Inc.retiredObligations(), 0u);
  EXPECT_EQ(R.NodesExplored, 7u) << "the fold reads the kept round";
  expectCappedWork(Inc.stats(), {135, 7, 2, 1, 64});
  // And the steady state continues definitively after the excursion.
  for (unsigned K = 0; K != 5; ++K) {
    Input In = reg::write(static_cast<std::int64_t>(K));
    Output Out2 = Model->apply(In);
    ASSERT_TRUE(Inc.append(makeInvoke(K % 4, 1, In)));
    ASSERT_TRUE(Inc.append(makeRespond(K % 4, 1, In, Out2)));
    ASSERT_EQ(Inc.verdict(O).Outcome, Verdict::Yes) << "post-drain op " << K;
  }
}

TEST(IncrementalSessionTest, SlinOverflowDrainWithInitActionsSeedsTheLcp) {
  // Overflow + drain on a trace whose interpretation family is nontrivial:
  // each member's capped sub-search seeds that member's init LCP, and the
  // family folds at the common alignment — frontiers for every member are
  // created at the fold, so post-drain verdicts ride behind per-member
  // retired boundaries.
  ConsensusAdt Cons;
  PhaseSignature Sig(2, 3);
  ConsensusInitRelation Rel;
  IncrementalSlinSession Inc(Cons, Sig, Rel);
  SlinCheckOptions O;
  O.WantWitness = false;
  ASSERT_TRUE(
      Inc.append(makeSwitch(1, 2, cons::proposeBy(5, 1), SwitchValue{5})));
  ASSERT_TRUE(
      Inc.append(makeRespond(1, 2, cons::proposeBy(5, 1), cons::decide(5))));
  ASSERT_TRUE(
      Inc.append(makeSwitch(2, 2, cons::proposeBy(5, 2), SwitchValue{5})));
  ASSERT_TRUE(
      Inc.append(makeRespond(2, 2, cons::proposeBy(5, 2), cons::decide(5))));
  // 80 further decides with no verdict in between: the window overflows.
  for (unsigned K = 0; K != 80; ++K) {
    Input In = cons::proposeBy(100 + static_cast<std::int64_t>(K), 2);
    ASSERT_TRUE(Inc.append(makeInvoke(2, 2, In)));
    ASSERT_TRUE(Inc.append(makeRespond(2, 2, In, cons::decide(5))));
  }
  EXPECT_TRUE(Inc.overflowed());
  SlinVerdict R = Inc.verdict(O);
  EXPECT_EQ(R.Outcome, Verdict::Yes) << R.Reason;
  EXPECT_FALSE(Inc.overflowed());
  EXPECT_GT(Inc.retiredObligations(), 0u);
  EXPECT_LE(Inc.liveWindow(), 64u);
  expectCappedWork(Inc.stats(), {246, 0, 3, 1, 64});
  // Definitive verdicts continue on the retired session — for appends that
  // keep the family stable (re-proposing a seen value). A *fresh* value
  // would mint extended interpretations with no frontier at the session's
  // retirement depth, which is a sound WindowRetired Unknown by design.
  for (unsigned K = 0; K != 3; ++K) {
    Input In = cons::proposeBy(5, 2);
    ASSERT_TRUE(Inc.append(makeInvoke(2, 2, In)));
    ASSERT_TRUE(Inc.append(makeRespond(2, 2, In, cons::decide(5))));
    ASSERT_EQ(Inc.verdict(O).Outcome, Verdict::Yes) << "post-drain round "
                                                    << K;
  }
}

//===----------------------------------------------------------------------===//
// The cut point: a verdict that misses the chain's end resumes at the
// chain's last aligned quiescent cut before it runs from the boundary.
//===----------------------------------------------------------------------===//

namespace {

/// Streams \p T through \p S with a witness-free verdict after every event;
/// every verdict must be Yes. Returns the mean nodes per verdict that left
/// the fast step with a search (a miss).
template <typename Session, typename Options>
double streamMeanMissNodes(Session &S, const Trace &T, const Options &O) {
  std::uint64_t Misses = 0, Nodes = 0;
  for (std::size_t I = 0; I != T.size(); ++I) {
    EXPECT_TRUE(bool(S.append(T[I])));
    const std::uint64_t Fast0 = S.stats().FastPathVerdicts;
    auto V = S.verdict(O);
    EXPECT_EQ(V.Outcome, Verdict::Yes) << "event " << I << ": " << V.Reason;
    if (S.stats().FastPathVerdicts == Fast0 && V.NodesExplored != 0) {
      ++Misses;
      Nodes += V.NodesExplored;
    }
  }
  return Misses ? static_cast<double>(Nodes) / static_cast<double>(Misses)
                : 0.0;
}

/// A two-write round whose later read needs the write order the chain did
/// not pick: w(1) and w(2) overlap and respond in that order (the chain
/// commits w(1) first), a read invoked after both stays open across a
/// w(3), and then returns 1. Only w(2) w(1) r w(3) linearizes it, so the
/// cut — after both writes, before w(3) — must fail and the root search
/// must answer.
Trace reorderedWritesRound() {
  Trace T;
  T.push_back(makeInvoke(0, 1, reg::write(1)));
  T.push_back(makeInvoke(1, 1, reg::write(2)));
  T.push_back(makeRespond(0, 1, reg::write(1), Output{1}));
  T.push_back(makeRespond(1, 1, reg::write(2), Output{2}));
  T.push_back(makeInvoke(2, 1, reg::read()));
  T.push_back(makeInvoke(3, 1, reg::write(3)));
  T.push_back(makeRespond(3, 1, reg::write(3), Output{3}));
  T.push_back(makeRespond(2, 1, reg::read(), Output{1}));
  return T;
}

} // namespace

TEST(CutRungTest, LinShuffledRoundsResumeAtTheCut) {
  // One write per round, responses shuffled: a response that lands before
  // an earlier-linearized one misses the frontier. The cut sits at the
  // previous round's end, so a miss reopens at most its round, and misses
  // cost at most the round size (4) plus 4 nodes on average. (Searched
  // from the retired boundary, BM_E8_ReorderSlin's misses cost ~32.)
  RegisterAdt Reg;
  Rng R(0xC071);
  const Trace T = genShuffledRegisterRounds(40, 4, 1, R);
  IncrementalLinSession Inc(Reg);
  LinCheckOptions O;
  O.WantWitness = false;
  const double PerMiss = streamMeanMissNodes(Inc, T, O);
  EXPECT_GT(Inc.stats().CutResumes, 0u);
  EXPECT_LE(PerMiss, 4.0 + 4.0) << "misses reopen more than their round";
  EXPECT_GT(Inc.retiredObligations(), 0u);
  EXPECT_EQ(Inc.stats().WindowRetiredUnknowns, 0u);
}

TEST(CutRungTest, SlinShuffledRoundsResumeAtTheCut) {
  // The same stream through a slin session (the reorder-slin-256 shard).
  RegisterAdt Reg;
  PhaseSignature Sig(1, 2);
  UniversalInitRelation Rel;
  Rng R(0xC072);
  const Trace T = genShuffledRegisterRounds(40, 4, 1, R);
  IncrementalSlinSession Inc(Reg, Sig, Rel);
  SlinCheckOptions O;
  O.WantWitness = false;
  const double PerMiss = streamMeanMissNodes(Inc, T, O);
  EXPECT_GT(Inc.stats().CutResumes, 0u);
  EXPECT_LE(PerMiss, 4.0 + 4.0) << "misses reopen more than their round";
  EXPECT_GT(Inc.retiredObligations(), 0u);
  EXPECT_EQ(Inc.stats().WindowRetiredUnknowns, 0u);
}

TEST(CutRungTest, ReorderSlinMissSplitIsPinned) {
  // BM_E8_ReorderSlin's stream (64 rounds, seed 0xE86) through one slin
  // session with a witness-free verdict per event, and the same seed over
  // 1,000 rounds through a shard-shaped session (outcome-only, 4,096-slot
  // memo cap). The total nodes and the split of the ladder's runs between
  // the chain's end, its cut and its boundary are pinned: a change to the
  // miss path that moves a single node fails here, not only in the e8
  // bench gate.
  struct Row {
    unsigned Rounds;
    bool Shard;
    std::uint64_t Nodes, FrontierResumes, CutResumes, RootSearches, Fast;
  };
  const Row Rows[] = {
      {64, false, 826, 254, 57, 7, 175},
      {1000, true, 13730, 3987, 1009, 83, 2615},
  };
  RegisterAdt Reg;
  PhaseSignature Sig(1, 2);
  UniversalInitRelation Rel;
  for (const Row &W : Rows) {
    SCOPED_TRACE(testing::Message() << W.Rounds << " rounds");
    Rng R(0xE86);
    const Trace T = genShuffledRegisterRounds(W.Rounds, 4, 1, R);
    IncrementalOptions Opts;
    if (W.Shard) {
      Opts.TranspositionCapacity = 1u << 12;
      Opts.RetainTrace = false;
      Opts.RetainRetiredWitness = false;
    }
    IncrementalSlinSession Inc(Reg, Sig, Rel, Opts);
    SlinCheckOptions O;
    O.WantWitness = false;
    streamMeanMissNodes(Inc, T, O);
    const SessionStats &S = Inc.stats();
    EXPECT_EQ(S.Search.Nodes, W.Nodes);
    EXPECT_EQ(S.FrontierResumes, W.FrontierResumes);
    EXPECT_EQ(S.CutResumes, W.CutResumes);
    EXPECT_EQ(S.RootSearches, W.RootSearches);
    EXPECT_EQ(S.FastPathVerdicts, W.Fast);
    EXPECT_GT(Inc.retiredObligations(), 0u);
  }
}

namespace {

/// Streams \p T through a session made by \p Make with a full-budget
/// verdict after every event. At every miss (a verdict that left the fast
/// step with a search) it replays the stream so far into a fresh session
/// once per budget in {1, 2, 4, 8, 16}, so the ladder runs out of budget at
/// the chain's end, inside its cut and inside its boundary search. Each
/// budgeted verdict is Yes or a budget-limited Unknown within the unwinding
/// bound of BudgetLadderOnResumedSessionsStaysSound, and the full-budget
/// verdict after it equals the unbudgeted stream's.
void setNodeBudget(LinCheckOptions &O, std::uint64_t B) { O.NodeBudget = B; }
void setNodeBudget(SlinCheckOptions &O, std::uint64_t B) {
  O.Search.NodeBudget = B;
}

template <typename Options, typename MakeSession>
void expectBudgetLadderMidMiss(const Trace &T, const Options &O,
                               MakeSession Make) {
  auto Twin = Make();
  std::size_t Misses = 0;
  for (std::size_t I = 0; I != T.size(); ++I) {
    ASSERT_TRUE(bool(Twin->append(T[I])));
    const std::uint64_t Fast0 = Twin->stats().FastPathVerdicts;
    const auto Want = Twin->verdict(O);
    if (Twin->stats().FastPathVerdicts != Fast0 || Want.NodesExplored == 0)
      continue;
    ++Misses;
    for (std::uint64_t Budget : {1ull, 2ull, 4ull, 8ull, 16ull}) {
      auto S = Make();
      for (std::size_t J = 0; J != I; ++J) {
        ASSERT_TRUE(bool(S->append(T[J])));
        S->verdict(O);
      }
      ASSERT_TRUE(bool(S->append(T[I])));
      Options Tight = O;
      setNodeBudget(Tight, Budget);
      const auto V = S->verdict(Tight);
      if (V.Outcome != Verdict::Yes) {
        EXPECT_EQ(V.Outcome, Verdict::Unknown)
            << "event " << I << " budget " << Budget;
        EXPECT_TRUE(V.BudgetLimited) << "event " << I << " budget " << Budget;
      }
      EXPECT_LE(V.NodesExplored, 2 * Budget + 8 * (I + 1))
          << "event " << I << " budget " << Budget;
      const auto After = S->verdict(O);
      EXPECT_EQ(After.Outcome, Want.Outcome)
          << "event " << I << " budget " << Budget;
      EXPECT_EQ(After.Reason, Want.Reason)
          << "event " << I << " budget " << Budget;
    }
  }
  EXPECT_GT(Misses, 0u);
  EXPECT_GT(Twin->stats().CutResumes, 0u);
}

} // namespace

TEST(CutRungTest, LinBudgetExhaustedMidLadder) {
  RegisterAdt Reg;
  Rng R(0xC073);
  const Trace T = genShuffledRegisterRounds(24, 4, 1, R);
  LinCheckOptions O;
  O.WantWitness = false;
  expectBudgetLadderMidMiss(T, O, [&] {
    return std::make_unique<IncrementalLinSession>(Reg);
  });
}

TEST(CutRungTest, SlinBudgetExhaustedMidLadder) {
  RegisterAdt Reg;
  PhaseSignature Sig(1, 2);
  UniversalInitRelation Rel;
  Rng R(0xC074);
  const Trace T = genShuffledRegisterRounds(24, 4, 1, R);
  SlinCheckOptions O;
  O.WantWitness = false;
  expectBudgetLadderMidMiss(T, O, [&] {
    return std::make_unique<IncrementalSlinSession>(Reg, Sig, Rel);
  });
}

TEST(CutRungTest, LinCutNoFallsThroughToTheRoot) {
  RegisterAdt Reg;
  IncrementalLinSession Inc(Reg);
  LinCheckOptions O;
  O.WantWitness = false;
  const Trace T = reorderedWritesRound();
  for (std::size_t I = 0; I + 1 != T.size(); ++I) {
    ASSERT_TRUE(Inc.append(T[I]));
    ASSERT_EQ(Inc.verdict(O).Outcome, Verdict::Yes) << "event " << I;
  }
  const SessionStats Before = Inc.stats();
  ASSERT_TRUE(Inc.append(T.back()));
  LinCheckResult V = Inc.verdict();
  EXPECT_EQ(V.Outcome, Verdict::Yes) << V.Reason;
  EXPECT_EQ(Inc.stats().CutResumes, Before.CutResumes);
  EXPECT_EQ(Inc.stats().RootSearches, Before.RootSearches + 1);
  EXPECT_EQ(Inc.stats().WindowRetiredUnknowns, 0u);
  EXPECT_TRUE(bool(verifyLinWitness(T, Reg, V.Witness)));
}

TEST(CutRungTest, SlinCutNoFallsThroughToTheRoot) {
  RegisterAdt Reg;
  PhaseSignature Sig(1, 2);
  UniversalInitRelation Rel;
  IncrementalSlinSession Inc(Reg, Sig, Rel);
  SlinCheckOptions O;
  O.WantWitness = false;
  const Trace T = reorderedWritesRound();
  for (std::size_t I = 0; I + 1 != T.size(); ++I) {
    ASSERT_TRUE(Inc.append(T[I]));
    ASSERT_EQ(Inc.verdict(O).Outcome, Verdict::Yes) << "event " << I;
  }
  const SessionStats Before = Inc.stats();
  ASSERT_TRUE(Inc.append(T.back()));
  SlinVerdict V = Inc.verdict();
  EXPECT_EQ(V.Outcome, Verdict::Yes) << V.Reason;
  EXPECT_EQ(Inc.stats().CutResumes, Before.CutResumes);
  EXPECT_EQ(Inc.stats().RootSearches, Before.RootSearches + 1);
  EXPECT_EQ(Inc.stats().WindowRetiredUnknowns, 0u);
  for (const auto &[Finit, W] : V.Witnesses) {
    WellFormedness Ok = verifySlinWitness(T, Sig, Reg, Rel, Finit, W, false);
    EXPECT_TRUE(Ok.Ok) << Ok.Reason;
  }
}

namespace {

/// A stream whose root-search Yes reorders two writes before the cut, then
/// needs the reordered cut: w(1) and w(2) respond in that order; w(3), a
/// read x and reads r and y are invoked; x returns 3 and w(3) responds
/// (the cut rung places w(3) before x on top of w(1) w(2)); r returns 1,
/// which only w(2) w(1) r w(3) explains (the root search); y returns 1,
/// which the cut after w(2) w(1) explains. Every prefix is linearizable.
Trace rootReordersTheCut() {
  const Input R = reg::read();
  Trace T;
  T.push_back(makeInvoke(0, 1, reg::write(1)));
  T.push_back(makeInvoke(1, 1, reg::write(2)));
  T.push_back(makeRespond(0, 1, reg::write(1), Output{1}));
  T.push_back(makeRespond(1, 1, reg::write(2), Output{2}));
  T.push_back(makeInvoke(2, 1, reg::write(3)));
  T.push_back(makeInvoke(3, 1, R));
  T.push_back(makeInvoke(4, 1, R));
  T.push_back(makeInvoke(5, 1, R));
  T.push_back(makeRespond(3, 1, R, Output{3}));
  T.push_back(makeRespond(2, 1, reg::write(3), Output{3}));
  T.push_back(makeRespond(4, 1, R, Output{1}));
  T.push_back(makeRespond(5, 1, R, Output{1}));
  return T;
}

/// Streams rootReordersTheCut() through \p S: the cut rung serves the
/// w(3) miss, the root search the r miss, and the cut rung the y miss —
/// from the cut state of the root search's chain, not the stale one.
template <typename Session, typename Options>
void expectRootYesInvalidatesTheCut(Session &S, const Options &O) {
  const Trace T = rootReordersTheCut();
  // (CutResumes, RootSearches) gained over the last three verdicts.
  const std::uint64_t Expected[][2] = {{1, 0},  // w(3): cut Yes
                                       {1, 1},  // r: cut No, root Yes
                                       {2, 1}}; // y: cut Yes
  SessionStats Base;
  for (std::size_t I = 0; I != T.size(); ++I) {
    if (I + 3 == T.size())
      Base = S.stats();
    ASSERT_TRUE(bool(S.append(T[I])));
    ASSERT_EQ(S.verdict(O).Outcome, Verdict::Yes) << "event " << I;
    if (I + 3 >= T.size()) {
      const auto &Want = Expected[I + 3 - T.size()];
      EXPECT_EQ(S.stats().CutResumes - Base.CutResumes, Want[0])
          << "event " << I;
      EXPECT_EQ(S.stats().RootSearches - Base.RootSearches, Want[1])
          << "event " << I;
    }
  }
}

} // namespace

TEST(CutRungTest, LinRootYesInvalidatesTheCut) {
  RegisterAdt Reg;
  IncrementalLinSession Inc(Reg);
  LinCheckOptions O;
  O.WantWitness = false;
  expectRootYesInvalidatesTheCut(Inc, O);
}

TEST(CutRungTest, SlinRootYesInvalidatesTheCut) {
  RegisterAdt Reg;
  PhaseSignature Sig(1, 2);
  UniversalInitRelation Rel;
  IncrementalSlinSession Inc(Reg, Sig, Rel);
  SlinCheckOptions O;
  O.WantWitness = false;
  expectRootYesInvalidatesTheCut(Inc, O);
}

//===----------------------------------------------------------------------===//
// Budget stops inside an overflow excursion: the round's capped sub-searches
// share the verdict's node budget with the ladder that follows them.
//===----------------------------------------------------------------------===//

namespace {

/// The straggler shape of the excursion tests above: a write invoked first
/// stays open over 70 sequential register operations (the cut pins past the
/// window, and the round grades the excursion), then responds (the kept
/// round folds the backlog), then 5 more operations.
Trace stragglerExcursion() {
  RegisterAdt Reg;
  std::unique_ptr<AdtState> Model = Reg.makeState();
  Trace T;
  auto Op = [&](ClientId C, const Input &In) {
    T.push_back(makeInvoke(C, 1, In));
    T.push_back(makeRespond(C, 1, In, Model->apply(In)));
  };
  T.push_back(makeInvoke(63, 1, reg::write(9)));
  for (unsigned K = 0; K != 70; ++K)
    Op(K % 4, K % 3 ? reg::write(static_cast<std::int64_t>(1 + K % 3))
                    : reg::read());
  T.push_back(makeRespond(63, 1, reg::write(9), Model->apply(reg::write(9))));
  for (unsigned K = 0; K != 5; ++K)
    Op(K % 4, reg::write(static_cast<std::int64_t>(K)));
  return T;
}

/// The family drain shape of SlinOverflowDrainWithInitActionsSeedsTheLcp:
/// two init actions make the consensus relation's interpretation family
/// nontrivial, then 80 decides overflow the window, then 3 re-proposals of
/// the decided value follow the drain.
Trace familyExcursion() {
  Trace T = {
      makeSwitch(1, 2, cons::proposeBy(5, 1), SwitchValue{5}),
      makeRespond(1, 2, cons::proposeBy(5, 1), cons::decide(5)),
      makeSwitch(2, 2, cons::proposeBy(5, 2), SwitchValue{5}),
      makeRespond(2, 2, cons::proposeBy(5, 2), cons::decide(5))};
  auto Op = [&](const Input &In) {
    T.push_back(makeInvoke(2, 2, In));
    T.push_back(makeRespond(2, 2, In, cons::decide(5)));
  };
  for (unsigned K = 0; K != 80; ++K)
    Op(cons::proposeBy(100 + static_cast<std::int64_t>(K), 2));
  for (unsigned K = 0; K != 3; ++K)
    Op(cons::proposeBy(5, 2));
  return T;
}

/// Session counters the excursion verdicts move, summed over sessions.
struct ExcursionWork {
  std::uint64_t Nodes = 0, BoundedYes = 0, RetiredUnknowns = 0;

  void add(const SessionStats &S) {
    Nodes += S.Search.Nodes;
    BoundedYes += S.BoundedYesVerdicts;
    RetiredUnknowns += S.WindowRetiredUnknowns;
  }
};

void expectExcursionWork(const ExcursionWork &Got, const ExcursionWork &Want,
                         const char *What) {
  EXPECT_EQ(Got.Nodes, Want.Nodes) << What;
  EXPECT_EQ(Got.BoundedYes, Want.BoundedYes) << What;
  EXPECT_EQ(Got.RetiredUnknowns, Want.RetiredUnknowns) << What;
}

/// Streams \p T through a session made by \p Make with a full-budget
/// verdict after every event from index \p FirstVerdict on. At every
/// verdict taken while the window is overflowed (graded or folding), it
/// replays the stream so far into a fresh session once per budget in
/// {1, 2, 4, 8, 16} and once per other budget up to the full verdict's node
/// count, so the budget runs out inside each capped sub-search, between
/// them, and in the ladder after the fold. Each
/// budgeted verdict equals the full one or is a budget-limited Unknown, and
/// the full-budget verdict after it equals the full one. Returns the
/// streamed session's counters and the replays' sums.
template <typename Options, typename MakeSession>
std::pair<ExcursionWork, ExcursionWork>
expectBudgetStopsInExcursion(const Trace &T, std::size_t FirstVerdict,
                             const Options &O, MakeSession Make) {
  ExcursionWork Stream, Replays;
  auto Twin = Make();
  std::size_t Excursions = 0;
  for (std::size_t I = 0; I != T.size(); ++I) {
    EXPECT_TRUE(bool(Twin->append(T[I])));
    if (I < FirstVerdict)
      continue;
    const bool Excursion = Twin->overflowed();
    const auto Want = Twin->verdict(O);
    if (!Excursion)
      continue;
    ++Excursions;
    std::vector<std::uint64_t> Budgets = {1, 2, 4, 8, 16};
    for (std::uint64_t B = 1; B <= Want.NodesExplored; ++B)
      if (B > 16 || (B & (B - 1)))
        Budgets.push_back(B);
    for (std::uint64_t Budget : Budgets) {
      SCOPED_TRACE(testing::Message() << "event " << I << " budget " << Budget);
      auto S = Make();
      for (std::size_t J = 0; J != I; ++J) {
        EXPECT_TRUE(bool(S->append(T[J])));
        if (J >= FirstVerdict)
          S->verdict(O);
      }
      EXPECT_TRUE(bool(S->append(T[I])));
      Options Tight = O;
      setNodeBudget(Tight, Budget);
      const auto V = S->verdict(Tight);
      if (V.BudgetLimited) {
        EXPECT_EQ(V.Outcome, Verdict::Unknown);
      } else {
        EXPECT_EQ(V.Outcome, Want.Outcome);
        EXPECT_EQ(V.Grade, Want.Grade);
        EXPECT_EQ(V.Reason, Want.Reason);
      }
      const auto After = S->verdict(O);
      EXPECT_EQ(After.Outcome, Want.Outcome);
      EXPECT_EQ(After.Grade, Want.Grade);
      EXPECT_EQ(After.Reason, Want.Reason);
      Replays.add(S->stats());
    }
  }
  EXPECT_GT(Excursions, 0u);
  EXPECT_FALSE(Twin->overflowed());
  EXPECT_GT(Twin->retiredObligations(), 0u);
  Stream.add(Twin->stats());
  return {Stream, Replays};
}

} // namespace

TEST(IncrementalSessionTest, LinBudgetStopsInsideAnOverflowExcursion) {
  RegisterAdt Reg;
  LinCheckOptions O;
  O.WantWitness = false;
  const auto [Stream, Replays] =
      expectBudgetStopsInExcursion(stragglerExcursion(), 0, O, [&] {
        return std::make_unique<IncrementalLinSession>(Reg);
      });
  // The work the streamed verdicts and the budgeted replays did: a budget
  // stops at the same node whichever path it runs out in.
  expectExcursionWork(Stream, {140, 11, 0}, "stream");
  expectExcursionWork(Replays, {17844, 539, 0}, "replays");
}

TEST(IncrementalSessionTest, SlinBudgetStopsInsideAnOverflowExcursion) {
  RegisterAdt Reg;
  PhaseSignature Sig(1, 2);
  UniversalInitRelation Rel;
  SlinCheckOptions O;
  O.WantWitness = false;
  const auto [Stream, Replays] =
      expectBudgetStopsInExcursion(stragglerExcursion(), 0, O, [&] {
        return std::make_unique<IncrementalSlinSession>(Reg, Sig, Rel);
      });
  expectExcursionWork(Stream, {140, 11, 0}, "stream");
  expectExcursionWork(Replays, {17844, 539, 0}, "replays");
}

TEST(IncrementalSessionTest, SlinFamilyBudgetStopsInsideAnOverflowExcursion) {
  // The family's members share one count through the drain: a budget can
  // run out at any member's capped sub-search. Verdicts start at the last
  // of the 80 decides, which overflowed the window.
  ConsensusAdt Cons;
  PhaseSignature Sig(2, 3);
  ConsensusInitRelation Rel;
  SlinCheckOptions O;
  O.WantWitness = false;
  const Trace T = familyExcursion();
  const auto [Stream, Replays] =
      expectBudgetStopsInExcursion(T, T.size() - 7, O, [&] {
        return std::make_unique<IncrementalSlinSession>(Cons, Sig, Rel);
      });
  expectExcursionWork(Stream, {255, 0, 0}, "stream");
  expectExcursionWork(Replays, {79005, 0, 0}, "replays");
}
