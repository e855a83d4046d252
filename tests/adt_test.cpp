//===- tests/adt_test.cpp - Unit tests for the ADT layer ------------------==//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//

#include "adt/Consensus.h"
#include "adt/KvStore.h"
#include "adt/Queue.h"
#include "adt/Register.h"
#include "adt/Universal.h"
#include "support/Arena.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <vector>

using namespace slin;

namespace {

/// Two states are behaviorally equal when they have equal digests and
/// produce the same outputs (and equal digests again) after every probe
/// input — the executable form of "responds identically to all futures".
void expectBehaviorEqual(const AdtState &A, const AdtState &B,
                         const std::vector<Input> &Probes) {
  EXPECT_EQ(A.digest(), B.digest());
  for (const Input &P : Probes) {
    auto CA = A.clone();
    auto CB = B.clone();
    EXPECT_EQ(CA->apply(P), CB->apply(P));
    EXPECT_EQ(CA->digest(), CB->digest());
  }
}

/// The canonical encoding of \p S (an exact witness of its logical state).
std::vector<std::int64_t> canonical(const AdtState &S) {
  std::vector<std::int64_t> Out;
  S.serializeCanonical(Out);
  return Out;
}

/// Randomized apply/undo round-trip: drive one mutate/undo state alongside
/// clone-based snapshots, checking that applyInput matches apply on a
/// clone, that undoInput restores the exact pre-apply behavior, and that a
/// full LIFO unwind returns to the initial state. Along the way one reused
/// state is re-seeded from the walk by copyFrom at every step: it must
/// equal the source exactly and stay independent of it.
void undoRoundTrip(const Adt &T, const std::vector<Input> &Alphabet,
                   std::uint64_t Seed) {
  Rng R(Seed);
  Arena Overflow;
  auto State = T.makeState();
  auto Copy = T.makeState();

  // Phase 1: random walk; each step is applied via the undo protocol and
  // cross-checked against a clone driven by plain apply. Half the steps
  // are immediately undone and must land exactly on the prior state.
  for (int Step = 0; Step != 300; ++Step) {
    auto Before = State->clone();
    const Input &In =
        Alphabet[static_cast<std::size_t>(R.nextBounded(Alphabet.size()))];
    UndoToken U;
    Output Mutated = State->applyInput(In, U, Overflow);
    auto Cloned = Before->clone();
    EXPECT_EQ(Mutated, Cloned->apply(In)) << T.name();
    expectBehaviorEqual(*State, *Cloned, Alphabet);
    if (R.nextBool(0.5)) {
      State->undoInput(U);
      expectBehaviorEqual(*State, *Before, Alphabet);
    }
    Copy->copyFrom(*State);
    EXPECT_EQ(canonical(*Copy), canonical(*State)) << T.name();
    expectBehaviorEqual(*Copy, *State, Alphabet);
    const std::vector<std::int64_t> Source = canonical(*State);
    Copy->apply(In);
    EXPECT_EQ(canonical(*State), Source) << T.name() << ": copy aliases";
  }

  // Phase 2: deep apply stack, then a full LIFO unwind back to the start.
  auto Initial = State->clone();
  std::vector<UndoToken> Stack;
  for (int Step = 0; Step != 64; ++Step) {
    const Input &In =
        Alphabet[static_cast<std::size_t>(R.nextBounded(Alphabet.size()))];
    Stack.emplace_back();
    State->applyInput(In, Stack.back(), Overflow);
  }
  for (auto It = Stack.rbegin(); It != Stack.rend(); ++It)
    State->undoInput(*It);
  expectBehaviorEqual(*State, *Initial, Alphabet);
}

} // namespace

TEST(ConsensusAdtTest, FirstProposalWins) {
  ConsensusAdt T;
  EXPECT_EQ(T.evaluate({cons::propose(7)}), cons::decide(7));
  EXPECT_EQ(T.evaluate({cons::propose(7), cons::propose(9)}),
            cons::decide(7));
  EXPECT_EQ(
      T.evaluate({cons::propose(3), cons::propose(9), cons::propose(3)}),
      cons::decide(3));
}

TEST(ConsensusAdtTest, StateReplayMatchesEvaluate) {
  ConsensusAdt T;
  auto S = T.makeState();
  EXPECT_EQ(S->apply(cons::propose(5)), cons::decide(5));
  EXPECT_EQ(S->apply(cons::propose(6)), cons::decide(5));
}

TEST(ConsensusAdtTest, CloneIsIndependent) {
  ConsensusAdt T;
  auto S = T.makeState();
  S->apply(cons::propose(1));
  auto S2 = S->clone();
  EXPECT_EQ(S->digest(), S2->digest());
  // Both decided 1; further proposals cannot diverge them, so check digests
  // of fresh clones instead.
  auto Fresh = T.makeState();
  EXPECT_NE(Fresh->digest(), S->digest());
}

TEST(ConsensusAdtTest, HistoryEquivalence) {
  ConsensusAdt T;
  // Histories starting with the same proposal are equivalent (Section 2.3).
  EXPECT_TRUE(T.equivalent({cons::propose(4)},
                           {cons::propose(4), cons::propose(9)}));
  EXPECT_FALSE(T.equivalent({cons::propose(4)}, {cons::propose(5)}));
}

TEST(ConsensusAdtTest, InputValidation) {
  ConsensusAdt T;
  EXPECT_TRUE(T.validInput(cons::propose(0)));
  EXPECT_TRUE(T.validInput(cons::proposeBy(3, 7)));
  EXPECT_FALSE(T.validInput(Input{cons::OpPropose, 0, NoValue, 0}));
  EXPECT_FALSE(T.validInput(Input{99, 0, 1, 0}));
}

TEST(RegisterAdtTest, ReadsSeeLatestWrite) {
  RegisterAdt T;
  EXPECT_EQ(T.evaluate({reg::read()}).Val, NoValue);
  EXPECT_EQ(T.evaluate({reg::write(3), reg::read()}).Val, 3);
  EXPECT_EQ(T.evaluate({reg::write(3), reg::write(8), reg::read()}).Val, 8);
  EXPECT_EQ(T.evaluate({reg::write(3), reg::read(), reg::write(8)}).Val, 8);
}

TEST(RegisterAdtTest, DigestTracksContent) {
  RegisterAdt T;
  auto A = T.makeState(), B = T.makeState();
  EXPECT_EQ(A->digest(), B->digest());
  A->apply(reg::write(1));
  EXPECT_NE(A->digest(), B->digest());
  B->apply(reg::write(1));
  EXPECT_EQ(A->digest(), B->digest());
}

TEST(QueueAdtTest, FifoOrder) {
  QueueAdt T;
  EXPECT_EQ(T.evaluate({queue::deq()}).Val, NoValue);
  EXPECT_EQ(T.evaluate({queue::enq(1), queue::enq(2), queue::deq()}).Val, 1);
  EXPECT_EQ(
      T.evaluate({queue::enq(1), queue::enq(2), queue::deq(), queue::deq()})
          .Val,
      2);
  EXPECT_EQ(T.evaluate({queue::enq(1), queue::deq(), queue::deq()}).Val,
            NoValue);
}

TEST(QueueAdtTest, EnqueueAcks) {
  QueueAdt T;
  EXPECT_EQ(T.evaluate({queue::enq(42)}).Val, 42);
}

TEST(QueueAdtTest, DigestDistinguishesOrder) {
  QueueAdt T;
  auto A = T.makeState(), B = T.makeState();
  A->apply(queue::enq(1));
  A->apply(queue::enq(2));
  B->apply(queue::enq(2));
  B->apply(queue::enq(1));
  EXPECT_NE(A->digest(), B->digest());
}

TEST(KvStoreAdtTest, PutGetDel) {
  KvStoreAdt T;
  EXPECT_EQ(T.evaluate({kv::get(1)}).Val, NoValue);
  EXPECT_EQ(T.evaluate({kv::put(1, 10), kv::get(1)}).Val, 10);
  EXPECT_EQ(T.evaluate({kv::put(1, 10), kv::put(1, 20), kv::get(1)}).Val, 20);
  EXPECT_EQ(T.evaluate({kv::put(1, 10), kv::del(1)}).Val, 10);
  EXPECT_EQ(T.evaluate({kv::put(1, 10), kv::del(1), kv::get(1)}).Val,
            NoValue);
  EXPECT_EQ(T.evaluate({kv::del(5)}).Val, NoValue);
}

TEST(KvStoreAdtTest, KeysAreIndependent) {
  KvStoreAdt T;
  EXPECT_EQ(T.evaluate({kv::put(1, 10), kv::put(2, 20), kv::get(1)}).Val, 10);
  EXPECT_EQ(T.evaluate({kv::put(1, 10), kv::put(2, 20), kv::get(2)}).Val, 20);
}

//===----------------------------------------------------------------------===//
// Mutate/undo protocol: randomized round trips against clone snapshots.
//===----------------------------------------------------------------------===//

TEST(AdtUndoTest, RegisterRoundTrip) {
  undoRoundTrip(RegisterAdt{}, {reg::write(1), reg::write(2), reg::read()},
                0x5E61);
}

TEST(AdtUndoTest, QueueRoundTrip) {
  undoRoundTrip(QueueAdt{}, {queue::enq(1), queue::enq(2), queue::deq()},
                0x5E62);
}

TEST(AdtUndoTest, KvStoreRoundTrip) {
  undoRoundTrip(KvStoreAdt{},
                {kv::put(1, 10), kv::put(1, 20), kv::put(2, 5), kv::get(1),
                 kv::get(2), kv::del(1), kv::del(2)},
                0x5E63);
}

TEST(AdtUndoTest, ConsensusRoundTrip) {
  undoRoundTrip(ConsensusAdt{}, {cons::propose(1), cons::propose(2)}, 0x5E64);
}

TEST(AdtUndoTest, UniversalRoundTrip) {
  undoRoundTrip(UniversalAdt{}, {cons::propose(1), cons::propose(2)}, 0x5E65);
}

TEST(AdtUndoTest, QueueDeqOnEmptyUndoesToEmpty) {
  QueueAdt T;
  Arena Overflow;
  auto S = T.makeState();
  std::uint64_t Empty = S->digest();
  UndoToken U;
  EXPECT_EQ(S->applyInput(queue::deq(), U, Overflow).Val, NoValue);
  S->undoInput(U);
  EXPECT_EQ(S->digest(), Empty);
}

TEST(AdtUndoTest, KvPutOverwriteRestoresOldValue) {
  KvStoreAdt T;
  Arena Overflow;
  auto S = T.makeState();
  S->apply(kv::put(7, 1));
  std::uint64_t Before = S->digest();
  UndoToken U;
  EXPECT_EQ(S->applyInput(kv::put(7, 2), U, Overflow).Val, 2);
  EXPECT_EQ(S->apply(kv::get(7)).Val, 2);
  // apply(get) mutated nothing, so the put's token still reverts cleanly.
  S->undoInput(U);
  EXPECT_EQ(S->digest(), Before);
  EXPECT_EQ(S->apply(kv::get(7)).Val, 1);
}

TEST(UniversalAdtTest, OutputIdentifiesHistory) {
  UniversalAdt T;
  // Same history -> same output; different history -> different output.
  History H1 = {cons::propose(1), cons::propose(2)};
  History H2 = {cons::propose(2), cons::propose(1)};
  EXPECT_EQ(T.evaluate(H1), T.evaluate(H1));
  EXPECT_NE(T.evaluate(H1), T.evaluate(H2));
  EXPECT_NE(T.evaluate(H1), T.evaluate({cons::propose(1)}));
}

TEST(UniversalAdtTest, EquivalenceIsEquality) {
  UniversalAdt T;
  History H1 = {cons::propose(1)};
  History H2 = {cons::propose(1), cons::propose(1)};
  EXPECT_TRUE(T.equivalent(H1, H1));
  EXPECT_FALSE(T.equivalent(H1, H2));
}
