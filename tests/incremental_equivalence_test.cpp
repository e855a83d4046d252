//===- tests/incremental_equivalence_test.cpp - Streaming vs batch --------==//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//
//
// The incremental sessions change *how* verdicts are computed (retained
// frontiers, lineage-salted memo reuse, O(1) absorption paths), never
// *what* they are. This suite pins that: over generated corpora covering
// all five ADTs (lin) and both init relations with both Definition 28
// readings (slin), a resumable session asked for a verdict after every
// event must agree with the batch checker run from scratch on every
// prefix — zero mismatches, at every prefix, including the ill-formed and
// invalid-input dooming paths.
//
//===----------------------------------------------------------------------===//

#include "adt/Consensus.h"
#include "adt/KvStore.h"
#include "adt/Queue.h"
#include "adt/Register.h"
#include "adt/Universal.h"
#include "engine/Incremental.h"
#include "spec/SpecAutomaton.h"
#include "trace/Gen.h"
#include "trace/TraceIo.h"

#include <gtest/gtest.h>

using namespace slin;

namespace {

/// Streams \p T through a resumable session, checking after every event,
/// and compares each verdict with a scratch batch check of the prefix.
void expectLinPrefixAgreement(const Adt &Type, const Trace &T) {
  IncrementalLinSession Inc(Type);
  Trace Prefix;
  for (const Action &A : T) {
    Inc.append(A); // A rejected event dooms the session; keep streaming.
    Prefix.push_back(A);
    LinCheckResult Streamed = Inc.verdict();
    LinCheckResult Batch = checkLinearizable(Prefix, Type);
    ASSERT_EQ(Streamed.Outcome, Batch.Outcome)
        << Type.name() << " prefix of " << Prefix.size() << " events:\n"
        << formatTrace(Prefix);
  }
}

void runLinFamily(const Adt &Type, const GenOptions &G, unsigned Count,
                  std::uint64_t Seed) {
  Rng R(Seed);
  for (unsigned I = 0; I != Count; ++I) {
    Trace Positive = genLinearizableTrace(Type, G, R);
    Trace Mutated = Positive;
    mutateTrace(Mutated, static_cast<MutationKind>(I % 4), G, R);
    Trace Arbitrary = genArbitraryTrace(G, R);
    for (const Trace *T : {&Positive, &Mutated, &Arbitrary})
      expectLinPrefixAgreement(Type, *T);
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Plain linearizability: all five ADTs.
//===----------------------------------------------------------------------===//

TEST(IncrementalEquivalenceTest, ConsensusPrefixDifferential) {
  ConsensusAdt Cons;
  GenOptions G;
  G.NumClients = 4;
  G.NumOps = 8;
  G.Alphabet = {cons::propose(1), cons::propose(2), cons::propose(3)};
  G.Outputs = {cons::decide(1), cons::decide(2), cons::decide(3)};
  runLinFamily(Cons, G, 20, 0x1E4A);
}

TEST(IncrementalEquivalenceTest, QueuePrefixDifferential) {
  QueueAdt Q;
  GenOptions G;
  G.NumClients = 3;
  G.NumOps = 7;
  G.Alphabet = {queue::enq(1), queue::enq(2), queue::deq()};
  G.Outputs = {Output{1}, Output{2}, Output{NoValue}};
  runLinFamily(Q, G, 20, 0x1E4B);
}

TEST(IncrementalEquivalenceTest, RegisterPrefixDifferential) {
  RegisterAdt Reg;
  GenOptions G;
  G.NumClients = 3;
  G.NumOps = 7;
  G.Alphabet = {reg::read(), reg::write(1), reg::write(2)};
  G.Outputs = {Output{1}, Output{2}, Output{NoValue}};
  runLinFamily(Reg, G, 20, 0x1E4C);
}

TEST(IncrementalEquivalenceTest, KvStorePrefixDifferential) {
  KvStoreAdt Kv;
  GenOptions G;
  G.NumClients = 3;
  G.NumOps = 7;
  G.Alphabet = {kv::put(1, 10), kv::put(1, 20), kv::get(1), kv::del(1)};
  G.Outputs = {Output{10}, Output{20}, Output{NoValue}};
  runLinFamily(Kv, G, 20, 0x1E4D);
}

TEST(IncrementalEquivalenceTest, UniversalPrefixDifferential) {
  UniversalAdt Uni;
  GenOptions G;
  G.NumClients = 3;
  G.NumOps = 6;
  G.Alphabet = {Input{1, 0, 1, 0}, Input{2, 0, 2, 0}, Input{3, 0, 3, 0}};
  G.Outputs = {Output{0}, Output{1}};
  runLinFamily(Uni, G, 15, 0x1E4E);
}

TEST(IncrementalEquivalenceTest, DoomedStreamsAgreeWithBatch) {
  // Ill-formed traces and invalid inputs must doom the stream to exactly
  // the batch verdict of the full trace, and every later prefix.
  ConsensusAdt Cons;
  Trace T;
  T.push_back(makeInvoke(0, 1, cons::propose(1)));
  T.push_back(makeRespond(0, 1, cons::propose(1), cons::decide(1)));
  // Response with no pending invocation: ill-formed from here on.
  T.push_back(makeRespond(0, 1, cons::propose(1), cons::decide(1)));
  T.push_back(makeInvoke(1, 1, cons::propose(2)));
  expectLinPrefixAgreement(Cons, T);

  // An input the ADT rejects.
  IncrementalLinSession Inc(Cons);
  EXPECT_TRUE(Inc.append(makeInvoke(0, 1, cons::propose(1))));
  EXPECT_FALSE(Inc.append(makeInvoke(1, 1, queue::deq())));
  EXPECT_TRUE(Inc.doomed());
  EXPECT_EQ(Inc.verdict().Outcome, Verdict::No);
}

//===----------------------------------------------------------------------===//
// Speculative linearizability: both relations, both abort readings.
//===----------------------------------------------------------------------===//

namespace {

void expectSlinPrefixAgreement(const Adt &Type, const PhaseSignature &Sig,
                               const InitRelation &Rel, const Trace &T,
                               const SlinCheckOptions &O) {
  IncrementalSlinSession Inc(Type, Sig, Rel);
  Trace Prefix;
  for (const Action &A : T) {
    Inc.append(A);
    Prefix.push_back(A);
    SlinVerdict Streamed = Inc.verdict(O);
    SlinVerdict Batch = checkSlin(Prefix, Sig, Type, Rel, O);
    ASSERT_EQ(Streamed.Outcome, Batch.Outcome)
        << "relation differential at prefix " << Prefix.size()
        << " (atEnd=" << O.AbortValidityAtEnd << "):\n"
        << formatTrace(Prefix);
    ASSERT_EQ(Streamed.Exact, Batch.Exact);
  }
}

} // namespace

TEST(IncrementalEquivalenceTest, SlinUniversalWalkPrefixDifferential) {
  ConsensusAdt Cons;
  for (PhaseId M : {1u, 2u}) {
    PhaseSignature Sig(M, M + 1);
    UniversalInitRelation Rel;
    SpecAutomaton A(Sig, 3);
    SpecAutomaton::WalkOptions W;
    W.Steps = 8;
    W.Alphabet = {cons::propose(1), cons::propose(2)};
    W.InitChoices = {{cons::ghostPropose(1)},
                     {cons::ghostPropose(1), cons::ghostPropose(2)}};
    Rng R(0x51D1 + M);
    for (int I = 0; I != 12; ++I) {
      Trace T = A.randomWalk(W, R, Rel);
      for (bool AtEnd : {false, true}) {
        SlinCheckOptions O;
        O.AbortValidityAtEnd = AtEnd;
        expectSlinPrefixAgreement(Cons, Sig, Rel, T, O);
      }
    }
  }
}

TEST(IncrementalEquivalenceTest, SlinConsensusRelationPrefixDifferential) {
  // Re-target universal walk traces at the consensus relation by remapping
  // switch values into small proposals: mixed-verdict phase traces whose
  // streamed and batch checks must still agree at every prefix.
  ConsensusAdt Cons;
  ConsensusInitRelation ConsRel;
  for (PhaseId M : {1u, 2u}) {
    PhaseSignature Sig(M, M + 1);
    UniversalInitRelation WalkRel;
    SpecAutomaton A(Sig, 3);
    SpecAutomaton::WalkOptions W;
    W.Steps = 8;
    W.Alphabet = {cons::propose(1), cons::propose(2)};
    W.InitChoices = {{cons::ghostPropose(1)},
                     {cons::ghostPropose(1), cons::ghostPropose(2)}};
    Rng R(0x51D3 + M);
    for (int I = 0; I != 10; ++I) {
      Trace T = A.randomWalk(W, R, WalkRel);
      for (Action &Act : T)
        if (isSwitch(Act))
          Act.Sv.Val = 1 + (Act.Sv.Val & 1);
      for (bool AtEnd : {false, true}) {
        SlinCheckOptions O;
        O.AbortValidityAtEnd = AtEnd;
        expectSlinPrefixAgreement(Cons, Sig, ConsRel, T, O);
      }
    }
  }
}

TEST(IncrementalEquivalenceTest, SlinReadingSwitchMidStream) {
  // Changing AbortValidityAtEnd between verdicts of one session is a
  // non-monotone delta: the epoch must move and the verdicts must match a
  // batch check under the newly requested reading.
  ConsensusAdt Cons;
  PhaseSignature Sig(1, 2);
  UniversalInitRelation Rel;
  SpecAutomaton A(Sig, 3);
  SpecAutomaton::WalkOptions W;
  W.Steps = 10;
  W.Alphabet = {cons::propose(1), cons::propose(2)};
  W.InitChoices = {{cons::ghostPropose(1)}};
  Rng R(0x51D7);
  for (int I = 0; I != 8; ++I) {
    Trace T = A.randomWalk(W, R, Rel);
    IncrementalSlinSession Inc(Cons, Sig, Rel);
    Trace Prefix;
    for (std::size_t J = 0; J != T.size(); ++J) {
      Inc.append(T[J]);
      Prefix.push_back(T[J]);
      SlinCheckOptions O;
      O.AbortValidityAtEnd = (J % 2) == 0; // Alternate readings.
      SlinVerdict Streamed = Inc.verdict(O);
      SlinVerdict Batch = checkSlin(Prefix, Sig, Cons, Rel, O);
      ASSERT_EQ(Streamed.Outcome, Batch.Outcome)
          << "reading switch at prefix " << Prefix.size() << ":\n"
          << formatTrace(Prefix);
    }
  }
}
