//===- tests/engine_equivalence_test.cpp - Engine verdict equivalence -----==//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//
//
// Differential tests for the shared chain-search engine: on generated trace
// corpora (trace/Gen, fixed seeds) the engine — through both the batched
// CheckSession API and the one-shot entry points — must agree with the
// independent oracles the repo already trusts:
//
//   * the classical reordering checker (lin/Classical.h) on every verdict,
//   * the witness verifiers (verifyLinWitness / verifySlinWitness) on
//     every Yes,
//   * session-vs-one-shot self-consistency (salted memo reuse, arena
//     rewind, and interner growth must never change a verdict),
//
// and hit all three verdicts (Yes, No, and budget-driven Unknown) plus both
// AbortValidityAtEnd readings of Definition 28, whose golden verdicts on
// the paper-discrepancy scenario were recorded against the pre-engine
// implementation.
//
//===----------------------------------------------------------------------===//

#include "adt/Consensus.h"
#include "adt/Queue.h"
#include "engine/CheckSession.h"
#include "lin/Classical.h"
#include "lin/Witness.h"
#include "slin/SlinWitness.h"
#include "spec/SpecAutomaton.h"
#include "trace/Gen.h"
#include "trace/TraceIo.h"

#include <gtest/gtest.h>

using namespace slin;

namespace {

/// Checks \p T through a shared session and the one-shot entry point,
/// asserts they agree with each other and with the classical oracle, and
/// verifies the witness on Yes. Returns the verdict.
Verdict checkAllWays(const Trace &T, const Adt &Type, CheckSession &Session) {
  LinCheckResult Batched = Session.checkLin(T);
  LinCheckResult OneShot = checkLinearizable(T, Type);
  // A warm session may explore moves in a different order than a fresh
  // one (ids are assigned across traces), so only conclusive verdicts are
  // required to agree; a budget-limited Unknown is never a wrong answer.
  if (Batched.Outcome != Verdict::Unknown &&
      OneShot.Outcome != Verdict::Unknown) {
    EXPECT_EQ(Batched.Outcome, OneShot.Outcome)
        << "session reuse changed a conclusive verdict on\n"
        << formatTrace(T);
  }
  ClassicalCheckResult Oracle = checkLinearizableClassical(T, Type);
  if (Oracle.Outcome != Verdict::Unknown) {
    EXPECT_EQ(Batched.Outcome, Oracle.Outcome)
        << "engine disagrees with the classical oracle on\n"
        << formatTrace(T);
  }
  if (Batched.Outcome == Verdict::Yes) {
    EXPECT_TRUE(verifyLinWitness(T, Type, Batched.Witness).Ok)
        << verifyLinWitness(T, Type, Batched.Witness).Reason << "\n"
        << formatTrace(T);
  }
  return Batched.Outcome;
}

} // namespace

//===----------------------------------------------------------------------===//
// Plain linearizability: generated corpora against the classical oracle.
//===----------------------------------------------------------------------===//

TEST(EngineEquivalenceTest, ConsensusCorpusAgreesWithClassical) {
  ConsensusAdt Cons;
  CheckSession Session(Cons);
  GenOptions G;
  G.NumClients = 4;
  G.Alphabet = {cons::propose(1), cons::propose(2), cons::propose(3)};
  G.Outputs = {cons::decide(1), cons::decide(2), cons::decide(3)};
  Rng R(0xE9E1);
  unsigned SawYes = 0, SawNo = 0;
  for (unsigned Ops : {4u, 6u, 8u}) {
    G.NumOps = Ops;
    for (int I = 0; I < 60; ++I) {
      Trace Positive = genLinearizableTrace(Cons, G, R);
      EXPECT_EQ(checkAllWays(Positive, Cons, Session), Verdict::Yes);
      Trace Mutated = Positive;
      if (mutateTrace(Mutated, static_cast<MutationKind>(I % 4), G, R)) {
        Verdict V = checkAllWays(Mutated, Cons, Session);
        (V == Verdict::Yes ? SawYes : SawNo) += 1;
      }
      checkAllWays(genArbitraryTrace(G, R), Cons, Session);
    }
  }
  // The mutated family must exercise both conclusive verdicts.
  EXPECT_GT(SawYes, 0u);
  EXPECT_GT(SawNo, 0u);
}

TEST(EngineEquivalenceTest, QueueCorpusAgreesWithClassical) {
  QueueAdt Q;
  CheckSession Session(Q);
  GenOptions G;
  G.NumClients = 3;
  G.Alphabet = {queue::enq(1), queue::enq(2), queue::deq()};
  G.Outputs = {Output{1}, Output{2}, Output{NoValue}};
  Rng R(0xE9E2);
  for (unsigned Ops : {4u, 6u, 8u}) {
    G.NumOps = Ops;
    for (int I = 0; I < 40; ++I) {
      checkAllWays(genLinearizableTrace(Q, G, R), Q, Session);
      checkAllWays(genArbitraryTrace(G, R), Q, Session);
    }
  }
}

//===----------------------------------------------------------------------===//
// Unknown: budget exhaustion is reported, never mis-answered.
//===----------------------------------------------------------------------===//

TEST(EngineEquivalenceTest, NodeBudgetExhaustionYieldsUnknown) {
  ConsensusAdt Cons;
  GenOptions G;
  G.NumClients = 4;
  G.NumOps = 12;
  G.Alphabet = {cons::propose(1), cons::propose(2), cons::propose(3)};
  G.PendingFraction = 0.1;
  Rng R(0xE9E3);
  Trace T = genLinearizableTrace(Cons, G, R);

  LinCheckOptions Tight;
  Tight.NodeBudget = 2;
  LinCheckResult Budgeted = checkLinearizable(T, Cons, Tight);
  EXPECT_EQ(Budgeted.Outcome, Verdict::Unknown);
  EXPECT_NE(Budgeted.Reason.find("budget"), std::string::npos);

  // The session path reports the same exhaustion.
  CheckSession Session(Cons);
  EXPECT_EQ(Session.checkLin(T, Tight).Outcome, Verdict::Unknown);
  // And with the default budget the same trace is decided.
  EXPECT_EQ(Session.checkLin(T).Outcome, Verdict::Yes);
}

TEST(EngineEquivalenceTest, SlinNodeBudgetExhaustionYieldsUnknown) {
  ConsensusAdt Cons;
  UniversalInitRelation Rel;
  PhaseSignature Sig(2, 3);
  SpecAutomaton A(Sig, 3);
  SpecAutomaton::WalkOptions W;
  W.Steps = 12;
  W.Alphabet = {cons::propose(1), cons::propose(2)};
  W.InitChoices = {{cons::ghostPropose(1)},
                   {cons::ghostPropose(1), cons::ghostPropose(2)}};
  Rng R(0xE9E4);
  SlinCheckOptions Tight;
  Tight.Search.NodeBudget = 1;
  bool SawUnknown = false;
  for (int I = 0; I < 20 && !SawUnknown; ++I) {
    Trace T = A.randomWalk(W, R, Rel);
    SlinVerdict V = checkSlin(T, Sig, Cons, Rel, Tight);
    SawUnknown = V.Outcome == Verdict::Unknown;
  }
  EXPECT_TRUE(SawUnknown);
}

//===----------------------------------------------------------------------===//
// Speculative linearizability: session/one-shot agreement on walk corpora,
// witness verification, and the two Definition 28 readings.
//===----------------------------------------------------------------------===//

TEST(EngineEquivalenceTest, SlinWalkCorpusSessionMatchesOneShot) {
  ConsensusAdt Cons;
  for (PhaseId M : {1u, 2u}) {
    PhaseSignature Sig(M, M + 1);
    UniversalInitRelation Rel;
    SpecAutomaton A(Sig, 3);
    SpecAutomaton::WalkOptions W;
    W.Alphabet = {cons::propose(1), cons::propose(2)};
    W.InitChoices = {{cons::ghostPropose(1)},
                     {cons::ghostPropose(1), cons::ghostPropose(2)}};
    Rng R(0xE9E5 + M);
    CheckSession Session(Cons);
    for (unsigned Steps : {6u, 10u}) {
      W.Steps = Steps;
      for (int I = 0; I < 25; ++I) {
        Trace T = A.randomWalk(W, R, Rel);
        for (bool AtEnd : {false, true}) {
          SlinCheckOptions O;
          O.AbortValidityAtEnd = AtEnd;
          SlinVerdict Batched = Session.checkSlin(T, Sig, Rel, O);
          SlinVerdict OneShot = checkSlin(T, Sig, Cons, Rel, O);
          if (Batched.Outcome != Verdict::Unknown &&
              OneShot.Outcome != Verdict::Unknown) {
            ASSERT_EQ(Batched.Outcome, OneShot.Outcome)
                << "session reuse changed a conclusive verdict (atEnd="
                << AtEnd << ")\n"
                << formatTrace(T);
          }
          if (Batched.Outcome == Verdict::Yes) {
            for (const auto &[Finit, Witness] : Batched.Witnesses) {
              WellFormedness Ok =
                  verifySlinWitness(T, Sig, Cons, Rel, Finit, Witness, AtEnd);
              EXPECT_TRUE(Ok.Ok) << Ok.Reason << "\n" << formatTrace(T);
            }
          }
        }
      }
    }
  }
}

TEST(EngineEquivalenceTest, AbortValidityReadingsDifferOnLateDecider) {
  // The paper-discrepancy scenario (see slin/SlinChecker.h): c2 aborts
  // carrying value 5 before c1 even invokes its proposal of 5; c1 then
  // decides 5 on the fast path. Under the strict reading of Definition 28
  // no abort history fixed at the switch can contain c1's commit, so the
  // trace is rejected; under the relaxed (trace-end) reading it is
  // accepted. Golden verdicts recorded against the pre-engine checker.
  ConsensusAdt Cons;
  ConsensusInitRelation Rel;
  PhaseSignature Sig(1, 2);
  Trace T = {
      makeInvoke(2, 1, cons::proposeBy(7, 2)),
      makeSwitch(2, 2, cons::proposeBy(7, 2), SwitchValue{5}),
      makeInvoke(1, 1, cons::proposeBy(5, 1)),
      makeRespond(1, 1, cons::proposeBy(5, 1), cons::decide(5)),
  };
  CheckSession Session(Cons);

  SlinCheckOptions Strict;
  Strict.AbortValidityAtEnd = false;
  SlinVerdict StrictV = Session.checkSlin(T, Sig, Rel, Strict);
  EXPECT_EQ(StrictV.Outcome, Verdict::No);
  EXPECT_TRUE(StrictV.Exact);

  SlinCheckOptions Relaxed;
  Relaxed.AbortValidityAtEnd = true;
  SlinVerdict RelaxedV = Session.checkSlin(T, Sig, Rel, Relaxed);
  EXPECT_EQ(RelaxedV.Outcome, Verdict::Yes);
  for (const auto &[Finit, Witness] : RelaxedV.Witnesses)
    EXPECT_TRUE(
        verifySlinWitness(T, Sig, Cons, Rel, Finit, Witness, true).Ok);

  // One-shot agreement on the same scenario.
  EXPECT_EQ(checkSlin(T, Sig, Cons, Rel, Strict).Outcome, Verdict::No);
  EXPECT_EQ(checkSlin(T, Sig, Cons, Rel, Relaxed).Outcome, Verdict::Yes);
}

//===----------------------------------------------------------------------===//
// Session statistics: the batched API reports what it did.
//===----------------------------------------------------------------------===//

TEST(EngineEquivalenceTest, SessionStatsAccumulate) {
  ConsensusAdt Cons;
  CheckSession Session(Cons);
  GenOptions G;
  G.NumClients = 3;
  G.NumOps = 6;
  G.Alphabet = {cons::propose(1), cons::propose(2)};
  Rng R(0xE9E6);
  for (int I = 0; I < 10; ++I)
    Session.checkLin(genLinearizableTrace(Cons, G, R));
  const SessionStats &S = Session.stats();
  EXPECT_EQ(S.Checks, 10u);
  EXPECT_EQ(S.Yes, 10u);
  EXPECT_EQ(S.No + S.Unknown, 0u);
  EXPECT_GT(S.Search.Nodes, 0u);
  EXPECT_GT(S.Search.CommitMoves, 0u);
}
