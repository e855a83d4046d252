//===- tests/trace_fuzz_test.cpp - Randomized trace-fuzzing harness -------==//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//
//
// The randomized lock-down for the incremental sessions' O(1) steady state
// (slin frontier resumption + retained replay state). A seeded trace
// generator covers all five ADTs (lin) and both init relations under both
// Definition 28 readings (slin), with configurable client/phase counts and
// injected aborts and recoveries (spec-automaton walks whose clients abort
// out and switch back in); every generated trace drives a *per-prefix*
// streamed-vs-batch differential:
//
//   * verdict equality — a resumable session asked after every event must
//     agree with a scratch batch check of that prefix, including the
//     dooming paths (corrupted traces are injected on purpose).
//
// Node counts are compared only between sessions that share the
// incremental interning discipline (the batch session interns sorted, so
// its counts are only verdict-comparable; see the warm-session caveat in
// docs/engine.md): the fast step against the engine, and lin against its
// one-member slin family.
//
// Every failure message carries the deterministic per-trace seed; re-run a
// single trace with SLIN_FUZZ_SEED=<seed> (and the suite with
// SLIN_FUZZ_TRACES=<n> to scale the budget, e.g. in sanitizer CI).
//
// The file also hosts the retained-replay-state property test: after any
// interleaving of append/verdict/reset, the cached AdtState at the
// frontier must be bit-equivalent (clone + canonical serialization) to a
// fresh replay of the retained master.
//
//===----------------------------------------------------------------------===//

#include "adt/Consensus.h"
#include "adt/KvStore.h"
#include "adt/Queue.h"
#include "adt/Register.h"
#include "adt/Universal.h"
#include "engine/Incremental.h"
#include "slin/SlinWitness.h"
#include "spec/SpecAutomaton.h"
#include "trace/Gen.h"
#include "trace/TraceIo.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <memory>
#include <sstream>

using namespace slin;

namespace {

std::uint64_t baseSeed() {
  if (const char *S = std::getenv("SLIN_FUZZ_SEED"))
    return std::strtoull(S, nullptr, 0);
  return 0xF0221ull;
}

/// Per-test trace budget; SLIN_FUZZ_TRACES overrides (sanitizer CI shrinks
/// it, soak runs raise it). The defaults put the whole suite at >= 1000
/// seeded traces.
unsigned traceBudget(unsigned Default) {
  if (const char *S = std::getenv("SLIN_FUZZ_TRACES"))
    return static_cast<unsigned>(std::strtoul(S, nullptr, 0));
  return Default;
}

std::string seedNote(std::uint64_t TraceSeed, unsigned Index) {
  std::ostringstream Os;
  Os << "trace seed 0x" << std::hex << TraceSeed << std::dec << " (index "
     << Index << ", base seed 0x" << std::hex << baseSeed()
     << "; reproduce via SLIN_FUZZ_SEED)";
  return Os.str();
}

/// One ADT's generator configuration for the lin fuzz family.
struct LinFixture {
  const Adt &Type;
  std::vector<Input> Alphabet;
  std::vector<Output> Outputs;
};

/// Draws one randomized trace: the family rotates through
/// linearizable-by-construction, mutated, arbitrary, and corrupted
/// (ill-formed on purpose, exercising the dooming path).
Trace drawLinTrace(const LinFixture &Fx, unsigned Index, Rng &R) {
  GenOptions G;
  G.NumClients = 2 + static_cast<unsigned>(R.next() % 3); // 2..4
  G.NumOps = 4 + static_cast<unsigned>(R.next() % 6);     // 4..9
  G.PendingFraction = (R.next() % 3) * 0.2;
  G.Alphabet = Fx.Alphabet;
  G.Outputs = Fx.Outputs;
  Trace T;
  switch (Index % 4) {
  case 0:
    T = genLinearizableTrace(Fx.Type, G, R);
    break;
  case 1:
    T = genLinearizableTrace(Fx.Type, G, R);
    mutateTrace(T, static_cast<MutationKind>(R.next() % 4), G, R);
    break;
  case 2:
    T = genArbitraryTrace(G, R);
    break;
  default:
    // Corrupted: duplicate a response (ill-formed at the duplicate), or
    // respond for a client with nothing pending.
    T = genLinearizableTrace(Fx.Type, G, R);
    if (!T.empty()) {
      std::size_t At = R.next() % T.size();
      for (std::size_t I = 0; I != T.size(); ++I) {
        std::size_t J = (At + I) % T.size();
        if (isRespond(T[J])) {
          T.insert(T.begin() + static_cast<std::ptrdiff_t>(J) + 1, T[J]);
          break;
        }
      }
    }
    break;
  }
  return T;
}

/// The per-prefix streamed-vs-batch differential for one lin trace.
void fuzzLinTrace(const LinFixture &Fx, const Trace &T) {
  IncrementalLinSession Resumed(Fx.Type);
  Trace Prefix;
  for (const Action &A : T) {
    Resumed.append(A); // Rejected events doom the session; keep streaming.
    Prefix.push_back(A);

    LinCheckResult FromResumed = Resumed.verdict();
    LinCheckResult Batch = checkLinearizable(Prefix, Fx.Type);
    ASSERT_EQ(FromResumed.Outcome, Batch.Outcome)
        << Fx.Type.name() << ": resumable session disagrees with batch at "
        << "prefix " << Prefix.size() << ":\n"
        << formatTrace(Prefix);
  }
}

void runLinFuzz(const LinFixture &Fx, std::uint64_t FamilyTag) {
  unsigned N = traceBudget(220);
  for (unsigned I = 0; I != N; ++I) {
    std::uint64_t TraceSeed =
        hashCombine(hashCombine(baseSeed(), FamilyTag), I);
    SCOPED_TRACE(seedNote(TraceSeed, I));
    Rng R(TraceSeed);
    fuzzLinTrace(Fx, drawLinTrace(Fx, I, R));
    if (::testing::Test::HasFatalFailure())
      return;
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Plain linearizability: all five ADTs, every prefix, every family.
//===----------------------------------------------------------------------===//

TEST(TraceFuzzTest, LinFuzz_Consensus) {
  ConsensusAdt Cons;
  runLinFuzz({Cons,
              {cons::propose(1), cons::propose(2), cons::propose(3)},
              {cons::decide(1), cons::decide(2), cons::decide(3)}},
             0x11);
}

TEST(TraceFuzzTest, LinFuzz_Queue) {
  QueueAdt Q;
  runLinFuzz({Q,
              {queue::enq(1), queue::enq(2), queue::deq()},
              {Output{1}, Output{2}, Output{NoValue}}},
             0x12);
}

TEST(TraceFuzzTest, LinFuzz_Register) {
  RegisterAdt Reg;
  runLinFuzz({Reg,
              {reg::read(), reg::write(1), reg::write(2)},
              {Output{1}, Output{2}, Output{NoValue}}},
             0x13);
}

TEST(TraceFuzzTest, LinFuzz_KvStore) {
  KvStoreAdt Kv;
  runLinFuzz({Kv,
              {kv::put(1, 10), kv::put(1, 20), kv::get(1), kv::del(1)},
              {Output{10}, Output{20}, Output{NoValue}}},
             0x14);
}

TEST(TraceFuzzTest, LinFuzz_Universal) {
  UniversalAdt Uni;
  runLinFuzz({Uni,
              {Input{1, 0, 1, 0}, Input{2, 0, 2, 0}, Input{3, 0, 3, 0}},
              {Output{0}, Output{1}}},
             0x15);
}

//===----------------------------------------------------------------------===//
// Windowed monitoring past the 64-obligation ceiling: obligation
// retirement on >64-obligation streamed traces. Up to the window (first 64
// responses) the windowed session must agree with batch exactly; past it —
// where batch checking is structurally impossible — soundness is checked
// directly: every Yes witness (retired prefix ++ live chain) must
// replay-validate against the full trace, a non-doomed session must never
// answer No once obligations were retired (only the stable WindowRetired /
// overflow Unknowns), linearizable-by-construction streams must stay
// definitively Yes at every prefix, and the live window high-water must
// stay bounded.
//===----------------------------------------------------------------------===//

namespace {

/// A linearizable trace of \p Ops operations arranged in fully-quiescing
/// rounds of 1..MaxConc concurrent operations: every round boundary is a
/// quiescence cut, so the windowed session can keep retiring forever.
/// Outputs come from applying the inputs in invocation order. MaxConc = 1
/// for ADTs whose in-round ordering ambiguity can outlive the window
/// (queue enqueue order is observed arbitrarily much later) — a pinned
/// retired prefix would then degrade definitive Yes into the WindowRetired
/// Unknown, which is sound but not what the clean family asserts.
Trace quiescingTrace(const LinFixture &Fx, unsigned Ops, unsigned MaxConc,
                     Rng &R) {
  std::unique_ptr<AdtState> S = Fx.Type.makeState();
  Trace T;
  for (unsigned I = 0; I < Ops;) {
    unsigned RoundOps = 1 + static_cast<unsigned>(R.next() % MaxConc);
    RoundOps = std::min(RoundOps, Ops - I);
    std::vector<Input> Ins;
    for (unsigned C = 0; C != RoundOps; ++C) {
      Ins.push_back(Fx.Alphabet[R.next() % Fx.Alphabet.size()]);
      T.push_back(makeInvoke(C, 1, Ins.back()));
    }
    for (unsigned C = 0; C != RoundOps; ++C)
      T.push_back(makeRespond(C, 1, Ins[C], S->apply(Ins[C])));
    I += RoundOps;
  }
  return T;
}

/// Streams \p T through a windowed session, checking the windowed-vs-batch
/// contract at every prefix. \p ExpectDefinitiveYes asserts the
/// linearizable-by-construction property (no Unknown ever).
void fuzzWindowedLinTrace(const LinFixture &Fx, const Trace &T,
                          bool ExpectDefinitiveYes,
                          SessionStats *Stats = nullptr) {
  IncrementalLinSession Inc(Fx.Type);
  Trace Prefix;
  std::size_t NumResponses = 0;
  for (const Action &A : T) {
    Inc.append(A);
    Prefix.push_back(A);
    if (isRespond(A))
      ++NumResponses;
    LinCheckResult R = Inc.verdict();
    if (NumResponses <= 64 && Inc.retiredObligations() == 0) {
      // Up to the window: bit-identical verdicts to batch checking.
      LinCheckResult Batch = checkLinearizable(Prefix, Fx.Type);
      ASSERT_EQ(R.Outcome, Batch.Outcome)
          << Fx.Type.name() << ": windowed session disagrees with batch at "
          << "prefix " << Prefix.size() << ":\n"
          << formatTrace(Prefix);
    }
    // Past the window, soundness is checked directly, not differentially.
    if (R.Outcome == Verdict::Yes) {
      WellFormedness V = verifyLinWitness(Prefix, Fx.Type, R.Witness);
      ASSERT_TRUE(bool(V))
          << Fx.Type.name() << ": Yes witness failed replay validation at "
          << "prefix " << Prefix.size() << " (" << V.Reason
          << "); retired=" << Inc.retiredObligations() << ":\n"
          << formatTrace(Prefix);
    } else if (R.Outcome == Verdict::No) {
      ASSERT_TRUE(Inc.doomed() || Inc.retiredObligations() == 0)
          << Fx.Type.name() << ": unsound No past retirement at prefix "
          << Prefix.size() << ":\n"
          << formatTrace(Prefix);
    } else {
      ASSERT_TRUE(R.Reason == WindowRetiredReason ||
                  R.Reason == WindowOverflowReason ||
                  R.Reason == WindowBoundedReason || R.BudgetLimited)
          << "unexpected Unknown reason: " << R.Reason;
      if (R.Grade == VerdictGrade::BoundedYes) {
        // A graded Unknown claims the first-64 restriction linearizes:
        // batch checking the restriction (every action except the responds
        // past the 64th live obligation) must then never say No.
        ASSERT_EQ(R.Reason, WindowBoundedReason);
        ASSERT_GT(R.Interference, 0u);
      }
    }
    if (ExpectDefinitiveYes) {
      ASSERT_EQ(R.Outcome, Verdict::Yes)
          << Fx.Type.name() << ": lost the definitive verdict at prefix "
          << Prefix.size() << " (reason: " << R.Reason
          << ", retired=" << Inc.retiredObligations()
          << ", window=" << Inc.liveWindow() << ")";
    }
    ASSERT_LE(Inc.liveWindow(), 64u);
  }
  if (Stats)
    Stats->accumulate(Inc.stats());
  if (ExpectDefinitiveYes) {
    ASSERT_GT(Inc.retiredObligations(), 0u)
        << Fx.Type.name()
        << ": a >64-obligation definitive run must have retired";
    ASSERT_LE(Inc.stats().LiveWindowHighWater, 64u);
    ASSERT_EQ(Inc.stats().WindowOverflows, 0u);
  }
}

void runWindowedLinFuzz(const LinFixture &Fx, std::uint64_t FamilyTag,
                        unsigned MaxConc) {
  // Long traces are ~20x the cost of the short-family ones; derive the
  // budget from the shared knob at that ratio so SLIN_FUZZ_TRACES scales
  // this family *down* in sanitizer CI like the others.
  unsigned N = std::max(4u, traceBudget(220) / 18);
  for (unsigned I = 0; I != N; ++I) {
    std::uint64_t TraceSeed =
        hashCombine(hashCombine(baseSeed(), FamilyTag), I);
    SCOPED_TRACE(seedNote(TraceSeed, I));
    Rng R(TraceSeed);
    unsigned Ops = 70 + static_cast<unsigned>(R.next() % 40); // > 64 always.
    Trace T = quiescingTrace(Fx, Ops, MaxConc, R);
    switch (I % 3) {
    case 0:
      // Clean: stays definitively Yes past the ceiling.
      fuzzWindowedLinTrace(Fx, T, /*ExpectDefinitiveYes=*/true);
      break;
    case 1: {
      // Corrupted in the suffix (duplicate response — ill-formed): the
      // doom path must still conclude No past retirement, never hide
      // behind a WindowRetired Unknown ("batch on the retired-prefix-free
      // suffix says No").
      std::size_t From = T.size() * 3 / 4;
      for (std::size_t J = From; J != T.size(); ++J)
        if (isRespond(T[J])) {
          T.insert(T.begin() + static_cast<std::ptrdiff_t>(J) + 1, T[J]);
          break;
        }
      fuzzWindowedLinTrace(Fx, T, /*ExpectDefinitiveYes=*/false);
      break;
    }
    default: {
      // Mutated output deep in the suffix (well-formed but wrong): the
      // session may answer No only before anything retired; afterwards
      // the WindowRetired Unknown is the sound degradation.
      for (std::size_t J = T.size(); J-- > T.size() * 3 / 4;)
        if (isRespond(T[J])) {
          T[J].Out = Output{T[J].Out.Val == NoValue ? 1 : T[J].Out.Val + 1};
          break;
        }
      fuzzWindowedLinTrace(Fx, T, /*ExpectDefinitiveYes=*/false);
      break;
    }
    }
    if (::testing::Test::HasFatalFailure())
      return;
  }
}

} // namespace

TEST(TraceFuzzTest, WindowedLinFuzz_Register) {
  RegisterAdt Reg;
  runWindowedLinFuzz({Reg,
                      {reg::read(), reg::write(1), reg::write(2)},
                      {Output{1}, Output{2}, Output{NoValue}}},
                     0x41, /*MaxConc=*/4);
}

TEST(TraceFuzzTest, WindowedLinFuzz_KvStore) {
  KvStoreAdt Kv;
  runWindowedLinFuzz({Kv,
                      {kv::put(1, 10), kv::put(1, 20), kv::get(1), kv::del(1)},
                      {Output{10}, Output{20}, Output{NoValue}}},
                     0x42, /*MaxConc=*/4);
}

TEST(TraceFuzzTest, WindowedLinFuzz_Queue) {
  QueueAdt Q;
  // Sequential stream: concurrent enqueue order is observed arbitrarily
  // far in the future, which a pinned retired prefix cannot stay
  // definitive about.
  runWindowedLinFuzz({Q,
                      {queue::enq(1), queue::enq(2), queue::deq()},
                      {Output{1}, Output{2}, Output{NoValue}}},
                     0x43, /*MaxConc=*/1);
}

TEST(TraceFuzzTest, WindowedLinFuzz_Consensus) {
  ConsensusAdt Cons;
  runWindowedLinFuzz({Cons,
                      {cons::propose(1), cons::propose(2), cons::propose(3)},
                      {cons::decide(1), cons::decide(2), cons::decide(3)}},
                     0x44, /*MaxConc=*/4);
}

TEST(TraceFuzzTest, WindowedLinFuzz_Universal) {
  UniversalAdt Uni;
  runWindowedLinFuzz({Uni,
                      {Input{1, 0, 1, 0}, Input{2, 0, 2, 0}},
                      {Output{0}, Output{1}}},
                     0x45, /*MaxConc=*/1);
}

//===----------------------------------------------------------------------===//
// Fast step vs engine: the in-session one-new-obligation fast step must be
// observationally identical to the engine's resumed run it replaces. The
// fast step declines witness requests, so streaming every trace through a
// witness-free session (fast step on) and a witness-carrying one (every
// resumed verdict enters the engine) locks the two together: verdicts,
// reasons, node counts and budget flags must match at every prefix, on
// short mixed traces and on >64-obligation retiring streams alike — and the
// witness-free side must actually take the fast path, or the differential
// is vacuous.
//===----------------------------------------------------------------------===//

namespace {

/// Per-prefix fast-step-vs-engine differential for one lin trace.
void fuzzFastStepTrace(IncrementalLinSession &Fast,
                       IncrementalLinSession &Engine, const Trace &T) {
  LinCheckOptions Free;
  Free.WantWitness = false;
  std::size_t Prefix = 0;
  for (const Action &A : T) {
    Fast.append(A);
    Engine.append(A);
    ++Prefix;
    LinCheckResult F = Fast.verdict(Free);
    LinCheckResult E = Engine.verdict();
    ASSERT_EQ(F.Outcome, E.Outcome)
        << Fast.adt().name() << ": fast-step verdict diverged from the "
        << "engine at prefix " << Prefix << ":\n"
        << formatTrace(T);
    ASSERT_EQ(F.NodesExplored, E.NodesExplored)
        << Fast.adt().name() << ": fast-step node count diverged at prefix "
        << Prefix << " (outcome " << int(F.Outcome) << "):\n"
        << formatTrace(T);
    ASSERT_EQ(F.Reason, E.Reason);
    // Every run behind a retired prefix adopts its boundary state.
    ASSERT_NE(E.Reason, RetiredSeedUnavailableReason)
        << "retired seed refused at prefix " << Prefix;
    ASSERT_EQ(F.BudgetLimited, E.BudgetLimited);
  }
  ASSERT_EQ(Engine.stats().FastPathVerdicts, 0u)
      << "a witness request must keep every verdict on the engine path";
}

void runFastStepFuzz(const LinFixture &Fx, std::uint64_t FamilyTag,
                     unsigned MaxConc) {
  // Short mixed families (linearizable / mutated / arbitrary / corrupted).
  unsigned N = traceBudget(160);
  std::uint64_t FastSteps = 0;
  for (unsigned I = 0; I != N; ++I) {
    std::uint64_t TraceSeed =
        hashCombine(hashCombine(baseSeed(), FamilyTag), I);
    SCOPED_TRACE(seedNote(TraceSeed, I));
    Rng R(TraceSeed);
    IncrementalLinSession Fast(Fx.Type), Engine(Fx.Type);
    fuzzFastStepTrace(Fast, Engine, drawLinTrace(Fx, I, R));
    if (::testing::Test::HasFatalFailure())
      return;
    FastSteps += Fast.stats().FastPathVerdicts;
  }
  EXPECT_GT(FastSteps, 0u)
      << Fx.Type.name() << ": short family never took the fast path";
  // Retiring streams: >64 obligations exercise fold/retire under the fast
  // step.
  unsigned Long = std::max(2u, traceBudget(160) / 40);
  for (unsigned I = 0; I != Long; ++I) {
    std::uint64_t TraceSeed =
        hashCombine(hashCombine(baseSeed(), FamilyTag ^ 0x100), I);
    SCOPED_TRACE(seedNote(TraceSeed, I));
    Rng R(TraceSeed);
    unsigned Ops = 70 + static_cast<unsigned>(R.next() % 30);
    IncrementalLinSession Fast(Fx.Type), Engine(Fx.Type);
    fuzzFastStepTrace(Fast, Engine, quiescingTrace(Fx, Ops, MaxConc, R));
    if (::testing::Test::HasFatalFailure())
      return;
    EXPECT_GT(Fast.stats().FastPathVerdicts, 0u)
        << Fx.Type.name() << ": retiring stream never took the fast path";
    EXPECT_GT(Fast.retiredObligations(), 0u);
  }
}

} // namespace

TEST(TraceFuzzTest, FastStepDifferential_Register) {
  RegisterAdt Reg;
  runFastStepFuzz({Reg,
                   {reg::read(), reg::write(1), reg::write(2)},
                   {Output{1}, Output{2}, Output{NoValue}}},
                  0x61, /*MaxConc=*/4);
}

TEST(TraceFuzzTest, FastStepDifferential_Queue) {
  QueueAdt Q;
  runFastStepFuzz({Q,
                   {queue::enq(1), queue::enq(2), queue::deq()},
                   {Output{1}, Output{2}, Output{NoValue}}},
                  0x62, /*MaxConc=*/1);
}

TEST(TraceFuzzTest, FastStepDifferential_KvStore) {
  KvStoreAdt Kv;
  runFastStepFuzz({Kv,
                   {kv::put(1, 10), kv::put(1, 20), kv::get(1), kv::del(1)},
                   {Output{10}, Output{20}, Output{NoValue}}},
                  0x63, /*MaxConc=*/4);
}

TEST(TraceFuzzTest, FastStepDifferential_Consensus) {
  ConsensusAdt Cons;
  runFastStepFuzz({Cons,
                   {cons::propose(1), cons::propose(2), cons::propose(3)},
                   {cons::decide(1), cons::decide(2), cons::decide(3)}},
                  0x64, /*MaxConc=*/4);
}

TEST(TraceFuzzTest, FastStepDifferential_Universal) {
  UniversalAdt Uni;
  runFastStepFuzz({Uni,
                   {Input{1, 0, 1, 0}, Input{2, 0, 2, 0}},
                   {Output{0}, Output{1}}},
                  0x65, /*MaxConc=*/1);
}

TEST(TraceFuzzTest, WindowedLinFuzz_ShuffledRounds) {
  // Register rounds of four with the responses shuffled (the
  // reorder-slin-256 shape): a response that lands before an
  // earlier-linearized one misses the frontier, and the verdict resumes at
  // the chain's last quiescent cut before it searches from the root. One
  // write per round stays definitively Yes past the window; with two, the
  // write order a retired round pinned can be the wrong one for a later
  // read, so only soundness is asserted. The fast-step differential runs on
  // the same streams, and the corpus must exercise the cut rung.
  RegisterAdt Reg;
  const LinFixture Fx{Reg,
                      {reg::read(), reg::write(1), reg::write(2),
                       reg::write(3)},
                      {Output{1}, Output{2}, Output{3}, Output{NoValue}}};
  SessionStats Stats;
  unsigned N = std::max(4u, traceBudget(220) / 18);
  for (unsigned I = 0; I != N; ++I) {
    std::uint64_t TraceSeed = hashCombine(hashCombine(baseSeed(), 0x46), I);
    SCOPED_TRACE(seedNote(TraceSeed, I));
    Rng R(TraceSeed);
    const unsigned Writes = 1 + I % 2;
    const unsigned Rounds = 17 + static_cast<unsigned>(R.next() % 10);
    Trace T = genShuffledRegisterRounds(Rounds, 4, Writes, R);
    fuzzWindowedLinTrace(Fx, T, /*ExpectDefinitiveYes=*/Writes == 1, &Stats);
    if (::testing::Test::HasFatalFailure())
      return;
    IncrementalLinSession Fast(Reg), Engine(Reg);
    fuzzFastStepTrace(Fast, Engine, T);
    if (::testing::Test::HasFatalFailure())
      return;
    Stats.accumulate(Fast.stats());
  }
  EXPECT_GT(Stats.CutResumes, 0u) << "no miss resumed at the cut";
}

//===----------------------------------------------------------------------===//
// Lin is the family of one: on init-free, abort-free, valid-input
// single-phase traces the slin session over the universal relation (one
// empty interpretation, no init overlay, no aborts) and the lin session run
// the same core over one chain, so every prefix must agree on the outcome,
// the nodes spent, and the fast steps taken. Reason strings differ by
// design ("no linearization" vs "no speculative linearization").
//===----------------------------------------------------------------------===//

namespace {

void expectFamilyOfOne(IncrementalLinSession &Lin,
                       IncrementalSlinSession &Slin, const Trace &T,
                       bool WantWitness) {
  LinCheckOptions LO;
  LO.WantWitness = WantWitness;
  SlinCheckOptions SO;
  SO.WantWitness = WantWitness;
  std::size_t Prefix = 0;
  for (const Action &A : T) {
    Lin.append(A);
    Slin.append(A);
    ++Prefix;
    LinCheckResult L = Lin.verdict(LO);
    SlinVerdict S = Slin.verdict(SO);
    ASSERT_EQ(L.Outcome, S.Outcome)
        << Lin.adt().name() << ": lin and its one-member slin family "
        << "disagree at prefix " << Prefix << " (WantWitness="
        << WantWitness << "):\n"
        << formatTrace(T);
    ASSERT_EQ(L.NodesExplored, S.NodesExplored)
        << Lin.adt().name() << ": node counts diverged at prefix " << Prefix
        << " (outcome " << int(L.Outcome) << ", WantWitness=" << WantWitness
        << "):\n"
        << formatTrace(T);
    ASSERT_EQ(Lin.stats().FastPathVerdicts, Slin.stats().FastPathVerdicts)
        << Lin.adt().name() << ": fast steps diverged at prefix " << Prefix;
    ASSERT_NE(L.Reason, RetiredSeedUnavailableReason) << "prefix " << Prefix;
    ASSERT_NE(S.Reason, RetiredSeedUnavailableReason) << "prefix " << Prefix;
  }
}

void runFamilyOfOne(const LinFixture &Fx, std::uint64_t FamilyTag) {
  PhaseSignature Sig(1, 2);
  UniversalInitRelation Rel;
  unsigned N = traceBudget(160);
  for (unsigned I = 0; I != N; ++I) {
    if (I % 4 == 3)
      continue; // The corrupted draws are ill-formed, not in the family.
    std::uint64_t TraceSeed =
        hashCombine(hashCombine(baseSeed(), FamilyTag), I);
    SCOPED_TRACE(seedNote(TraceSeed, I));
    Rng R(TraceSeed);
    Trace T = drawLinTrace(Fx, I, R);
    for (bool WantWitness : {false, true}) {
      IncrementalLinSession Lin(Fx.Type);
      IncrementalSlinSession Slin(Fx.Type, Sig, Rel);
      expectFamilyOfOne(Lin, Slin, T, WantWitness);
      if (::testing::Test::HasFatalFailure())
        return;
    }
  }
}

} // namespace

TEST(TraceFuzzTest, FamilyOfOne_Consensus) {
  ConsensusAdt Cons;
  runFamilyOfOne({Cons,
                  {cons::propose(1), cons::propose(2), cons::propose(3)},
                  {cons::decide(1), cons::decide(2), cons::decide(3)}},
                 0x81);
}

TEST(TraceFuzzTest, FamilyOfOne_Queue) {
  QueueAdt Q;
  runFamilyOfOne({Q,
                  {queue::enq(1), queue::enq(2), queue::deq()},
                  {Output{1}, Output{2}, Output{NoValue}}},
                 0x82);
}

TEST(TraceFuzzTest, FamilyOfOne_Register) {
  RegisterAdt Reg;
  runFamilyOfOne({Reg,
                  {reg::read(), reg::write(1), reg::write(2)},
                  {Output{1}, Output{2}, Output{NoValue}}},
                 0x83);
}

TEST(TraceFuzzTest, FamilyOfOne_KvStore) {
  KvStoreAdt Kv;
  runFamilyOfOne({Kv,
                  {kv::put(1, 10), kv::put(1, 20), kv::get(1), kv::del(1)},
                  {Output{10}, Output{20}, Output{NoValue}}},
                 0x84);
}

TEST(TraceFuzzTest, FamilyOfOne_Universal) {
  UniversalAdt Uni;
  runFamilyOfOne({Uni,
                  {Input{1, 0, 1, 0}, Input{2, 0, 2, 0}, Input{3, 0, 3, 0}},
                  {Output{0}, Output{1}}},
                 0x85);
}

TEST(TraceFuzzTest, FamilyOfOne_RetiringRegisterStream) {
  // Past the 64-obligation window: both sessions must retire through the
  // same folds and keep taking the same fast steps.
  RegisterAdt Reg;
  LinFixture Fx{Reg,
                {reg::read(), reg::write(1), reg::write(2)},
                {Output{1}, Output{2}, Output{NoValue}}};
  PhaseSignature Sig(1, 2);
  UniversalInitRelation Rel;
  Rng R(hashCombine(baseSeed(), 0x86));
  Trace T = quiescingTrace(Fx, 200, /*MaxConc=*/4, R);
  for (bool WantWitness : {false, true}) {
    IncrementalLinSession Lin(Reg);
    IncrementalSlinSession Slin(Reg, Sig, Rel);
    expectFamilyOfOne(Lin, Slin, T, WantWitness);
    if (::testing::Test::HasFatalFailure())
      return;
    EXPECT_GT(Lin.retiredObligations(), 0u);
    EXPECT_EQ(Lin.retiredObligations(), Slin.retiredObligations());
    if (!WantWitness) {
      EXPECT_GT(Lin.stats().FastPathVerdicts, 0u);
    }
  }
}

//===----------------------------------------------------------------------===//
// Verdict cadence: an outcome-only session (no trace view, no retired
// witness — the service's shard configuration) may skip verdicts. On
// retiring register streams (4 clients, one write per round, responses in
// order or shuffled within the round), a session asked every k appends must
// answer each cadence point exactly as a session asked after every append,
// a clean stream must never go Unknown, and retirement must keep up (at
// least 90% of the operations retire).
//===----------------------------------------------------------------------===//

namespace {

/// \p Rounds rounds of 4 concurrent operations — client r % 4 writes r + 1,
/// the others read — with outputs from the invocation order and responses
/// shuffled within the round when \p Shuffle is set.
Trace cadenceStream(unsigned Rounds, bool Shuffle, Rng &R) {
  RegisterAdt Reg;
  std::unique_ptr<AdtState> S = Reg.makeState();
  Trace T;
  for (unsigned Round = 0; Round != Rounds; ++Round) {
    std::vector<Action> Responses;
    for (ClientId C = 0; C != 4; ++C) {
      Input In = C == Round % 4 ? reg::write(Round + 1) : reg::read();
      T.push_back(makeInvoke(C, 1, In));
      Responses.push_back(makeRespond(C, 1, In, S->apply(In)));
    }
    if (Shuffle)
      for (std::size_t I = Responses.size(); I > 1; --I)
        std::swap(Responses[I - 1], Responses[R.next() % I]);
    T.insert(T.end(), Responses.begin(), Responses.end());
  }
  return T;
}

/// Streams \p T through one session asked after every append and one per
/// cadence k = 1..8, comparing at every cadence point.
template <typename Session, typename Options>
void expectCadenceInvariant(
    const std::function<std::unique_ptr<Session>()> &Make, const Options &O,
    const Trace &T, unsigned Operations) {
  std::unique_ptr<Session> Every = Make();
  std::vector<std::unique_ptr<Session>> Cadenced;
  for (unsigned K = 1; K <= 8; ++K)
    Cadenced.push_back(Make());
  for (std::size_t I = 0; I != T.size(); ++I) {
    Every->append(T[I]);
    auto Reference = Every->verdict(O);
    ASSERT_NE(Reference.Outcome, Verdict::Unknown)
        << "clean stream went Unknown at event " << I << " ("
        << Reference.Reason << ")";
    for (unsigned K = 1; K <= 8; ++K) {
      Session &S = *Cadenced[K - 1];
      S.append(T[I]);
      if ((I + 1) % K != 0)
        continue;
      auto V = S.verdict(O);
      ASSERT_EQ(V.Outcome, Reference.Outcome)
          << "cadence " << K << " diverged at event " << I << " ("
          << V.Reason << ")";
      ASSERT_EQ(V.Grade, Reference.Grade) << "cadence " << K;
    }
  }
  for (unsigned K = 1; K <= 8; ++K)
    EXPECT_GE(Cadenced[K - 1]->retiredObligations() * 10, Operations * 9u)
        << "cadence " << K << " retired only "
        << Cadenced[K - 1]->retiredObligations() << " of " << Operations;
}

IncrementalOptions outcomeOnly() {
  IncrementalOptions Opts;
  Opts.RetainTrace = false;
  Opts.RetainRetiredWitness = false;
  return Opts;
}

} // namespace

TEST(TraceFuzzTest, VerdictCadence_OutcomeOnlyLin) {
  RegisterAdt Reg;
  LinCheckOptions O;
  O.WantWitness = false;
  for (bool Shuffle : {false, true}) {
    SCOPED_TRACE(Shuffle ? "shuffled responses" : "in-order responses");
    Rng R(hashCombine(baseSeed(), 0x91 + Shuffle));
    Trace T = cadenceStream(400, Shuffle, R);
    expectCadenceInvariant<IncrementalLinSession>(
        [&] { return std::make_unique<IncrementalLinSession>(Reg, outcomeOnly()); },
        O, T, 1600);
    if (::testing::Test::HasFatalFailure())
      return;
  }
}

TEST(TraceFuzzTest, VerdictCadence_OutcomeOnlySlin) {
  RegisterAdt Reg;
  PhaseSignature Sig(1, 2);
  UniversalInitRelation Rel;
  SlinCheckOptions O;
  O.WantWitness = false;
  O.Search.WantWitness = false;
  for (bool Shuffle : {false, true}) {
    SCOPED_TRACE(Shuffle ? "shuffled responses" : "in-order responses");
    Rng R(hashCombine(baseSeed(), 0x93 + Shuffle));
    Trace T = cadenceStream(400, Shuffle, R);
    expectCadenceInvariant<IncrementalSlinSession>(
        [&] {
          return std::make_unique<IncrementalSlinSession>(Reg, Sig, Rel,
                                                          outcomeOnly());
        },
        O, T, 1600);
    if (::testing::Test::HasFatalFailure())
      return;
  }
}

//===----------------------------------------------------------------------===//
// Speculative linearizability: both relations, both readings, injected
// aborts and recoveries.
//===----------------------------------------------------------------------===//

namespace {

/// Draws one randomized phase-trace walk: client count, walk length, and
/// abort pressure vary per seed; switch-ins after aborts are the recovery
/// events of the next phase's clients.
Trace drawSlinWalk(const PhaseSignature &Sig, UniversalInitRelation &WalkRel,
                   Rng &R) {
  SpecAutomaton A(Sig, 2 + static_cast<unsigned>(R.next() % 3)); // 2..4
  SpecAutomaton::WalkOptions W;
  W.Steps = 6 + static_cast<unsigned>(R.next() % 7); // 6..12
  W.Alphabet = {cons::propose(1), cons::propose(2)};
  W.InitChoices = {{cons::ghostPropose(1)},
                   {cons::ghostPropose(1), cons::ghostPropose(2)}};
  W.AbortProbability = (R.next() % 3) * 0.2; // 0, 0.2, 0.4
  W.SilentProbability = (R.next() % 2) * 0.1;
  return A.randomWalk(W, R, WalkRel);
}

void fuzzSlinTrace(const Adt &Type, const PhaseSignature &Sig,
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
        << "slin streamed-vs-batch mismatch at prefix " << Prefix.size()
        << " (atEnd=" << O.AbortValidityAtEnd << "):\n"
        << formatTrace(Prefix);
    ASSERT_EQ(Streamed.Exact, Batch.Exact);
  }
}

} // namespace

TEST(TraceFuzzTest, SlinFuzz_UniversalRelation) {
  ConsensusAdt Cons;
  unsigned N = traceBudget(260);
  for (unsigned I = 0; I != N; ++I) {
    std::uint64_t TraceSeed = hashCombine(hashCombine(baseSeed(), 0x21), I);
    SCOPED_TRACE(seedNote(TraceSeed, I));
    Rng R(TraceSeed);
    PhaseId M = 1 + (I % 2);
    PhaseSignature Sig(M, M + 1);
    UniversalInitRelation Rel;
    Trace T = drawSlinWalk(Sig, Rel, R);
    SlinCheckOptions O;
    O.AbortValidityAtEnd = (I / 2) % 2 == 1; // Both readings over the run.
    fuzzSlinTrace(Cons, Sig, Rel, T, O);
    if (::testing::Test::HasFatalFailure())
      return;
  }
}

TEST(TraceFuzzTest, SlinFuzz_ConsensusRelation) {
  // Walk traces re-targeted at the consensus relation by remapping switch
  // values into small proposals: mixed-verdict phase traces whose streamed
  // and batch checks must agree at every prefix under both readings.
  ConsensusAdt Cons;
  ConsensusInitRelation ConsRel;
  unsigned N = traceBudget(200);
  for (unsigned I = 0; I != N; ++I) {
    std::uint64_t TraceSeed = hashCombine(hashCombine(baseSeed(), 0x22), I);
    SCOPED_TRACE(seedNote(TraceSeed, I));
    Rng R(TraceSeed);
    PhaseId M = 1 + (I % 2);
    PhaseSignature Sig(M, M + 1);
    UniversalInitRelation WalkRel;
    Trace T = drawSlinWalk(Sig, WalkRel, R);
    for (Action &Act : T)
      if (isSwitch(Act))
        Act.Sv.Val = 1 + (Act.Sv.Val & 1);
    SlinCheckOptions O;
    O.AbortValidityAtEnd = I % 2 == 1;
    fuzzSlinTrace(Cons, Sig, ConsRel, T, O);
    if (::testing::Test::HasFatalFailure())
      return;
  }
}

TEST(TraceFuzzTest, WindowedSlinFuzz_SwitchFreeConsensus) {
  // The slin session past the 64-response ceiling: abort-free, switch-free
  // consensus phase streams (the composed whole-object monitoring shape —
  // a single stable interpretation) must agree with batch checkSlin while
  // the whole history fits the window and stay definitively Yes past it,
  // retiring continuously under both Definition 28 readings.
  ConsensusAdt Cons;
  PhaseSignature Sig(1, 2);
  ConsensusInitRelation Rel;
  unsigned N = std::max(2u, traceBudget(220) / 55);
  for (unsigned I = 0; I != N; ++I) {
    std::uint64_t TraceSeed = hashCombine(hashCombine(baseSeed(), 0x51), I);
    SCOPED_TRACE(seedNote(TraceSeed, I));
    Rng R(TraceSeed);
    std::unique_ptr<AdtState> S = Cons.makeState();
    IncrementalSlinSession Inc(Cons, Sig, Rel);
    SlinCheckOptions O;
    O.AbortValidityAtEnd = I % 2 == 1;
    Trace Prefix;
    unsigned Ops = 70 + static_cast<unsigned>(R.next() % 30);
    for (unsigned K = 0; K != Ops; ++K) {
      Input In = cons::propose(1 + static_cast<std::int64_t>(R.next() % 3));
      Output Out = S->apply(In);
      ClientId C = K % 3;
      for (const Action &A :
           {makeInvoke(C, 1, In), makeRespond(C, 1, In, Out)}) {
        Inc.append(A);
        Prefix.push_back(A);
        SlinVerdict V = Inc.verdict(O);
        if (Inc.retiredObligations() == 0 && K < 64) {
          SlinVerdict Batch = checkSlin(Prefix, Sig, Cons, Rel, O);
          ASSERT_EQ(V.Outcome, Batch.Outcome)
              << "windowed slin disagrees with batch at prefix "
              << Prefix.size();
        }
        ASSERT_EQ(V.Outcome, Verdict::Yes)
            << "slin lost the definitive verdict at prefix " << Prefix.size()
            << " (reason: " << V.Reason
            << ", retired=" << Inc.retiredObligations() << ")";
        ASSERT_LE(Inc.liveWindow(), 64u);
      }
      if (::testing::Test::HasFatalFailure())
        return;
    }
    ASSERT_GT(Inc.retiredObligations(), 0u);
    ASSERT_EQ(Inc.stats().WindowOverflows, 0u);
  }
}

TEST(TraceFuzzTest, WindowedSlinFuzz_StragglerOverflowDrain) {
  // More than 64 completions overlap one straggling invocation, pinning
  // the quiescent cut at index 0 (nothing ever retires while it is open).
  // Pinned verdicts must be the graded BoundedYes — whose claim ("the
  // first 64 live obligations linearize under every interpretation") is
  // checked against batch checkSlin on the restricted prefix — and once
  // the straggler completes, the overflow drain must retire the backlog
  // and agree with batch checkSlin on the full trace, with the excursion
  // counted exactly once.
  ConsensusAdt Cons;
  PhaseSignature Sig(1, 2);
  ConsensusInitRelation Rel;
  unsigned N = std::max(2u, traceBudget(220) / 55);
  for (unsigned I = 0; I != N; ++I) {
    std::uint64_t TraceSeed = hashCombine(hashCombine(baseSeed(), 0x5E9), I);
    SCOPED_TRACE(seedNote(TraceSeed, I));
    Rng R(TraceSeed);
    std::unique_ptr<AdtState> S = Cons.makeState();
    IncrementalOptions SessOpts;
    SessOpts.InterferenceBound = 32;
    IncrementalSlinSession Inc(Cons, Sig, Rel, SessOpts);
    SlinCheckOptions O;
    O.AbortValidityAtEnd = I % 2 == 1;
    Trace Prefix;
    // The straggler invokes first and stays open; it linearizes last.
    Input Pin = cons::propose(7);
    Action PinInvoke = makeInvoke(9, 1, Pin);
    Inc.append(PinInvoke);
    Prefix.push_back(PinInvoke);
    unsigned Ops = 66 + static_cast<unsigned>(R.next() % 20);
    bool SawBounded = false;
    for (unsigned K = 0; K != Ops; ++K) {
      Input In = cons::propose(1 + static_cast<std::int64_t>(R.next() % 3));
      Output Out = S->apply(In);
      ClientId C = K % 3;
      for (const Action &A :
           {makeInvoke(C, 1, In), makeRespond(C, 1, In, Out)}) {
        Inc.append(A);
        Prefix.push_back(A);
      }
      SlinVerdict V = Inc.verdict(O);
      if (Inc.liveWindow() <= 64) {
        ASSERT_EQ(V.Outcome, Verdict::Yes)
            << "pre-overflow verdict lost at op " << K << " (reason: "
            << V.Reason << ")";
      } else {
        ASSERT_EQ(V.Outcome, Verdict::Unknown) << "op " << K;
        ASSERT_EQ(V.Grade, VerdictGrade::BoundedYes)
            << "pinned verdict not graded at op " << K << " (reason: "
            << V.Reason << ")";
        ASSERT_EQ(V.Reason, WindowBoundedReason);
        ASSERT_EQ(V.Interference, Inc.liveWindow() - 64);
        SawBounded = true;
      }
      if (::testing::Test::HasFatalFailure())
        return;
    }
    ASSERT_TRUE(SawBounded);
    ASSERT_EQ(Inc.stats().WindowOverflows, 1u);
    ASSERT_GE(Inc.stats().BoundedYesVerdicts, 1u);
    // BoundedYes soundness: the restriction the grade vouches for — the
    // trace cut after its 64th completion (a prefix, so well-formed; the
    // engine never linearizes open invocations, so its sub-Yes implies
    // this prefix's completions linearize) — must not be a batch No.
    Trace Restricted;
    std::size_t Completions = 0;
    for (const Action &A : Prefix) {
      Restricted.push_back(A);
      if (isRespond(A) && ++Completions == 64)
        break;
    }
    SlinVerdict RestrictedBatch = checkSlin(Restricted, Sig, Cons, Rel, O);
    ASSERT_NE(RestrictedBatch.Outcome, Verdict::No)
        << "BoundedYes contradicted batch on the restricted prefix:\n"
        << formatTrace(Restricted);
    // The straggler completes; the drain retires the backlog. Batch
    // checkSlin refuses > 64 responses outright, so past the window
    // soundness is checked directly (like the windowed lin family): the
    // stream is linearizable by construction — outputs come from one
    // sequential model in program order — so the drained verdict must be
    // definitively Yes, not a degraded Unknown.
    Output PinOut = S->apply(Pin);
    Action PinRespond = makeRespond(9, 1, Pin, PinOut);
    Inc.append(PinRespond);
    Prefix.push_back(PinRespond);
    SlinVerdict Drained = Inc.verdict(O);
    ASSERT_EQ(Drained.Outcome, Verdict::Yes)
        << "drain failed to recover the definitive verdict (reason: "
        << Drained.Reason << "):\n"
        << formatTrace(Prefix);
    ASSERT_EQ(Drained.Grade, VerdictGrade::Yes);
    ASSERT_GT(Inc.retiredObligations(), 0u);
    ASSERT_LE(Inc.liveWindow(), 64u);
    ASSERT_EQ(Inc.stats().WindowOverflows, 1u)
        << "a single excursion must be counted once";
    // And the steady state continues definitively after the excursion.
    for (unsigned K = 0; K != 4; ++K) {
      Input In = cons::propose(2);
      Output Out = S->apply(In);
      ClientId C = K % 3;
      for (const Action &A :
           {makeInvoke(C, 1, In), makeRespond(C, 1, In, Out)}) {
        Inc.append(A);
        Prefix.push_back(A);
      }
      SlinVerdict V = Inc.verdict(O);
      ASSERT_EQ(V.Outcome, Verdict::Yes)
          << "steady state lost the definitive verdict after the drain at "
          << "op " << K << " (reason: " << V.Reason << ")";
    }
  }
}

//===----------------------------------------------------------------------===//
// Slin fast step vs engine: the family-wide fast step (shared SoA window
// plus per-interpretation init overlays) against the engine, as for lin,
// across both relations and both Definition 28 readings — verdicts,
// exactness, reasons, grades, node counts at every prefix. Mixed mode also
// asks the fast session for witnesses every eighth verdict, which drives
// the deferred witness refresh: a witness-carrying absorption after fast
// steps must rebuild exactly the witnesses the engine session carried all
// along. Since both sessions read their witnesses from retained chains,
// every Yes witness of the engine-path session is also re-checked by the
// independent verifySlinWitness (Definitions 20-32 from first principles).
// Long abort-free streams additionally pin that the slin fast step
// actually fires.
//===----------------------------------------------------------------------===//

namespace {

/// How the fast session of the slin differential asks for witnesses.
enum class WitnessMode { Never, Mixed };

void fuzzSlinFastStepTrace(IncrementalSlinSession &Fast,
                           IncrementalSlinSession &Engine, const Trace &T,
                           const PhaseSignature &Sig, const InitRelation &Rel,
                           SlinCheckOptions O, WitnessMode Mode,
                           bool CompareBatch = false) {
  SlinCheckOptions WithWitness = O;
  WithWitness.WantWitness = true;
  std::size_t Prefix = 0;
  std::size_t Responses = 0;
  for (const Action &A : T) {
    Fast.append(A);
    Engine.append(A);
    ++Prefix;
    Responses += isRespond(A);
    O.WantWitness = Mode == WitnessMode::Mixed && Prefix % 8 == 0;
    SlinVerdict S = Fast.verdict(O);
    SlinVerdict R = Engine.verdict(WithWitness);
    ASSERT_EQ(S.Outcome, R.Outcome)
        << "slin fast-step verdict diverged from the engine at prefix "
        << Prefix << " (atEnd=" << O.AbortValidityAtEnd
        << ", wantWitness=" << O.WantWitness << "):\n"
        << formatTrace(T);
    ASSERT_EQ(S.Exact, R.Exact)
        << "slin exactness diverged at prefix " << Prefix;
    ASSERT_EQ(S.NodesExplored, R.NodesExplored)
        << "slin fast-step node count diverged at prefix " << Prefix
        << " (outcome " << int(S.Outcome) << "):\n"
        << formatTrace(T);
    ASSERT_EQ(S.Reason, R.Reason)
        << "slin reason diverged at prefix " << Prefix;
    ASSERT_NE(R.Reason, RetiredSeedUnavailableReason)
        << "slin retired seed refused at prefix " << Prefix;
    ASSERT_EQ(S.Grade, R.Grade)
        << "slin verdict grade diverged at prefix " << Prefix;
    ASSERT_EQ(S.Interference, R.Interference)
        << "slin bounded-interference count diverged at prefix " << Prefix;
    ASSERT_EQ(S.BudgetLimited, R.BudgetLimited);
    if (CompareBatch && Responses <= 64 && Engine.retiredObligations() == 0) {
      // Up to the window: the batch checker's verdict, prefix by prefix.
      Trace Head(T.begin(), T.begin() + static_cast<std::ptrdiff_t>(Prefix));
      SlinVerdict B = checkSlin(Head, Sig, Engine.adt(), Rel, O);
      ASSERT_EQ(R.Outcome, B.Outcome)
          << "slin session diverged from batch at prefix " << Prefix
          << ":\n"
          << formatTrace(Head);
    }
    if (R.Outcome == Verdict::Yes)
      for (const auto &[Finit, W] : R.Witnesses) {
        WellFormedness Ok = verifySlinWitness(Engine.trace(), Sig,
                                              Engine.adt(), Rel, Finit, W,
                                              O.AbortValidityAtEnd);
        ASSERT_TRUE(Ok.Ok) << "engine-path witness rejected at prefix "
                           << Prefix << " (atEnd=" << O.AbortValidityAtEnd
                           << "): " << Ok.Reason << "\n"
                           << formatTrace(T);
      }
    if (!O.WantWitness)
      continue;
    ASSERT_EQ(S.Witnesses.size(), R.Witnesses.size())
        << "witness count diverged at prefix " << Prefix;
    for (std::size_t W = 0; W != S.Witnesses.size(); ++W) {
      ASSERT_EQ(S.Witnesses[W].first, R.Witnesses[W].first)
          << "interpretation assignment diverged at prefix " << Prefix;
      ASSERT_EQ(S.Witnesses[W].second.Master, R.Witnesses[W].second.Master)
          << "witness master diverged at prefix " << Prefix << ":\n"
          << formatTrace(T);
      ASSERT_EQ(S.Witnesses[W].second.Commits,
                R.Witnesses[W].second.Commits)
          << "witness commit map diverged at prefix " << Prefix;
      ASSERT_EQ(S.Witnesses[W].second.Aborts, R.Witnesses[W].second.Aborts)
          << "witness abort assignment diverged at prefix " << Prefix;
    }
  }
  ASSERT_EQ(Engine.stats().FastPathVerdicts, 0u)
      << "a witness request must keep every verdict on the engine path";
}

} // namespace

TEST(TraceFuzzTest, SlinFastStepDifferential_UniversalRelation) {
  ConsensusAdt Cons;
  unsigned N = traceBudget(200);
  for (unsigned I = 0; I != N; ++I) {
    std::uint64_t TraceSeed = hashCombine(hashCombine(baseSeed(), 0x71), I);
    SCOPED_TRACE(seedNote(TraceSeed, I));
    Rng R(TraceSeed);
    PhaseId M = 1 + (I % 2);
    PhaseSignature Sig(M, M + 1);
    UniversalInitRelation Rel;
    Trace T = drawSlinWalk(Sig, Rel, R);
    SlinCheckOptions O;
    O.AbortValidityAtEnd = (I / 2) % 2 == 1; // Both readings over the run.
    IncrementalSlinSession Fast(Cons, Sig, Rel), Engine(Cons, Sig, Rel);
    fuzzSlinFastStepTrace(Fast, Engine, T, Sig, Rel, O,
                          static_cast<WitnessMode>(I % 2));
    if (::testing::Test::HasFatalFailure())
      return;
  }
}

TEST(TraceFuzzTest, SlinFastStepDifferential_ConsensusRelation) {
  // Walk traces re-targeted at the consensus relation (switch values
  // remapped into small proposals), as in SlinFuzz_ConsensusRelation:
  // mixed-verdict phase traces with aborts and recoveries.
  ConsensusAdt Cons;
  ConsensusInitRelation ConsRel;
  unsigned N = traceBudget(160);
  for (unsigned I = 0; I != N; ++I) {
    std::uint64_t TraceSeed = hashCombine(hashCombine(baseSeed(), 0x72), I);
    SCOPED_TRACE(seedNote(TraceSeed, I));
    Rng R(TraceSeed);
    PhaseId M = 1 + (I % 2);
    PhaseSignature Sig(M, M + 1);
    UniversalInitRelation WalkRel;
    Trace T = drawSlinWalk(Sig, WalkRel, R);
    for (Action &Act : T)
      if (isSwitch(Act))
        Act.Sv.Val = 1 + (Act.Sv.Val & 1);
    SlinCheckOptions O;
    O.AbortValidityAtEnd = I % 2 == 1;
    IncrementalSlinSession Fast(Cons, Sig, ConsRel),
        Engine(Cons, Sig, ConsRel);
    fuzzSlinFastStepTrace(Fast, Engine, T, Sig, ConsRel, O,
                          static_cast<WitnessMode>((I / 2) % 2));
    if (::testing::Test::HasFatalFailure())
      return;
  }
}

TEST(TraceFuzzTest, SlinFastStepDifferential_SteadyStreams) {
  // Long abort-free switch-free consensus streams past the retirement
  // threshold: the singleton-interpretation steady state. The differential
  // must hold through continuous retirement, and the fast session must
  // serve witness-free steady verdicts from the fast step.
  ConsensusAdt Cons;
  PhaseSignature Sig(1, 2);
  ConsensusInitRelation Rel;
  unsigned N = std::max(2u, traceBudget(200) / 50);
  for (unsigned I = 0; I != N; ++I) {
    std::uint64_t TraceSeed = hashCombine(hashCombine(baseSeed(), 0x73), I);
    SCOPED_TRACE(seedNote(TraceSeed, I));
    Rng R(TraceSeed);
    std::unique_ptr<AdtState> S = Cons.makeState();
    Trace T;
    unsigned Ops = 70 + static_cast<unsigned>(R.next() % 30);
    for (unsigned K = 0; K != Ops; ++K) {
      Input In = cons::propose(1 + static_cast<std::int64_t>(R.next() % 3));
      Output Out = S->apply(In);
      ClientId C = K % 3;
      T.push_back(makeInvoke(C, 1, In));
      T.push_back(makeRespond(C, 1, In, Out));
    }
    SlinCheckOptions O;
    O.AbortValidityAtEnd = I % 2 == 1;
    IncrementalSlinSession Fast(Cons, Sig, Rel), Engine(Cons, Sig, Rel);
    fuzzSlinFastStepTrace(Fast, Engine, T, Sig, Rel, O,
                          I % 2 ? WitnessMode::Mixed : WitnessMode::Never);
    if (::testing::Test::HasFatalFailure())
      return;
    EXPECT_GT(Fast.stats().FastPathVerdicts, 0u)
        << "witness-free abort-free slin stream never took the fast step";
    EXPECT_GT(Fast.retiredObligations(), 0u);
  }
}

TEST(TraceFuzzTest, SlinFastStepDifferential_ShuffledRounds) {
  // The reorder-slin-256 shard: register rounds of four over the universal
  // relation with the responses shuffled, past the retirement threshold.
  // Misses resume at the chain's last quiescent cut; every prefix up to the
  // window must match the batch checker, every engine-path Yes witness must
  // pass verifySlinWitness, and the corpus must exercise the cut rung. Two
  // writes per round may pin a wrong write order once retired (the
  // WindowRetired Unknown), which both sessions must then agree on.
  RegisterAdt Reg;
  PhaseSignature Sig(1, 2);
  UniversalInitRelation Rel;
  SessionStats Stats;
  unsigned N = std::max(4u, traceBudget(200) / 25);
  for (unsigned I = 0; I != N; ++I) {
    std::uint64_t TraceSeed = hashCombine(hashCombine(baseSeed(), 0x75), I);
    SCOPED_TRACE(seedNote(TraceSeed, I));
    Rng R(TraceSeed);
    const unsigned Writes = 1 + I % 2;
    const unsigned Rounds = 17 + static_cast<unsigned>(R.next() % 10);
    Trace T = genShuffledRegisterRounds(Rounds, 4, Writes, R);
    SlinCheckOptions O;
    O.AbortValidityAtEnd = (I / 2) % 2 == 1;
    IncrementalSlinSession Fast(Reg, Sig, Rel), Engine(Reg, Sig, Rel);
    fuzzSlinFastStepTrace(Fast, Engine, T, Sig, Rel, O,
                          I % 4 < 2 ? WitnessMode::Never : WitnessMode::Mixed,
                          /*CompareBatch=*/true);
    if (::testing::Test::HasFatalFailure())
      return;
    EXPECT_GT(Engine.retiredObligations(), 0u);
    Stats.accumulate(Fast.stats());
    Stats.accumulate(Engine.stats());
  }
  EXPECT_GT(Stats.CutResumes, 0u) << "no miss resumed at the cut";
}

TEST(TraceFuzzTest, SlinFastStepDifferential_InitFamilySteadyStreams) {
  // The multi-interpretation steady state: a non-first phase opened by an
  // init switch, so the consensus relation's family has three members
  // (canonical + two fresh-extended) and every fast step sweeps three
  // retained chains. The fast step must fire across the whole family.
  ConsensusAdt Cons;
  PhaseSignature Sig(2, 3);
  ConsensusInitRelation Rel;
  unsigned N = std::max(2u, traceBudget(200) / 50);
  for (unsigned I = 0; I != N; ++I) {
    std::uint64_t TraceSeed = hashCombine(hashCombine(baseSeed(), 0x74), I);
    SCOPED_TRACE(seedNote(TraceSeed, I));
    Rng R(TraceSeed);
    // One client takes over phase 2 with switch value v: its ghost history
    // starts with p(v), and every later proposal decides v.
    std::int64_t V = 1 + static_cast<std::int64_t>(R.next() % 2);
    std::unique_ptr<AdtState> S = Cons.makeState();
    (void)S->apply(cons::propose(V));
    Trace T;
    T.push_back(makeSwitch(0, 2, cons::propose(V), SwitchValue{V}));
    T.push_back(makeRespond(0, 2, cons::propose(V), S->apply(cons::propose(V))));
    unsigned Ops = 60 + static_cast<unsigned>(R.next() % 30);
    for (unsigned K = 0; K != Ops; ++K) {
      // Proposal values stay <= the switch value: a larger value would
      // raise the relation's fresh-value bound, recompute the family, and
      // re-key the retained chains — correct, but not the steady state
      // this family exists to pin.
      Input In = cons::propose(
          1 + static_cast<std::int64_t>(R.next() % static_cast<unsigned>(V)));
      Output Out = S->apply(In);
      T.push_back(makeInvoke(0, 2, In));
      T.push_back(makeRespond(0, 2, In, Out));
    }
    SlinCheckOptions O;
    O.AbortValidityAtEnd = I % 2 == 1;
    IncrementalSlinSession Fast(Cons, Sig, Rel), Engine(Cons, Sig, Rel);
    fuzzSlinFastStepTrace(Fast, Engine, T, Sig, Rel, O,
                          I % 2 ? WitnessMode::Mixed : WitnessMode::Never);
    if (::testing::Test::HasFatalFailure())
      return;
    EXPECT_GT(Fast.stats().FastPathVerdicts, 0u)
        << "init-family slin stream never took the fast step";
    // The window retires only once a response finds it full, so a stream
    // retires iff its obligations (one per response: the takeover plus
    // 60-89 proposals) exceed the 64-slot window.
    std::size_t Obligations = static_cast<std::size_t>(
        std::count_if(T.begin(), T.end(), isRespond));
    EXPECT_EQ(Fast.retiredObligations() > 0,
              Obligations > IncrementalWindowLimit)
        << Obligations << " obligations, " << Fast.retiredObligations()
        << " retired";
  }
}

//===----------------------------------------------------------------------===//
// Retained replay state: bit-equivalence with a fresh seed replay under
// arbitrary append / verdict / reset interleavings.
//===----------------------------------------------------------------------===//

namespace {

std::vector<std::int64_t> canonical(const AdtState &S) {
  std::vector<std::int64_t> Out;
  // Clone first: serialization must not depend on the live session state.
  S.clone()->serializeCanonical(Out);
  return Out;
}

/// Replays \p H into a fresh state of \p Type and serializes it.
std::vector<std::int64_t> replayCanonical(const Adt &Type, const History &H) {
  std::unique_ptr<AdtState> S = Type.makeState();
  for (const Input &In : H)
    S->apply(In);
  std::vector<std::int64_t> Out;
  S->serializeCanonical(Out);
  return Out;
}

void expectFrontierMatchesReplay(const Adt &Type,
                                 const IncrementalLinSession &Inc) {
  const FrontierState &F = Inc.frontierState();
  if (!F.Valid)
    return;
  History H = Inc.frontierHistory();
  ASSERT_EQ(F.Len, H.size())
      << "retained frontier length diverged from the retained master";
  ASSERT_NE(F.State, nullptr);
  ASSERT_EQ(canonical(*F.State), replayCanonical(Type, H))
      << "retained AdtState is not bit-equivalent to a fresh replay of the "
      << "retained master (" << H.size() << " inputs)";
}

} // namespace

TEST(TraceFuzzTest, RetainedReplayStateMatchesFreshReplay) {
  // Drive random interleavings of append / verdict / reset against every
  // ADT; after every verdict the cached frontier state (when present) must
  // be bit-equivalent to a fresh seed replay of the retained master.
  ConsensusAdt Cons;
  QueueAdt Q;
  RegisterAdt Reg;
  KvStoreAdt Kv;
  UniversalAdt Uni;
  const LinFixture Fixtures[] = {
      {Cons,
       {cons::propose(1), cons::propose(2), cons::propose(3)},
       {cons::decide(1), cons::decide(2), cons::decide(3)}},
      {Q,
       {queue::enq(1), queue::enq(2), queue::deq()},
       {Output{1}, Output{2}, Output{NoValue}}},
      {Reg,
       {reg::read(), reg::write(1), reg::write(2)},
       {Output{1}, Output{2}, Output{NoValue}}},
      {Kv,
       {kv::put(1, 10), kv::put(2, 20), kv::get(1), kv::del(2)},
       {Output{10}, Output{20}, Output{NoValue}}},
      {Uni,
       {Input{1, 0, 1, 0}, Input{2, 0, 2, 0}},
       {Output{0}, Output{1}}},
  };

  unsigned Rounds = traceBudget(60);
  for (const LinFixture &Fx : Fixtures) {
    for (unsigned I = 0; I != Rounds; ++I) {
      std::uint64_t TraceSeed =
          hashCombine(hashCombine(baseSeed(), 0x31),
                      hashCombine(hashValue(Fx.Alphabet.front()), I));
      SCOPED_TRACE(seedNote(TraceSeed, I));
      Rng R(TraceSeed);
      GenOptions G;
      G.NumClients = 3;
      G.NumOps = 10;
      G.PendingFraction = 0;
      G.Alphabet = Fx.Alphabet;
      G.Outputs = Fx.Outputs;
      Trace Feed = genLinearizableTrace(Fx.Type, G, R);

      IncrementalLinSession Inc(Fx.Type);
      std::size_t Next = 0;
      for (unsigned Step = 0; Step != 48; ++Step) {
        switch (R.next() % 7) {
        case 0:
        case 1:
        case 2:
        case 3: // Append the next event (refill from a fresh trace at end).
          if (Next == Feed.size()) {
            Feed = genLinearizableTrace(Fx.Type, G, R);
            Inc.reset();
            Next = 0;
          }
          Inc.append(Feed[Next++]);
          break;
        case 4:
        case 5: // Verdict; afterwards the frontier must match a replay.
          Inc.verdict();
          expectFrontierMatchesReplay(Fx.Type, Inc);
          break;
        default:
          Inc.reset();
          Next = 0;
          Feed = genLinearizableTrace(Fx.Type, G, R);
          EXPECT_FALSE(Inc.frontierState().Valid)
              << "reset must invalidate the retained replay state";
          break;
        }
        if (::testing::Test::HasFatalFailure())
          return;
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Relation monotonicity: TsoHb is a sub-relation of Strict (it drops
// cross-client order at unflushed responses and adds nothing), so every
// Strict witness is a TsoHb witness. Weakening the relation can only move
// verdicts toward Yes:
//
//   Yes under Strict  =>  Yes under TsoHb
//   No  under TsoHb   =>  No  under Strict
//
// The oracle runs the full seeded family — all five ADTs, linearizable /
// mutated / arbitrary / corrupted draws, random flushed-bit densities —
// per prefix, batch and incremental, lin and slin. It needs no ground
// truth: any inversion is a mask-derivation bug in one of the relations.
//===----------------------------------------------------------------------===//

namespace {

/// Scatters flushed bits over the responses: density rotates through
/// all-unflushed (maximal weakening), mixed, and all-flushed (where TsoHb
/// must coincide with Strict exactly).
void scatterFlushedBits(Trace &T, unsigned Index, Rng &R) {
  unsigned Density = Index % 3; // 0: none, 1: coin-flip, 2: all.
  for (Action &A : T)
    if (isRespond(A) && (Density == 2 || (Density == 1 && R.next() % 2)))
      A.Meta = ActionMetaFlushed;
}

/// The two-relation differential for one lin trace: batch monotonicity at
/// every prefix, each incremental session agreeing with the batch check
/// under its own relation, and exact verdict/node equality when every
/// response is flushed.
void fuzzLinMonotonicity(const LinFixture &Fx, const Trace &T,
                         bool AllFlushed) {
  LinCheckOptions StrictO;
  LinCheckOptions TsoO;
  TsoO.Order = OrderRelationKind::TsoHb;
  IncrementalOptions TsoInc;
  TsoInc.Order = OrderRelationKind::TsoHb;
  IncrementalLinSession StrictSession(Fx.Type);
  IncrementalLinSession TsoSession(Fx.Type, TsoInc);

  Trace Prefix;
  for (const Action &A : T) {
    StrictSession.append(A);
    TsoSession.append(A);
    Prefix.push_back(A);

    LinCheckResult S = checkLinearizable(Prefix, Fx.Type, StrictO);
    LinCheckResult W = checkLinearizable(Prefix, Fx.Type, TsoO);
    if (S.Outcome == Verdict::Yes) {
      ASSERT_EQ(W.Outcome, Verdict::Yes)
          << Fx.Type.name() << ": weakening the order lost a Yes at prefix "
          << Prefix.size() << ":\n"
          << formatTrace(Prefix);
    }
    if (W.Outcome == Verdict::No) {
      ASSERT_EQ(S.Outcome, Verdict::No)
          << Fx.Type.name() << ": a TsoHb No must be a Strict No at prefix "
          << Prefix.size() << ":\n"
          << formatTrace(Prefix);
    }
    if (AllFlushed) {
      // Every response flushed: the relations' masks coincide slot for
      // slot, so verdicts AND node counts must be identical.
      ASSERT_EQ(S.Outcome, W.Outcome) << formatTrace(Prefix);
      ASSERT_EQ(S.NodesExplored, W.NodesExplored) << formatTrace(Prefix);
    }

    ASSERT_EQ(StrictSession.verdict().Outcome, S.Outcome)
        << Fx.Type.name() << ": strict session diverged from strict batch "
        << "at prefix " << Prefix.size() << ":\n"
        << formatTrace(Prefix);
    ASSERT_EQ(TsoSession.verdict().Outcome, W.Outcome)
        << Fx.Type.name() << ": tso session diverged from tso batch at "
        << "prefix " << Prefix.size() << ":\n"
        << formatTrace(Prefix);
  }
}

void runLinMonotonicityFuzz(const LinFixture &Fx, std::uint64_t FamilyTag) {
  unsigned N = traceBudget(120);
  for (unsigned I = 0; I != N; ++I) {
    std::uint64_t TraceSeed =
        hashCombine(hashCombine(baseSeed(), FamilyTag), I);
    SCOPED_TRACE(seedNote(TraceSeed, I));
    Rng R(TraceSeed);
    Trace T = drawLinTrace(Fx, I, R);
    scatterFlushedBits(T, I, R);
    fuzzLinMonotonicity(Fx, T, /*AllFlushed=*/I % 3 == 2);
    if (::testing::Test::HasFatalFailure())
      return;
  }
}

} // namespace

TEST(TraceFuzzTest, OrderMonotonicity_Consensus) {
  ConsensusAdt Cons;
  runLinMonotonicityFuzz({Cons,
                          {cons::propose(1), cons::propose(2),
                           cons::propose(3)},
                          {cons::decide(1), cons::decide(2),
                           cons::decide(3)}},
                         0x71);
}

TEST(TraceFuzzTest, OrderMonotonicity_Queue) {
  QueueAdt Q;
  runLinMonotonicityFuzz({Q,
                          {queue::enq(1), queue::enq(2), queue::deq()},
                          {Output{1}, Output{2}, Output{NoValue}}},
                         0x72);
}

TEST(TraceFuzzTest, OrderMonotonicity_Register) {
  RegisterAdt Reg;
  runLinMonotonicityFuzz({Reg,
                          {reg::read(), reg::write(1), reg::write(2)},
                          {Output{1}, Output{2}, Output{NoValue}}},
                         0x73);
}

TEST(TraceFuzzTest, OrderMonotonicity_KvStore) {
  KvStoreAdt Kv;
  runLinMonotonicityFuzz({Kv,
                          {kv::put(1, 10), kv::put(1, 20), kv::get(1),
                           kv::del(1)},
                          {Output{10}, Output{20}, Output{NoValue}}},
                         0x74);
}

TEST(TraceFuzzTest, OrderMonotonicity_Universal) {
  UniversalAdt Uni;
  runLinMonotonicityFuzz({Uni,
                          {Input{1, 0, 1, 0}, Input{2, 0, 2, 0},
                           Input{3, 0, 3, 0}},
                          {Output{0}, Output{1}}},
                         0x75);
}

TEST(TraceFuzzTest, OrderMonotonicity_Slin) {
  // The same oracle through the speculative checker: phase walks with
  // aborts and recoveries, flushed bits scattered over the responses,
  // batch (Search.Order) against the incremental sessions (Options.Order)
  // under both relations.
  ConsensusAdt Cons;
  unsigned N = traceBudget(100);
  for (unsigned I = 0; I != N; ++I) {
    std::uint64_t TraceSeed = hashCombine(hashCombine(baseSeed(), 0x76), I);
    SCOPED_TRACE(seedNote(TraceSeed, I));
    Rng R(TraceSeed);
    PhaseId M = 1 + (I % 2);
    PhaseSignature Sig(M, M + 1);
    UniversalInitRelation Rel;
    Trace T = drawSlinWalk(Sig, Rel, R);
    scatterFlushedBits(T, I, R);

    SlinCheckOptions StrictO;
    SlinCheckOptions TsoO;
    TsoO.Search.Order = OrderRelationKind::TsoHb;
    IncrementalOptions TsoIncO;
    TsoIncO.Order = OrderRelationKind::TsoHb;
    IncrementalSlinSession StrictSession(Cons, Sig, Rel);
    IncrementalSlinSession TsoSession(Cons, Sig, Rel, TsoIncO);

    Trace Prefix;
    for (const Action &A : T) {
      StrictSession.append(A);
      TsoSession.append(A);
      Prefix.push_back(A);

      SlinVerdict S = checkSlin(Prefix, Sig, Cons, Rel, StrictO);
      SlinVerdict W = checkSlin(Prefix, Sig, Cons, Rel, TsoO);
      if (S.Outcome == Verdict::Yes) {
        ASSERT_EQ(W.Outcome, Verdict::Yes)
            << "slin: weakening the order lost a Yes at prefix "
            << Prefix.size() << ":\n"
            << formatTrace(Prefix);
      }
      if (W.Outcome == Verdict::No) {
        ASSERT_EQ(S.Outcome, Verdict::No)
            << "slin: a TsoHb No must be a Strict No at prefix "
            << Prefix.size() << ":\n"
            << formatTrace(Prefix);
      }

      ASSERT_EQ(StrictSession.verdict(StrictO).Outcome, S.Outcome)
          << "slin strict session diverged from batch at prefix "
          << Prefix.size() << ":\n"
          << formatTrace(Prefix);
      ASSERT_EQ(TsoSession.verdict(TsoO).Outcome, W.Outcome)
          << "slin tso session diverged from batch at prefix "
          << Prefix.size() << ":\n"
          << formatTrace(Prefix);
    }
    if (::testing::Test::HasFatalFailure())
      return;
  }
}

//===----------------------------------------------------------------------===//
// Alignment differential: every retained chain keeps its aligned-prefix
// mask (RetainedChain::Aligned) current as its rows and the window change —
// set by the fast step, recomputed past the seed point by a searched Yes,
// shifted by a fold, cleared by the drain. At every verdict, at cadences
// 1-3, each chain's mask must equal the from-scratch rescan of its rows
// (misalignedChains), over the reorder-slin-256 shape, shuffled rounds with
// 2-3 writes, slin walks with init actions (a chain may hold only the init
// LCP seed and no rows) and a straggler excursion that drains.
//===----------------------------------------------------------------------===//

namespace {

/// Streams \p T through \p S, asking for a verdict after every \p Cadence-th
/// event and after the last, and checks every retained chain's mask after
/// every append (a full window folds there) and every verdict.
template <typename Session, typename Options>
void expectAlignedAtEveryVerdict(Session &S, const Options &O, const Trace &T,
                                 unsigned Cadence) {
  for (std::size_t I = 0; I != T.size(); ++I) {
    S.append(T[I]);
    ASSERT_EQ(S.misalignedChains(), 0u)
        << "an aligned-prefix mask drifted from its chain's rows at append "
        << I << " (cadence " << Cadence << "):\n"
        << formatTrace(T);
    if ((I + 1) % Cadence != 0 && I + 1 != T.size())
      continue;
    S.verdict(O);
    ASSERT_EQ(S.misalignedChains(), 0u)
        << "an aligned-prefix mask drifted from its chain's rows at the "
        << "verdict after event " << I << " (cadence " << Cadence << "):\n"
        << formatTrace(T);
  }
}

/// Slin verdict options; only witness-free verdicts may take the fast step,
/// so cadence 3 asks for witnesses and the others do not.
SlinCheckOptions alignmentOptions(unsigned Cadence) {
  SlinCheckOptions O;
  O.WantWitness = Cadence == 3;
  O.Search.WantWitness = O.WantWitness;
  return O;
}

/// Lin and slin (universal relation) sessions over one stream at cadences
/// 1-3; their stats accumulate into \p Stats.
void expectAlignedLinAndSlin(const Adt &Type, const Trace &T,
                             SessionStats &Stats) {
  PhaseSignature Sig(1, 2);
  UniversalInitRelation Rel;
  for (unsigned Cadence = 1; Cadence <= 3; ++Cadence) {
    IncrementalLinSession Lin(Type);
    expectAlignedAtEveryVerdict(Lin, alignmentOptions(Cadence).Search, T,
                                Cadence);
    if (::testing::Test::HasFatalFailure())
      return;
    IncrementalSlinSession Slin(Type, Sig, Rel);
    expectAlignedAtEveryVerdict(Slin, alignmentOptions(Cadence), T, Cadence);
    if (::testing::Test::HasFatalFailure())
      return;
    Stats.accumulate(Lin.stats());
    Stats.accumulate(Slin.stats());
  }
}

} // namespace

TEST(TraceFuzzTest, AlignmentDifferential_ReorderSlin) {
  // The e8 ReorderSlin shape: one write per round of four, responses
  // shuffled, past the window, so misses resume at the cut and folds shift
  // every mask.
  RegisterAdt Reg;
  SessionStats Stats;
  unsigned N = std::max(2u, traceBudget(200) / 5);
  for (unsigned I = 0; I != N; ++I) {
    std::uint64_t TraceSeed = hashCombine(hashCombine(baseSeed(), 0xA1), I);
    SCOPED_TRACE(seedNote(TraceSeed, I));
    Rng R(TraceSeed);
    const unsigned Rounds = 20 + static_cast<unsigned>(R.next() % 20);
    expectAlignedLinAndSlin(Reg, genShuffledRegisterRounds(Rounds, 4, 1, R),
                            Stats);
    if (::testing::Test::HasFatalFailure())
      return;
  }
  EXPECT_GT(Stats.CutResumes, 0u) << "no miss resumed at the cut";
  EXPECT_GT(Stats.RetiredObligations, 0u) << "no fold shifted a mask";
  EXPECT_GT(Stats.FastPathVerdicts, 0u) << "no fast step set a bit";
}

TEST(TraceFuzzTest, AlignmentDifferential_MultiWriteRounds) {
  // Two or three writes per round of four: the write order a retired round
  // pinned can be wrong for a later read, so verdicts may degrade to the
  // WindowRetired Unknown; the masks must hold all the same.
  RegisterAdt Reg;
  SessionStats Stats;
  unsigned N = std::max(2u, traceBudget(200) / 5);
  for (unsigned I = 0; I != N; ++I) {
    std::uint64_t TraceSeed = hashCombine(hashCombine(baseSeed(), 0xA2), I);
    SCOPED_TRACE(seedNote(TraceSeed, I));
    Rng R(TraceSeed);
    const unsigned Rounds = 18 + static_cast<unsigned>(R.next() % 12);
    expectAlignedLinAndSlin(
        Reg, genShuffledRegisterRounds(Rounds, 4, 2 + I % 2, R), Stats);
    if (::testing::Test::HasFatalFailure())
      return;
  }
  EXPECT_GT(Stats.CutResumes, 0u) << "no miss resumed at the cut";
  EXPECT_GT(Stats.RetiredObligations, 0u) << "no fold shifted a mask";
}

TEST(TraceFuzzTest, AlignmentDifferential_InitWalks) {
  // Slin walks with init actions, aborts and recoveries, and a takeover
  // stream asked for its verdict right after the init switch: its chain
  // then holds only the init LCP seed and no rows, which counts as aligned
  // at its end.
  ConsensusAdt Cons;
  unsigned N = std::max(4u, traceBudget(200) / 2);
  std::size_t SeedOnlyChains = 0;
  for (unsigned I = 0; I != N; ++I) {
    std::uint64_t TraceSeed = hashCombine(hashCombine(baseSeed(), 0xA3), I);
    SCOPED_TRACE(seedNote(TraceSeed, I));
    Rng R(TraceSeed);
    const PhaseId M = 1 + (I % 2);
    PhaseSignature Sig(M, M + 1);
    UniversalInitRelation WalkRel;
    const Trace Walk = drawSlinWalk(Sig, WalkRel, R);
    ConsensusInitRelation Rel;
    // The takeover: client 0 switches into phase 2 with value V, then
    // proposes on past the window.
    const std::int64_t V = 1 + static_cast<std::int64_t>(R.next() % 2);
    std::unique_ptr<AdtState> S = Cons.makeState();
    (void)S->apply(cons::propose(V));
    Trace Takeover;
    Takeover.push_back(makeSwitch(0, 2, cons::propose(V), SwitchValue{V}));
    Takeover.push_back(
        makeRespond(0, 2, cons::propose(V), S->apply(cons::propose(V))));
    const unsigned Ops = 70 + static_cast<unsigned>(R.next() % 20);
    for (unsigned K = 0; K != Ops; ++K) {
      Input In = cons::propose(
          1 + static_cast<std::int64_t>(R.next() % static_cast<unsigned>(V)));
      Output Out = S->apply(In);
      Takeover.push_back(makeInvoke(0, 2, In));
      Takeover.push_back(makeRespond(0, 2, In, Out));
    }
    PhaseSignature TakeoverSig(2, 3);
    for (unsigned Cadence = 1; Cadence <= 3; ++Cadence) {
      SlinCheckOptions O = alignmentOptions(Cadence);
      O.AbortValidityAtEnd = (I / 2) % 2 == 1;
      IncrementalSlinSession Walked(Cons, Sig, WalkRel);
      expectAlignedAtEveryVerdict(Walked, O, Walk, Cadence);
      if (::testing::Test::HasFatalFailure())
        return;
      IncrementalSlinSession Took(Cons, TakeoverSig, Rel);
      Took.append(Takeover[0]);
      Took.verdict(O);
      SeedOnlyChains += Took.liveWindow() == 0 && Took.retainedFrontiers() > 0;
      expectAlignedAtEveryVerdict(
          Took, O, Trace(Takeover.begin() + 1, Takeover.end()), Cadence);
      if (::testing::Test::HasFatalFailure())
        return;
      EXPECT_GT(Took.retiredObligations(), 0u);
    }
  }
  EXPECT_GT(SeedOnlyChains, 0u) << "no chain held only the init LCP seed";
}

TEST(TraceFuzzTest, AlignmentDifferential_StragglerDrain) {
  // A straggler overlaps more than 64 completions, so the window overflows
  // and pins; once it completes the drain retires the backlog from capped
  // runs (clearing every chain's mask) and the stream carries on past the
  // window.
  ConsensusAdt Cons;
  PhaseSignature Sig(1, 2);
  ConsensusInitRelation Rel;
  unsigned N = std::max(2u, traceBudget(200) / 10);
  for (unsigned I = 0; I != N; ++I) {
    std::uint64_t TraceSeed = hashCombine(hashCombine(baseSeed(), 0xA4), I);
    SCOPED_TRACE(seedNote(TraceSeed, I));
    Rng R(TraceSeed);
    std::unique_ptr<AdtState> S = Cons.makeState();
    const Input Pin = cons::propose(7);
    Trace T = {makeInvoke(9, 1, Pin)};
    auto Operate = [&](unsigned Ops) {
      for (unsigned K = 0; K != Ops; ++K) {
        Input In = cons::propose(1 + static_cast<std::int64_t>(R.next() % 3));
        Output Out = S->apply(In);
        T.push_back(makeInvoke(K % 3, 1, In));
        T.push_back(makeRespond(K % 3, 1, In, Out));
      }
    };
    Operate(66 + static_cast<unsigned>(R.next() % 20));
    T.push_back(makeRespond(9, 1, Pin, S->apply(Pin)));
    Operate(40 + static_cast<unsigned>(R.next() % 20));
    for (unsigned Cadence = 1; Cadence <= 3; ++Cadence) {
      IncrementalOptions Opts;
      Opts.InterferenceBound = 32;
      IncrementalSlinSession Inc(Cons, Sig, Rel, Opts);
      expectAlignedAtEveryVerdict(Inc, alignmentOptions(Cadence), T, Cadence);
      if (::testing::Test::HasFatalFailure())
        return;
      EXPECT_EQ(Inc.stats().WindowOverflows, 1u);
      EXPECT_GT(Inc.retiredObligations(), 0u);
      EXPECT_LE(Inc.liveWindow(), 64u);
    }
  }
}
