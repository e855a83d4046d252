//===- tests/steady_alloc_test.cpp - Zero-alloc steady-state audit --------==//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//
//
// Locks the data-oriented hot path's allocation-free contract: a resumable
// outcome-only monitor (trace retention off, retired-witness retention
// off) in steady state — one complete operation per event batch, verdict
// after each — must touch the heap ZERO times per event. This binary
// interposes the global operator new (support/AllocGauge.h), so the
// assertion covers every code path in append()+verdict(), library
// internals included, not just the ones we remembered to audit. The
// session's scratch arena is audited alongside: its high-water and
// reserved bytes must be flat across the run (events reuse the warmed
// blocks; none grows them).
//
// The same run pins the fast path's bookkeeping: every steady verdict is
// Yes with exactly one node explored, served by the in-session fast path
// (FastPathVerdicts advances per verdict), with the window bounded by
// retirement the whole way.
//
// Under ASan the interposer is compiled out (the sanitizer owns operator
// new); AllocGauge::active() reports that and the heap assertions become
// vacuous there — the arena and bookkeeping assertions still run.
//
//===----------------------------------------------------------------------===//

#include "adt/Consensus.h"
#include "adt/Register.h"
#include "engine/Incremental.h"
#include "support/AllocGauge.h"
#include "trace/Gen.h"

#include <gtest/gtest.h>

#include <memory>

SLIN_DEFINE_ALLOC_GAUGE()

using namespace slin;

namespace {

/// A linearizable register history in fully-quiescing rounds of \p Conc
/// concurrent operations (every round boundary is a quiescence cut, so the
/// windowed session retires continuously) — the same steady-state shape
/// the E8 Long benchmark runs.
Trace quiescingRegisterHistory(unsigned Events, unsigned Conc,
                               std::uint64_t Seed) {
  RegisterAdt Reg;
  std::unique_ptr<AdtState> S = Reg.makeState();
  const Input Alphabet[] = {reg::read(), reg::write(1), reg::write(2),
                            reg::write(3)};
  Rng R(Seed);
  Trace T;
  unsigned Ops = Events / 2;
  for (unsigned I = 0; I < Ops; I += Conc) {
    unsigned RoundOps = std::min(Conc, Ops - I);
    std::vector<Input> Ins;
    for (unsigned C = 0; C != RoundOps; ++C) {
      Ins.push_back(Alphabet[R.next() % 4]);
      T.push_back(makeInvoke(C, 1, Ins.back()));
    }
    for (unsigned C = 0; C != RoundOps; ++C)
      T.push_back(makeRespond(C, 1, Ins[C], S->apply(Ins[C])));
  }
  return T;
}

} // namespace

TEST(SteadyAlloc, SteadyStateEventsAreAllocationFree) {
  RegisterAdt Reg;
  IncrementalOptions Opts;
  Opts.RetainTrace = false;          // Outcome-only: no O(n) trace view.
  Opts.RetainRetiredWitness = false; // Retired prefix as a pure counter.
  IncrementalLinSession Inc(Reg, Opts);
  LinCheckOptions Limits;
  Limits.WantWitness = false;

  // Prime: stream a quiescing history with a verdict per event, so
  // retirement always has a covering success frontier to fold.
  Trace T = quiescingRegisterHistory(1024, 4, 0x5A11);
  for (const Action &A : T) {
    ASSERT_TRUE(static_cast<bool>(Inc.append(A)));
    ASSERT_EQ(Inc.verdict(Limits).Outcome, Verdict::Yes);
  }

  // Replica of the linearization order the generator used; supplies the
  // outputs of the steady-state extension.
  std::unique_ptr<AdtState> Model = Reg.makeState();
  for (const Action &A : T)
    if (isInvoke(A))
      Model->apply(A.In);

  auto OneEvent = [&](std::uint64_t K) {
    Input In = K % 3 ? reg::write(static_cast<std::int64_t>(1 + K % 3))
                     : reg::read();
    Output Out = Model->apply(In);
    Inc.append(makeInvoke(62, 1, In));
    Inc.append(makeRespond(62, 1, In, Out));
    return Inc.verdict(Limits);
  };

  // Warm-up: a few hundred steady events settle every capacity (window
  // slots, success chain, frontier used-counts, arena blocks).
  for (std::uint64_t K = 0; K != 256; ++K)
    ASSERT_EQ(OneEvent(K).Outcome, Verdict::Yes);

  // Measured region: 1k steady events, zero heap allocations. Plain
  // counters inside the loop — gtest machinery stays outside it.
  const std::uint64_t Allocs0 = AllocGauge::count();
  const std::size_t High0 = Inc.scratchArena().highWaterBytes();
  const std::size_t Reserved0 = Inc.scratchArena().reservedBytes();
  const std::uint64_t Fast0 = Inc.stats().FastPathVerdicts;
  std::uint64_t NonYes = 0, Nodes = 0;
  constexpr std::uint64_t Events = 1000;
  for (std::uint64_t K = 256; K != 256 + Events; ++K) {
    LinCheckResult R = OneEvent(K);
    NonYes += R.Outcome != Verdict::Yes;
    Nodes += R.NodesExplored;
  }

  EXPECT_EQ(NonYes, 0u);
  EXPECT_EQ(Nodes, Events) << "steady-state verdicts must cost 1 node each";
  EXPECT_EQ(Inc.stats().FastPathVerdicts - Fast0, Events)
      << "every steady verdict must be served by the fast path";
  EXPECT_EQ(Inc.scratchArena().highWaterBytes(), High0)
      << "scratch arena grew during steady state";
  EXPECT_EQ(Inc.scratchArena().reservedBytes(), Reserved0)
      << "scratch arena reserved new blocks during steady state";
  EXPECT_LE(Inc.stats().LiveWindowHighWater, 64u);
  if (AllocGauge::active()) {
    EXPECT_EQ(AllocGauge::count() - Allocs0, 0u)
        << "steady-state events must not touch the heap";
  }
}

// The same contract for the slin session: an outcome-only speculative
// monitor on a switch-free consensus stream (the whole-object monitoring
// shape — a singleton interpretation family) must be heap-silent per steady
// event, with every verdict served by the slin family fast path over the
// shared SoA window and the window bounded by retirement throughout.
TEST(SteadyAlloc, SlinSteadyStateEventsAreAllocationFree) {
  ConsensusAdt Cons;
  PhaseSignature Sig(1, 2);
  ConsensusInitRelation Rel;
  IncrementalOptions Opts;
  Opts.RetainTrace = false;          // Outcome-only: no O(n) trace view.
  Opts.RetainRetiredWitness = false; // Retired prefixes as pure counters.
  IncrementalSlinSession Inc(Cons, Sig, Rel, Opts);
  SlinCheckOptions Limits;
  Limits.WantWitness = false;

  // Replica of the single-client linearization order; supplies the stream's
  // outputs. Single-client operation means every response is a quiescent
  // cut, so retirement runs continuously.
  std::unique_ptr<AdtState> Model = Cons.makeState();
  std::uint64_t K = 0;
  auto OneEvent = [&] {
    Input In = cons::propose(static_cast<std::int64_t>(1 + K % 3));
    ++K;
    Output Out = Model->apply(In);
    Inc.append(makeInvoke(0, 1, In));
    Inc.append(makeRespond(0, 1, In, Out));
    return Inc.verdict(Limits);
  };

  // Prime + warm-up: several hundred steady operations settle every
  // capacity (interner, window slots, frontier chain, arena blocks).
  for (std::uint64_t I = 0; I != 512; ++I)
    ASSERT_EQ(OneEvent().Outcome, Verdict::Yes);

  // Measured region: 1k steady operations, zero heap allocations. Plain
  // counters inside the loop — gtest machinery stays outside it.
  const std::uint64_t Allocs0 = AllocGauge::count();
  const std::size_t High0 = Inc.scratchArena().highWaterBytes();
  const std::size_t Reserved0 = Inc.scratchArena().reservedBytes();
  const std::uint64_t Fast0 = Inc.stats().FastPathVerdicts;
  std::uint64_t NonYes = 0, Nodes = 0;
  constexpr std::uint64_t Events = 1000;
  for (std::uint64_t I = 0; I != Events; ++I) {
    SlinVerdict R = OneEvent();
    NonYes += R.Outcome != Verdict::Yes;
    Nodes += R.NodesExplored;
  }

  EXPECT_EQ(NonYes, 0u);
  EXPECT_EQ(Nodes, Events)
      << "steady slin verdicts must cost 1 node each (singleton family)";
  EXPECT_EQ(Inc.stats().FastPathVerdicts - Fast0, Events)
      << "every steady slin verdict must be served by the fast path";
  EXPECT_EQ(Inc.scratchArena().highWaterBytes(), High0)
      << "scratch arena grew during slin steady state";
  EXPECT_EQ(Inc.scratchArena().reservedBytes(), Reserved0)
      << "scratch arena reserved new blocks during slin steady state";
  EXPECT_GT(Inc.retiredObligations(), 0u);
  EXPECT_LE(Inc.stats().LiveWindowHighWater, 64u);
  EXPECT_EQ(Inc.stats().WindowOverflows, 0u);
  if (AllocGauge::active()) {
    EXPECT_EQ(AllocGauge::count() - Allocs0, 0u)
        << "steady slin events must not touch the heap";
  }
}

namespace {

// memoryFootprintBytes is an *estimate* (container capacities, arena
// reservations) offered to capacity planners; these audits check it against
// the gauge-measured ground truth. A warmed outcome-only session's
// self-reported footprint must sit inside the net live-byte delta its
// construction and warm-up actually produced — never above it (the
// estimate must not invent bytes: real blocks carry allocator rounding on
// top of every capacity), and never below half of it (an estimate that
// loses the majority of the real footprint has stopped tracking a
// dominant structure and needs the audit to fail loudly).
void expectFootprintTracks(std::size_t Footprint, std::uint64_t LiveDelta) {
  EXPECT_LE(Footprint, LiveDelta)
      << "footprint estimate exceeds the measured live heap delta";
  EXPECT_GE(Footprint, LiveDelta / 2)
      << "footprint estimate lost the majority of the measured live heap "
      << "delta (" << LiveDelta << " bytes live, " << Footprint
      << " accounted)";
}

} // namespace

TEST(SteadyAlloc, MemoryFootprintTracksMeasuredLiveBytes) {
  if (!AllocGauge::active() || !AllocGauge::tracksBytes())
    GTEST_SKIP() << "byte metering unavailable (sanitizer or non-glibc)";
  RegisterAdt Reg;
  IncrementalOptions Opts;
  Opts.RetainTrace = false;
  Opts.RetainRetiredWitness = false;
  // The memo allocates nothing until its first insert (this all-fast-path
  // stream makes none); the small bound keeps any table a search might
  // grow from drowning the capacity-accounted containers the audit is
  // really about.
  Opts.TranspositionCapacity = 1u << 8;
  LinCheckOptions Limits;
  Limits.WantWitness = false;
  std::unique_ptr<AdtState> Model = Reg.makeState();

  const std::uint64_t Live0 = AllocGauge::liveBytes();
  auto Inc = std::make_unique<IncrementalLinSession>(Reg, Opts);
  for (std::uint64_t K = 0; K != 512; ++K) {
    Input In = K % 3 ? reg::write(static_cast<std::int64_t>(1 + K % 3))
                     : reg::read();
    Output Out = Model->apply(In);
    ASSERT_TRUE(static_cast<bool>(Inc->append(makeInvoke(K % 4, 1, In))));
    ASSERT_TRUE(
        static_cast<bool>(Inc->append(makeRespond(K % 4, 1, In, Out))));
    ASSERT_EQ(Inc->verdict(Limits).Outcome, Verdict::Yes);
  }
  expectFootprintTracks(Inc->memoryFootprintBytes(),
                        AllocGauge::liveBytes() - Live0);
}

// The same audit on a slin shard that searches: shuffled one-write register
// rounds (the reorder-slin-256 shape) miss the fast step a sixth of the
// time, so the memo, the retired boundaries and the chains' cut states are
// all live when the footprint is read.
TEST(SteadyAlloc, SlinSearchingFootprintTracksMeasuredLiveBytes) {
  if (!AllocGauge::active() || !AllocGauge::tracksBytes())
    GTEST_SKIP() << "byte metering unavailable (sanitizer or non-glibc)";
  RegisterAdt Reg;
  PhaseSignature Sig(1, 2);
  UniversalInitRelation Rel;
  IncrementalOptions Opts;
  Opts.RetainTrace = false;
  Opts.RetainRetiredWitness = false;
  Opts.TranspositionCapacity = 1u << 8;
  SlinCheckOptions Limits;
  Limits.WantWitness = false;
  Rng R(0x5A11);
  const Trace T = genShuffledRegisterRounds(128, 4, 1, R);

  const std::uint64_t Live0 = AllocGauge::liveBytes();
  auto Inc = std::make_unique<IncrementalSlinSession>(Reg, Sig, Rel, Opts);
  for (const Action &A : T) {
    ASSERT_TRUE(static_cast<bool>(Inc->append(A)));
    ASSERT_EQ(Inc->verdict(Limits).Outcome, Verdict::Yes);
  }
  expectFootprintTracks(Inc->memoryFootprintBytes(),
                        AllocGauge::liveBytes() - Live0);
  EXPECT_GT(Inc->stats().CutResumes, 0u);
  EXPECT_GT(Inc->retiredObligations(), 0u);
}

// The memo holds only the keys of the current epoch: every epoch move (a
// fold, a budget stop, a relaxation) forgets it. On 4,000 shuffled one-write
// slin rounds (32,000 verdicts, 249 epochs) a session's footprint at the end
// must stay within one doubling of the memo's first array (4 KiB) of what it
// was after 64 rounds — under the default memo bound as under the service's
// 4,096. A memo that kept the dead keys would fill the service's 4,096 slots
// and grow to MiB under the default bound.
TEST(SteadyAlloc, SlinFootprintStaysFlatOverALongStream) {
  RegisterAdt Reg;
  PhaseSignature Sig(1, 2);
  UniversalInitRelation Rel;
  SlinCheckOptions Limits;
  Limits.WantWitness = false;
  Rng R(7);
  const Trace T = genShuffledRegisterRounds(4000, 4, 1, R);
  for (std::size_t Cap : {IncrementalOptions().TranspositionCapacity,
                          std::size_t(1) << 12}) {
    SCOPED_TRACE(testing::Message() << "memo bound " << Cap);
    IncrementalOptions Opts;
    Opts.RetainTrace = false;
    Opts.RetainRetiredWitness = false;
    Opts.TranspositionCapacity = Cap;
    IncrementalSlinSession Inc(Reg, Sig, Rel, Opts);
    std::size_t Early = 0;
    for (std::size_t I = 0; I != T.size(); ++I) {
      ASSERT_TRUE(static_cast<bool>(Inc.append(T[I])));
      ASSERT_EQ(Inc.verdict(Limits).Outcome, Verdict::Yes) << "event " << I;
      if (I + 1 == 64 * 8) // 64 rounds of 4 operations.
        Early = Inc.memoryFootprintBytes();
    }
    ASSERT_GT(Early, 0u);
    EXPECT_LE(Inc.memoryFootprintBytes(), Early + 4096)
        << "the memo kept keys no search can match";
    EXPECT_GT(Inc.stats().Search.Nodes, T.size())
        << "the stream must search, not only take the fast step";
  }
}

// The miss path's heap contract: on shuffled one-write register rounds (the
// reorder-slin-256 shape) about a sixth of the verdicts miss the fast step
// and walk the verdict ladder. Once warm, a missed verdict may allocate
// little more than the cut point's snapshot of the cut state (its ADT clone
// and its used counts): the search's per-node buffers live in the scratch
// arena, and every seed point's run writes the chain's master and commit
// rows into the chain's own vectors. The memo runs under the service's
// 4,096-slot bound; forgotten at every epoch move, it stays at its first
// array here, so no memo growth enters the count.
TEST(SteadyAlloc, SlinMissPathAllocations) {
  if (!AllocGauge::active())
    GTEST_SKIP() << "sanitizer build: interposer compiled out";
  RegisterAdt Reg;
  PhaseSignature Sig(1, 2);
  UniversalInitRelation Rel;
  IncrementalOptions Opts;
  Opts.RetainTrace = false;
  Opts.RetainRetiredWitness = false;
  Opts.TranspositionCapacity = 1u << 12;
  SlinCheckOptions Limits;
  Limits.WantWitness = false;
  Rng R(0x5A11);
  const Trace T = genShuffledRegisterRounds(1024, 4, 1, R);
  IncrementalSlinSession Inc(Reg, Sig, Rel, Opts);

  // Warm-up: the first quarter of the stream settles every capacity.
  const std::size_t Warm = T.size() / 4;
  for (std::size_t I = 0; I != Warm; ++I) {
    ASSERT_TRUE(static_cast<bool>(Inc.append(T[I])));
    ASSERT_EQ(Inc.verdict(Limits).Outcome, Verdict::Yes);
  }

  const std::uint64_t Allocs0 = AllocGauge::count();
  const std::size_t Reserved0 = Inc.scratchArena().reservedBytes();
  std::uint64_t NonYes = 0, Misses = 0;
  for (std::size_t I = Warm; I != T.size(); ++I) {
    Inc.append(T[I]);
    const std::uint64_t Fast0 = Inc.stats().FastPathVerdicts;
    SlinVerdict V = Inc.verdict(Limits);
    NonYes += V.Outcome != Verdict::Yes;
    Misses += Inc.stats().FastPathVerdicts == Fast0 && V.NodesExplored != 0;
  }
  const std::uint64_t Allocs = AllocGauge::count() - Allocs0;

  EXPECT_EQ(NonYes, 0u);
  ASSERT_GT(Misses, 100u) << "the stream must exercise the miss path";
  EXPECT_LE(Allocs, 2 * Misses)
      << Allocs << " heap allocations over " << Misses << " missed verdicts";
  EXPECT_EQ(Inc.scratchArena().reservedBytes(), Reserved0)
      << "scratch arena reserved new blocks on the miss path";
  EXPECT_GT(Inc.stats().CutResumes, 0u);
}

// The interposer itself must be observable: this binary defines the gauge,
// so outside sanitizer builds a plain heap allocation bumps the counter.
// Guards against the gauge silently not being wired (which would make the
// zero-delta assertion above vacuous).
TEST(SteadyAlloc, GaugeCountsAllocationsWhenActive) {
  if (!AllocGauge::active())
    GTEST_SKIP() << "sanitizer build: interposer compiled out";
  std::uint64_t Before = AllocGauge::count();
  auto P = std::make_unique<int>(42);
  ASSERT_NE(P, nullptr);
  EXPECT_GT(AllocGauge::count(), Before);
}
