//===- bench/bench_e7_spec.cpp - E7: spec automaton practicality ----------==//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//
//
// Experiment E7 (Section 6 claim: refinement proofs over the specification
// automaton "are practical"). Measures the executable counterparts: the
// acceptance monitor's throughput on random-walk traces, the SLin checker
// on the same traces, and the bounded composition-refinement model checker
// (states per second and total states for growing bounds).
//
//===----------------------------------------------------------------------===//

#include "adt/Consensus.h"
#include "engine/CheckSession.h"
#include "engine/CorpusDriver.h"
#include "slin/SlinChecker.h"
#include "spec/Refinement.h"
#include "spec/SpecAutomaton.h"

#include "BenchJson.h"

#include <benchmark/benchmark.h>

using namespace slin;

namespace {

std::vector<Trace> walkFamily(PhaseId M, unsigned Steps, unsigned Count,
                              UniversalInitRelation &Rel) {
  SpecAutomaton A(PhaseSignature(M, M + 1), 3);
  SpecAutomaton::WalkOptions Opts;
  Opts.Steps = Steps;
  Opts.Alphabet = {cons::propose(1), cons::propose(2)};
  Opts.InitChoices = {{cons::ghostPropose(1)},
                      {cons::ghostPropose(1), cons::ghostPropose(2)}};
  Rng R(0xE7);
  std::vector<Trace> Family;
  for (unsigned I = 0; I < Count; ++I)
    Family.push_back(A.randomWalk(Opts, R, Rel));
  return Family;
}

} // namespace

/// Acceptance monitoring of first-phase walks.
static void BM_E7_Monitor(benchmark::State &State) {
  UniversalInitRelation Rel;
  unsigned Steps = static_cast<unsigned>(State.range(0));
  auto Family = walkFamily(1, Steps, 50, Rel);
  SpecAutomaton A(PhaseSignature(1, 2), 3);
  for (auto _ : State)
    for (const Trace &T : Family)
      benchmark::DoNotOptimize(A.accepts(T, Rel).Ok);
  State.SetItemsProcessed(State.iterations() * Family.size());
}
BENCHMARK(BM_E7_Monitor)->Arg(12)->Arg(24)->Arg(48);

/// Acceptance monitoring of second-phase walks (init-history branching).
static void BM_E7_MonitorSecondPhase(benchmark::State &State) {
  UniversalInitRelation Rel;
  unsigned Steps = static_cast<unsigned>(State.range(0));
  auto Family = walkFamily(2, Steps, 50, Rel);
  SpecAutomaton A(PhaseSignature(2, 3), 3);
  for (auto _ : State)
    for (const Trace &T : Family)
      benchmark::DoNotOptimize(A.accepts(T, Rel).Ok);
  State.SetItemsProcessed(State.iterations() * Family.size());
}
BENCHMARK(BM_E7_MonitorSecondPhase)->Arg(12)->Arg(24)->Arg(48);

/// The SLin checker on second-phase walks, batched through one
/// CheckSession: the "checking is practical" counterpart of monitoring.
/// The universal relation's interpretations are forced, so each trace is
/// one engine run (plus f_abort synthesis at leaves).
static void BM_E7_SlinCheckerSession(benchmark::State &State) {
  UniversalInitRelation Rel;
  unsigned Steps = static_cast<unsigned>(State.range(0));
  auto Family = walkFamily(2, Steps, 20, Rel);
  ConsensusAdt Cons;
  PhaseSignature Sig(2, 3);
  CheckSession Session(Cons);
  std::uint64_t Accepted = 0;
  for (auto _ : State)
    for (const Trace &T : Family) {
      SlinVerdict V = Session.checkSlin(T, Sig, Rel);
      benchmark::DoNotOptimize(V.Outcome);
      Accepted += V.Outcome == Verdict::Yes;
    }
  State.SetItemsProcessed(State.iterations() * Family.size());
  State.counters["nodes_per_trace"] = benchmark::Counter(
      static_cast<double>(Session.stats().Search.Nodes) /
      static_cast<double>(State.iterations() * Family.size()));
  State.counters["accepted_per_iter"] = benchmark::Counter(
      static_cast<double>(Accepted) / static_cast<double>(State.iterations()));
}
BENCHMARK(BM_E7_SlinCheckerSession)->Arg(8)->Arg(12)->Arg(16);

/// The slin checker through the corpus driver: the walk corpus through one
/// warm session, in corpus order. The arg is walk steps.
static void BM_E7_SlinCorpusDriver(benchmark::State &State) {
  UniversalInitRelation Rel;
  unsigned Steps = static_cast<unsigned>(State.range(0));
  auto Family = walkFamily(2, Steps, 100, Rel);
  ConsensusAdt Cons;
  PhaseSignature Sig(2, 3);
  CorpusDriver Driver(Cons);
  std::uint64_t Accepted = 0;
  for (auto _ : State) {
    CorpusReport R = Driver.checkSlin(Family, Sig, Rel);
    benchmark::DoNotOptimize(R.Results.data());
    Accepted += R.Yes;
  }
  State.SetItemsProcessed(State.iterations() * Family.size());
  State.counters["accepted_per_iter"] = benchmark::Counter(
      static_cast<double>(Accepted) / static_cast<double>(State.iterations()));
}
BENCHMARK(BM_E7_SlinCorpusDriver)->Arg(12);

/// Bounded refinement model checking: states explored per bound.
static void BM_E7_Refinement(benchmark::State &State) {
  unsigned Depth = static_cast<unsigned>(State.range(0));
  RefinementOptions Opts;
  Opts.NumClients = 2;
  Opts.MaxExternalActions = Depth;
  Opts.Alphabet = {cons::propose(1), cons::propose(2)};
  std::uint64_t Nodes = 0;
  bool Holds = true;
  for (auto _ : State) {
    RefinementResult R = checkCompositionRefinement(2, 3, Opts);
    Nodes = R.NodesExplored;
    Holds = R.Holds;
  }
  State.counters["states"] = static_cast<double>(Nodes);
  State.counters["holds"] = Holds ? 1 : 0;
  State.SetItemsProcessed(State.iterations() * Nodes);
}
BENCHMARK(BM_E7_Refinement)->Arg(3)->Arg(4)->Arg(5);

SLIN_BENCH_JSON_MAIN()
