//===- bench/bench_e4_checker.cpp - E4: local vs global reasoning ---------==//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//
//
// Experiment E4 (Section 4 claim): the new definition of linearizability
// "enables a more local form of reasoning". We compare three deciders on
// identical trace families of growing length:
//
//   * the new-definition chain search (commit-by-commit, memoized),
//   * the classical reordering search (completion + whole-trace
//     reordering),
//   * the linear-time consensus characterization derived from the paper's
//     Section 2.4 construction (the extreme point of locality).
//
//===----------------------------------------------------------------------===//

#include "adt/Consensus.h"
#include "adt/Queue.h"
#include "engine/CheckSession.h"
#include "engine/CorpusDriver.h"
#include "lin/Classical.h"
#include "lin/ConsensusLin.h"
#include "lin/LinChecker.h"
#include "trace/Gen.h"

#include "BenchJson.h"

#include <benchmark/benchmark.h>

using namespace slin;

namespace {

/// Deterministic family of linearizable consensus traces with N ops.
std::vector<Trace> consensusFamily(unsigned Ops, unsigned Count) {
  ConsensusAdt Cons;
  GenOptions Opts;
  Opts.NumClients = 4;
  Opts.NumOps = Ops;
  Opts.Alphabet = {cons::propose(1), cons::propose(2), cons::propose(3)};
  Opts.PendingFraction = 0.1;
  Rng R(0xE4);
  std::vector<Trace> Family;
  for (unsigned I = 0; I < Count; ++I)
    Family.push_back(genLinearizableTrace(Cons, Opts, R));
  return Family;
}

std::vector<Trace> queueFamily(unsigned Ops, unsigned Count) {
  QueueAdt Q;
  GenOptions Opts;
  Opts.NumClients = 3;
  Opts.NumOps = Ops;
  Opts.Alphabet = {queue::enq(1), queue::enq(2), queue::deq()};
  Opts.PendingFraction = 0.1;
  Rng R(0xE4C0FFEE);
  std::vector<Trace> Family;
  for (unsigned I = 0; I < Count; ++I)
    Family.push_back(genLinearizableTrace(Q, Opts, R));
  return Family;
}

} // namespace

/// The engine via the batched session API: one CheckSession amortizes the
/// interner, arena, and transposition table across the whole family.
static void BM_E4_NewDefinition_Consensus(benchmark::State &State) {
  ConsensusAdt Cons;
  auto Family = consensusFamily(static_cast<unsigned>(State.range(0)), 20);
  CheckSession Session(Cons);
  std::uint64_t Nodes = 0;
  for (auto _ : State)
    for (const Trace &T : Family) {
      LinCheckResult R = Session.checkLin(T);
      benchmark::DoNotOptimize(R.Outcome);
      Nodes += R.NodesExplored;
    }
  State.SetItemsProcessed(State.iterations() * Family.size());
  State.counters["nodes_per_trace"] = benchmark::Counter(
      static_cast<double>(Nodes) /
      static_cast<double>(State.iterations() * Family.size()));
}
BENCHMARK(BM_E4_NewDefinition_Consensus)->Arg(6)->Arg(10)->Arg(14)->Arg(18);

/// The engine through the one-shot entry point (a fresh session per trace):
/// isolates what session reuse buys.
static void BM_E4_OneShot_Consensus(benchmark::State &State) {
  ConsensusAdt Cons;
  auto Family = consensusFamily(static_cast<unsigned>(State.range(0)), 20);
  for (auto _ : State)
    for (const Trace &T : Family)
      benchmark::DoNotOptimize(checkLinearizable(T, Cons).Outcome);
  State.SetItemsProcessed(State.iterations() * Family.size());
}
BENCHMARK(BM_E4_OneShot_Consensus)->Arg(6)->Arg(10)->Arg(14)->Arg(18);

static void BM_E4_Classical_Consensus(benchmark::State &State) {
  ConsensusAdt Cons;
  auto Family = consensusFamily(static_cast<unsigned>(State.range(0)), 20);
  std::uint64_t Nodes = 0;
  for (auto _ : State)
    for (const Trace &T : Family) {
      ClassicalCheckResult R = checkLinearizableClassical(T, Cons);
      benchmark::DoNotOptimize(R.Outcome);
      Nodes += R.NodesExplored;
    }
  State.SetItemsProcessed(State.iterations() * Family.size());
  State.counters["nodes_per_trace"] = benchmark::Counter(
      static_cast<double>(Nodes) /
      static_cast<double>(State.iterations() * Family.size()));
}
BENCHMARK(BM_E4_Classical_Consensus)->Arg(6)->Arg(10)->Arg(14)->Arg(18);

static void BM_E4_FastConsensus(benchmark::State &State) {
  auto Family = consensusFamily(static_cast<unsigned>(State.range(0)), 20);
  for (auto _ : State)
    for (const Trace &T : Family)
      benchmark::DoNotOptimize(checkConsensusLinearizable(T).Outcome);
  State.SetItemsProcessed(State.iterations() * Family.size());
}
BENCHMARK(BM_E4_FastConsensus)->Arg(6)->Arg(10)->Arg(14)->Arg(18)->Arg(50);

/// The corpus driver: a larger consensus corpus through one warm session,
/// in corpus order. The arg is ops per trace; items/s is the corpus
/// throughput.
static void BM_E4_CorpusDriver_Consensus(benchmark::State &State) {
  ConsensusAdt Cons;
  auto Family = consensusFamily(static_cast<unsigned>(State.range(0)), 200);
  CorpusDriver Driver(Cons);
  std::uint64_t Yes = 0;
  for (auto _ : State) {
    CorpusReport R = Driver.checkLin(Family);
    benchmark::DoNotOptimize(R.Results.data());
    Yes += R.Yes;
  }
  State.SetItemsProcessed(State.iterations() * Family.size());
  State.counters["yes_per_iter"] = benchmark::Counter(
      static_cast<double>(Yes) / static_cast<double>(State.iterations()));
}
BENCHMARK(BM_E4_CorpusDriver_Consensus)->Arg(14);

static void BM_E4_NewDefinition_Queue(benchmark::State &State) {
  QueueAdt Q;
  auto Family = queueFamily(static_cast<unsigned>(State.range(0)), 10);
  CheckSession Session(Q);
  for (auto _ : State)
    for (const Trace &T : Family)
      benchmark::DoNotOptimize(Session.checkLin(T).Outcome);
  State.SetItemsProcessed(State.iterations() * Family.size());
}
BENCHMARK(BM_E4_NewDefinition_Queue)->Arg(6)->Arg(8)->Arg(10)->Arg(12);

static void BM_E4_Classical_Queue(benchmark::State &State) {
  QueueAdt Q;
  auto Family = queueFamily(static_cast<unsigned>(State.range(0)), 10);
  for (auto _ : State)
    for (const Trace &T : Family)
      benchmark::DoNotOptimize(checkLinearizableClassical(T, Q).Outcome);
  State.SetItemsProcessed(State.iterations() * Family.size());
}
BENCHMARK(BM_E4_Classical_Queue)->Arg(6)->Arg(8)->Arg(10)->Arg(12);

SLIN_BENCH_JSON_MAIN()
