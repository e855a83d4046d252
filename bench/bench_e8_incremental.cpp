//===- bench/bench_e8_incremental.cpp - E8: incremental re-checking -------==//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//
//
// Experiment E8: what resumable sessions buy for monitoring. Two shapes,
// on linearizable-by-construction histories (the steady state of watching
// a correct implementation):
//
//   * AppendOne_*: the monitor's inner loop. A history of N events is
//     already ingested and checked; measure re-checking after ONE more
//     (invoke, response) arrives — incremental append+verdict against the
//     retained frontier vs a batch session re-checking the whole extended
//     trace. Manual timing excludes the per-iteration re-priming of the
//     incremental session. This is the pair the ">= 5x at N >= 64"
//     acceptance bar reads from. These rows run the default
//     witness-carrying verdict, so they grow linearly in N even at
//     nodes_per_check = 1.0: a Yes verdict hands back an owned witness
//     whose master chain spans the whole history, and materializing +
//     copying that O(N) artifact (~13 ns/event) is the row's floor — the
//     search itself is O(1), as the witness-free SteadyState_Monitor rows
//     over the same histories show by staying flat. See the timing
//     methodology note in bench/BenchJson.h.
//
//   * Growing_*: the end-to-end monitor cost. Process a whole history
//     event by event with a verdict after every event — incremental
//     session vs batch re-check per event; items are events.
//
//   * PrefixCorpus_*: the corpus face. A prefix-closed corpus (every even
//     prefix of growing histories) through the CorpusDriver with and
//     without SharePrefixes: the memo/frontier lever.
//
//   * SteadyState_Monitor_*: the O(1) steady-state rows. Same shape as
//     AppendOne, but verdicts run witness-free (WantWitness off) and the
//     row reports nodes_per_check AND seed_replay_per_check — with the
//     retained replay state the latter must be 0.0 and the latency stays
//     flat as the history grows. These rows also report per-event latency
//     percentiles (p50_ns_per_event, p99_ns_per_event) over the timed
//     region of every iteration. CI guards nodes_per_check regressions and
//     >10% p50 regressions against the committed BENCH_e8.json.
//
//   * AppendOne_IncrementalSlin / AppendOne_BatchSlin: the slin monitor's
//     inner loop (frontier resumption per interpretation), on switch-free
//     consensus phase traces through the consensus relation.
//
//   * ReorderSlin: the miss path. One slin register shard (the
//     reorder-slin-256 shape: rounds of four, one write, responses
//     shuffled within the round) streamed with a witness-free verdict per
//     event. About a sixth of the verdicts miss the fast step; each
//     resumes at the chain's last quiescent cut before it searches from
//     the root. CI gates its deterministic nodes_per_check and miss split,
//     and its memo_bytes_max against an absolute ceiling.
//
//   * SteadyState_MonitorSlin: the slin analogue of the Long row. One
//     outcome-only slin session (trace retention off, retired-witness
//     retention off) is primed with thousands of quiescing consensus
//     operations, then every iteration streams one more complete operation
//     and takes a witness-free verdict served by the slin fast path (the
//     shared SoA window + per-interpretation retained frontiers; no engine
//     entry). CI gates this row's p50 alongside the Long row's and its
//     nodes_per_check/fast_path_per_check like the other steady rows.
//
// All rows are single-threaded; capture BENCH_e8.json as interleaved
// median-of-3 runs (1-core bench box).
//
//===----------------------------------------------------------------------===//

#include "adt/Consensus.h"
#include "adt/Register.h"
#include "engine/CorpusDriver.h"
#include "engine/Incremental.h"
#include "trace/Gen.h"

#include "BenchJson.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <vector>

using namespace slin;

namespace {

/// Wall plus thread-CPU timing of exactly the measured region of one
/// manual-time iteration. Google Benchmark's own CPU column covers the
/// whole iteration — re-priming included — which made manual-time rows
/// report cpu_ns_per_op several times their wall time (see the methodology
/// note in bench/BenchJson.h). stop() feeds the wall time to
/// SetIterationTime and accumulates region CPU; report() publishes the
/// region-scoped figure the JSON reporter prefers over the library's.
class TimedRegion {
public:
  TimedRegion() {
    // The CPU bracket necessarily encloses the wall bracket (start() reads
    // the thread-CPU clock before the wall clock, stop() after it), so the
    // raw CPU delta carries both wall reads plus the tail of a thread-CPU
    // read — the thread clock is a real syscall, so that constant was
    // ~300 ns and put cpu_ns_per_op visibly above ns_per_op on every
    // sub-microsecond row. Calibrate it as the median empty-region delta
    // (the typical bracket cost; the minimum undershoots because the
    // thread-clock syscall rarely runs at its floor) and deduct it per
    // stop(), clamped at zero, so both per-op figures cover the same
    // region.
    double Trials[512];
    for (double &T : Trials) {
      double C0 = benchjson::threadCpuSeconds();
      auto W0 = std::chrono::steady_clock::now();
      auto W1 = std::chrono::steady_clock::now();
      double C1 = benchjson::threadCpuSeconds();
      benchmark::DoNotOptimize(W0);
      benchmark::DoNotOptimize(W1);
      T = (C1 - C0) * 1e9;
    }
    std::sort(std::begin(Trials), std::end(Trials));
    BracketNs = Trials[256];
  }

  void start() {
    CpuStart = benchjson::threadCpuSeconds();
    WallStart = std::chrono::steady_clock::now();
  }

  /// Ends the region; returns its wall time in nanoseconds.
  double stop(benchmark::State &State) {
    auto Wall = std::chrono::steady_clock::now() - WallStart;
    double CpuNs = (benchjson::threadCpuSeconds() - CpuStart) * 1e9;
    CpuTotalNs += CpuNs > BracketNs ? CpuNs - BracketNs : 0;
    double WallSec = std::chrono::duration<double>(Wall).count();
    State.SetIterationTime(WallSec);
    return WallSec * 1e9;
  }

  void report(benchmark::State &State) const {
    State.counters["cpu_ns_per_op"] = benchmark::Counter(
        CpuTotalNs, benchmark::Counter::kAvgIterations);
  }

private:
  std::chrono::steady_clock::time_point WallStart;
  double CpuStart = 0;
  double CpuTotalNs = 0;
  double BracketNs = 0;
};

/// Per-event latency distribution for the steady-state rows: every timed
/// region's wall nanoseconds, capped (the cap covers the longest run the
/// harness schedules; beyond it the tail samples are dropped, which only
/// biases the percentiles if a >1M-iteration run drifts late — it does
/// not). Nearest-rank percentiles over the sorted samples.
class LatencySamples {
public:
  LatencySamples() { Samples.reserve(Cap); }

  void add(double Ns) {
    if (Samples.size() < Cap)
      Samples.push_back(Ns);
  }

  void report(benchmark::State &State) {
    if (Samples.empty())
      return;
    std::sort(Samples.begin(), Samples.end());
    auto Pct = [&](double P) {
      return Samples[static_cast<std::size_t>(
          P * static_cast<double>(Samples.size() - 1))];
    };
    State.counters["p50_ns_per_event"] = benchmark::Counter(Pct(0.50));
    State.counters["p99_ns_per_event"] = benchmark::Counter(Pct(0.99));
  }

private:
  static constexpr std::size_t Cap = 1u << 20;
  std::vector<double> Samples;
};

/// A linearizable history of exactly N events (N/2 operations, none
/// pending), over a register — reads and writes keep the chain search
/// honest without exploding it.
Trace registerHistory(unsigned Events, std::uint64_t Seed) {
  RegisterAdt Reg;
  GenOptions G;
  G.NumClients = 4;
  G.NumOps = Events / 2;
  G.PendingFraction = 0;
  G.Alphabet = {reg::read(), reg::write(1), reg::write(2), reg::write(3)};
  Rng R(Seed);
  return genLinearizableTrace(Reg, G, R);
}

Trace consensusHistory(unsigned Events, std::uint64_t Seed) {
  ConsensusAdt Cons;
  GenOptions G;
  G.NumClients = 4;
  G.NumOps = Events / 2;
  G.PendingFraction = 0;
  G.Alphabet = {cons::propose(1), cons::propose(2), cons::propose(3)};
  Rng R(Seed);
  return genLinearizableTrace(Cons, G, R);
}

/// A linearizable register history of exactly \p Events events arranged in
/// fully-quiescing rounds of \p Conc concurrent operations: all clients of
/// a round invoke, then all respond with the outputs of applying their
/// inputs in invocation order. Every round boundary is a quiescence cut —
/// the structure that lets the windowed session retire continuously on
/// unbounded runs (genLinearizableTrace gives no such guarantee).
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

/// The one-event extension appended in the AppendOne benchmarks: a fresh
/// client invokes and the object answers as the ADT would.
Trace extensionPair(const Adt &Type, const Trace &T, const Input &In) {
  std::unique_ptr<AdtState> S = Type.makeState();
  Output Out;
  for (const Action &A : T)
    if (isInvoke(A))
      Out = S->apply(A.In);
  Out = S->apply(In);
  Trace Ext;
  Ext.push_back(makeInvoke(63, 1, In));
  Ext.push_back(makeRespond(63, 1, In, Out));
  return Ext;
}

} // namespace

//===----------------------------------------------------------------------===//
// AppendOne: steady-state single-event re-check at history length N.
//===----------------------------------------------------------------------===//

static void BM_E8_AppendOne_Incremental_Register(benchmark::State &State) {
  RegisterAdt Reg;
  unsigned N = static_cast<unsigned>(State.range(0));
  Trace T = registerHistory(N, 0xE8);
  Trace Ext = extensionPair(Reg, T, reg::write(7));
  std::uint64_t Nodes = 0, Checks = 0;
  TimedRegion Timer;
  for (auto _ : State) {
    // Untimed: re-prime the session with the already-ingested history.
    IncrementalLinSession Inc(Reg);
    for (const Action &A : T)
      Inc.append(A);
    benchmark::DoNotOptimize(Inc.verdict().Outcome);
    // Timed: one more operation arrives.
    Timer.start();
    for (const Action &A : Ext)
      Inc.append(A);
    LinCheckResult R = Inc.verdict();
    Timer.stop(State);
    benchmark::DoNotOptimize(R.Outcome);
    Nodes += R.NodesExplored;
    ++Checks;
  }
  Timer.report(State);
  State.counters["nodes_per_check"] = benchmark::Counter(
      static_cast<double>(Nodes) / static_cast<double>(Checks ? Checks : 1));
}
BENCHMARK(BM_E8_AppendOne_Incremental_Register)
    ->Arg(32)->Arg(64)->Arg(96)->Arg(120)
    ->UseManualTime();

static void BM_E8_AppendOne_Batch_Register(benchmark::State &State) {
  RegisterAdt Reg;
  unsigned N = static_cast<unsigned>(State.range(0));
  Trace T = registerHistory(N, 0xE8);
  Trace Ext = extensionPair(Reg, T, reg::write(7));
  Trace Extended = T;
  Extended.insert(Extended.end(), Ext.begin(), Ext.end());
  CheckSession Session(Reg); // Warm batch session: the fair baseline.
  std::uint64_t Nodes = 0, Checks = 0;
  TimedRegion Timer;
  for (auto _ : State) {
    Timer.start();
    LinCheckResult R = Session.checkLin(Extended);
    Timer.stop(State);
    benchmark::DoNotOptimize(R.Outcome);
    Nodes += R.NodesExplored;
    ++Checks;
  }
  Timer.report(State);
  State.counters["nodes_per_check"] = benchmark::Counter(
      static_cast<double>(Nodes) / static_cast<double>(Checks ? Checks : 1));
}
BENCHMARK(BM_E8_AppendOne_Batch_Register)
    ->Arg(32)->Arg(64)->Arg(96)->Arg(120)
    ->UseManualTime();

static void BM_E8_AppendOne_Incremental_Consensus(benchmark::State &State) {
  ConsensusAdt Cons;
  unsigned N = static_cast<unsigned>(State.range(0));
  Trace T = consensusHistory(N, 0xE81);
  Trace Ext = extensionPair(Cons, T, cons::propose(2));
  std::uint64_t Nodes = 0, Checks = 0;
  TimedRegion Timer;
  for (auto _ : State) {
    IncrementalLinSession Inc(Cons);
    for (const Action &A : T)
      Inc.append(A);
    benchmark::DoNotOptimize(Inc.verdict().Outcome);
    Timer.start();
    for (const Action &A : Ext)
      Inc.append(A);
    LinCheckResult R = Inc.verdict();
    Timer.stop(State);
    benchmark::DoNotOptimize(R.Outcome);
    Nodes += R.NodesExplored;
    ++Checks;
  }
  Timer.report(State);
  State.counters["nodes_per_check"] = benchmark::Counter(
      static_cast<double>(Nodes) / static_cast<double>(Checks ? Checks : 1));
}
BENCHMARK(BM_E8_AppendOne_Incremental_Consensus)
    ->Arg(64)->Arg(96)
    ->UseManualTime();

static void BM_E8_AppendOne_Batch_Consensus(benchmark::State &State) {
  ConsensusAdt Cons;
  unsigned N = static_cast<unsigned>(State.range(0));
  Trace T = consensusHistory(N, 0xE81);
  Trace Ext = extensionPair(Cons, T, cons::propose(2));
  Trace Extended = T;
  Extended.insert(Extended.end(), Ext.begin(), Ext.end());
  CheckSession Session(Cons);
  std::uint64_t Nodes = 0, Checks = 0;
  TimedRegion Timer;
  for (auto _ : State) {
    Timer.start();
    LinCheckResult R = Session.checkLin(Extended);
    Timer.stop(State);
    benchmark::DoNotOptimize(R.Outcome);
    Nodes += R.NodesExplored;
    ++Checks;
  }
  Timer.report(State);
  State.counters["nodes_per_check"] = benchmark::Counter(
      static_cast<double>(Nodes) / static_cast<double>(Checks ? Checks : 1));
}
BENCHMARK(BM_E8_AppendOne_Batch_Consensus)
    ->Arg(64)->Arg(96)
    ->UseManualTime();

//===----------------------------------------------------------------------===//
// Growing: end-to-end monitor cost (verdict after every event).
//===----------------------------------------------------------------------===//

static void BM_E8_Growing_Incremental_Register(benchmark::State &State) {
  RegisterAdt Reg;
  unsigned N = static_cast<unsigned>(State.range(0));
  Trace T = registerHistory(N, 0xE82);
  for (auto _ : State) {
    IncrementalLinSession Inc(Reg);
    for (const Action &A : T) {
      Inc.append(A);
      benchmark::DoNotOptimize(Inc.verdict().Outcome);
    }
  }
  State.SetItemsProcessed(State.iterations() * T.size());
}
BENCHMARK(BM_E8_Growing_Incremental_Register)->Arg(64)->Arg(96);

static void BM_E8_Growing_Batch_Register(benchmark::State &State) {
  RegisterAdt Reg;
  unsigned N = static_cast<unsigned>(State.range(0));
  Trace T = registerHistory(N, 0xE82);
  CheckSession Session(Reg);
  for (auto _ : State) {
    Trace Prefix;
    for (const Action &A : T) {
      Prefix.push_back(A);
      benchmark::DoNotOptimize(Session.checkLin(Prefix).Outcome);
    }
  }
  State.SetItemsProcessed(State.iterations() * T.size());
}
BENCHMARK(BM_E8_Growing_Batch_Register)->Arg(64)->Arg(96);

//===----------------------------------------------------------------------===//
// PrefixCorpus: the CorpusDriver's shared-prefix lever.
//===----------------------------------------------------------------------===//

namespace {

std::vector<Trace> prefixClosedCorpus(unsigned Histories, unsigned Events) {
  std::vector<Trace> Corpus;
  for (unsigned I = 0; I != Histories; ++I) {
    Trace T = registerHistory(Events, 0xE83 + I);
    for (std::size_t Len = 2; Len <= T.size(); Len += 2)
      Corpus.emplace_back(T.begin(), T.begin() + Len);
  }
  return Corpus;
}

} // namespace

//===----------------------------------------------------------------------===//
// SteadyState_Monitor: witness-free O(1) per-event verdicts; the row CI
// reads nodes_per_check and seed_replay_per_check from.
//===----------------------------------------------------------------------===//

static void BM_E8_SteadyState_Monitor_Register(benchmark::State &State) {
  RegisterAdt Reg;
  unsigned N = static_cast<unsigned>(State.range(0));
  Trace T = registerHistory(N, 0xE8);
  Trace Ext = extensionPair(Reg, T, reg::write(7));
  std::uint64_t Nodes = 0, Checks = 0, Replays = 0, Skips = 0;
  TimedRegion Timer;
  LatencySamples Latency;
  for (auto _ : State) {
    // Untimed: re-prime the session with the already-ingested history.
    IncrementalLinSession Inc(Reg);
    for (const Action &A : T)
      Inc.append(A);
    benchmark::DoNotOptimize(Inc.verdict().Outcome);
    std::uint64_t Replayed0 = Inc.stats().Search.SeedStepsReplayed;
    std::uint64_t Skipped0 = Inc.stats().Search.SeedStepsSkipped;
    // Timed: one more operation arrives; the monitor consumes outcomes
    // only, so the verdict runs witness-free.
    Timer.start();
    for (const Action &A : Ext)
      Inc.append(A);
    LinCheckOptions Opts;
    Opts.WantWitness = false;
    LinCheckResult R = Inc.verdict(Opts);
    Latency.add(Timer.stop(State));
    benchmark::DoNotOptimize(R.Outcome);
    Nodes += R.NodesExplored;
    Replays += Inc.stats().Search.SeedStepsReplayed - Replayed0;
    Skips += Inc.stats().Search.SeedStepsSkipped - Skipped0;
    ++Checks;
  }
  Timer.report(State);
  Latency.report(State);
  double C = static_cast<double>(Checks ? Checks : 1);
  State.counters["nodes_per_check"] =
      benchmark::Counter(static_cast<double>(Nodes) / C);
  State.counters["seed_replay_per_check"] =
      benchmark::Counter(static_cast<double>(Replays) / C);
  State.counters["seed_skip_per_check"] =
      benchmark::Counter(static_cast<double>(Skips) / C);
}
BENCHMARK(BM_E8_SteadyState_Monitor_Register)
    ->Arg(32)->Arg(64)->Arg(96)->Arg(120)
    ->UseManualTime();

//===----------------------------------------------------------------------===//
// SteadyState_Monitor_Long: the unbounded-trace row. One session is primed
// with a >= 4096-operation quiescing history (obligation retirement keeps
// the live window bounded the whole way), then every iteration streams one
// more complete operation and takes a witness-free verdict — the trace
// keeps growing across iterations, the window and the per-event cost do
// not. CI gates nodes_per_check and seed_replay_per_check like the other
// steady-state rows; live_window_high_water must stay <= 64 no matter how
// long the run.
//===----------------------------------------------------------------------===//

static void BM_E8_SteadyState_Monitor_Long(benchmark::State &State) {
  RegisterAdt Reg;
  unsigned Ops = static_cast<unsigned>(State.range(0));
  Trace T = quiescingRegisterHistory(2 * Ops, 4, 0xE85);
  LinCheckOptions Opts;
  Opts.WantWitness = false;
  // Prime once (untimed): verdict per event so retirement always has a
  // covering success frontier to fold.
  IncrementalLinSession Inc(Reg);
  for (const Action &A : T) {
    Inc.append(A);
    benchmark::DoNotOptimize(Inc.verdict(Opts).Outcome);
  }
  // Replica of the linearization order the generator used; supplies the
  // outputs of the endless steady-state extension.
  std::unique_ptr<AdtState> Model = Reg.makeState();
  for (const Action &A : T)
    if (isInvoke(A))
      Model->apply(A.In);
  std::uint64_t Nodes = 0, Checks = 0, K = 0;
  std::uint64_t Replays0 = Inc.stats().Search.SeedStepsReplayed;
  TimedRegion Timer;
  LatencySamples Latency;
  for (auto _ : State) {
    Input In = K % 3 ? reg::write(static_cast<std::int64_t>(1 + K % 3))
                     : reg::read();
    ++K;
    Output Out = Model->apply(In);
    Timer.start();
    Inc.append(makeInvoke(62, 1, In));
    Inc.append(makeRespond(62, 1, In, Out));
    LinCheckResult R = Inc.verdict(Opts);
    Latency.add(Timer.stop(State));
    benchmark::DoNotOptimize(R.Outcome);
    Nodes += R.NodesExplored;
    ++Checks;
  }
  Timer.report(State);
  Latency.report(State);
  double C = static_cast<double>(Checks ? Checks : 1);
  State.counters["nodes_per_check"] =
      benchmark::Counter(static_cast<double>(Nodes) / C);
  State.counters["seed_replay_per_check"] = benchmark::Counter(
      static_cast<double>(Inc.stats().Search.SeedStepsReplayed - Replays0) /
      C);
  State.counters["retired_obligations"] = benchmark::Counter(
      static_cast<double>(Inc.stats().RetiredObligations));
  State.counters["live_window_high_water"] = benchmark::Counter(
      static_cast<double>(Inc.stats().LiveWindowHighWater));
}
BENCHMARK(BM_E8_SteadyState_Monitor_Long)
    ->Arg(4096)
    ->UseManualTime();

//===----------------------------------------------------------------------===//
// AppendOne for the slin session: per-interpretation frontier resumption
// on switch-free consensus phase traces (the slin monitor steady state).
//===----------------------------------------------------------------------===//

static void BM_E8_AppendOne_IncrementalSlin(benchmark::State &State) {
  ConsensusAdt Cons;
  PhaseSignature Sig(1, 2);
  ConsensusInitRelation Rel;
  unsigned N = static_cast<unsigned>(State.range(0));
  Trace T = consensusHistory(N, 0xE84);
  Trace Ext = extensionPair(Cons, T, cons::propose(2));
  std::uint64_t Nodes = 0, Checks = 0, Replays = 0;
  TimedRegion Timer;
  for (auto _ : State) {
    IncrementalSlinSession Inc(Cons, Sig, Rel);
    for (const Action &A : T)
      Inc.append(A);
    benchmark::DoNotOptimize(Inc.verdict().Outcome);
    std::uint64_t Replayed0 = Inc.stats().Search.SeedStepsReplayed;
    Timer.start();
    for (const Action &A : Ext)
      Inc.append(A);
    SlinCheckOptions Opts;
    Opts.WantWitness = false;
    SlinVerdict R = Inc.verdict(Opts);
    Timer.stop(State);
    benchmark::DoNotOptimize(R.Outcome);
    Nodes += R.NodesExplored;
    Replays += Inc.stats().Search.SeedStepsReplayed - Replayed0;
    ++Checks;
  }
  Timer.report(State);
  double C = static_cast<double>(Checks ? Checks : 1);
  State.counters["nodes_per_check"] =
      benchmark::Counter(static_cast<double>(Nodes) / C);
  State.counters["seed_replay_per_check"] =
      benchmark::Counter(static_cast<double>(Replays) / C);
}
BENCHMARK(BM_E8_AppendOne_IncrementalSlin)
    ->Arg(64)->Arg(96)
    ->UseManualTime();

static void BM_E8_AppendOne_BatchSlin(benchmark::State &State) {
  ConsensusAdt Cons;
  PhaseSignature Sig(1, 2);
  ConsensusInitRelation Rel;
  unsigned N = static_cast<unsigned>(State.range(0));
  Trace T = consensusHistory(N, 0xE84);
  Trace Ext = extensionPair(Cons, T, cons::propose(2));
  Trace Extended = T;
  Extended.insert(Extended.end(), Ext.begin(), Ext.end());
  CheckSession Session(Cons); // Warm batch session: the fair baseline.
  std::uint64_t Nodes = 0, Checks = 0;
  TimedRegion Timer;
  for (auto _ : State) {
    Timer.start();
    SlinVerdict R = Session.checkSlin(Extended, Sig, Rel);
    Timer.stop(State);
    benchmark::DoNotOptimize(R.Outcome);
    Nodes += R.NodesExplored;
    ++Checks;
  }
  Timer.report(State);
  State.counters["nodes_per_check"] = benchmark::Counter(
      static_cast<double>(Nodes) / static_cast<double>(Checks ? Checks : 1));
}
BENCHMARK(BM_E8_AppendOne_BatchSlin)
    ->Arg(64)->Arg(96)
    ->UseManualTime();

//===----------------------------------------------------------------------===//
// SteadyState_MonitorSlin: the slin unbounded-trace row. A single
// outcome-only session (retention off on both axes — the allocation-free
// monitor configuration) is primed with `Arg` complete single-client
// consensus operations (every response is a quiescent cut, so retirement
// runs continuously), then each iteration streams one more operation and
// takes a witness-free verdict. In this shape every verdict is served by
// the slin fast path — one new obligation absorbed onto the retained
// interpretation frontier, no engine entry — so fast_path_per_check must
// be 1.0 and nodes_per_check stays at the family size (1 here: a
// switch-free trace has the singleton empty interpretation).
//===----------------------------------------------------------------------===//

static void BM_E8_SteadyState_MonitorSlin(benchmark::State &State) {
  ConsensusAdt Cons;
  PhaseSignature Sig(1, 2);
  ConsensusInitRelation Rel;
  unsigned Ops = static_cast<unsigned>(State.range(0));
  SlinCheckOptions Opts;
  Opts.WantWitness = false;
  IncrementalOptions MonitorConfig;
  MonitorConfig.RetainTrace = false;
  MonitorConfig.RetainRetiredWitness = false;
  IncrementalSlinSession Inc(Cons, Sig, Rel, MonitorConfig);
  // Replica of the single-client linearization order; supplies the outputs
  // of the endless steady-state stream.
  std::unique_ptr<AdtState> Model = Cons.makeState();
  std::uint64_t K = 0;
  auto OneOp = [&] {
    Input In = cons::propose(static_cast<std::int64_t>(1 + K % 3));
    ++K;
    Output Out = Model->apply(In);
    Inc.append(makeInvoke(0, 1, In));
    Inc.append(makeRespond(0, 1, In, Out));
  };
  // Prime once (untimed): verdict per operation so retirement always has a
  // covering frontier to fold.
  for (unsigned I = 0; I != Ops; ++I) {
    OneOp();
    benchmark::DoNotOptimize(Inc.verdict(Opts).Outcome);
  }
  std::uint64_t Nodes = 0, Checks = 0;
  std::uint64_t Replays0 = Inc.stats().Search.SeedStepsReplayed;
  std::uint64_t Fast0 = Inc.stats().FastPathVerdicts;
  TimedRegion Timer;
  LatencySamples Latency;
  for (auto _ : State) {
    Timer.start();
    OneOp();
    SlinVerdict R = Inc.verdict(Opts);
    Latency.add(Timer.stop(State));
    benchmark::DoNotOptimize(R.Outcome);
    Nodes += R.NodesExplored;
    ++Checks;
  }
  Timer.report(State);
  Latency.report(State);
  double C = static_cast<double>(Checks ? Checks : 1);
  State.counters["nodes_per_check"] =
      benchmark::Counter(static_cast<double>(Nodes) / C);
  State.counters["seed_replay_per_check"] = benchmark::Counter(
      static_cast<double>(Inc.stats().Search.SeedStepsReplayed - Replays0) /
      C);
  State.counters["fast_path_per_check"] = benchmark::Counter(
      static_cast<double>(Inc.stats().FastPathVerdicts - Fast0) / C);
  State.counters["retired_obligations"] = benchmark::Counter(
      static_cast<double>(Inc.stats().RetiredObligations));
  State.counters["live_window_high_water"] = benchmark::Counter(
      static_cast<double>(Inc.stats().LiveWindowHighWater));
}
BENCHMARK(BM_E8_SteadyState_MonitorSlin)
    ->Arg(4096)
    ->UseManualTime();

//===----------------------------------------------------------------------===//
// ReorderSlin: the verdict ladder's miss path. Every iteration streams the
// same `Arg` shuffled one-write register rounds through a fresh slin
// session, a witness-free verdict per event, so the node counts are
// deterministic: nodes_per_check over every verdict, nodes_per_miss over
// the verdicts that left the fast step with a search, and how the misses
// split between the cut seed point and the boundary (root) search.
// memo_bytes_max is the largest memo any iteration's session reserved: the
// memo holds one epoch's keys, so it stays near its first array.
//===----------------------------------------------------------------------===//

static void BM_E8_ReorderSlin(benchmark::State &State) {
  RegisterAdt Reg;
  PhaseSignature Sig(1, 2);
  UniversalInitRelation Rel;
  Rng R(0xE86);
  const Trace T =
      genShuffledRegisterRounds(static_cast<unsigned>(State.range(0)), 4, 1, R);
  SlinCheckOptions Opts;
  Opts.WantWitness = false;
  std::uint64_t Nodes = 0, Checks = 0, MissNodes = 0, Misses = 0;
  std::size_t MemoBytesMax = 0;
  SessionStats Stats;
  TimedRegion Timer;
  for (auto _ : State) {
    IncrementalSlinSession Inc(Reg, Sig, Rel);
    Timer.start();
    for (const Action &A : T) {
      Inc.append(A);
      const std::uint64_t Fast0 = Inc.stats().FastPathVerdicts;
      SlinVerdict V = Inc.verdict(Opts);
      benchmark::DoNotOptimize(V.Outcome);
      Nodes += V.NodesExplored;
      if (Inc.stats().FastPathVerdicts == Fast0 && V.NodesExplored != 0) {
        MissNodes += V.NodesExplored;
        ++Misses;
      }
    }
    Timer.stop(State);
    Checks += T.size();
    Stats.accumulate(Inc.stats());
    // The memo never shrinks within a session: its bytes at the end are
    // the iteration's largest.
    MemoBytesMax = std::max(MemoBytesMax, Inc.memo().memoryBytes());
  }
  Timer.report(State);
  State.SetItemsProcessed(static_cast<std::int64_t>(Checks));
  const double C = static_cast<double>(Checks ? Checks : 1);
  const double M = static_cast<double>(Misses ? Misses : 1);
  State.counters["nodes_per_check"] =
      benchmark::Counter(static_cast<double>(Nodes) / C);
  State.counters["nodes_per_miss"] =
      benchmark::Counter(static_cast<double>(MissNodes) / M);
  State.counters["miss_per_check"] =
      benchmark::Counter(static_cast<double>(Misses) / C);
  State.counters["cut_resumes_per_miss"] =
      benchmark::Counter(static_cast<double>(Stats.CutResumes) / M);
  State.counters["root_searches_per_miss"] =
      benchmark::Counter(static_cast<double>(Stats.RootSearches) / M);
  State.counters["seed_replay_per_check"] = benchmark::Counter(
      static_cast<double>(Stats.Search.SeedStepsReplayed) / C);
  State.counters["memo_bytes_max"] =
      benchmark::Counter(static_cast<double>(MemoBytesMax));
}
BENCHMARK(BM_E8_ReorderSlin)->Arg(64)->UseManualTime();

static void BM_E8_PrefixCorpus(benchmark::State &State) {
  RegisterAdt Reg;
  auto Corpus = prefixClosedCorpus(8, 48);
  CorpusOptions Opts;
  Opts.SharePrefixes = State.range(0) != 0;
  CorpusDriver Driver(Reg, Opts);
  std::uint64_t Yes = 0, Nodes = 0, Checks = 0;
  for (auto _ : State) {
    CorpusReport R = Driver.checkLin(Corpus);
    benchmark::DoNotOptimize(R.Results.data());
    Yes += R.Yes;
    Nodes += R.Aggregate.Search.Nodes;
    Checks += R.Aggregate.Checks;
  }
  State.SetItemsProcessed(State.iterations() * Corpus.size());
  const double Iters = static_cast<double>(State.iterations());
  const double Traces = Iters * static_cast<double>(Corpus.size());
  State.counters["yes_per_iter"] =
      benchmark::Counter(static_cast<double>(Yes) / Iters);
  // Deterministic: every iteration runs fresh driver sessions. One check
  // per trace; the node count is what the shared session's reuse saves.
  State.counters["nodes_per_trace"] =
      benchmark::Counter(static_cast<double>(Nodes) / Traces);
  State.counters["checks_per_trace"] =
      benchmark::Counter(static_cast<double>(Checks) / Traces);
}
BENCHMARK(BM_E8_PrefixCorpus)->Arg(0)->Arg(1)->UseRealTime();

SLIN_BENCH_JSON_MAIN()
