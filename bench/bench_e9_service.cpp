//===- bench/bench_e9_service.cpp - E9: sharded monitoring service --------==//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//
//
// Experiment E9: what the composition theorem buys as a system — aggregate
// throughput of the sharded multi-object monitoring service
// (src/service/Service.h) on one thread. Every row streams the service
// wire format (object id + the hardened TraceIo line format) through the
// full pipeline inside ingestText: zero-copy parse, demux by flat object
// index, session append with client remap, batched shard verdicts,
// composed whole-system verdict.
//
//   * Service_Aggregate: the headline rows. N independent register objects
//     run fully-quiescing rounds of 4 concurrent operations each — the
//     same round structure as bench_e8's quiescingRegisterHistory, so
//     every shard retires continuously — interleaved round-robin across
//     objects into one genuinely multiplexed stream. The stream text for
//     each iteration is rendered untimed; the timed region is
//     ingestText over one full round-block (8 x N events), with
//     per-event composed verdicts (BatchWindow 1). Reports
//     events_per_sec (the acceptance figure: >= 1M aggregate on the
//     1-core bench box), per-shard memory (avg/max bytes), and the
//     sessions' window counters.
//
//   * Service_Aggregate_Slin: the same aggregate shape with every shard an
//     IncrementalSlinSession (whole object as the sole phase under the
//     universal relation — verdicts coincide with lin, machinery is the
//     slin family fast path).
//
//   * Service_BatchWindow: publication-cadence sweep at 64 objects.
//     BatchWindow in {1, 8, 64} — the session verdict always runs per
//     append (the outcome-only fast path demands that cadence; see
//     Service.h), so this measures the composed-tracker publication and
//     reason bookkeeping that batching amortizes (verdicts_per_event
//     documents the publication cadence actually achieved).
//
//   * Service_PerEvent: per-operation latency through the whole service
//     path at 256 objects — one operation (invoke + respond lines) for one
//     object per iteration, cycling round-robin, p50/p99 over the timed
//     regions (the service-side analogue of bench_e8's steady-state
//     latency rows).
//
//   * WireParse: the parse stage alone. parseServiceLine over a
//     pregenerated multi-object buffer, no service behind it — the
//     zero-copy demux floor (lines_per_sec).
//
// All rows are single-threaded; capture BENCH_e9.json as interleaved
// median-of-3 runs (1-core bench box), `./bench_e9_service > BENCH_e9.json`
// style with the runs merged by median as for BENCH_e8.json.
//
//===----------------------------------------------------------------------===//

#include "adt/Register.h"
#include "service/Service.h"
#include "trace/Gen.h"

#include "BenchJson.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

using namespace slin;

namespace {

/// Wall plus thread-CPU timing of exactly the measured region of one
/// manual-time iteration — same shape as bench_e8's TimedRegion; see the
/// methodology note in bench/BenchJson.h.
class TimedRegion {
public:
  TimedRegion() {
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

/// Per-region latency distribution (nearest-rank percentiles), as in
/// bench_e8.
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

/// Endless generator of the multi-object service wire stream: N
/// independent register objects, each running fully-quiescing rounds of
/// \p Conc concurrent operations (all invoke, then all respond with the
/// outputs of applying the inputs in invocation order — every round
/// boundary a quiescence cut, so every shard retires continuously),
/// interleaved round-robin across objects round by round. Client ids on
/// the wire are global (object * Conc + c), exercising the shards' remap.
class WireStreamGen {
public:
  WireStreamGen(std::size_t Objects, unsigned Conc, std::uint64_t Seed)
      : Conc(Conc), R(Seed) {
    Models.reserve(Objects);
    for (std::size_t K = 0; K != Objects; ++K)
      Models.push_back(Reg.makeState());
  }

  std::size_t objects() const { return Models.size(); }
  std::size_t eventsPerBlock() const { return Models.size() * 2 * Conc; }

  /// Appends one round for every object (2 * Conc * objects() rendered
  /// wire lines) to \p Out. Returns the number of events appended.
  std::size_t appendBlock(std::string &Out) {
    for (std::size_t Obj = 0; Obj != Models.size(); ++Obj)
      appendRound(Out, Obj);
    return eventsPerBlock();
  }

  /// Appends one operation (invoke + respond) for object \p Obj — the
  /// single-client per-event shape the latency row streams.
  void appendOp(std::string &Out, std::size_t Obj) {
    Input In = pick();
    ClientId C = static_cast<ClientId>(Obj * Conc);
    appendServiceLine(Out, static_cast<ObjectId>(Obj), makeInvoke(C, 1, In));
    appendServiceLine(Out, static_cast<ObjectId>(Obj),
                      makeRespond(C, 1, In, Models[Obj]->apply(In)));
  }

private:
  Input pick() {
    const Input Alphabet[4] = {reg::read(), reg::write(1), reg::write(2),
                               reg::write(3)};
    return Alphabet[R.next() % 4];
  }

  void appendRound(std::string &Out, std::size_t Obj) {
    Input Ins[64];
    for (unsigned C = 0; C != Conc; ++C) {
      Ins[C] = pick();
      appendServiceLine(Out, static_cast<ObjectId>(Obj),
                        makeInvoke(static_cast<ClientId>(Obj * Conc + C), 1,
                                   Ins[C]));
    }
    for (unsigned C = 0; C != Conc; ++C)
      appendServiceLine(Out, static_cast<ObjectId>(Obj),
                        makeRespond(static_cast<ClientId>(Obj * Conc + C), 1,
                                    Ins[C], Models[Obj]->apply(Ins[C])));
  }

  RegisterAdt Reg;
  std::vector<std::unique_ptr<AdtState>> Models;
  unsigned Conc;
  Rng R;
};

/// Streams \p Rounds warm-up round-blocks through \p Service untimed, so
/// every shard is past its own warm-up (saturated interner/arena/memo,
/// retirement folds no longer growing anything) before measurement.
void primeService(MonitorService &Service, WireStreamGen &Gen,
                  unsigned Rounds, std::string &Buf) {
  for (unsigned I = 0; I != Rounds; ++I) {
    Buf.clear();
    Gen.appendBlock(Buf);
    if (!Service.ingestText(Buf))
      std::abort(); // The generator renders only well-formed lines.
  }
}

/// The shared aggregate-throughput loop: per iteration, render one
/// round-block untimed, then time ingestText over it. Publishes
/// the acceptance counters.
void runAggregate(benchmark::State &State, MonitorService &Service,
                  WireStreamGen &Gen, unsigned WarmRounds) {
  std::string Buf;
  Buf.reserve(Gen.eventsPerBlock() * 32);
  primeService(Service, Gen, WarmRounds, Buf);

  std::uint64_t Events = 0;
  std::uint64_t FastPath0 = Service.aggregateSessionStats().FastPathVerdicts;
  TimedRegion Timer;
  for (auto _ : State) {
    Buf.clear();
    std::size_t Block = Gen.appendBlock(Buf);
    Timer.start();
    bool Ok = Service.ingestText(Buf);
    Timer.stop(State);
    benchmark::DoNotOptimize(Ok);
    Events += Block;
  }
  Timer.report(State);

  SessionStats Sessions = Service.aggregateSessionStats();
  double E = static_cast<double>(Events ? Events : 1);
  State.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(Gen.eventsPerBlock()),
      benchmark::Counter::kIsIterationInvariantRate);
  State.counters["events_per_block"] =
      benchmark::Counter(static_cast<double>(Gen.eventsPerBlock()));
  State.counters["composed_yes"] = benchmark::Counter(
      Service.composedVerdict() == Verdict::Yes ? 1.0 : 0.0);
  State.counters["fast_path_per_event"] = benchmark::Counter(
      static_cast<double>(Sessions.FastPathVerdicts - FastPath0) / E);
  State.counters["live_window_high_water"] =
      benchmark::Counter(static_cast<double>(Sessions.LiveWindowHighWater));
  State.counters["window_overflows"] =
      benchmark::Counter(static_cast<double>(Sessions.WindowOverflows));
  std::size_t Count = Service.shardCount();
  State.counters["shard_memory_avg_bytes"] = benchmark::Counter(
      Count ? static_cast<double>(Service.memoryFootprintBytes() / Count)
            : 0.0);
  State.counters["shard_memory_max_bytes"] = benchmark::Counter(
      static_cast<double>(Service.maxShardMemoryBytes()));
}

/// Warm-up rounds so each shard is ~512 events in before the timed loop —
/// past the point where retirement folds stop growing storage (the
/// allocation-free threshold service_monitor gauges end to end).
constexpr unsigned AggregateWarmRounds = 64;

} // namespace

//===----------------------------------------------------------------------===//
// Aggregate throughput: the whole pipeline at N objects, one thread.
//===----------------------------------------------------------------------===//

static void BM_E9_Service_Aggregate(benchmark::State &State) {
  RegisterAdt Reg;
  std::size_t Objects = static_cast<std::size_t>(State.range(0));
  WireStreamGen Gen(Objects, 4, 0xE9);
  MonitorService Service(Reg);
  runAggregate(State, Service, Gen, AggregateWarmRounds);
}
BENCHMARK(BM_E9_Service_Aggregate)->Arg(64)->Arg(1024)->UseManualTime();

static void BM_E9_Service_Aggregate_Slin(benchmark::State &State) {
  RegisterAdt Reg;
  std::size_t Objects = static_cast<std::size_t>(State.range(0));
  WireStreamGen Gen(Objects, 4, 0xE95);
  // Whole object as the sole phase of a speculative object: singleton
  // interpretation family, verdicts coincide with lin, machinery is the
  // slin family fast path — shard by shard.
  PhaseSignature Sig(1, 2);
  UniversalInitRelation Rel;
  MonitorService Service(Reg, Sig, Rel);
  runAggregate(State, Service, Gen, AggregateWarmRounds);
}
BENCHMARK(BM_E9_Service_Aggregate_Slin)->Arg(64)->UseManualTime();

//===----------------------------------------------------------------------===//
// Verdict cadence: BatchWindow sweep at fixed scale.
//===----------------------------------------------------------------------===//

static void BM_E9_Service_BatchWindow(benchmark::State &State) {
  RegisterAdt Reg;
  ServiceConfig Config;
  Config.BatchWindow = static_cast<std::size_t>(State.range(0));
  WireStreamGen Gen(64, 4, 0xE9B);
  MonitorService Service(Reg, Config);
  std::uint64_t Verdicts0 = 0;
  {
    std::string Buf;
    primeService(Service, Gen, AggregateWarmRounds, Buf);
    Verdicts0 = Service.stats().ShardVerdicts;
  }
  std::uint64_t Events = 0;
  TimedRegion Timer;
  std::string Buf;
  for (auto _ : State) {
    Buf.clear();
    std::size_t Block = Gen.appendBlock(Buf);
    Timer.start();
    bool Ok = Service.ingestText(Buf);
    Timer.stop(State);
    benchmark::DoNotOptimize(Ok);
    Events += Block;
  }
  Timer.report(State);
  State.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(Gen.eventsPerBlock()),
      benchmark::Counter::kIsIterationInvariantRate);
  State.counters["verdicts_per_event"] = benchmark::Counter(
      static_cast<double>(Service.stats().ShardVerdicts - Verdicts0) /
      static_cast<double>(Events ? Events : 1));
  State.counters["composed_yes"] = benchmark::Counter(
      Service.composedVerdict() == Verdict::Yes ? 1.0 : 0.0);
}
BENCHMARK(BM_E9_Service_BatchWindow)
    ->Arg(1)
    ->Arg(8)
    ->Arg(64)
    ->UseManualTime();

//===----------------------------------------------------------------------===//
// Per-operation latency through the whole service path.
//===----------------------------------------------------------------------===//

static void BM_E9_Service_PerEvent(benchmark::State &State) {
  RegisterAdt Reg;
  std::size_t Objects = static_cast<std::size_t>(State.range(0));
  // Single client per object: every response is a quiescent cut, so the
  // steady state is the pure fast path — the floor of the service's
  // per-event cost, measured per operation (two wire lines).
  WireStreamGen Gen(Objects, 1, 0xE9C);
  MonitorService Service(Reg);
  std::string Buf;
  // 512 warm ops per shard (Conc 1: a block is one op per object).
  primeService(Service, Gen, 512, Buf);

  std::size_t Cursor = 0;
  std::uint64_t Events = 0;
  TimedRegion Timer;
  LatencySamples Latency;
  for (auto _ : State) {
    Buf.clear();
    Gen.appendOp(Buf, Cursor);
    Cursor = (Cursor + 1) % Objects;
    Timer.start();
    bool Ok = Service.ingestText(Buf);
    Latency.add(Timer.stop(State) / 2); // Two events per region.
    benchmark::DoNotOptimize(Ok);
    Events += 2;
  }
  Timer.report(State);
  Latency.report(State);
  State.counters["events_per_sec"] = benchmark::Counter(
      2.0, benchmark::Counter::kIsIterationInvariantRate);
  State.counters["composed_yes"] = benchmark::Counter(
      Service.composedVerdict() == Verdict::Yes ? 1.0 : 0.0);
}
BENCHMARK(BM_E9_Service_PerEvent)->Arg(256)->UseManualTime();

//===----------------------------------------------------------------------===//
// Overflow excursion and recovery: the graded-degradation lifecycle.
//===----------------------------------------------------------------------===//

static void BM_E9_Service_OverflowRecovery(benchmark::State &State) {
  // One shard through a full straggler cycle per iteration: an operation
  // invokes and stays open while 70 completions overflow the 64-slot
  // window (the first verdict past the overflow runs one capped round over
  // the first 64 obligations and grades BoundedYes, later ones serve it
  // from cache), then the straggler responds, the session folds the
  // backlog with that same round, and the shard — and the composed verdict
  // — recovers to Yes. Times the whole cycle (142 wire events); the
  // counters pin the lifecycle: exactly one window overflow per cycle, a
  // recovered composed Yes at every cycle's end, the graded cadence during
  // the excursion, and the session search nodes a cycle spends
  // (deterministic).
  RegisterAdt Reg;
  MonitorService Service(Reg);
  RegisterAdt Model;
  std::unique_ptr<AdtState> S = Model.makeState();
  std::string Buf;
  // Steady warm-up: 512 single-client ops settle the shard's capacities
  // (the drain reuses the same engine scratch and memo).
  for (unsigned K = 0; K != 512; ++K) {
    Buf.clear();
    Input In = reg::write(static_cast<std::int64_t>(K % 5));
    appendServiceLine(Buf, 0, makeInvoke(1, 1, In));
    appendServiceLine(Buf, 0, makeRespond(1, 1, In, S->apply(In)));
    if (!Service.ingestText(Buf))
      std::abort();
  }

  constexpr std::size_t CycleEvents = 2 + 2 * 70;
  std::uint64_t Overflows0 = Service.aggregateSessionStats().WindowOverflows;
  std::uint64_t Bounded0 = Service.aggregateSessionStats().BoundedYesVerdicts;
  std::uint64_t Nodes0 = Service.aggregateSessionStats().Search.Nodes;
  std::uint64_t Cycles = 0;
  std::uint64_t RecoveredYes = 0;
  TimedRegion Timer;
  for (auto _ : State) {
    Buf.clear();
    Input Pinned = reg::write(9);
    appendServiceLine(Buf, 0, makeInvoke(0, 1, Pinned));
    for (unsigned K = 0; K != 70; ++K) {
      Input In = reg::read();
      appendServiceLine(Buf, 0, makeInvoke(1, 1, In));
      appendServiceLine(Buf, 0, makeRespond(1, 1, In, S->apply(In)));
    }
    appendServiceLine(Buf, 0, makeRespond(0, 1, Pinned, S->apply(Pinned)));
    Timer.start();
    bool Ok = Service.ingestText(Buf);
    Timer.stop(State);
    benchmark::DoNotOptimize(Ok);
    RecoveredYes += Service.composedVerdict() == Verdict::Yes &&
                    Service.composedGrade() == VerdictGrade::Yes;
    ++Cycles;
  }
  Timer.report(State);

  SessionStats Sessions = Service.aggregateSessionStats();
  double C = static_cast<double>(Cycles ? Cycles : 1);
  State.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(CycleEvents),
      benchmark::Counter::kIsIterationInvariantRate);
  State.counters["recovered_yes_per_cycle"] =
      benchmark::Counter(static_cast<double>(RecoveredYes) / C);
  State.counters["overflows_per_cycle"] = benchmark::Counter(
      static_cast<double>(Sessions.WindowOverflows - Overflows0) / C);
  State.counters["bounded_yes_per_cycle"] = benchmark::Counter(
      static_cast<double>(Sessions.BoundedYesVerdicts - Bounded0) / C);
  State.counters["nodes_per_cycle"] = benchmark::Counter(
      static_cast<double>(Sessions.Search.Nodes - Nodes0) / C);
  State.counters["live_window_high_water"] =
      benchmark::Counter(static_cast<double>(Sessions.LiveWindowHighWater));
}
BENCHMARK(BM_E9_Service_OverflowRecovery)->UseManualTime();

//===----------------------------------------------------------------------===//
// The parse stage alone: zero-copy wire decode, no service behind it.
//===----------------------------------------------------------------------===//

static void BM_E9_WireParse(benchmark::State &State) {
  // A pregenerated multiplexed buffer: 64 objects x 16 rounds of 4
  // concurrent ops = 8192 lines, parsed in full per iteration.
  WireStreamGen Gen(64, 4, 0xE9D);
  std::string Buf;
  std::size_t Lines = 0;
  for (unsigned I = 0; I != 16; ++I)
    Lines += Gen.appendBlock(Buf);
  std::string Error;
  TimedRegion Timer;
  for (auto _ : State) {
    std::uint64_t Accepted = 0;
    Timer.start();
    std::string_view Rest(Buf);
    while (!Rest.empty()) {
      std::size_t Eol = Rest.find('\n');
      std::string_view Line = Rest.substr(0, Eol);
      Rest.remove_prefix(Eol == std::string_view::npos ? Rest.size()
                                                       : Eol + 1);
      ServiceRecord R;
      if (parseServiceLine(Line, R, Error) == LineKind::Record)
        ++Accepted;
      benchmark::DoNotOptimize(R.Object);
    }
    Timer.stop(State);
    if (Accepted != Lines)
      State.SkipWithError("parse rejected generated lines");
  }
  Timer.report(State);
  State.counters["lines_per_sec"] = benchmark::Counter(
      static_cast<double>(Lines),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_E9_WireParse)->UseManualTime();

SLIN_BENCH_JSON_MAIN()
