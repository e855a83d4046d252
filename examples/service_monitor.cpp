//===- examples/service_monitor.cpp - Sharded multi-object monitoring ----==//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//
//
// The composition theorem as a running service: a fleet of independent
// replicated KV objects (one Paxos/Quorum-stack simulation each,
// examples/SimDriver.h) streams its merged event log — rendered as the
// service wire format, object id first — into one MonitorService on one
// thread. The service demuxes by object into per-shard incremental
// sessions, publishes a shard verdict per event (BatchWindow 1), and
// composes the whole-system verdict from the shard verdicts alone; no
// cross-object interleaving is ever searched, which is exactly why ten
// thousand clients over a thousand objects fit in one thread's budget.
//
// By the same theorem a one-object run is the session monitor: `objects 1`
// streams one replicated object's trace through one incremental session
// (lin, or with --slin the object as the sole phase of a speculative
// object), with a verdict after every event. `objects 1 clients 3 ops
// 4096` is the long-trace smoke: definitive the whole way, zero seed
// replay, every steady verdict on the fast path (steady_checks,
// fast_path_per_check), and a window bounded by retirement.
//
// The defaults run 1024 objects x 10 clients = 10240 simulated clients,
// 512 operations per object (~1M wire events). Every event is parsed
// from its wire line (zero-copy), appended straight into its shard's
// session, and answered; the composed verdict is current as soon as
// ingestText returns. Past warm-up the whole service path is
// allocation-free (allocs_per_event below counts operator-new calls
// inside the gauged ingest region; CI asserts it stays 0) and every
// shard's live window stays bounded by retirement.
//
// --violate corrupts one response of object 0 (an output no KV execution
// produces), demonstrating fault localization: that shard's session turns
// No, the composed verdict turns No, and the summary names the object. In
// lin mode under the strict order the No freezes the shard: its window
// stays at the No and its later events allocate nothing.
//
// --straggler demonstrates graded degradation and recovery: after the sim
// stream, one extra shard receives an operation that invokes and stays
// open while 70 completions pile up behind it. The pinned shard's window
// overflows, its verdict degrades to a BoundedYes-graded Unknown (the
// first 64 live obligations linearized; only the bounded out-of-window
// tail is unchecked), and the composed verdict names it. When the
// straggler finally responds the shard drains, recovers to Yes, and
// un-pins the composition — the summary records both phases.
//
// Usage:
//   service_monitor [--slin] [--violate | --straggler]
//                   [--order <strict|tso>] [objects <n>] [clients <n>]
//                   [ops <n>] [seed <n>] [batch <n>]
//
// Counts are decimal: objects and ops in [1, 65536], clients in [1, 63],
// objects x clients below 2^20 - 1, batch at least 1. A sign, trailing
// text or an out-of-range value prints the usage line and exits 2.
//
// Emits one JSON summary line. Exit status 1 if the final composed
// verdict is not Yes (0 with --violate, where No is the expected answer;
// with --straggler the run must also pass through the degraded phase).
//
//===----------------------------------------------------------------------===//

#include "SimDriver.h"
#include "adt/KvStore.h"
#include "service/Service.h"
#include "support/AllocGauge.h"
#include "trace/TraceBuilder.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

SLIN_DEFINE_ALLOC_GAUGE()

using namespace slin;

int main(int Argc, char **Argv) {
  unsigned long long Objects = 1024;
  unsigned long long Clients = 10; // Per object.
  unsigned long long Ops = 512;    // Per object.
  unsigned long long Seed = 7;
  unsigned long long Batch = 1;
  bool SlinMode = false;
  bool Violate = false;
  bool Straggler = false;
  OrderRelationKind Order = OrderRelationKind::Strict;
  bool ArgsOk = true;
  for (int I = 1; I < Argc && ArgsOk; ++I) {
    const char *Arg = Argv[I];
    if (!std::strcmp(Arg, "--slin"))
      SlinMode = true;
    else if (!std::strcmp(Arg, "--violate"))
      Violate = true;
    else if (!std::strcmp(Arg, "--straggler"))
      Straggler = true;
    else if (++I == Argc) // Every other argument takes a value.
      ArgsOk = false;
    else if (!std::strcmp(Arg, "--order"))
      ArgsOk = parseOrderRelation(Argv[I], Order);
    else if (!std::strcmp(Arg, "objects"))
      ArgsOk = simdrv::parseUnsigned(Argv[I], 1, 1u << 16, Objects);
    else if (!std::strcmp(Arg, "clients"))
      ArgsOk = simdrv::parseUnsigned(Argv[I], 1, 63, Clients);
    else if (!std::strcmp(Arg, "ops"))
      ArgsOk = simdrv::parseUnsigned(Argv[I], 1, 1u << 16, Ops);
    else if (!std::strcmp(Arg, "seed"))
      ArgsOk = simdrv::parseUnsigned(Argv[I], 0, ~0ULL, Seed);
    else if (!std::strcmp(Arg, "batch"))
      ArgsOk = simdrv::parseUnsigned(Argv[I], 1, ~0ULL, Batch);
    else
      ArgsOk = false;
  }
  // Wire client ids are global (object * clients + client, plus the
  // straggler's two) and the parser takes them below 2^20.
  if (!ArgsOk || (Violate && Straggler) ||
      Objects * Clients + 2 > TraceBuilder::MaxClients) {
    std::fprintf(stderr,
                 "usage: %s [--slin] [--violate | --straggler] "
                 "[--order <strict|tso>] "
                 "[objects <1..65536>] [clients <1..63>] [ops <1..65536>] "
                 "(objects x clients < 2^20 - 1) "
                 "[seed <n>] [batch <n>]\n",
                 Argv[0]);
    return 2;
  }

  KvStoreAdt Kv;
  StackConfig Base;
  Base.NumServers = 3;
  Base.NumClients = Clients;
  Base.Seed = Seed;
  simdrv::MultiObjectSim Sim(Kv, Objects, Base);
  for (std::size_t K = 0; K != Objects; ++K)
    simdrv::submitKvWorkload(Sim.harness(K), Clients, Ops);

  ServiceConfig Config;
  Config.Mode = SlinMode ? ServiceMode::Slin : ServiceMode::Lin;
  Config.BatchWindow = Batch;
  // Every shard session derives MustFollow under this relation. The SMR
  // harness marks its responses flushed (post-consensus visibility), so
  // --order tso must reproduce the strict verdicts and steady-state
  // contract across the whole fleet.
  Config.Order = Order;

  // Slin mode: each object is the sole phase of a speculative object (no
  // init/abort actions on a whole-object trace, so the universal family
  // is the singleton empty assignment) — same verdicts as lin, exercised
  // through the slin family fast path, shard by shard.
  PhaseSignature Sig(1, 2);
  UniversalInitRelation Rel;
  MonitorService Service =
      SlinMode ? MonitorService(Kv, Sig, Rel, Config)
               : MonitorService(Kv, Config);

  // Events are counted steady — and heap allocations gauged — once every
  // shard is past its own warm-up (saturated interner/arena/memo and
  // enough retirement folds that a fold no longer grows anything; ~700
  // events per shard empirically): min(1024, 3/4 of its events) in. Shards
  // advance in lockstep, so the region starts that many events per object
  // into the merged stream. Each steady response is one new obligation
  // checked (an invocation is absorbed against the cached verdict), so the
  // fast-path ratio is per steady response.
  const std::size_t ShardEvents = 2 * Ops;
  const std::size_t SteadyFrom =
      Objects * std::min<std::size_t>(1024, ShardEvents * 3 / 4);

  std::size_t Fed = 0;
  std::size_t SteadyEvents = 0;
  std::size_t SteadyChecks = 0;
  std::uint64_t SteadyAllocs = 0;
  std::uint64_t FastPath0 = 0;
  double ServiceSeconds = 0;
  std::string Buf;
  std::uint64_t Responses0 = 0; // Object 0 responses seen (for --violate).
  bool Ok = true;

  std::size_t Delivered = Sim.run([&](std::uint32_t Obj, SimTime,
                                      const Action &A) {
    Action Wire = A;
    // Shard client remap is global -> dense local; make the wire ids
    // genuinely global so the summary's client population is real.
    Wire.Client = Obj * Clients + A.Client;
    // The violation is injected at the shard's *first* response: a one-
    // obligation window refutes it in a handful of nodes, the session
    // caches the conclusive No (absorbing under extension), and every
    // later verdict on that shard is O(1). A mid-stream corruption is
    // also detected, but proving No over a deep window is an exponential
    // exact search re-run per event — the wrong thing to demo.
    if (Violate && Obj == 0 && A.Kind == ActionKind::Respond &&
        ++Responses0 == 1)
      Wire.Out.Val += 9999; // An output no KV execution produces.
    Buf.clear();
    appendServiceLine(Buf, Obj, Wire); // Rendering is the harness's cost.

    bool Steady = Fed >= SteadyFrom;
    if (Fed == SteadyFrom)
      FastPath0 = Service.aggregateSessionStats().FastPathVerdicts;
    SteadyChecks += Steady && A.Kind == ActionKind::Respond;
    std::uint64_t Allocs0 = Steady ? AllocGauge::count() : 0;
    auto Start = std::chrono::steady_clock::now();
    if (!Service.ingestText(Buf))
      Ok = false;
    ServiceSeconds += std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - Start)
                          .count();
    if (Steady) {
      SteadyAllocs += AllocGauge::count() - Allocs0;
      ++SteadyEvents;
    }
    ++Fed;
  });
  Service.flush();
  const std::uint64_t SteadyFastPath =
      Service.aggregateSessionStats().FastPathVerdicts - FastPath0;

  // --straggler: one extra shard (id Objects, never used by the sim)
  // demonstrates the graded-degradation lifecycle over the same wire
  // path. An open invoke pins the shard's retirement cut while 70
  // completions overflow its 64-slot window; the backlog past the window
  // stays under the interference bound, so the shard degrades to a
  // BoundedYes-graded Unknown instead of a flat one. The late response
  // then drains the excursion and the composition recovers to Yes.
  bool StragglerDegraded = false;
  bool StragglerRecovered = false;
  std::size_t BoundedShardsPeak = 0;
  if (Straggler) {
    const std::uint32_t Obj = static_cast<std::uint32_t>(Objects);
    const std::uint32_t Pinner = static_cast<std::uint32_t>(Objects * Clients);
    std::unique_ptr<AdtState> Model = Kv.makeState();
    auto Feed = [&](const Action &A) {
      Buf.clear();
      appendServiceLine(Buf, Obj, A);
      if (!Service.ingestText(Buf))
        Ok = false;
    };
    Input Pinned = kv::put(1, 7);
    Feed(makeInvoke(Pinner, 1, Pinned));
    for (unsigned K = 0; K != 70; ++K) {
      Input In = kv::get(1);
      Feed(makeInvoke(Pinner + 1, 1, In));
      Feed(makeRespond(Pinner + 1, 1, In, Model->apply(In)));
    }
    Service.flush();
    StragglerDegraded = Service.composedVerdict() == Verdict::Unknown &&
                        Service.composedGrade() == VerdictGrade::BoundedYes &&
                        Service.culpritObject() == Obj;
    BoundedShardsPeak = Service.tracker().boundedShards();
    Feed(makeRespond(Pinner, 1, Pinned, Model->apply(Pinned)));
    Service.flush();
    StragglerRecovered = Service.shardVerdict(Obj) == Verdict::Yes &&
                         Service.composedGrade() == VerdictGrade::Yes;
  }

  if (!Ok)
    std::fprintf(stderr, "wire error: %s\n", Service.lastError().c_str());

  Verdict Final = Service.composedVerdict();
  SessionStats Sessions = Service.aggregateSessionStats();
  const ServiceStats &S = Service.stats();
  std::size_t MemTotal = Service.memoryFootprintBytes();
  std::size_t MemMax = Service.maxShardMemoryBytes();
  const char *V = Final == Verdict::Yes   ? "yes"
                  : Final == Verdict::No  ? "no"
                                          : "unknown";
  VerdictGrade Grade = Service.composedGrade();
  const char *G = Grade == VerdictGrade::Yes          ? "yes"
                  : Grade == VerdictGrade::BoundedYes ? "bounded-yes"
                  : Grade == VerdictGrade::No         ? "no"
                                                      : "unknown";
  std::printf(
      "{\"summary\":{\"mode\":\"%s\",\"order\":\"%s\",\"objects\":%llu,"
      "\"clients_total\":%llu,"
      "\"events\":%zu,\"verdict\":\"%s\",\"composed_grade\":\"%s\","
      "\"culprit_object\":%lld,"
      "\"reason\":\"%s\","
      "\"bounded_yes_verdicts\":%llu,\"bounded_shards\":%zu,"
      "\"straggler_degraded\":%d,\"straggler_recovered\":%d,"
      "\"bounded_shards_peak\":%zu,"
      "\"shard_verdicts\":%llu,\"parse_errors\":%llu,"
      "\"fast_path_verdicts\":%llu,\"seed_steps_replayed\":%llu,"
      "\"retired_obligations\":%llu,"
      "\"live_window_high_water\":%llu,\"window_overflows\":%llu,"
      "\"steady_events\":%zu,\"allocs_per_event\":%.6f,"
      "\"steady_checks\":%zu,\"fast_path_per_check\":%.6f,"
      "\"alloc_gauge_active\":%d,"
      "\"shard_memory_avg_bytes\":%zu,\"shard_memory_max_bytes\":%zu,"
      "\"service_seconds\":%.3f,\"events_per_sec\":%.0f}}\n",
      SlinMode ? "slin" : "lin", orderRelationName(Order), Objects,
      Objects * Clients, Delivered, V, G,
      Final == Verdict::Yes ? -1LL
                            : static_cast<long long>(Service.culpritObject()),
      Service.composedReason().c_str(),
      static_cast<unsigned long long>(Sessions.BoundedYesVerdicts),
      Service.tracker().boundedShards(), StragglerDegraded ? 1 : 0,
      StragglerRecovered ? 1 : 0, BoundedShardsPeak,
      static_cast<unsigned long long>(S.ShardVerdicts),
      static_cast<unsigned long long>(S.ParseErrors),
      static_cast<unsigned long long>(Sessions.FastPathVerdicts),
      static_cast<unsigned long long>(Sessions.Search.SeedStepsReplayed),
      static_cast<unsigned long long>(Sessions.RetiredObligations),
      static_cast<unsigned long long>(Sessions.LiveWindowHighWater),
      static_cast<unsigned long long>(Sessions.WindowOverflows),
      SteadyEvents,
      SteadyEvents ? static_cast<double>(SteadyAllocs) /
                         static_cast<double>(SteadyEvents)
                   : 0.0,
      SteadyChecks,
      SteadyChecks ? static_cast<double>(SteadyFastPath) /
                         static_cast<double>(SteadyChecks)
                   : 1.0,
      AllocGauge::active() ? 1 : 0, Service.shardCount() ? MemTotal / Service.shardCount() : 0,
      MemMax, ServiceSeconds,
      ServiceSeconds > 0 ? static_cast<double>(Delivered) / ServiceSeconds
                         : 0.0);

  if (!Ok)
    return 2;
  if (Violate)
    return Final == Verdict::No ? 0 : 1;
  if (Straggler)
    return StragglerDegraded && StragglerRecovered && Final == Verdict::Yes
               ? 0
               : 1;
  return Final == Verdict::Yes ? 0 : 1;
}
