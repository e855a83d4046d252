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
// The defaults run 1024 objects x 10 clients = 10240 simulated clients,
// 128 operations per object (~260k wire events). Every event is parsed
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
// Emits one JSON summary line. Exit status 1 if the final composed
// verdict is not Yes (0 with --violate, where No is the expected answer;
// with --straggler the run must also pass through the degraded phase).
//
//===----------------------------------------------------------------------===//

#include "SimDriver.h"
#include "adt/KvStore.h"
#include "service/Service.h"
#include "support/AllocGauge.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

SLIN_DEFINE_ALLOC_GAUGE()

using namespace slin;

int main(int Argc, char **Argv) {
  std::size_t Objects = 1024;
  unsigned Clients = 10; // Per object.
  unsigned Ops = 512;    // Per object.
  std::uint64_t Seed = 7;
  std::size_t Batch = 1;
  bool SlinMode = false;
  bool Violate = false;
  bool Straggler = false;
  OrderRelationKind Order = OrderRelationKind::Strict;
  int I = 1;
  while (I < Argc) {
    if (!std::strcmp(Argv[I], "--slin")) {
      SlinMode = true;
      ++I;
      continue;
    }
    if (!std::strcmp(Argv[I], "--violate")) {
      Violate = true;
      ++I;
      continue;
    }
    if (!std::strcmp(Argv[I], "--straggler")) {
      Straggler = true;
      ++I;
      continue;
    }
    if (I + 1 >= Argc) {
      I = -1;
      break;
    }
    if (!std::strcmp(Argv[I], "objects"))
      Objects = static_cast<std::size_t>(std::atoll(Argv[I + 1]));
    else if (!std::strcmp(Argv[I], "clients"))
      Clients = static_cast<unsigned>(std::atoi(Argv[I + 1]));
    else if (!std::strcmp(Argv[I], "ops"))
      Ops = static_cast<unsigned>(std::atoi(Argv[I + 1]));
    else if (!std::strcmp(Argv[I], "seed"))
      Seed = static_cast<std::uint64_t>(std::atoll(Argv[I + 1]));
    else if (!std::strcmp(Argv[I], "batch"))
      Batch = static_cast<std::size_t>(std::atoll(Argv[I + 1]));
    else if (!std::strcmp(Argv[I], "--order")) {
      if (!parseOrderRelation(Argv[I + 1], Order))
        I = -2;
    } else
      I = -2;
    if (I < 0)
      break;
    I += 2;
  }
  if (I < 0 || Objects < 1 || Objects > (1u << 16) || Clients < 1 ||
      Clients > 63 || Ops < 1 || Ops > (1u << 16) || Batch < 1 ||
      (Violate && Straggler)) {
    std::fprintf(stderr,
                 "usage: %s [--slin] [--violate | --straggler] "
                 "[--order <strict|tso>] "
                 "[objects <n<=65536>] [clients <n<=63>] [ops <n<=65536>] "
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
  simdrv::KvWorkloadShape Shape;
  Shape.Ops = Ops;
  // Spread each round's submissions across the round and give the round
  // time to serialize: an object commits one op per ~20 ticks, and
  // simultaneous proposals above ~4 clients collide into dueling-proposer
  // storms whose straggler would pin every shard's retirement cut (see
  // KvWorkloadShape::ClientStagger). With the pace above the round's
  // serialization time, every round quiesces and retirement keeps each
  // shard's window bounded.
  Shape.RoundPace = Clients > 4 ? 25 * Clients : 100;
  Shape.ClientStagger = Shape.RoundPace / Clients;
  for (std::size_t K = 0; K != Objects; ++K)
    simdrv::submitKvWorkload(Sim.harness(K), Clients, Shape);

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
  // events per shard empirically). Shards advance in lockstep, so the
  // global threshold of ExpectedEvents * 3/4 puts each shard 3/4 of its
  // (default 1024) events in, past that point.
  const std::size_t ExpectedEvents = 2 * Objects * static_cast<std::size_t>(Ops);
  const std::size_t SteadyFrom = ExpectedEvents * 3 / 4;

  std::size_t Fed = 0;
  std::size_t SteadyEvents = 0;
  std::uint64_t SteadyAllocs = 0;
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
      "{\"summary\":{\"mode\":\"%s\",\"order\":\"%s\",\"objects\":%zu,"
      "\"clients_total\":%zu,"
      "\"events\":%zu,\"verdict\":\"%s\",\"composed_grade\":\"%s\","
      "\"culprit_object\":%lld,"
      "\"reason\":\"%s\","
      "\"bounded_yes_verdicts\":%llu,\"bounded_shards\":%zu,"
      "\"straggler_degraded\":%d,\"straggler_recovered\":%d,"
      "\"bounded_shards_peak\":%zu,"
      "\"shard_verdicts\":%llu,\"parse_errors\":%llu,"
      "\"fast_path_verdicts\":%llu,\"retired_obligations\":%llu,"
      "\"live_window_high_water\":%llu,\"window_overflows\":%llu,"
      "\"steady_events\":%zu,\"allocs_per_event\":%.6f,"
      "\"alloc_gauge_active\":%d,"
      "\"shard_memory_avg_bytes\":%zu,\"shard_memory_max_bytes\":%zu,"
      "\"service_seconds\":%.3f,\"events_per_sec\":%.0f}}\n",
      SlinMode ? "slin" : "lin", orderRelationName(Order), Objects,
      static_cast<std::size_t>(Objects) * Clients, Delivered, V, G,
      Final == Verdict::Yes ? -1LL
                            : static_cast<long long>(Service.culpritObject()),
      Service.composedReason().c_str(),
      static_cast<unsigned long long>(Sessions.BoundedYesVerdicts),
      Service.tracker().boundedShards(), StragglerDegraded ? 1 : 0,
      StragglerRecovered ? 1 : 0, BoundedShardsPeak,
      static_cast<unsigned long long>(S.ShardVerdicts),
      static_cast<unsigned long long>(S.ParseErrors),
      static_cast<unsigned long long>(Sessions.FastPathVerdicts),
      static_cast<unsigned long long>(Sessions.RetiredObligations),
      static_cast<unsigned long long>(Sessions.LiveWindowHighWater),
      static_cast<unsigned long long>(Sessions.WindowOverflows),
      SteadyEvents,
      SteadyEvents ? static_cast<double>(SteadyAllocs) /
                         static_cast<double>(SteadyEvents)
                   : 0.0,
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
