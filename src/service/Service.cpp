//===- service/Service.cpp ------------------------------------------------==//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//

#include "service/Service.h"

#include <cassert>

using namespace slin;

namespace {
const std::string EmptyReason;
constexpr std::uint32_t NoShard = ~0u;
} // namespace

/// One object's slice of the service: its incremental session over the
/// object's projection, the global->local client remap, and the
/// batched-publication cursor. Exactly one of Lin/Slin is set, per the
/// service mode.
struct MonitorService::Shard {
  ObjectId Object = 0;
  std::uint32_t Index = 0; ///< Dense index; the tracker's shard id.
  std::unique_ptr<IncrementalLinSession> Lin;
  std::unique_ptr<IncrementalSlinSession> Slin;
  /// Local client id -> global wire id, first-seen order. Lookup is a
  /// linear scan: a shard's client set is its object's concurrency, which
  /// the 64-obligation window already bounds in practice.
  std::vector<std::uint32_t> Clients;
  std::uint64_t Events = 0;       ///< Appended into the session.
  std::size_t SinceVerdict = 0;   ///< Appends since the last publication.
  bool Doomed = false;            ///< Session rejected an event (final No).
  Verdict Last = Verdict::Yes;
  VerdictGrade LastGrade = VerdictGrade::Yes;
  bool HasVerdict = false;
  std::string LastReason;

  Shard(ObjectId Obj, std::uint32_t Idx) : Object(Obj), Index(Idx) {}

  std::uint32_t localClient(std::uint32_t Global) {
    for (std::uint32_t L = 0; L != Clients.size(); ++L)
      if (Clients[L] == Global)
        return L;
    Clients.push_back(Global);
    return static_cast<std::uint32_t>(Clients.size() - 1);
  }

  std::size_t memoryBytes() const {
    std::size_t Bytes =
        Clients.capacity() * sizeof(std::uint32_t) + sizeof(Shard);
    if (Lin)
      Bytes += Lin->memoryFootprintBytes();
    if (Slin)
      Bytes += Slin->memoryFootprintBytes();
    return Bytes;
  }
};

static IncrementalOptions shardOptions(const ServiceConfig &Config) {
  IncrementalOptions Opts;
  Opts.TranspositionCapacity = Config.TranspositionCapacity;
  // Outcome-only monitors: no trace view, no materialized retired prefix —
  // the two retention switches that keep an unbounded shard allocation-free
  // and O(live window) in space.
  Opts.RetainTrace = false;
  Opts.RetainRetiredWitness = false;
  Opts.InterferenceBound = Config.InterferenceBound;
  Opts.Order = Config.Order;
  return Opts;
}

MonitorService::MonitorService(const Adt &Type, const ServiceConfig &Config)
    : Type(Type), Config(Config), ShardOptions(shardOptions(Config)) {
  this->Config.Mode = ServiceMode::Lin;
}

MonitorService::MonitorService(const Adt &Type, const PhaseSignature &Sig,
                               const InitRelation &Rel,
                               const ServiceConfig &Config)
    : Type(Type), Sig(&Sig), Rel(&Rel), Config(Config),
      ShardOptions(shardOptions(Config)) {
  this->Config.Mode = ServiceMode::Slin;
}

MonitorService::~MonitorService() = default;

MonitorService::Shard &MonitorService::shardFor(ObjectId Object) {
  if (Object >= ShardSlot.size())
    ShardSlot.resize(Object + 1, NoShard);
  std::uint32_t &Slot = ShardSlot[Object];
  if (Slot == NoShard) {
    auto S = std::make_unique<Shard>(
        Object, static_cast<std::uint32_t>(Shards.size()));
    if (Config.Mode == ServiceMode::Lin)
      S->Lin = std::make_unique<IncrementalLinSession>(Type, ShardOptions);
    else
      S->Slin = std::make_unique<IncrementalSlinSession>(Type, *Sig, *Rel,
                                                         ShardOptions);
    Shards.push_back(std::move(S));
    Slot = Shards.back()->Index;
  }
  return *Shards[Slot];
}

const MonitorService::Shard *MonitorService::findShard(ObjectId Object) const {
  if (Object >= ShardSlot.size() || ShardSlot[Object] == NoShard)
    return nullptr;
  return Shards[ShardSlot[Object]].get();
}

bool MonitorService::ingestLine(std::string_view Line) {
  ServiceRecord R;
  switch (parseServiceLine(Line, R, LastError)) {
  case LineKind::Blank:
    return true;
  case LineKind::Bad:
    ++Stats.ParseErrors;
    return false;
  case LineKind::Record:
    ingest(R.Object, R.A);
    return true;
  }
  return false; // Unreachable.
}

bool MonitorService::ingestText(std::string_view Text) {
  unsigned LineNo = 0;
  while (!Text.empty()) {
    std::size_t Eol = Text.find('\n');
    std::string_view Line =
        Text.substr(0, Eol == std::string_view::npos ? Text.size() : Eol);
    Text = Eol == std::string_view::npos ? std::string_view{}
                                         : Text.substr(Eol + 1);
    ++LineNo;
    if (!ingestLine(Line)) {
      LastError = "line " + std::to_string(LineNo) + ": " + LastError;
      return false;
    }
  }
  return true;
}

void MonitorService::ingest(ObjectId Object, const Action &A) {
  // The id sizes the flat shard index, so a caller-supplied id past the
  // wire's own bound is dropped, not indexed.
  if (Object >= MaxObjectId) {
    ++Stats.Rejected;
    return;
  }
  ++Stats.Events;
  applyToShard(shardFor(Object), A);
}

void MonitorService::applyToShard(Shard &S, const Action &A) {
  ++S.Events;
  ++S.SinceVerdict;
  if (!S.Doomed) {
    Action Local = A;
    Local.Client = S.localClient(A.Client);
    WellFormedness W =
        S.Lin ? S.Lin->append(Local) : S.Slin->append(Local);
    if (!W.Ok)
      S.Doomed = true; // The session is doomed too; verdicts say why.
  }
  // The session verdict runs per append. Skipping some would be safe — a
  // sparser cadence gives the same verdicts (see "Verdict cadence" in
  // docs/service.md) — but the session's fast step covers exactly one new
  // obligation, so a verdict after two appends re-enters the engine while
  // the per-append one stays O(1). BatchWindow batches the *publication*
  // into the composed tracker.
  takeVerdict(S);
  if (S.SinceVerdict >= Config.BatchWindow)
    publishShard(S);
}

void MonitorService::takeVerdict(Shard &S) {
  // The scratch results keep their reason's capacity across shards and
  // events: a shard that repeats its non-Yes reason (a final No, a
  // BoundedYes) takes it without a heap allocation.
  Verdict V;
  VerdictGrade G;
  const std::string *Reason;
  if (S.Lin) {
    LinCheckOptions Opts;
    Opts.NodeBudget = Config.NodeBudget;
    Opts.WantWitness = false;
    S.Lin->verdict(Opts, LinResult);
    V = LinResult.Outcome;
    G = LinResult.Grade;
    Reason = &LinResult.Reason;
  } else {
    SlinCheckOptions Opts;
    Opts.Search.NodeBudget = Config.NodeBudget;
    Opts.Search.WantWitness = false;
    Opts.WantWitness = false;
    S.Slin->verdict(Opts, SlinResult);
    V = SlinResult.Outcome;
    G = SlinResult.Grade;
    Reason = &SlinResult.Reason;
  }
  if (V != Verdict::Yes && S.LastReason != *Reason)
    S.LastReason = *Reason;
  S.Last = V;
  S.LastGrade = G;
}

void MonitorService::publishShard(Shard &S) {
  S.SinceVerdict = 0;
  S.HasVerdict = true;
  ++Stats.ShardVerdicts;
  Tracker.update(S.Index, S.Last, S.LastGrade,
                 S.LastGrade == VerdictGrade::Yes ? EmptyReason
                                                  : S.LastReason);
}

void MonitorService::flush() {
  for (auto &S : Shards)
    if (S->SinceVerdict != 0 || !S->HasVerdict)
      publishShard(*S);
}

ObjectId MonitorService::culpritObject() const {
  std::uint32_t Idx = Tracker.culpritShard();
  assert(Idx < Shards.size() && "tracker indices are shard indices");
  return Shards[Idx]->Object;
}

const IncrementalLinSession *
MonitorService::linShard(ObjectId Object) const {
  const Shard *S = findShard(Object);
  return S ? S->Lin.get() : nullptr;
}

const IncrementalSlinSession *
MonitorService::slinShard(ObjectId Object) const {
  const Shard *S = findShard(Object);
  return S ? S->Slin.get() : nullptr;
}

Verdict MonitorService::shardVerdict(ObjectId Object) const {
  const Shard *S = findShard(Object);
  return S && S->HasVerdict ? S->Last : Verdict::Yes;
}

VerdictGrade MonitorService::shardGrade(ObjectId Object) const {
  const Shard *S = findShard(Object);
  return S && S->HasVerdict ? S->LastGrade : VerdictGrade::Yes;
}

const std::string &MonitorService::shardReason(ObjectId Object) const {
  const Shard *S = findShard(Object);
  return S && S->Last != Verdict::Yes ? S->LastReason : EmptyReason;
}

std::uint64_t MonitorService::shardEvents(ObjectId Object) const {
  const Shard *S = findShard(Object);
  return S ? S->Events : 0;
}

SessionStats MonitorService::aggregateSessionStats() const {
  SessionStats Total;
  for (const auto &S : Shards)
    Total.accumulate(S->Lin ? S->Lin->stats() : S->Slin->stats());
  return Total;
}

std::size_t MonitorService::memoryFootprintBytes() const {
  std::size_t Bytes = 0;
  for (const auto &S : Shards)
    Bytes += S->memoryBytes();
  return Bytes;
}

std::size_t MonitorService::maxShardMemoryBytes() const {
  std::size_t Max = 0;
  for (const auto &S : Shards) {
    std::size_t B = S->memoryBytes();
    Max = B > Max ? B : Max;
  }
  return Max;
}
