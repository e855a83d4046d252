//===- service/Service.h - Sharded multi-object monitor ---------*- C++ -*-==//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A long-lived monitoring service for many objects at once — the
/// composition theorem run as a system architecture. A multi-object
/// history satisfies (speculative) linearizability iff every per-object
/// projection does, so the service never checks a cross-object
/// interleaving: it demuxes the event stream by object id into one shard
/// per object, each shard an IncrementalLinSession/IncrementalSlinSession
/// over that object's projection, and composes the whole-system verdict
/// from the shard verdicts alone (slin/Composition.h,
/// ComposedVerdictTracker).
///
/// The pipeline, per event, all inside ingest():
///
///   wire line --parseServiceLine--> (object, action)     [zero-copy]
///            --demux--> shard slot, flat index by id     [O(1)]
///            --apply--> session append + verdict         [O(1) steady]
///            --batch--> publication every BatchWindow    [O(1)]
///            --compose--> whole-system verdict           [O(1) steady]
///
/// No queue sits between the stages: when ingest() returns, the event is
/// in its shard's session, the shard verdict is taken, and it is published
/// if its batch came due. After each shard's warm-up, the whole pipeline
/// is allocation-free in the steady state: the parse is in-place over the
/// view, the sessions' fast paths reuse warmed storage (shards run
/// RetainTrace/RetainRetiredWitness off — outcome-only monitors), and the
/// tracker's update is a no-op while verdicts stand.
///
/// Client ids on the wire are global; each shard remaps them to dense
/// local ids in first-seen order. Every per-client structure downstream is
/// densely indexed, so feeding 32-bit global ids to a thousand shards
/// would multiply that sparsity into every one of them; the remap keeps a
/// shard's tables sized by *its* client count. Renumbering clients is
/// verdict-preserving (ids only name threads; the projection's real-time
/// order is untouched).
///
//===----------------------------------------------------------------------===//

#ifndef SLIN_SERVICE_SERVICE_H
#define SLIN_SERVICE_SERVICE_H

#include "engine/Incremental.h"
#include "service/Wire.h"
#include "slin/Composition.h"
#include "slin/SlinChecker.h"

#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace slin {

/// Which checking problem each shard runs.
enum class ServiceMode : std::uint8_t {
  Lin,  ///< Plain linearizability (Definition 5) per object.
  Slin, ///< (m, n)-speculative linearizability per object.
};

/// Service-wide tuning. Per-shard resources are deliberately smaller than
/// the single-session defaults (a thousand shards multiply every byte).
struct ServiceConfig {
  ServiceMode Mode = ServiceMode::Lin;
  /// Shard verdict *publication* cadence: fold the shard's standing
  /// verdict into the composed tracker after every N session appends (1 =
  /// per-event composed verdicts; larger batches amortize the publication
  /// and reason bookkeeping; flush() forces the partial batch out). The
  /// session verdict itself always runs per append — that keeps it on the
  /// session's one-obligation fast step (Service.cpp, applyToShard) — so
  /// batching never changes which verdicts are computed, only when they
  /// become visible in the composition.
  std::size_t BatchWindow = 1;
  /// Transposition capacity per shard (vs 2^20 for a lone session).
  std::size_t TranspositionCapacity = 1u << 12;
  /// Node budget per shard verdict.
  std::uint64_t NodeBudget = 1u << 22;
  /// Out-of-window interference a pinned shard may leave unchecked and
  /// still report a graded BoundedYes instead of a flat window-overflow
  /// Unknown (IncrementalOptions::InterferenceBound; 0 disables the
  /// fallback and restores flat Unknowns).
  std::size_t InterferenceBound = 16;
  /// Happens-before relation for every shard session
  /// (IncrementalOptions::Order): Strict is the classical real-time order;
  /// TsoHb anchors cross-client order on flushed responses only
  /// (Action::Meta bit ActionMetaFlushed on the wire's trailing metadata
  /// column).
  OrderRelationKind Order = OrderRelationKind::Strict;
};

/// Monotonic service counters.
struct ServiceStats {
  std::uint64_t Events = 0;            ///< Appended into shard sessions.
  std::uint64_t ParseErrors = 0;       ///< Malformed wire lines.
  /// ingest() calls with an object id >= MaxObjectId, dropped (the wire
  /// parser reports such lines as ParseErrors instead).
  std::uint64_t Rejected = 0;
  std::uint64_t BackpressureStalls = 0;///< Always zero: there is no queue.
  std::uint64_t RingOverflows = 0;     ///< Always zero: there is no queue.
  std::uint64_t ShardVerdicts = 0;     ///< Per-shard verdicts published.
};

/// The sharded multi-object monitor. Every call does its work on the
/// caller's thread before returning.
class MonitorService {
public:
  /// A Lin-mode service: every shard checks plain linearizability of its
  /// object against \p Type.
  MonitorService(const Adt &Type, const ServiceConfig &Config = {});

  /// A Slin-mode service: every shard checks (m, n)-speculative
  /// linearizability under \p Sig / \p Rel. \p Config.Mode is overridden
  /// to Slin. \p Sig and \p Rel must outlive the service.
  MonitorService(const Adt &Type, const PhaseSignature &Sig,
                 const InitRelation &Rel, const ServiceConfig &Config = {});

  ~MonitorService();

  /// Parses one wire line and ingests it. Returns false only on a
  /// malformed line (diagnostic in lastError()); blank/comment lines
  /// return true.
  bool ingestLine(std::string_view Line);

  /// Ingests a whole buffer of wire lines. Stops at the first malformed
  /// line and returns false with a line-numbered diagnostic in
  /// lastError().
  bool ingestText(std::string_view Text);

  /// Appends one already-parsed event to its object's shard session, takes
  /// the shard verdict, and publishes it when the batch comes due. An
  /// \p Object >= MaxObjectId is counted in Stats.Rejected and dropped.
  void ingest(ObjectId Object, const Action &A);

  /// A no-op: ingest() leaves nothing pending. Kept for the benchmark
  /// harness, which still calls it after every event.
  void poll() {}

  /// Forces a verdict out of every shard holding appends that had not
  /// reached a batch boundary.
  void flush();

  /// The composed whole-system verdict over everything ingested so far
  /// (any shard No => No; else any shard Unknown => Unknown; else Yes).
  Verdict composedVerdict() const { return Tracker.verdict(); }

  /// The worst grade any shard currently holds (Yes < BoundedYes <
  /// Unknown < No): a composed-Unknown system whose grade is BoundedYes
  /// has every shard either fully linearized or riding a pinned-window
  /// excursion with only bounded unchecked interference. Improves back
  /// toward Yes when shards recover (straggler completes, session
  /// drains).
  VerdictGrade composedGrade() const { return Tracker.composedGrade(); }

  /// The originating shard's reason, verbatim (empty on Yes).
  const std::string &composedReason() const { return Tracker.reason(); }

  /// External object id the composed No/Unknown originates from; only
  /// meaningful when composedVerdict() != Yes.
  ObjectId culpritObject() const;

  const std::string &lastError() const { return LastError; }
  const ServiceStats &stats() const { return Stats; }
  const ComposedVerdictTracker &tracker() const { return Tracker; }
  ServiceMode mode() const { return Config.Mode; }
  std::size_t shardCount() const { return Shards.size(); }

  /// Per-shard introspection (tests, reporting). Null/default for objects
  /// the service has not seen.
  const IncrementalLinSession *linShard(ObjectId Object) const;
  const IncrementalSlinSession *slinShard(ObjectId Object) const;
  Verdict shardVerdict(ObjectId Object) const;
  VerdictGrade shardGrade(ObjectId Object) const;
  const std::string &shardReason(ObjectId Object) const;
  std::uint64_t shardEvents(ObjectId Object) const;

  /// Session counters summed over every shard (LiveWindowHighWater by max).
  SessionStats aggregateSessionStats() const;

  /// Estimated resident bytes summed over every shard (session footprint +
  /// remap table); the per-shard maximum; see
  /// IncrementalLinSession::memoryFootprintBytes for the contract.
  std::size_t memoryFootprintBytes() const;
  std::size_t maxShardMemoryBytes() const;

private:
  struct Shard;

  /// Returns the shard for \p Object (< MaxObjectId), creating it on first
  /// sight.
  Shard &shardFor(ObjectId Object);
  /// Appends one event to \p S's session (remapping the client id), takes
  /// the session verdict, and publishes if the batch came due.
  void applyToShard(Shard &S, const Action &A);
  /// Takes \p S's session verdict into the shard's standing verdict. Runs
  /// per append (the cheap cadence for the session's fast step — see
  /// applyToShard); publication is what BatchWindow batches.
  void takeVerdict(Shard &S);
  /// Folds \p S's standing verdict into the composed tracker.
  void publishShard(Shard &S);
  const Shard *findShard(ObjectId Object) const;

  const Adt &Type;
  const PhaseSignature *Sig = nullptr; ///< Slin mode only.
  const InitRelation *Rel = nullptr;   ///< Slin mode only.
  ServiceConfig Config;
  IncrementalOptions ShardOptions;

  std::vector<std::unique_ptr<Shard>> Shards;
  /// Object id -> index into Shards, NoShard for ids not seen yet; grows
  /// to the highest id seen.
  std::vector<std::uint32_t> ShardSlot;

  ComposedVerdictTracker Tracker;
  ServiceStats Stats;
  std::string LastError;
  /// One result per mode, reused by every takeVerdict.
  LinCheckResult LinResult;
  SlinVerdict SlinResult;
};

} // namespace slin

#endif // SLIN_SERVICE_SERVICE_H
