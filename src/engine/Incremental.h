//===- engine/Incremental.h - Resumable check sessions ----------*- C++ -*-==//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Streaming, resumable counterparts of the batch CheckSession: append one
/// event at a time, ask for a verdict at any point, and pay only for the
/// suffix since the last conclusive answer. This is the monitoring shape
/// speculative linearizability is about — mode switches happen while the
/// history unfolds — and it exploits the observation (Bouajjani et al.'s
/// reachability reduction; Hamza's complexity analysis) that checking an
/// extension of a history revisits the prefix's reachable states.
///
/// Both sessions are the windowed session core (engine/SessionCore.h) over
/// an interpretation family: IncrementalLinSession is the family of one,
/// IncrementalSlinSession the relation's family. Four mechanisms carry the
/// incrementality:
///
///   * **Per-event obligation deltas.** An invocation bumps a running
///     dense invoked-count vector; a response snapshots it as the new
///     obligation's availability (Definition 9) and derives its
///     happens-before predecessors from the open-operation table. Existing
///     obligations are never touched.
///
///   * **Retained success chains with retained replay state.** After a
///     Yes, each member keeps its witness chain in dense ids together with
///     the AdtState, used counts and hashes at the accepting leaf (engine
///     FrontierState). A later verdict resumes at that leaf with zero seed
///     replay and only places the new obligations — O(1) amortized per
///     event when the extension is linearizable, and decided in-session by
///     the fast step when it is exactly one obligation. If the resumed
///     subtree fails, a root search (still memo-accelerated) restores
///     completeness.
///
///   * **Obligation retirement at quiescent cuts.** The engine's exact
///     search carries at most 64 commit obligations, so when the window is
///     full and a response arrives, the core folds every member chain's
///     committed prefix up to the latest quiescent cut into a per-member
///     retired prefix and drops it from the window. Searches then run
///     behind the engine's ChainProblemView::SeedBase, so a steady-state
///     verdict is O(window) however long the trace grows. Yes still carries
///     a replayable witness (retired prefix ++ live chain); a live-window
///     No only rules out completions of the pinned retired chain and is
///     reported as the WindowRetiredReason Unknown. Retirement is lazy, so
///     verdicts on <= 64-obligation traces are bit-identical to the batch
///     checkers'. An overflow excursion (a straggler overlapping more than
///     64 completions) runs one capped round over the first 64 obligations
///     per member, kept until a fold: it drains what the cut allows, grades
///     the pinned remainder BoundedYes, or the verdict is reported
///     structurally.
///
///   * **Epoch-salted memo entries.** Transposition entries are recorded
///     under a salt that moves on whenever they could be unsound: reset, a
///     fold (mask bits renumber), a relation credit, and for slin any
///     non-monotone delta (a new init action, or a new invocation under
///     the relaxed abort reading). The memo is forgotten at the same
///     moment (it keeps its slot array), so it holds only keys a later
///     probe can still match.
///
/// Verdicts are preserved exactly: conclusive answers equal the batch
/// checkers' on the materialized trace; only which traces exhaust a
/// *budget* can differ, as with warm batch sessions. Two zero-search
/// absorptions shortcut the monitor path: an appended invocation changes no
/// obligation, and No is final under extension. Under the Strict relation a
/// lin session freezes at its first No: it keeps the window at the No as
/// evidence, releases its search state, and builds no further obligation.
///
/// Sessions are single-threaded; use one per thread.
///
//===----------------------------------------------------------------------===//

#ifndef SLIN_ENGINE_INCREMENTAL_H
#define SLIN_ENGINE_INCREMENTAL_H

#include "engine/SessionCore.h"

namespace slin {

/// Streaming, resumable plain-linearizability checking (Definition 5) of
/// one growing trace against one ADT: the core's family of one, whose
/// member has key 0.
class IncrementalLinSession final : public WindowedSession {
public:
  explicit IncrementalLinSession(const Adt &Type,
                                 const IncrementalOptions &Opts = {});

  /// Validates and ingests one event. A rejected event (ill-formed at this
  /// position, or not an input of the ADT) leaves the view unchanged and
  /// dooms the session: the trace the stream describes is not
  /// linearizable, so every later verdict is No with this reason, exactly
  /// as the batch checker would answer on the full stream. A frozen
  /// session (frozen()) still validates, dooms and extends the view, but
  /// builds no obligation.
  WellFormedness append(const Action &A);

  /// The verdict for the trace ingested so far. Identical conclusive
  /// answers to checkLinearizable(trace(), adt()); NodesExplored counts
  /// only the nodes this call spent (0 for the O(1) absorption paths).
  /// Opts.Order is ignored; the relation is IncrementalOptions::Order.
  /// Under the Strict relation the first No freezes the session.
  LinCheckResult verdict(const LinCheckOptions &Opts = {}) {
    LinCheckResult R;
    verdict(Opts, R);
    return R;
  }

  /// The same verdict, written into \p Out: a caller that reuses one
  /// result takes a repeated non-Yes reason into its existing capacity,
  /// with no heap allocation.
  void verdict(const LinCheckOptions &Opts, LinCheckResult &Out);

  /// Starts a new, unrelated trace: clears the view, obligations, cached
  /// result and chain, and unfreezes; moves the memo epoch on and forgets
  /// its keys; keeps the warm interner, arena blocks, and the memo's slot
  /// array (after a freeze released them, they regrow on demand).
  void reset() { resetCore(); }

  /// Estimated bytes this session holds across its long-lived structures
  /// (memo table, scratch arena, interner, live window, dense per-client
  /// tables, the chain table). The dominant terms of a shard's
  /// footprint in the monitoring service — an accounting estimate
  /// (FrontierState ADT states and string reasons are excluded), not an
  /// allocator audit; the AllocGauge machinery covers exactness.
  std::size_t memoryFootprintBytes() const { return coreBytes(); }

  /// The engine-retained replay state at the chain's end (exposed for the
  /// retained-replay property tests and diagnostics). When Valid, it is
  /// the state reached by replaying frontierHistory() from scratch.
  const FrontierState &frontierState() const;

  /// Materialized inputs of the retained chain — retired prefix ++ live
  /// chain. With RetainRetiredWitness off only the live chain is returned.
  History frontierHistory() const;

private:
  std::size_t members() override { return 1; }
  std::uint64_t memberKey(std::size_t) const override { return 0; }
  void shapeNo(ChainResult &R) const override;
};

/// Streaming (m, n)-speculative-linearizability checking (Definition 19)
/// of one growing phase trace. Obligations, init actions, and aborts are
/// accumulated per event; each verdict runs the relation's interpretation
/// family through the core, one member per interpretation, retaining memo
/// entries across verdicts for as long as the deltas since the last
/// verdict are monotone (the delta taxonomy is slin/SlinChecker.h's
/// classifySlinDelta / slinDeltasNonMonotone).
///
/// Each interpretation's retained chain is keyed by interpretation hash in
/// the core's chain table. Non-monotone deltas move the memo epoch but only
/// invalidate — never discard — the chains: a recurring interpretation
/// hash implies identical init contributions, the pre-cap availability
/// snapshots of old responses are append-stable, and every abort
/// constraint is re-validated by the accepting-leaf predicate under the
/// *current* budgets — so a retained chain remains a sound seed and only
/// genuinely new work is searched.
class IncrementalSlinSession final : public WindowedSession {
public:
  IncrementalSlinSession(const Adt &Type, const PhaseSignature &Sig,
                         const InitRelation &Rel,
                         const IncrementalOptions &Opts = {});

  /// Validates and ingests one event (Definitions 33–35 per event); a
  /// rejected event dooms the session as in IncrementalLinSession.
  WellFormedness append(const Action &A);

  /// The verdict for the trace ingested so far; identical conclusive
  /// answers to checkSlin(trace(), ...) over the same relation.
  /// Opts.Search.Order is ignored (the relation is IncrementalOptions::
  /// Order), and Opts.WantWitness overrides Opts.Search.WantWitness. A
  /// slin session never freezes: a later init action or abort reading can
  /// send a cached No back to the search.
  SlinVerdict verdict(const SlinCheckOptions &Opts = {}) {
    SlinVerdict V;
    verdict(Opts, V);
    return V;
  }

  /// The same verdict, written into \p Out (see
  /// IncrementalLinSession::verdict(const LinCheckOptions &,
  /// LinCheckResult &)).
  void verdict(const SlinCheckOptions &Opts, SlinVerdict &Out);

  /// Starts a new, unrelated trace (keeps warm storage; salts out and
  /// forgets the memo, and drops every retained chain).
  void reset();

  /// Number of interpretations currently holding a retained chain
  /// (diagnostics/tests).
  std::size_t retainedFrontiers() const { return Chains.size(); }

  /// Estimated bytes held across the session's long-lived structures,
  /// including every retained per-interpretation chain (see
  /// IncrementalLinSession::memoryFootprintBytes for the contract).
  std::size_t memoryFootprintBytes() const;

private:
  struct AbortRec {
    std::size_t TraceIndex = 0;
    Input In;
    SwitchValue Sv;
    Multiset<Input> InvokedBefore; ///< As of the abort's index.
  };

  std::size_t members() override;
  std::uint64_t memberKey(std::size_t I) const override {
    return CachedInterpHashes[I];
  }
  void prepareRun(std::size_t I, std::size_t NumOb, MemberRun &M) override;
  void shapeNo(ChainResult &R) const override;
  void memberYes(std::size_t I, RetainedChain &C) override;

  /// Rebuilds the cached interpretation family (assignments, hashes,
  /// family hash) from the retained init actions when an append dirtied
  /// it; no-op — and allocation-free — while the family is append-stable
  /// (InitRelation::interpretationsStableUnderAppend), the steady state.
  void refreshFamily();

  PhaseSignature Sig;
  const InitRelation &Rel;

  std::vector<AbortRec> Aborts;
  /// Init actions with their trace indices — everything the relation needs
  /// to rebuild the interpretation family without the materialized trace.
  std::vector<std::pair<std::size_t, Action>> InitActions;
  Multiset<Input> InvokedMs; ///< All invoked inputs so far.
  /// Running max over every ingested action of max(In.A, Sv.Val) — the
  /// FreshBound fed to interpretationsFromInits.
  std::int64_t MaxSeenVal = 0;

  // Delta classification since the last verdict.
  bool SawInvokeSinceVerdict = false;
  bool AnyVerdict = false;
  bool LastAbortValidityAtEnd = false;
  bool AbortValidityAtEnd = false; ///< The reading of the verdict running.
  std::uint64_t LastFamilyHash = 0;

  // Cached interpretation family (refreshFamily); hashes are parallel to
  // CachedFamily.Assignments.
  InterpretationFamily CachedFamily;
  std::vector<std::uint64_t> CachedInterpHashes;
  std::uint64_t CachedFamilyHash = 0;
  bool HaveCachedFamily = false;
  bool FamilyDirty = false;

  // Persistent per-run scratch (warm capacity; refilled per run so the
  // steady state allocates nothing).
  History Lcp;
  std::vector<InputId> SeedScratch;
  std::vector<const std::int32_t *> OverlayPtrs;
  std::vector<std::int32_t> RunningInitScratch;
  std::vector<std::int32_t> ContribScratch;
  bool AnyInit = false; ///< RunningInitScratch holds a contribution.
  std::vector<detail::PendingAbort> Budgeted;
  std::vector<std::pair<std::size_t, History>> FoundAborts;
  std::function<bool(const History &)> Leaf;
  /// The ladder's result, reused by every verdict so that a repeated
  /// reason is copied into existing capacity.
  LinCheckResult Ladder;
};

} // namespace slin

#endif // SLIN_ENGINE_INCREMENTAL_H
