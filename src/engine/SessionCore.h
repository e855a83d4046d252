//===- engine/SessionCore.h - The windowed session core ---------*- C++ -*-==//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The window lifecycle both resumable sessions (engine/Incremental.h)
/// share, written once. Definitions 5 and 19 reduce to the same commit-chain
/// search, and plain linearizability is the speculative problem with one
/// interpretation, no init overlay and no aborts — so the core runs over an
/// *interpretation family* of retained chains and IncrementalLinSession is
/// simply its family of one. The core owns:
///
///   * the live obligation window (LiveWindow) and the response push:
///     retire-if-full, happens-before mask, overflow noting;
///   * the quiescent cut and the fold at the largest response-aligned
///     prefix common to every member's chain (retireQuiescentPrefix);
///   * the overflow excursion (decideExcursion): one capped round — each
///     member's sub-search over the first 64 obligations from its boundary
///     (cappedRun), kept until a fold — drains what the cut allows and
///     grades the pinned remainder (BoundedYes);
///   * the one-new-obligation fast step, which decides the steady-state
///     verdict in-session with the checks the engine's one commit move
///     would make, bit-identical in verdicts, node counts and retained
///     state;
///   * the verdict ladder, on one node budget: absorbed No, overflow,
///     absorbed Yes, fast step, then per member a walk over its chain's
///     *seed points*, longest first, and the WindowRetired shaping of a No
///     behind a retired prefix;
///   * the freeze at a final No: the window at the No is kept as read-only
///     evidence, everything that only serves a later search is released,
///     and later appends are only validated and counted;
///   * reset and the footprint of all of the above.
///
/// A seed point is a chain prefix plus the ADT state reached there — all a
/// resume needs (Bouajjani et al., reducing linearizability to state
/// reachability). A chain has three: its end (the accepting leaf), its last
/// aligned quiescent cut and its boundary (the end of its retired prefix,
/// or the root). Every run of the session core, resumed or capped, starts
/// at one of them through one primitive (runFrom); only the boundary
/// concludes a No.
///
/// The core also owns every retained chain: one table keyed by member key,
/// recycled least-recently-used, from which each member's chain and memo
/// salt are derived. The chains are also the only source of a witness:
/// every Yes, however the ladder reached it, reads each member's witness
/// from its chain (completeWitness). A session supplies the family through
/// five hooks: how many members, each member's key, what a run adds on top
/// of the shared window (availability overlays, a seed, a leaf predicate),
/// how a No is reported, and what a member keeps from a searched Yes.
///
//===----------------------------------------------------------------------===//

#ifndef SLIN_ENGINE_SESSIONCORE_H
#define SLIN_ENGINE_SESSIONCORE_H

#include "engine/CheckSession.h"
#include "engine/OrderRelation.h"
#include "trace/TraceBuilder.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace slin {

/// Stable reason string for the structural Unknown a windowed session
/// reports once its live obligation window overflowed with no retirable
/// quiescent prefix. Recorded at append time (SessionStats::WindowOverflows)
/// and returned by every subsequent verdict without a search.
inline constexpr char WindowOverflowReason[] =
    "live obligation window exceeded 64 with no retirable quiescent prefix; "
    "exact search not attempted";

/// Stable reason string for the Unknown a windowed session reports when the
/// live-window search concluded No but obligations were already retired: a
/// conclusive No would require backtracking into the retired prefix, whose
/// linearization is pinned. (Yes verdicts are unaffected — they carry a
/// replayable witness of retired prefix ++ live chain.)
inline constexpr char WindowRetiredReason[] =
    "WindowRetired: no completion extends the retired prefix; a conclusive "
    "No would require backtracking into retired obligations";

/// Stable reason string for the graded Unknown (VerdictGrade::BoundedYes) a
/// windowed session reports while a straggler pins the cut past the 64-slot
/// window: the exact first-64 sub-problem linearized, and the out-of-window
/// interference stayed within IncrementalOptions::InterferenceBound. See
/// the Grade/Interference fields of LinCheckResult and SlinVerdict.
inline constexpr char WindowBoundedReason[] =
    "BoundedYes: straggler pins the cut past the 64-slot window; the first "
    "64 live obligations linearized and only bounded out-of-window "
    "interference remains unchecked";

/// Stable reason string for the structured Unknown a slin session reports
/// when the live window overflowed on an abort-carrying stream: aborts rule
/// out both retirement (Abort Order caps every commit's availability by
/// every abort's budget, so no prefix can be frozen) and the graded bounded
/// fallback (the first-64 restriction is not sound once abort budgets span
/// the window). Distinct from the flat WindowOverflowReason so monitors can
/// tell "straggler pins the cut" from "aborts pin the whole window".
inline constexpr char WindowAbortPinnedReason[] =
    "AbortPinned: live obligation window exceeded 64 on an abort-carrying "
    "stream; abort budgets pin every slot, so neither retirement nor the "
    "bounded first-64 fallback applies";

/// The engine's exact search carries at most this many commit obligations
/// per run (a 64-bit committed mask); both sessions keep their live window
/// at or under it via retirement.
inline constexpr std::size_t IncrementalWindowLimit = 64;

/// Tuning knobs for the incremental sessions.
struct IncrementalOptions {
  /// Capacity of the session's transposition table.
  std::size_t TranspositionCapacity = 1u << 20;
  /// Materialize the trace view (TraceBuilder retention). Off makes ingest
  /// O(1)-space and allocation-free for unbounded outcome-only monitors;
  /// trace() then returns an empty view (size() still counts). The slin
  /// session builds its interpretation family from the retained init
  /// actions alone (InitRelation::interpretationsFromInits), so it honors
  /// this too.
  bool RetainTrace = true;
  /// Keep the materialized retired prefix (dense ids + commit rows) for
  /// witness completion. Off makes the retired prefix a pure counter —
  /// required for a zero-allocation unbounded monitor (the prefix
  /// otherwise grows without bound) — at the cost of witnesses (and, lin,
  /// frontierHistory()) omitting the retired region. Searches never read
  /// it: they adopt the member's retired-boundary replay state either way.
  /// Applies to every member's retired chain.
  bool RetainRetiredWitness = true;
  /// Graded-fallback bound for pinned overflow excursions: while a
  /// straggler pins the cut past the 64-slot window, a verdict searches
  /// the exact first-64 sub-problem (a sound restriction of the full
  /// problem) and reports Grade == VerdictGrade::BoundedYes when it
  /// linearizes with at most this many out-of-window completions left
  /// unchecked (the verdict's Interference). 0 disables the fallback —
  /// every pinned verdict is then the flat WindowOverflowReason Unknown.
  std::size_t InterferenceBound = 16;
  /// The happens-before relation every MustFollow mask and retirement cut
  /// is derived under (engine/OrderRelation.h). Strict is the paper's
  /// real-time order and is bit-identical to the pre-parameterized
  /// sessions; TsoHb weakens cross-client order to flushed responses.
  OrderRelationKind Order = OrderRelationKind::Strict;
};

/// The live obligation window as a structure of arrays: engine-ready
/// CommitObligation slots (tag, input id, expected output, MustFollow
/// mask word), a parallel invoke-index array (for mask rebuilds), and one
/// flat availability store of power-of-two-stride rows. Maintained
/// incrementally — append writes one slot and one row, retirement slides
/// a base index, fold shifts the mask words — so every run hands the
/// engine a view over this persistent storage instead of materializing a
/// fresh problem. Rows are zero-extended to the stride at write time,
/// which realizes the lazy zero-extension contract (an input first
/// interned after a response cannot have been invoked before it); when
/// the alphabet outgrows the stride, ensureStride() relays the live rows
/// out once at the next power of two. Storage is sized to what a shard
/// touches: 64 slots (the window limit) at first, doubled only by an
/// overflow excursion, and rows at least 16 wide (one cache line). Each
/// slot's Available pointer is set when its row is written, and every live
/// slot's again whenever the rows move (compaction, regrow, a wider
/// stride), so a run publishes nothing. The window is common to every
/// family member: per-interpretation availability differences ride on
/// ChainProblemView::AvailOverride overlay rows.
class LiveWindow {
public:
  std::size_t size() const { return N; }
  bool empty() const { return N == 0; }
  std::size_t tag(std::size_t Q) const { return Slots[Base + Q].Tag; }
  InputId in(std::size_t Q) const { return Slots[Base + Q].In; }
  const Output &out(std::size_t Q) const { return Slots[Base + Q].Out; }
  std::uint64_t mustFollow(std::size_t Q) const {
    return Slots[Base + Q].MustFollow;
  }
  std::size_t invokeIdx(std::size_t Q) const { return Invokes[Base + Q]; }
  ClientId client(std::size_t Q) const { return Clients[Base + Q]; }
  std::uint32_t meta(std::size_t Q) const { return Metas[Base + Q]; }
  const std::int32_t *availRow(std::size_t Q) const {
    return AvailStore.data() + (Base + Q) * Stride;
  }
  std::size_t stride() const { return Stride; }

  /// Appends one obligation: slot fields, the order-relation site data
  /// (\p Client, \p Meta — consulted by OrderRelation mask rebuilds and
  /// retirement gates), plus an availability row snapshotting \p Invoked
  /// (zero-extended to the stride). Grows or compacts storage only when
  /// the high end is reached — steady-state appends after retirement reuse
  /// the vacated front, allocation-free.
  void pushResponse(std::size_t Tag, InputId In, const Output &Out,
                    std::size_t InvokeIdx, std::uint64_t MustFollow,
                    ClientId Client, std::uint32_t Meta,
                    const std::vector<std::int32_t> &Invoked);

  /// Credits one later invocation of \p In by \p Invoker to every live row
  /// the relation leaves unordered w.r.t. it (see
  /// OrderRelation::creditsLaterInvoke). Returns whether any row grew —
  /// the caller's signal that cached No verdicts and retained memo
  /// failures are stale. A no-op (and never called) under Strict; writes
  /// into existing rows, so the event path stays allocation-free except
  /// for the rare stride regrow a first-seen input forces.
  bool creditInvoke(const OrderRelation &Order, ClientId Invoker, InputId In);

  /// Retires the first \p K live obligations (slides the base; storage
  /// is reused by later appends).
  void eraseFront(std::size_t K) {
    Base += K;
    N -= K;
    if (N == 0)
      Base = 0;
  }

  /// Shifts every live MustFollow mask right by \p K (window-relative
  /// bit positions after retiring K obligations).
  void shiftMasks(std::size_t K) {
    for (std::size_t Q = 0; Q != N; ++Q)
      Slots[Base + Q].MustFollow >>= K;
  }

  void setMustFollow(std::size_t Q, std::uint64_t M) {
    Slots[Base + Q].MustFollow = M;
  }

  void clear() {
    Base = 0;
    N = 0;
  }

  /// First live index whose tag is >= \p T (tags are strictly increasing
  /// in trace order).
  std::size_t lowerBoundTag(std::size_t T) const;

  /// The aligned prefixes of the chain rows \p Rows[0, K) from \p From
  /// on, given that rows [0, From) commit exactly the first From live
  /// obligations: bit k-1 (From < k <= min(K, size(), 64)) is set iff rows
  /// [0, k) commit exactly the first k. O(K - From) by a running maximum:
  /// chain rows carry distinct response tags (one row per committed slot)
  /// and the window holds every unretired response in tag order, so k rows
  /// that all lie at or after tag(0) and peak at tag(k-1) are a
  /// permutation of window [0, k). A retired or foreign tag below the
  /// window, or a gap (some row past tag(k-1)), fails.
  std::uint64_t alignedPrefixes(const std::pair<std::size_t, std::size_t> *Rows,
                                std::size_t K, std::size_t From) const;

  /// Moves the live rows to the front and frees the storage past them:
  /// the window then reserves exactly its live rows. A later append
  /// regrows it as from empty.
  void shrinkToFit();

  /// Bytes reserved by the window's persistent storage (slots, invoke
  /// indices, availability rows).
  std::size_t memoryBytes() const {
    return Slots.capacity() * sizeof(CommitObligation) +
           Invokes.capacity() * sizeof(std::size_t) +
           Clients.capacity() * sizeof(ClientId) +
           Metas.capacity() * sizeof(std::uint32_t) +
           AvailStore.capacity() * sizeof(std::int32_t);
  }

  /// Re-lays the rows out if the alphabet outgrew the stride and returns
  /// the live slot range — the engine-ready CommitObligation array for a
  /// ChainProblemView.
  const CommitObligation *finalize(InputId AlphabetSize);

private:
  /// Ensures Stride >= AlphabetSize (power of two, min 16 — one cache
  /// line), re-laying live rows out and compacting to the front when it
  /// grows.
  void ensureStride(std::size_t AlphabetSize);
  /// Moves the live rows of every parallel array to the front.
  void compact(std::size_t RowStride);
  /// Points every live slot's Available at its row.
  void publish();

  std::vector<CommitObligation> Slots;
  std::vector<std::size_t> Invokes; ///< Parallel: invocation trace index.
  std::vector<ClientId> Clients;    ///< Parallel: invoking client.
  std::vector<std::uint32_t> Metas; ///< Parallel: response Action::Meta.
  std::vector<std::int32_t> AvailStore; ///< Row-major, Stride per row.
  std::size_t Stride = 0;
  std::size_t Base = 0; ///< First live row.
  std::size_t N = 0;    ///< Live rows.
};

/// One family member's retained success chain: the witness chain in dense
/// ids plus the engine's replay cache at its accepting leaf, and — once the
/// session retires — the member's share of the retired prefix (each member
/// linearizes the retired region its own way, so retired ids, commit rows
/// and the boundary replay state are per member; commit lengths are
/// absolute). RetiredLen/RetiredRows are counters, so the materialized
/// RetiredMaster/RetiredCommits are optional
/// (IncrementalOptions::RetainRetiredWitness): every structural use —
/// SeedBase, frontier lengths, fold alignment — reads the counters. The
/// chain is the member's witness (Definitions 5 and 19: a master history
/// plus one commit length per response), so a session never keeps another
/// copy of it.
struct RetainedChain {
  std::vector<InputId> Master; ///< Live part of the chain (post-retired).
  std::vector<std::pair<std::size_t, std::size_t>> Commits; ///< (Tag, Len)
  /// Replay state at Master's end: adopted by a resumed run (zero seed
  /// replay) and refreshed at every accepting leaf.
  FrontierState Replay;
  std::size_t RetiredLen = 0;  ///< Length of the retired chain.
  std::size_t RetiredRows = 0; ///< Responses folded into it.
  std::vector<InputId> RetiredMaster;
  std::vector<std::pair<std::size_t, std::size_t>> RetiredCommits;
  /// Replay state exactly at the retired chain's end, advanced as segments
  /// fold (each retired input is applied once, ever): a root search behind
  /// the retired prefix adopts a copy of it instead of replaying.
  FrontierState RetiredBoundary;
  /// The member's dense init-availability overlay (slin, Definition 26),
  /// valid while InitUpTo equals the session's init-action count: the fast
  /// step adds it to the shared window row instead of re-sweeping inits.
  std::vector<std::int32_t> InitDense;
  std::size_t InitUpTo = 0;
  std::uint64_t LastTouch = 0; ///< LRU stamp (the core's chain table).
  /// The chain's aligned prefixes: bit k-1 is set iff the first k rows of
  /// Commits commit exactly the first k live obligations. Kept current
  /// wherever the rows or the window's front change — the fast step sets
  /// the new row's bit, a Yes from a seed point recomputes only the bits
  /// past the point, a fold shifts the mask, an excursion's fold clears it
  /// — so the end check, the cut and the fold read it in O(1) instead of
  /// rescanning the rows (WindowedSession::foldMask is the from-scratch
  /// oracle). A chain with no rows is aligned at its end with a zero mask.
  std::uint64_t Aligned = 0;
  /// The member's f_abort (slin) from its last searched Yes. Aborts rule
  /// out the fast step, so no later Yes can advance the chain past it.
  std::vector<std::pair<std::size_t, History>> Aborts;
  /// Replay state at the chain's last aligned quiescent cut (absolute
  /// length Cut->Len): the state of its cut seed point, which a run from
  /// there adopts a copy of. A soft boundary: the obligations before it
  /// stay in the live window. Created and advanced lazily, only when a
  /// verdict misses the chain's end, by the chain ids between the old cut
  /// and the new one (each input is applied once while the chain prefix
  /// stands), so a chain that never misses carries a null pointer. Valid
  /// while the chain's prefix up to Cut->Len is unchanged: invalidated by a
  /// Yes from a shorter point (a new chain past it; the storage is kept for
  /// the rebuild), dropped by the drain's chain reset, and rebuilt from the
  /// retired boundary once a fold passes it.
  std::unique_ptr<FrontierState> Cut;

  std::size_t memoryBytes() const;
};

/// The windowed session core (see the file comment). The two sessions
/// derive from it (final) and implement the family hooks; they are owned
/// and deleted as themselves, never through this base.
class WindowedSession {
public:
  const Adt &adt() const { return Type; }

  /// The materialized view of everything ingested (empty when
  /// IncrementalOptions::RetainTrace is off; size() still counts).
  const Trace &trace() const { return Builder.trace(); }
  std::size_t size() const { return Builder.size(); }

  /// True once an event was rejected: the stream describes a trace that is
  /// not (speculatively) linearizable, the view is frozen, and every
  /// verdict is No. Cleared by reset().
  bool doomed() const { return Doomed; }

  const SessionStats &stats() const { return Stats; }

  /// The session's scratch arena (exposed for the allocation-audit tests:
  /// a steady-state run must leave highWaterBytes()/reservedBytes() flat —
  /// every event reuses the warmed blocks, none grows them).
  const Arena &scratchArena() const { return Scratch; }

  /// The failed-state memo (exposed for footprint audits and benches: its
  /// live keys, capacity and bytes).
  const TranspositionTable &memo() const { return Memo; }

  /// Number of obligations folded into the retired prefix so far.
  std::size_t retiredObligations() const { return WindowBase; }

  /// Current live obligation window size (completed-but-unretired
  /// operations); bounded by 64 outside overflow excursions.
  std::size_t liveWindow() const { return Obligations.size(); }

  /// True once a final No froze the session (a lin session under the
  /// Strict relation; see IncrementalLinSession::verdict). Every later
  /// verdict is that No; appends are validated and counted
  /// (SessionStats::FrozenAppends) but push no obligation. Cleared by
  /// reset().
  bool frozen() const { return Frozen; }

  /// The live window, which is the evidence for the No once frozen():
  /// every response of the stream (a No is conclusive only while nothing
  /// is retired), read-only, with its storage shrunk to its rows. Its
  /// input ids resolve through interner().
  const LiveWindow &evidence() const { return Obligations; }
  const InputInterner &interner() const { return Interner; }

  /// True while the live window exceeds the engine's exact-search bound
  /// (an *overflow excursion*: a straggling operation overlapped more than
  /// 64 completions). Counted once per excursion in
  /// SessionStats::WindowOverflows; verdicts during it drain what the cut
  /// allows, grade the pinned remainder (BoundedYes) or report the
  /// structural Unknown, and definitive verdicts resume once it closes.
  bool overflowed() const {
    return Obligations.size() > IncrementalWindowLimit;
  }

  /// Retained chains whose aligned-prefix mask (RetainedChain::Aligned)
  /// differs from a from-scratch rescan of their rows against the live
  /// window: 0 unless the mask's upkeep is broken (for tests).
  std::size_t misalignedChains() const;

protected:
  static constexpr std::size_t WindowLimit = IncrementalWindowLimit;

  /// What one member's run adds on top of the shared window.
  struct MemberRun {
    /// The window as published by a hook that had to finalize it itself
    /// (null: the core publishes it).
    const CommitObligation *Commits = nullptr;
    const std::int32_t *const *AvailOverride = nullptr;
    /// Seeds runs from the boundary point before anything retired.
    const InputId *Seed = nullptr;
    std::size_t SeedLen = 0;
    const std::function<bool(const History &)> *AcceptLeaf = nullptr;
    bool SequenceSensitive = false;
  };

  WindowedSession(const Adt &Type, const IncrementalOptions &Opts,
                  const PhaseSignature *Sig);

  // Family hooks.
  virtual std::size_t members() = 0;
  /// Member I's key in the chain table (and its memo salt); members with
  /// equal keys share a chain. Valid after members().
  virtual std::uint64_t memberKey(std::size_t I) const = 0;
  /// Fills \p M for the runs of member I over the first \p NumOb
  /// obligations (once per member and verdict, shared by every seed
  /// point); runs right after the scratch arena is reset and may intern
  /// inputs.
  virtual void prepareRun(std::size_t I, std::size_t NumOb, MemberRun &M) {
    (void)I, (void)NumOb, (void)M;
  }
  /// Names a conclusive engine No (or downgrades it to Unknown).
  virtual void shapeNo(ChainResult &R) const = 0;
  /// Member I's full run linearized; \p C is its chain, already advanced
  /// to the accepting leaf. The hook stores what the chain alone cannot
  /// rebuild (slin: the init overlay and f_abort of this run); the witness
  /// itself is the chain.
  virtual void memberYes(std::size_t I, RetainedChain &C) {
    (void)I, (void)C;
  }

  /// The chain stored under \p Key in the chain table, or null.
  const RetainedChain *findChain(std::uint64_t Key) const;

  // Ingest.
  WellFormedness doom(std::string Reason);
  std::size_t &openSlot(ClientId Client);
  /// An invocation of \p In at trace index \p I: running counts, the open
  /// table, and the relation's availability credit.
  void noteInvoke(const Action &A, std::size_t I, InputId In);
  /// A response at \p I: closes the operation and pushes its obligation.
  void noteResponse(const Action &A, std::size_t I, InputId In);

  /// The verdict ladder, into \p R as resetResult left it; seals the
  /// result.
  void decide(const LinCheckOptions &Limits, LinCheckResult &R);
  /// Clears \p R to a fresh result's fields, keeping the capacity of its
  /// reason and witness, so that a caller's reused result takes a repeated
  /// reason without a heap allocation.
  static void resetResult(LinCheckResult &R);
  /// Freezes the session at its cached No (see frozen()): shrinks the
  /// window to its rows and releases the memo's slot array, the scratch
  /// arena's blocks, the chain table and the capped-run scratch.
  void freeze();
  /// Records \p R in the stats, seals its grade and clears the deltas.
  void seal(LinCheckResult &R);

  /// Materializes \p C's witness: its retired prefix (when retained, see
  /// IncrementalOptions::RetainRetiredWitness) ++ its live chain.
  void completeWitness(const RetainedChain &C, History &Master,
                       std::vector<std::pair<std::size_t, std::size_t>>
                           &Commits) const;
  void resetCore();
  std::size_t coreBytes() const;
  /// Moves the epoch and forgets the memo: every stored key was salted
  /// with the old epoch and can never match again. The salt alone keeps
  /// the memo sound; the forget keeps dead keys from taking slots.
  void newEpoch();

  const Adt &Type;
  IncrementalOptions Opts;
  /// The happens-before relation (Opts.Order): every mask this session
  /// derives and every retirement cut it takes goes through it.
  OrderRelation Order;
  InputInterner Interner;
  /// Run and fast-step scratch. Its first block is 256 B (a lin shard's
  /// high-water is tens of bytes) and later ones double, so the reserve
  /// follows the shard's own demand.
  Arena Scratch;
  TranspositionTable Memo;
  SessionStats Stats;
  TraceBuilder Builder;
  /// The live window, in response (trace) order; MustFollow masks are
  /// window-relative (bit q = obligation q).
  LiveWindow Obligations;
  std::vector<std::int32_t> Invoked;   ///< Running invoked counts by id.
  std::vector<std::size_t> OpenStart;  ///< Per client: open operation index.
  bool Doomed = false;
  std::string DoomReason;
  bool Frozen = false; ///< See frozen().

  std::size_t WindowBase = 0; ///< Obligations retired so far.
  /// The current overflow excursion was counted in Stats.WindowOverflows.
  bool OverflowNoted = false;
  /// DrainRound holds a Yes from every member (see decideExcursion). The
  /// restriction it covers changes only by a fold or a reset, and both
  /// clear it, as does a changed family.
  bool HaveRound = false;

  /// Moves whenever retained memo entries could be unsound (folds renumber
  /// masks, relaxations, non-monotone slin deltas, reset); folded into every
  /// member salt. Only newEpoch() moves it.
  std::uint64_t Epoch = 0;
  /// Retained chains keyed by member key. Only chains that captured
  /// something are admitted (a stream of never-recurring slin
  /// interpretations must not flood the table), at most 64 of them; a lost
  /// chain costs re-search, never soundness. Retirement folds every entry,
  /// members or not. Cleared by resetCore().
  std::vector<std::pair<std::uint64_t, RetainedChain>> Chains;

  bool HaveResult = false;
  Verdict Cached = Verdict::No;
  std::string CachedReason;
  std::size_t NewResponses = 0; ///< Responses since the last verdict.
  bool NewNonResponse = false;  ///< An init or abort since the last verdict.
  /// Non-monotone deltas since the last verdict: no absorption.
  bool CacheStale = false;
  /// Aborts pin every slot: no retirement, excursion round or fast step.
  bool PinnedByAborts = false;
  /// A delta invalidated the retired prefix: every verdict is the
  /// WindowRetired Unknown.
  bool RetiredStale = false;
  std::size_t NumInits = 0; ///< Init actions ingested (slin).

private:
  /// A seed point of a member's chain (see the file comment): the chain's
  /// first Rows rows pre-committed (window [0, Rows)), the absolute master
  /// length Len there, and the replay state at Len — Replay at the end, Cut
  /// at the cut, RetiredBoundary at the boundary (none before any
  /// retirement: a run from there replays the seed prepareRun laid).
  struct SeedPoint {
    std::size_t Rows = 0;
    std::size_t Len = 0;
    FrontierState *State = nullptr;
  };
  /// How a capped sub-search ended: a sub-Yes, a verdict it decided, or a
  /// structural Unknown that decides nothing.
  enum class SubRun { Yes, Decided, Structural };

  /// Member I's retained chain (stamped as recently used), or null.
  RetainedChain *chain(std::size_t I);
  /// Stores a chain captured for member I (which holds none yet); at the
  /// size bound the least-recently-used entry is recycled.
  RetainedChain &admit(std::size_t I, RetainedChain &&C);
  /// Drops chain table entry \p J.
  void dropChain(std::size_t J);
  std::uint64_t memberSalt(std::size_t I) const;
  std::size_t openCut() const;
  /// E for a fold or a cut: openCut(), or earlier the earliest invocation
  /// among the window's responses from \p FirstUncovered on, which no
  /// chain covers yet.
  std::size_t cutBound(std::size_t FirstUncovered) const;
  /// The from-scratch alignment scan: bit k-1 set iff \p Rows[0, k) commit
  /// exactly window [0, k), all responded before \p E, within \p Limit.
  /// The oracle (Debug asserts, misalignedChains) for RetainedChain::Aligned
  /// and the round's masks.
  std::uint64_t foldMask(const std::vector<std::pair<std::size_t, std::size_t>>
                             &Rows,
                         std::size_t LiveLen, std::size_t RetiredLen,
                         std::size_t Limit, std::size_t E) const;
  /// \p C's aligned-prefix mask, checked against foldMask in Debug builds.
  std::uint64_t alignedMask(const RetainedChain &C) const;
  /// The prefixes a fold or a cut at \p E may take of a chain whose
  /// aligned prefixes are \p Aligned: those within \p Limit whose last
  /// obligation responded before E.
  std::uint64_t cutMask(std::uint64_t Aligned, std::size_t Limit,
                        std::size_t E) const;
  /// Whether \p C's rows commit exactly a window prefix (no rows do).
  bool alignedAtEnd(const RetainedChain &C) const;
  /// Recomputes \p C's aligned prefixes past its first \p From rows, the
  /// only ones that changed; rows [0, From) must be an aligned prefix (a
  /// seed point).
  void realign(RetainedChain &C, std::size_t From) const;
  /// Sets \p F to the replay state of the empty master.
  void startFrontier(FrontierState &F) const;
  void foldChain(RetainedChain &C, const std::vector<InputId> &Ids,
                 const std::vector<std::pair<std::size_t, std::size_t>> &Rows,
                 std::size_t K);
  void foldWindow(std::size_t K);
  void retireQuiescentPrefix();
  /// Member I's capped sub-search over the first WindowLimit obligations
  /// from its boundary point, on the \p Left nodes the verdict has left,
  /// into \p Out; its nodes are spent from \p Left and counted in \p R,
  /// and a verdict it decides goes to \p R.
  SubRun cappedRun(std::size_t I, RetainedChain *C, std::uint64_t &Left,
                   ChainResult &Out, LinCheckResult &R);
  /// One verdict inside an overflow excursion: folds what the round allows,
  /// then grades or reports what still overflows. Returns whether it
  /// decided the verdict into \p R (false: the excursion closed).
  bool decideExcursion(std::uint64_t &Left, LinCheckResult &R);
  void cacheNo(ChainResult &Sub);
  bool fastStep(bool WantWitness, std::uint64_t Left, LinCheckResult &R);
  /// \p C's boundary point (the root, when \p C is null or retired nothing).
  static SeedPoint boundaryPoint(RetainedChain *C);
  /// Materializes \p C's cut point: moves its cut state to the chain's last
  /// aligned quiescent cut. None when the point does not apply (aborts pin
  /// the window, no aligned prefix qualifies, or it is the whole chain).
  std::optional<SeedPoint> advanceCut(RetainedChain &C);
  /// Builds member I's problem over the first \p NumOb obligations into
  /// \p V: resets the scratch arena, runs prepareRun, publishes the window
  /// and marks the arena. Every point of one verdict runs over the view.
  void prepareMember(std::size_t I, std::size_t NumOb, ChainProblemView &V);
  /// Runs member I over \p V (from prepareMember) from seed point \p P of
  /// \p C into \p Out, rewinding the arena to the prepared mark first. A
  /// run over the whole window runs in the chain's own buffers (Out's are
  /// left as they were) and on Yes becomes the chain; a capped one writes
  /// into Out.
  void runFrom(std::size_t I, RetainedChain *C, const SeedPoint &P,
               ChainProblemView V, const ChainLimits &L, ChainResult &Out);

  std::uint64_t TouchCounter = 0; ///< LRU clock of the chain table.
  Arena::Mark PreparedMark; ///< The scratch arena past prepareMember.
  std::vector<CommitObligation> CappedScratch;
  /// The excursion's capped round: member I's sub-chain over the first
  /// WindowLimit obligations (kept across verdicts while HaveRound).
  std::vector<ChainResult> DrainRound;
  std::vector<std::pair<RetainedChain *, UndoToken>> FastUndoScratch;
  /// The state a run from a shorter seed point adopts: a copy of the
  /// point's, so that the point outlives the run. On a Yes it becomes the
  /// chain's end state and the old end state becomes the spare, so neither
  /// is ever reallocated. Created at the first such run.
  std::unique_ptr<FrontierState> Spare;
};

} // namespace slin

#endif // SLIN_ENGINE_SESSIONCORE_H
