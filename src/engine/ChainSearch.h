//===- engine/ChainSearch.h - The shared chain-search core ------*- C++ -*-==//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The unified chain-search engine behind both linearizability checkers.
/// Plain linearizability (Definition 5) and (m, n)-speculative
/// linearizability (Definition 19) both reduce to the same commit-by-commit
/// search: extend a candidate master history one input at a time, where each
/// step either *commits* an outstanding response (whose output the ADT must
/// then explain) or appends a *filler* input available to every remaining
/// commit. The two checkers differ only in the obligations they feed the
/// engine — plain lin derives availability from inputs invoked before each
/// response; slin seeds the master with the init LCP, caps availability by
/// vi(m, t, f_init, i) and every abort's budget, and synthesizes f_abort at
/// each leaf — so the engine is parameterized by a ChainProblemView:
///
///   * CommitObligations (input, expected output, availability counts,
///     real-time-order predecessor mask),
///   * an optional pre-applied Seed prefix,
///   * an optional AcceptLeaf predicate run when every commit is placed.
///
/// Compared with the seed checkers the engine replaces per-node Multiset
/// copies with dense count arrays over interned InputIds, rehash-the-world
/// memo keys with an incrementally folded multiset hash, the unbounded
/// failed-state set with a bounded salted TranspositionTable, and per-node
/// heap churn with Arena scratch — same verdicts, measurably faster. The
/// DFS threads a single replay state down the search path through the
/// ADT's mutate/undo protocol, reverting each move with an O(1) UndoToken
/// instead of cloning the state at every child node.
///
/// Deciding linearizability is NP-complete, so the search is bounded by a
/// node budget; exhaustion yields Verdict::Unknown (never a wrong answer).
///
//===----------------------------------------------------------------------===//

#ifndef SLIN_ENGINE_CHAINSEARCH_H
#define SLIN_ENGINE_CHAINSEARCH_H

#include "adt/Adt.h"
#include "engine/Interner.h"
#include "engine/Transposition.h"
#include "support/Arena.h"

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace slin {

namespace detail {

/// Stafford/splitmix finalizer: the per-(id, count) mix folded into the
/// incremental used-multiset hash, and the salt scrambler applied to
/// ChainSearch::run's Salt. Shared (inline) between the engine and the
/// resumable session's 1-node fast path so both compute bit-identical memo
/// keys and hash folds from one definition.
inline std::uint64_t mix64(std::uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

/// XOR-combinable fingerprint of the pair (id, count). The used multiset is
/// exactly the set of such pairs with count > 0, so XOR-ing fingerprints in
/// and out as counts change maintains an order-independent multiset hash in
/// O(1) per append/undo — where the seed checkers rehashed the whole
/// multiset at every node.
inline std::uint64_t pairMix(InputId Id, std::int32_t Count) {
  return mix64((static_cast<std::uint64_t>(Id) << 32) |
               static_cast<std::uint32_t>(Count));
}

} // namespace detail

/// Three-valued checker outcome.
enum class Verdict : std::uint8_t {
  Yes,     ///< Property holds; a witness is attached where applicable.
  No,      ///< Property conclusively violated.
  Unknown, ///< Search budget exhausted before a conclusion.
};

/// Graded refinement of Verdict, ordered by severity (Yes < BoundedYes <
/// Unknown < No). Grades coincide with the outcome except for BoundedYes:
/// the windowed sessions' pinned-excursion fallback (engine/Incremental.h)
/// reports Outcome == Unknown with Grade == BoundedYes when the first 64
/// live obligations linearize exactly and only a bounded amount of
/// out-of-window interference (at most the configured InterferenceBound)
/// remains unchecked — a strictly stronger statement than a flat Unknown,
/// but never a claim about the full trace. The numeric values are the
/// severity order the composed service verdict folds over.
enum class VerdictGrade : std::uint8_t {
  Yes = 0,
  BoundedYes = 1,
  Unknown = 2,
  No = 3,
};

/// The grade every path except the bounded-interference fallback reports:
/// the outcome's own severity level.
constexpr VerdictGrade gradeFor(Verdict V) {
  return V == Verdict::Yes  ? VerdictGrade::Yes
         : V == Verdict::No ? VerdictGrade::No
                            : VerdictGrade::Unknown;
}

/// Resource bounds for one search run.
struct ChainLimits {
  /// Maximum number of search nodes expanded before giving up with
  /// Unknown; a run that gives up reports exactly this many.
  std::uint64_t NodeBudget = 1u << 22;
};

/// Counters one search run accumulates (a CheckSession aggregates them
/// across runs).
struct ChainStats {
  std::uint64_t Nodes = 0;       ///< Interior search nodes expanded.
  std::uint64_t CommitMoves = 0; ///< Commit edges taken.
  std::uint64_t FillerMoves = 0; ///< Filler edges taken.
  std::uint64_t LeafChecks = 0;  ///< All-committed leaves reached.
  std::uint64_t MemoHits = 0;    ///< Subtrees pruned by the memo table.
  std::uint64_t MemoStores = 0;  ///< Failed subtrees recorded.
  /// Seed inputs replayed into a fresh ADT state at the start of a run —
  /// the linear term a retained FrontierState eliminates. A resumable
  /// session in steady state must not grow this counter.
  std::uint64_t SeedStepsReplayed = 0;
  /// Seed inputs absorbed from a retained FrontierState instead of being
  /// replayed (the O(1)-per-event monitoring fast path).
  std::uint64_t SeedStepsSkipped = 0;

  void accumulate(const ChainStats &S) {
    Nodes += S.Nodes;
    CommitMoves += S.CommitMoves;
    FillerMoves += S.FillerMoves;
    LeafChecks += S.LeafChecks;
    MemoHits += S.MemoHits;
    MemoStores += S.MemoStores;
    SeedStepsReplayed += S.SeedStepsReplayed;
    SeedStepsSkipped += S.SeedStepsSkipped;
  }
};

/// One outstanding response the search must commit: appending In must make
/// the ADT produce Out, every input used so far (and In itself) must fit
/// within Available, and every MustFollow predecessor must already be
/// committed (Real-time Order).
struct CommitObligation {
  std::size_t Tag = 0; ///< Caller-defined; returned in ChainResult::Commits.
  InputId In = 0;
  Output Out;
  std::uint64_t MustFollow = 0; ///< Bitmask over obligation indices.
  /// Dense availability counts indexed by InputId; length is the problem's
  /// AlphabetSize. Typically arena-allocated by the obligation provider.
  const std::int32_t *Available = nullptr;
};

/// Caller-retained replay state at the end of a problem's Seed prefix: the
/// materialized AdtState after applying every seed input, plus the dense
/// used counts, the incremental used-multiset hash, and (for
/// sequence-sensitive problems) the master sequence-hash fold at that
/// point. A resumable session that seeds consecutive runs with its growing
/// success frontier owns one of these; the engine *adopts* it instead of
/// replaying the seed into a fresh state — eliminating the O(seed) ADT
/// replay that was the last linear term in a monitor's steady state — and,
/// on an accepting run, *captures* the new accepting leaf back
/// into it (the undo protocol leaves the threaded state exactly there).
/// On a failed or exhausted run the strict LIFO undo discipline has
/// restored the adopted state to the frontier, so it is handed back
/// unchanged. Behind a retired prefix (ChainProblemView::SeedBase) the
/// adopted state is the only record of that prefix the engine gets.
struct FrontierState {
  std::unique_ptr<AdtState> State; ///< Positioned after the seed prefix.
  std::vector<std::int32_t> Used;  ///< Used counts by InputId at the frontier.
  std::uint64_t UsedHash = 0;      ///< Incremental multiset hash at the frontier.
  std::uint64_t SeqHash = 0;       ///< Sequence-hash fold of the seed.
  bool HasSeqHash = false; ///< SeqHash was maintained (sequence-sensitive run).
  std::size_t Len = 0;     ///< Seed length this state corresponds to.
  bool Valid = false;

  /// Drops the retained state (keeps vector capacity for reuse).
  void invalidate() {
    State.reset();
    Used.clear();
    UsedHash = SeqHash = 0;
    HasSeqHash = false;
    Len = 0;
    Valid = false;
  }

  /// Makes this a deep copy of \p Other (a state of the same ADT), reusing
  /// this state's ADT object (AdtState::copyFrom) and used-count storage:
  /// a run from a shorter seed point adopts such a copy, and once warm it
  /// allocates nothing.
  void assign(const FrontierState &Other) {
    if (!Other.State)
      State.reset();
    else if (State)
      State->copyFrom(*Other.State);
    else
      State = Other.State->clone();
    Used.assign(Other.Used.begin(), Other.Used.end());
    UsedHash = Other.UsedHash;
    SeqHash = Other.SeqHash;
    HasSeqHash = Other.HasSeqHash;
    Len = Other.Len;
    Valid = Other.Valid && State != nullptr;
  }
};

/// Applies \p N interned inputs to \p F in place: the ADT state advances,
/// the dense used counts grow, and the incremental used-multiset hash (and
/// the sequence hash, when maintained) are folded exactly as the engine
/// would fold them. This is how a retiring session moves its
/// retired-boundary replay state past a newly retired chain segment without
/// ever re-replaying the whole prefix — each retired input is applied once,
/// ever. \p F must hold a valid state.
void advanceFrontierState(FrontierState &F, const InputInterner &Interner,
                          const InputId *Ids, std::size_t N);

/// A chain-search instance: what to commit, what the master starts with,
/// and what must hold at a leaf. The view is non-owning — raw
/// pointer/length pairs over caller-retained storage — so handing the
/// engine a problem never allocates: the batch checkers fill one over
/// local vectors, and a resumable session maintains its live obligation
/// window as persistent parallel arrays (SoA) and hands the engine a view
/// over them each event.
///
/// Lifetimes: every pointed-to range (Commits, their Available rows, Seed,
/// SeedRows, AcceptLeaf) must outlive the run() call.
struct ChainProblemView {
  const Adt *Type = nullptr;
  /// Exclusive upper bound of the InputIds this problem mentions; all
  /// Available arrays have this length.
  InputId AlphabetSize = 0;
  /// Obligations in the order moves are attempted (trace order preserves
  /// the seed checkers' exploration order). At most 64 for exact search —
  /// windowed sessions keep this the *live* obligation window and retire
  /// committed quiescent prefixes behind SeedBase.
  const CommitObligation *Commits = nullptr;
  std::size_t NumCommits = 0;
  /// Optional per-obligation availability override: when non-null, an array
  /// of NumCommits row pointers (AlphabetSize entries each) used in place of
  /// Commits[R].Available. This is how a slin session shares one SoA window
  /// across its whole interpretation family — the shared Commits rows carry
  /// tags/inputs/outputs/masks while each interpretation overlays only its
  /// own availability rows (the one ingredient Definition 26 makes
  /// interpretation-dependent), instead of materializing a full per-
  /// interpretation obligation array per verdict.
  const std::int32_t *const *AvailOverride = nullptr;
  /// Pre-applied master prefix in dense ids (the slin init LCP, or a
  /// resumable session's retained witness chain); it consumes availability
  /// and is part of every commit history.
  const InputId *Seed = nullptr;
  std::size_t SeedLen = 0;
  /// Number of *retired* master inputs that virtually precede Seed. The
  /// full master is retired-prefix ++ Seed ++ search appends, but the
  /// engine never materializes the retired part: the adopted Retained
  /// state already sits past it (its Used counts and hashes cover it), so
  /// a steady-state run costs O(live window) regardless of how much
  /// history was retired. Commit lengths (SeedRows and
  /// ChainResult::Commits) are absolute — they include SeedBase — while
  /// ChainResult::Master carries only the live part (the caller that
  /// retired the prefix owns it and prepends it when materializing a
  /// witness). Requires an adoptable Retained state of length SeedBase +
  /// SeedLen whose sequence hash is folded when SequenceSensitive; any
  /// other run with SeedBase != 0 answers the RetiredSeedUnavailableReason
  /// Unknown. An AcceptLeaf predicate likewise sees only the live part of
  /// the longest commit.
  std::size_t SeedBase = 0;
  /// Obligations already committed *within* the (virtual ++ materialized)
  /// seed: SeedCommitted is their bitmask over obligation indices, and
  /// SeedRows are their (Tag, absolute master length at the commit point)
  /// rows in chain order, one per set bit, which the run's commit rows
  /// start with verbatim. The search starts with these marked committed —
  /// this is how a resumable session resumes inside its retained chain
  /// instead of re-deriving the old witness: the root of the run is the
  /// chain's seed point, and backtracking above it is a shorter seed
  /// point's job. The caller vouches that the rows commit exactly the
  /// masked obligations (a session passes its chain's own rows once they
  /// are aligned on a window prefix, see RetainedChain::Aligned); every
  /// listed length must be <= SeedBase + SeedLen.
  const std::pair<std::size_t, std::size_t> *SeedRows = nullptr;
  std::size_t NumSeedRows = 0;
  std::uint64_t SeedCommitted = 0;
  /// Include the master's sequence hash in memo keys. Required whenever the
  /// leaf predicate depends on the master's order (abort synthesis does);
  /// plain multiset + ADT-digest keys suffice otherwise.
  bool SequenceSensitive = false;
  /// Called when every obligation is committed, with the longest commit
  /// history (the master prefix up to the longest commit length, the
  /// empty history when nothing commits); returning false rejects the leaf
  /// and the search continues. The engine materializes that history only
  /// at a leaf, and only when a predicate is set. Borrowed: null (or
  /// pointing at an empty std::function) accepts every leaf. A pointer
  /// rather than a copy: the view itself must never allocate.
  const std::function<bool(const History &LongestCommit)> *AcceptLeaf =
      nullptr;
  /// Optional retained replay state for Seed, owned by the caller (in-out).
  /// When it is valid and matches the seed's length (SeedBase + SeedLen),
  /// the engine starts from it — zero seed replay — and refreshes it to the
  /// new accepting leaf on Yes. A fresh (or mismatched) run without a
  /// retired prefix still captures the leaf into it on Yes, which is how a
  /// resumable session's frontier state gets created in the first place.
  /// Null disables retention.
  FrontierState *Retained = nullptr;
};

/// The Unknown reason of a run, or of a resumable session's verdict, whose
/// node budget ran out.
inline constexpr char NodeBudgetReason[] = "node budget exhausted";

/// The Unknown reason of a run behind a retired prefix (SeedBase != 0) that
/// cannot adopt its Retained state: the engine never sees the retired ids,
/// so it can neither replay them nor fold their sequence hash.
inline constexpr char RetiredSeedUnavailableReason[] =
    "retired seed prefix unavailable for replay";

/// Outcome of one search run. On Yes, Master/Commits describe the witness
/// chain: Master is the master history in dense ids (materialize it with
/// InputInterner::history), and Commits maps each obligation's Tag to its
/// commit history's length (a prefix of Master). Under
/// ChainProblemView::SeedBase, Master holds only the live (post-retirement)
/// part while commit lengths stay absolute.
struct ChainResult {
  Verdict Outcome = Verdict::No;
  std::string Reason; ///< Set for Unknown; empty No is the caller's to name.
  /// True when an Unknown came from exhausting the node budget (as
  /// opposed to a structural limit like >64 obligations).
  bool BudgetLimited = false;
  std::vector<InputId> Master;
  std::vector<std::pair<std::size_t, std::size_t>> Commits;
  ChainStats Stats;

  explicit operator bool() const { return Outcome == Verdict::Yes; }
};

/// The engine. Borrows its interner, memo table, and arena from the caller
/// (normally a CheckSession) so repeated runs amortize their setup; the
/// \p Salt passed to run() keeps memo keys of distinct runs from aliasing
/// in the shared table.
class ChainSearch {
public:
  ChainSearch(const InputInterner &Interner, TranspositionTable &Memo,
              Arena &Scratch)
      : Interner(Interner), Memo(Memo), Scratch(Scratch) {}

  /// Runs one search over \p Problem.
  ChainResult run(const ChainProblemView &Problem, const ChainLimits &Limits,
                  std::uint64_t Salt = 0) {
    ChainResult R;
    run(Problem, Limits, Salt, R);
    return R;
  }

  /// Runs one search over \p Problem into \p Out, writing the master and
  /// commit rows into Out's existing capacity. When Out.Master and
  /// Out.Commits already start with the seed (Problem.Seed ==
  /// Out.Master.data(), Problem.SeedRows == Out.Commits.data(): a session
  /// resuming inside its own chain) the run truncates them to it instead of
  /// copying. A run that does not answer Yes leaves them holding the seed
  /// and its rows (the strict LIFO discipline restores both), or untouched
  /// when it was refused before the search (more than 64 obligations, an
  /// unavailable retired seed).
  void run(const ChainProblemView &Problem, const ChainLimits &Limits,
           std::uint64_t Salt, ChainResult &Out);

private:
  const InputInterner &Interner;
  TranspositionTable &Memo;
  Arena &Scratch;
};

} // namespace slin

#endif // SLIN_ENGINE_CHAINSEARCH_H
