//===- engine/CheckSession.h - Batched checking over one ADT ----*- C++ -*-==//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A CheckSession runs many linearizability / speculative-linearizability
/// checks against one ADT while amortizing everything the per-trace entry
/// points cannot: the input interner (each distinct input is hashed once
/// per session, not once per node), the scratch arena (rewound, not freed,
/// between traces), and the transposition table (kept warm across traces
/// via per-run key salting). The session is also where the checkers'
/// obligation providers live: checkLin and checkSlinUnder translate a trace
/// into a ChainProblemView — commit obligations, seed prefix, leaf predicate —
/// and hand it to the shared ChainSearch engine.
///
/// The free functions checkLinearizable / checkSlinUnder / checkSlin are
/// now thin wrappers that construct a single-use session; batch workloads
/// (corpus checking, benchmarks) should hold a session and reuse it.
///
/// Sessions are single-threaded; use one session per thread.
///
//===----------------------------------------------------------------------===//

#ifndef SLIN_ENGINE_CHECKSESSION_H
#define SLIN_ENGINE_CHECKSESSION_H

#include "engine/ChainSearch.h"
#include "engine/Interner.h"
#include "engine/Transposition.h"
#include "lin/LinChecker.h"
#include "slin/SlinChecker.h"
#include "support/Arena.h"

#include <cstdint>
#include <utility>

namespace slin {

namespace detail {

/// An abort action whose f_abort history the accepting-leaf predicate must
/// synthesize. Shared between the batch (CheckSession::runSlinUnder) and
/// incremental (IncrementalSlinSession::prepareRun) slin obligation
/// providers so the Definition 26/28 plumbing cannot drift between them.
struct PendingAbort {
  std::size_t TraceIndex = 0;
  Input In;
  SwitchValue Sv;
  Multiset<Input> Budget; ///< vi at the abort (or at trace end, relaxed).
};

/// Abort Order + Definition 28: a commit history is a prefix of every
/// abort history, whose elements are valid at the abort — cap every
/// commit's availability by every abort's budget (pointwise min).
void capByAbortBudgets(std::vector<Multiset<Input>> &CommitAvail,
                       const std::vector<PendingAbort> &Aborts);

/// Builds the accepting-leaf predicate that synthesizes f_abort per abort
/// action via Rel.findAbortHistory, collecting the found histories into
/// \p FoundAborts. Callers build it only when \p Aborts is non-empty (an
/// abort-free run needs no predicate). All reference parameters are
/// captured by reference and must outlive the search run.
std::function<bool(const History &LongestCommit)>
makeAbortSynthesisLeaf(const InitRelation &Rel,
                       const std::vector<PendingAbort> &Aborts,
                       const History &Lcp,
                       std::vector<std::pair<std::size_t, History>>
                           &FoundAborts);

/// Maps the engine's outcome onto a SlinCheckResult: witness assembly on
/// Yes (the dense master materialized through \p Interner), reason
/// pass-through on Unknown, and the downgrade of a No to Unknown when
/// aborts are present but the relation's abort search is not a decision
/// procedure.
SlinCheckResult
shapeSlinResult(ChainResult R, const InputInterner &Interner,
                const InitRelation &Rel, bool HadAborts,
                std::vector<std::pair<std::size_t, History>> FoundAborts);

} // namespace detail

/// Counters aggregated over every check a session ran.
struct SessionStats {
  std::uint64_t Checks = 0;
  std::uint64_t Yes = 0;
  std::uint64_t No = 0;
  std::uint64_t Unknown = 0;
  /// Member resumes at a retained chain's end (its accepting leaf; the
  /// end seed point of engine/SessionCore.h) by a resumable session, one
  /// per member: each member run the verdict ladder attempts there,
  /// counted before its outcome is known, and each member the fast step
  /// advances. Not a count of verdicts. Batch sessions never bump this.
  std::uint64_t FrontierResumes = 0;
  /// Verdicts the steady-state fast step served in-session — one new
  /// obligation committed onto every member's retained chain with
  /// branchless mask/count checks over the live window, without entering
  /// the engine's DFS. Each adds one FrontierResumes per member;
  /// bookkeeping (node counts, frontier updates, memo stats) is
  /// bit-identical to the engine run it replaces. Batch sessions never
  /// bump this.
  std::uint64_t FastPathVerdicts = 0;
  /// Member runs the resumable sessions' verdict ladder answered Yes from
  /// the cut seed point — the chain's last aligned quiescent cut — after
  /// the chain's end failed (engine/SessionCore.h): the miss reopened only
  /// the obligations after the cut. Batch sessions never bump this.
  std::uint64_t CutResumes = 0;
  /// Uncapped runs from the boundary seed point — the end of the chain's
  /// retired prefix, or the root — that the resumable sessions' verdict
  /// ladder made: members with no chain to resume, and misses neither the
  /// end nor the cut answered. The capped runs of an overflow excursion's
  /// round are not counted. Batch sessions never bump this.
  std::uint64_t RootSearches = 0;
  /// Obligations a windowed session folded into its retired prefix at
  /// quiescent cuts (engine/Incremental.h); what keeps the live window —
  /// and therefore every steady-state verdict — bounded on unbounded
  /// streams. Batch sessions never bump this.
  std::uint64_t RetiredObligations = 0;
  /// Appends that found the live window full with no retirable quiescent
  /// prefix: the session enters the structural-Unknown state immediately
  /// (stable reason string, no search is ever attempted for it).
  std::uint64_t WindowOverflows = 0;
  /// Verdicts where the live-window search concluded No but a retired
  /// prefix pinned the chain: reported as Unknown with the stable
  /// WindowRetired reason (a conclusive No would require backtracking into
  /// retired obligations).
  std::uint64_t WindowRetiredUnknowns = 0;
  /// Verdicts a windowed session answered with the graded BoundedYes
  /// fallback: the cut was pinned past the 64-slot window, the first 64
  /// live obligations linearized exactly, and the out-of-window
  /// interference stayed within the configured InterferenceBound. Counted
  /// per served verdict (the cached re-serves included); batch sessions
  /// never bump this.
  std::uint64_t BoundedYesVerdicts = 0;
  /// Appends a resumable lin session only validated and counted because a
  /// final No had frozen it (engine/SessionCore.h): no obligation was
  /// pushed for them. Batch sessions never bump this.
  std::uint64_t FrozenAppends = 0;
  /// High-water mark of the live obligation window (accumulates by max).
  std::uint64_t LiveWindowHighWater = 0;
  ChainStats Search; ///< Summed over all engine runs.

  void record(Verdict V) {
    ++Checks;
    if (V == Verdict::Yes)
      ++Yes;
    else if (V == Verdict::No)
      ++No;
    else
      ++Unknown;
  }

  /// Folds another session's counters in (corpus_check sums its
  /// families' reports this way).
  void accumulate(const SessionStats &S) {
    Checks += S.Checks;
    Yes += S.Yes;
    No += S.No;
    Unknown += S.Unknown;
    FrontierResumes += S.FrontierResumes;
    FastPathVerdicts += S.FastPathVerdicts;
    CutResumes += S.CutResumes;
    RootSearches += S.RootSearches;
    RetiredObligations += S.RetiredObligations;
    WindowOverflows += S.WindowOverflows;
    WindowRetiredUnknowns += S.WindowRetiredUnknowns;
    BoundedYesVerdicts += S.BoundedYesVerdicts;
    FrozenAppends += S.FrozenAppends;
    LiveWindowHighWater = LiveWindowHighWater > S.LiveWindowHighWater
                              ? LiveWindowHighWater
                              : S.LiveWindowHighWater;
    Search.accumulate(S.Search);
  }
};

/// Batched checking context for one ADT.
class CheckSession {
public:
  /// The session's transposition table holds up to 2^20 entries.
  explicit CheckSession(const Adt &Type);

  const Adt &adt() const { return Type; }

  /// Decides whether \p T (a switch-free trace in sig_T) satisfies the new
  /// definition of linearizability (Definition 5). Identical conclusive
  /// (Yes/No) verdicts to checkLinearizable; a budget-limited Unknown may
  /// fall on a different trace than one-shot checking, because a warm
  /// session's dense-id order — and therefore move exploration order —
  /// depends on the traces checked before.
  LinCheckResult checkLin(const Trace &T, const LinCheckOptions &Opts = {});

  /// Decides existence of (g, f_abort) for \p T under the single
  /// interpretation \p Finit of its init actions (Definition 19's inner
  /// ∃-quantifier). Identical conclusive verdicts to the free
  /// checkSlinUnder (see checkLin for the budget-limited caveat).
  SlinCheckResult checkSlinUnder(const Trace &T, const PhaseSignature &Sig,
                                 const InitRelation &Rel,
                                 const InitInterpretation &Finit,
                                 const SlinCheckOptions &Opts = {});

  /// Decides (m, n)-speculative linearizability of \p T over the
  /// relation's whole interpretation family. Identical conclusive
  /// verdicts to the free checkSlin (see checkLin for the budget-limited
  /// caveat).
  SlinVerdict checkSlin(const Trace &T, const PhaseSignature &Sig,
                        const InitRelation &Rel,
                        const SlinCheckOptions &Opts = {});

  const SessionStats &stats() const { return Stats; }

private:
  /// Interns \p In, growing the dense-id space.
  InputId intern(const Input &In) { return Interner.intern(In); }

  /// Sorts and dedups \p Pool, then interns it in value order, so a fresh
  /// session's dense-id order — and thus the engine's move exploration
  /// order — matches the pre-engine checkers' sorted-multiset iteration.
  void internSorted(std::vector<Input> Pool);

  /// Snapshots a Multiset into a dense arena-allocated count array of the
  /// current alphabet size.
  const std::int32_t *denseCounts(const Multiset<Input> &M);

  LinCheckResult runLin(const Trace &T, const LinCheckOptions &Opts);
  SlinCheckResult runSlinUnder(const Trace &T, const PhaseSignature &Sig,
                               const InitRelation &Rel,
                               const InitInterpretation &Finit,
                               const SlinCheckOptions &Opts);

  const Adt &Type;
  InputInterner Interner;
  Arena Scratch;
  TranspositionTable Memo;
  SessionStats Stats;
  std::uint64_t RunSerial = 0;
};

} // namespace slin

#endif // SLIN_ENGINE_CHECKSESSION_H
