//===- slin/SlinChecker.h - Deciding speculative linearizability -*- C++ -*-=//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A decision procedure for (m, n)-speculative linearizability
/// (Definition 19). The definition quantifies universally over
/// interpretations of init actions and existentially over the linearization
/// function g and the abort interpretation f_abort:
///
///   for all f_init there exist g, f_abort such that g is an
///   (f_init, f_abort, m, n)-speculative linearization function.
///
/// The checker handles the ∀ through the InitRelation's adversarial
/// interpretation family (exact for the paper's two relations — consensus,
/// where the extremes are "all canonical" and "all identically extended",
/// and universal, where the interpretation is forced). For each
/// interpretation it runs a chain search like lin/LinChecker.h extended by
/// the speculative obligations:
///
///   * the master history is seeded with the init LCP, which Init Order
///     forces to be a strict prefix of every commit history;
///   * commit availability is vi(m, t, f_init, i) — invoked inputs plus
///     initially-valid inputs carried by switch actions — further capped by
///     every abort's availability (a commit history is a prefix of every
///     abort history, whose elements must be valid at the abort);
///   * at each leaf, f_abort is synthesized per abort action via
///     InitRelation::findAbortHistory, which enforces Abort Order, Init
///     Order and Validity.
///
//===----------------------------------------------------------------------===//

#ifndef SLIN_SLIN_SLINCHECKER_H
#define SLIN_SLIN_SLINCHECKER_H

#include "adt/Adt.h"
#include "lin/LinChecker.h"
#include "slin/InitRelation.h"
#include "slin/SlinWitness.h"
#include "trace/Signature.h"

namespace slin {

/// Options for speculative-linearizability checking.
///
/// AbortValidityAtEnd selects between two readings the paper itself mixes:
///
///   * strict (false, default): an abort history's elements must be valid
///     inputs *at the abort's index* (Definitions 28/29 as written; also
///     the Section 6 automaton, whose abort values extend hist by inputs
///     pending at emission time). Under this reading the composition
///     theorem's Appendix C proof goes through — but the paper's own
///     worked examples fail it: in Quorum and RCons a client may decide on
///     the fast path *after* another client switched, with a proposal that
///     was not yet invoked at the switch, so no abort history fixed at the
///     switch can contain its commit (a reproduction finding; the paper's
///     invariant I1 explicitly contemplates deciders "before or after" a
///     switch).
///
///   * relaxed (true): abort histories are valid against the inputs of the
///     *whole* trace (validity measured at the trace's end), which is
///     exactly what the Section 2.4 construction uses — the history h
///     associated to every switch event contains the proposals of all
///     deciders, including later ones. Under this reading "I1-I3 imply
///     speculative linearizability" holds, and the composed object remains
///     linearizable (validated empirically across this repository: the
///     whole-object check has no abort actions, so both readings coincide
///     there).
struct SlinCheckOptions {
  /// Engine budgets, witness materialization — and the happens-before
  /// relation: Search.Order parameterizes every MustFollow derivation of
  /// the speculative check exactly as it does the plain one (there is
  /// deliberately no separate slin-level knob).
  LinCheckOptions Search;
  bool AbortValidityAtEnd = false;
  /// Materialize per-interpretation witnesses on Yes. Monitors that consume
  /// only Outcome/NodesExplored can turn this off; the incremental session
  /// then skips the O(trace) witness materialization from its retained
  /// chains and may answer through its fast step (batch checkers always
  /// materialize).
  /// IncrementalSlinSession::verdict() overwrites Search.WantWitness with
  /// this flag.
  bool WantWitness = true;
};

/// How one appended event moves the incremental (m, n)-speculative checking
/// problem relative to the last verdict — the taxonomy the resumable
/// session's retention rules key off (see engine/Incremental.h):
///
///   * Neutral: no obligation, no budget, no family change (an interior
///     switch of a composed phase).
///   * Invoke: grows the availability snapshots of *future* responses only;
///     existing obligations are untouched under the strict Definition 28
///     reading, but under the relaxed reading every abort budget grows.
///   * Obligation: a new response or abort — adds an obligation or tightens
///     budgets and the leaf predicate. Retained failures stay failures
///     (monotonicity), so memo and frontiers survive.
///   * Init: a new init action — changes the interpretation family, the
///     init LCP seed, and every availability outright.
enum class SlinDeltaKind : std::uint8_t {
  Neutral,
  Invoke,
  Obligation,
  Init,
};

/// Classifies one appended action under signature \p Sig.
SlinDeltaKind classifySlinDelta(const Action &A, const PhaseSignature &Sig);

/// True iff the deltas accumulated since the last verdict are non-monotone
/// — retained memo entries could prune soundly no longer, so the session's
/// epoch must move (entries are salted out; frontiers keyed by
/// interpretation hash are *invalidated for memo purposes, not discarded*):
/// a changed interpretation family or abort-validity reading replaces seeds
/// and availabilities outright, and a new invocation under the relaxed
/// Definition 28 reading grows every abort budget, so prior failures may
/// now complete.
bool slinDeltasNonMonotone(bool SawInvoke, bool FamilyChanged,
                           bool ReadingChanged, bool HaveAborts,
                           bool AbortValidityAtEnd);

/// Outcome of a speculative-linearizability check under one interpretation.
struct SlinCheckResult {
  Verdict Outcome = Verdict::No;
  std::string Reason;
  SlinWitness Witness; ///< Valid iff Outcome == Verdict::Yes.
  std::uint64_t NodesExplored = 0;
  /// True when an Unknown came from exhausting the node budget (see
  /// LinCheckResult).
  bool BudgetLimited = false;

  explicit operator bool() const { return Outcome == Verdict::Yes; }
};

/// Decides existence of (g, f_abort) for \p T under the single
/// interpretation \p Finit of its init actions.
SlinCheckResult checkSlinUnder(const Trace &T, const PhaseSignature &Sig,
                               const Adt &Type, const InitRelation &Rel,
                               const InitInterpretation &Finit,
                               const SlinCheckOptions &Opts = {});

/// Aggregate outcome over the relation's interpretation family.
struct SlinVerdict {
  Verdict Outcome = Verdict::No;
  std::string Reason;
  /// True when both the interpretation family and the abort search are
  /// exact, making the verdict a decision rather than a test.
  bool Exact = false;
  /// True when an Unknown came from exhausting a search budget under some
  /// interpretation.
  bool BudgetLimited = false;
  /// Search nodes summed over every interpretation checked.
  std::uint64_t NodesExplored = 0;
  /// Graded refinement of Outcome: gradeFor(Outcome) everywhere except the
  /// windowed session's pinned-excursion fallback, which reports Outcome ==
  /// Unknown with Grade == VerdictGrade::BoundedYes (every family member
  /// linearized the first 64 live obligations exactly; only Interference
  /// out-of-window completions remain unchecked). Batch checkers never
  /// report BoundedYes.
  VerdictGrade Grade = VerdictGrade::No;
  /// Out-of-window live obligations left unchecked by a BoundedYes verdict
  /// (<= the session's configured InterferenceBound); 0 otherwise.
  std::size_t Interference = 0;
  /// Witnesses per interpretation (aligned with the family), populated on
  /// overall Yes.
  std::vector<std::pair<InitInterpretation, SlinWitness>> Witnesses;

  explicit operator bool() const { return Outcome == Verdict::Yes; }
};

/// Decides (m, n)-speculative linearizability of \p T: well-formedness
/// (Definitions 33–35) plus, for every interpretation in the family, the
/// existence of a speculative linearization function.
SlinVerdict checkSlin(const Trace &T, const PhaseSignature &Sig,
                      const Adt &Type, const InitRelation &Rel,
                      const SlinCheckOptions &Opts = {});

} // namespace slin

#endif // SLIN_SLIN_SLINCHECKER_H
