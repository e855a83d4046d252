//===- slin/InitRelation.h - The r_init relation ----------------*- C++ -*-==//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The common mapping r_init ⊆ Init × I_T* that all speculation phases of an
/// object agree on (Section 5.2): a switch value denotes a *set* of
/// histories — its possible interpretations — each a candidate linearization
/// of the aborting phase's execution. Speculative linearizability quantifies
/// universally over interpretations of the init actions (Definition 19), so
/// a checker needs, per relation:
///
///   * membership (is H an interpretation of V?),
///   * a canonical interpretation (r_init^-1 is total and onto),
///   * a finite *adversarial family* of interpretation assignments that
///     realizes the extremes of the ∀-quantifier (minimal available inputs,
///     maximal longest-common-prefix), and
///   * a decision procedure for choosing an abort history within the
///     relation, used when the checker synthesizes f_abort.
///
/// Two relations from the paper are provided: the consensus relation of
/// Section 2.4 (a switch value v denotes all histories starting with p(v))
/// and the universal relation of Section 6 (r_init(h) = {h}, switch values
/// are interned histories).
///
//===----------------------------------------------------------------------===//

#ifndef SLIN_SLIN_INITRELATION_H
#define SLIN_SLIN_INITRELATION_H

#include "adt/Values.h"
#include "support/Multiset.h"
#include "trace/Signature.h"
#include "trace/Trace.h"

#include <map>
#include <optional>
#include <vector>

namespace slin {

/// One interpretation assignment f_init: init-action trace index -> history.
using InitInterpretation = std::map<std::size_t, History>;

/// A finite family of interpretation assignments standing in for the
/// ∀-quantifier of Definition 19.
struct InterpretationFamily {
  std::vector<InitInterpretation> Assignments;

  /// True when the family provably realizes the adversarial extremes for
  /// this relation, making ∀-checking over the family exact.
  bool Exact = false;
};

/// Interface of an r_init relation.
class InitRelation {
public:
  virtual ~InitRelation();

  /// True iff (\p V, \p H) ∈ r_init.
  virtual bool contains(const SwitchValue &V, const History &H) const = 0;

  /// Some member of r_init(\p V).
  virtual History canonical(const SwitchValue &V) const = 0;

  /// Produces interpretation assignments for the init actions of \p T (the
  /// switch actions into Sig.M): one walk of \p T collects the init actions
  /// and the FreshBound, then interpretationsFromInits decides. A relation
  /// customizes the family there only, so the batch and streaming
  /// derivations agree by construction.
  InterpretationFamily interpretations(const Trace &T,
                                       const PhaseSignature &Sig) const;

  /// The interpretation family from the init actions alone: \p Inits holds
  /// each init action with its trace index (trace order), and \p FreshBound
  /// is max(0, max over every trace action of max(In.A, Sv.Val)) — the only
  /// other trace-derived quantity any bundled relation consumes. A
  /// streaming session calls it directly to (re)build the family without
  /// retaining — or re-walking — the materialized trace. The default
  /// returns the all-canonical assignment, marked inexact.
  virtual InterpretationFamily interpretationsFromInits(
      const std::vector<std::pair<std::size_t, Action>> &Inits,
      std::int64_t FreshBound) const;

  /// True iff appending one more non-init action cannot change
  /// interpretationsFromInits' result: \p TraceHasInits says whether any
  /// init action has been ingested, and \p FreshBoundRaised whether the
  /// appended action raised the FreshBound maximum. A streaming session
  /// uses this to keep its family cached across steady-state appends
  /// (false negatives cost a recompute, never soundness). The conservative
  /// default: stable only while the trace has no init actions at all (every
  /// bundled relation's family is then the empty-assignment singleton).
  virtual bool interpretationsStableUnderAppend(bool TraceHasInits,
                                                bool FreshBoundRaised) const;

  /// Searches for an abort history A for switch value \p V subject to the
  /// constraints the definitions impose on f_abort values:
  ///   A ∈ r_init(V);  LongestCommit is a prefix of A (Abort Order);
  ///   InitLcp is a strict prefix of A (Init Order);
  ///   elems(A) ∪ {PendingIn} ⊆ Budget, pointwise max-union (Validity).
  /// The default tries a small candidate list and may miss solutions (see
  /// abortSearchExact).
  virtual std::optional<History>
  findAbortHistory(const SwitchValue &V, const History &LongestCommit,
                   const History &InitLcp, const Input &PendingIn,
                   const Multiset<Input> &Budget) const;

  /// True iff findAbortHistory is a decision procedure for this relation
  /// (failure implies no abort history exists).
  virtual bool abortSearchExact() const;

protected:
  /// Checks the four f_abort constraints for a candidate \p A.
  bool abortCandidateOk(const SwitchValue &V, const History &A,
                        const History &LongestCommit, const History &InitLcp,
                        const Input &PendingIn,
                        const Multiset<Input> &Budget) const;
};

/// The consensus relation of Section 2.4: r_init(v) = all non-empty
/// histories whose first input is p(v). Whoever takes over with switch
/// value v learns that v was (or may be assumed to have been) the first —
/// hence winning — proposal of the previous phase.
class ConsensusInitRelation final : public InitRelation {
public:
  bool contains(const SwitchValue &V, const History &H) const override;
  History canonical(const SwitchValue &V) const override;
  InterpretationFamily interpretationsFromInits(
      const std::vector<std::pair<std::size_t, Action>> &Inits,
      std::int64_t FreshBound) const override;
  bool interpretationsStableUnderAppend(bool TraceHasInits,
                                        bool FreshBoundRaised) const override;
  std::optional<History>
  findAbortHistory(const SwitchValue &V, const History &LongestCommit,
                   const History &InitLcp, const Input &PendingIn,
                   const Multiset<Input> &Budget) const override;
  bool abortSearchExact() const override;
};

/// The universal relation of Section 6: switch values are interned
/// histories and r_init(h) = {h}; interpretations are forced, so the
/// ∀-quantifier collapses and checking is exact.
class UniversalInitRelation final : public InitRelation {
public:
  /// Interns \p H and returns its switch value. Not thread-safe; intended
  /// for single-threaded checking and trace generation.
  SwitchValue encode(const History &H);

  /// The history denoted by \p V. \p V must have been produced by encode.
  const History &decode(const SwitchValue &V) const;

  bool contains(const SwitchValue &V, const History &H) const override;
  History canonical(const SwitchValue &V) const override;
  InterpretationFamily interpretationsFromInits(
      const std::vector<std::pair<std::size_t, Action>> &Inits,
      std::int64_t FreshBound) const override;
  bool interpretationsStableUnderAppend(bool TraceHasInits,
                                        bool FreshBoundRaised) const override;
  std::optional<History>
  findAbortHistory(const SwitchValue &V, const History &LongestCommit,
                   const History &InitLcp, const Input &PendingIn,
                   const Multiset<Input> &Budget) const override;
  bool abortSearchExact() const override;

private:
  std::vector<History> Table;
  std::map<History, std::size_t> Index;
};

} // namespace slin

#endif // SLIN_SLIN_INITRELATION_H
