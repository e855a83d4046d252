//===- slin/InitRelation.cpp ----------------------------------------------==//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//

#include "slin/InitRelation.h"

#include "adt/Consensus.h"
#include "support/Sequences.h"

#include <algorithm>
#include <cassert>

using namespace slin;

InitRelation::~InitRelation() = default;

InterpretationFamily
InitRelation::interpretations(const Trace &T, const PhaseSignature &Sig) const {
  std::vector<std::pair<std::size_t, Action>> Inits;
  std::int64_t FreshBound = 0;
  for (std::size_t I = 0, E = T.size(); I != E; ++I) {
    const Action &A = T[I];
    if (Sig.isInitAction(A))
      Inits.push_back({I, A});
    FreshBound = std::max({FreshBound, A.In.A, A.Sv.Val});
  }
  return interpretationsFromInits(Inits, FreshBound);
}

InterpretationFamily InitRelation::interpretationsFromInits(
    const std::vector<std::pair<std::size_t, Action>> &Inits,
    std::int64_t FreshBound) const {
  (void)FreshBound;
  InterpretationFamily Family;
  InitInterpretation Canonical;
  for (const auto &[Index, A] : Inits)
    Canonical[Index] = canonical(A.Sv);
  Family.Assignments.push_back(std::move(Canonical));
  Family.Exact = false;
  return Family;
}

bool InitRelation::interpretationsStableUnderAppend(
    bool TraceHasInits, bool FreshBoundRaised) const {
  (void)FreshBoundRaised;
  return !TraceHasInits;
}

bool InitRelation::abortCandidateOk(const SwitchValue &V, const History &A,
                                    const History &LongestCommit,
                                    const History &InitLcp,
                                    const Input &PendingIn,
                                    const Multiset<Input> &Budget) const {
  if (!contains(V, A))
    return false;
  if (!isPrefixOf(LongestCommit, A))
    return false;
  // Init Order on aborts is non-strict: the Section 6 automaton may emit an
  // abort value equal to hist (= the init LCP) when nothing was linearized
  // beyond it, and the composition proof only needs prefix inclusion here.
  // (Definition 31's "strict" matters for commit histories, which must end
  // with their own input and hence genuinely extend the LCP.)
  if (!isPrefixOf(InitLcp, A))
    return false;
  Multiset<Input> Elems = Multiset<Input>::fromRange(A);
  Multiset<Input> Pending;
  Pending.add(PendingIn);
  return Elems.unionMax(Pending).includedIn(Budget);
}

std::optional<History> InitRelation::findAbortHistory(
    const SwitchValue &V, const History &LongestCommit, const History &InitLcp,
    const Input &PendingIn, const Multiset<Input> &Budget) const {
  History Candidates[4];
  Candidates[0] = LongestCommit;
  Candidates[1] = canonical(V);
  Candidates[2] = LongestCommit;
  Candidates[2].push_back(PendingIn);
  Candidates[3] = InitLcp;
  Candidates[3].push_back(PendingIn);
  for (const History &A : Candidates)
    if (abortCandidateOk(V, A, LongestCommit, InitLcp, PendingIn, Budget))
      return A;
  return std::nullopt;
}

bool InitRelation::abortSearchExact() const { return false; }

//===----------------------------------------------------------------------===//
// ConsensusInitRelation
//===----------------------------------------------------------------------===//

bool ConsensusInitRelation::contains(const SwitchValue &V,
                                     const History &H) const {
  // A history starting with propose(v) — from whichever client (the
  // Section 2.4 mapping quantifies over clients c' other than the switcher;
  // identity tags carry that information).
  return !H.empty() && cons::isProposalOf(H.front(), V.Val);
}

History ConsensusInitRelation::canonical(const SwitchValue &V) const {
  return {cons::ghostPropose(V.Val)};
}

/// The ∀-quantifier over consensus interpretations has two adversarial
/// dimensions: *availability* (Validity counts initially-valid inputs from
/// the interpretations, so the adversary picks the shortest ones — the
/// canonical singletons) and the *longest common prefix* (Init Order forces
/// commits and aborts to strictly extend it, so the adversary picks
/// identical long interpretations — only possible when all switch values
/// coincide, since interpretations of different values differ at their first
/// element and have an empty LCP). The family below realizes both extremes,
/// plus a long-LCP variant whose tail inputs appear nowhere in the trace
/// (maximal prefix with minimal usable availability).
InterpretationFamily ConsensusInitRelation::interpretationsFromInits(
    const std::vector<std::pair<std::size_t, Action>> &Inits,
    std::int64_t FreshBound) const {
  InterpretationFamily Family;
  Family.Exact = true;

  InitInterpretation Canonical;
  for (const auto &[Index, A] : Inits)
    Canonical[Index] = canonical(A.Sv);
  Family.Assignments.push_back(Canonical);
  if (Inits.empty())
    return Family;

  bool AllEqual = true;
  for (const auto &[Index, A] : Inits)
    AllEqual = AllEqual && A.Sv == Inits.front().second.Sv;
  if (!AllEqual)
    return Family; // LCP is empty under every interpretation.

  // All switch values equal v: identical extended interpretations maximize
  // the LCP. FreshBound is the trace maximum, so FreshBound + 1 onwards are
  // values absent from the trace: the extension's inputs cannot be
  // re-derived from invocations.
  const std::int64_t Fresh = FreshBound + 1;
  for (unsigned Extra : {1u, 2u}) {
    InitInterpretation Extended;
    History H = canonical(Inits.front().second.Sv);
    for (unsigned K = 0; K < Extra; ++K)
      H.push_back(cons::ghostPropose(Fresh + K));
    for (const auto &[Index, A] : Inits)
      Extended[Index] = H;
    Family.Assignments.push_back(std::move(Extended));
  }
  return Family;
}

bool ConsensusInitRelation::interpretationsStableUnderAppend(
    bool TraceHasInits, bool FreshBoundRaised) const {
  // The extended assignments consume only the canonical heads (functions of
  // the switch values) and fresh values one past the trace maximum: an
  // appended non-init action perturbs the family only by raising that
  // maximum.
  return !TraceHasInits || !FreshBoundRaised;
}

std::optional<History> ConsensusInitRelation::findAbortHistory(
    const SwitchValue &V, const History &LongestCommit, const History &InitLcp,
    const Input &PendingIn, const Multiset<Input> &Budget) const {
  if (Budget.count(PendingIn) < 1)
    return std::nullopt; // Validity (Def. 28) requires the pending input.

  // Case 1: commits exist. The abort history must extend the longest
  // commit, whose head then must already be a proposal of v. The longest
  // commit itself has minimal element demand, so if it fails no extension
  // can succeed.
  if (!LongestCommit.empty()) {
    if (!cons::isProposalOf(LongestCommit.front(), V.Val))
      return std::nullopt;
    if (abortCandidateOk(V, LongestCommit, LongestCommit, InitLcp, PendingIn,
                         Budget))
      return LongestCommit;
    // Defensive: extend by one budgeted input (covers InitLcp ==
    // LongestCommit corner cases).
    Multiset<Input> Needed = Multiset<Input>::fromRange(LongestCommit);
    for (const auto &[In, Count] : Budget.entries()) {
      if (Needed.count(In) >= Count)
        continue;
      History A = LongestCommit;
      A.push_back(In);
      if (abortCandidateOk(V, A, LongestCommit, InitLcp, PendingIn, Budget))
        return A;
    }
    return std::nullopt;
  }

  // Case 2: no commits. The abort history must strictly extend InitLcp and
  // start with a proposal of v drawn from the budget.
  if (InitLcp.empty()) {
    // Try every budgeted occurrence of a proposal of v as the head (real
    // invocations and ghost-tagged interpretation entries alike).
    for (const auto &[In, Count] : Budget.entries()) {
      (void)Count;
      if (!cons::isProposalOf(In, V.Val))
        continue;
      History A = {In};
      if (abortCandidateOk(V, A, LongestCommit, InitLcp, PendingIn, Budget))
        return A;
    }
    return std::nullopt;
  }
  if (!cons::isProposalOf(InitLcp.front(), V.Val))
    return std::nullopt;
  // The LCP itself, or its extension by any budgeted input (prefer the
  // pending one).
  if (abortCandidateOk(V, InitLcp, LongestCommit, InitLcp, PendingIn,
                       Budget))
    return InitLcp;
  {
    History A = InitLcp;
    A.push_back(PendingIn);
    if (abortCandidateOk(V, A, LongestCommit, InitLcp, PendingIn, Budget))
      return A;
  }
  Multiset<Input> Needed = Multiset<Input>::fromRange(InitLcp);
  for (const auto &[In, Count] : Budget.entries()) {
    if (Needed.count(In) >= Count)
      continue;
    History A = InitLcp;
    A.push_back(In);
    if (abortCandidateOk(V, A, LongestCommit, InitLcp, PendingIn, Budget))
      return A;
  }
  return std::nullopt;
}

bool ConsensusInitRelation::abortSearchExact() const { return true; }

//===----------------------------------------------------------------------===//
// UniversalInitRelation
//===----------------------------------------------------------------------===//

SwitchValue UniversalInitRelation::encode(const History &H) {
  auto [It, Inserted] = Index.try_emplace(H, Table.size());
  if (Inserted)
    Table.push_back(H);
  return SwitchValue{static_cast<std::int64_t>(It->second)};
}

const History &UniversalInitRelation::decode(const SwitchValue &V) const {
  assert(V.Val >= 0 && static_cast<std::size_t>(V.Val) < Table.size() &&
         "switch value was not produced by encode()");
  return Table[static_cast<std::size_t>(V.Val)];
}

bool UniversalInitRelation::contains(const SwitchValue &V,
                                     const History &H) const {
  return decode(V) == H;
}

History UniversalInitRelation::canonical(const SwitchValue &V) const {
  return decode(V);
}

InterpretationFamily UniversalInitRelation::interpretationsFromInits(
    const std::vector<std::pair<std::size_t, Action>> &Inits,
    std::int64_t FreshBound) const {
  // r_init(h) = {h}: the interpretation is forced, so the family is the
  // singleton canonical assignment and checking over it is exact.
  InterpretationFamily Family =
      InitRelation::interpretationsFromInits(Inits, FreshBound);
  Family.Exact = true;
  return Family;
}

bool UniversalInitRelation::interpretationsStableUnderAppend(
    bool TraceHasInits, bool FreshBoundRaised) const {
  // Interpretations are forced by the switch values; no other trace content
  // participates.
  (void)TraceHasInits;
  (void)FreshBoundRaised;
  return true;
}

std::optional<History> UniversalInitRelation::findAbortHistory(
    const SwitchValue &V, const History &LongestCommit, const History &InitLcp,
    const Input &PendingIn, const Multiset<Input> &Budget) const {
  const History &Forced = decode(V);
  if (abortCandidateOk(V, Forced, LongestCommit, InitLcp, PendingIn, Budget))
    return Forced;
  return std::nullopt;
}

bool UniversalInitRelation::abortSearchExact() const { return true; }
