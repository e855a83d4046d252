//===- engine/CheckSession.cpp --------------------------------------------==//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//

#include "engine/CheckSession.h"

#include "engine/OrderRelation.h"
#include "slin/SlinWitness.h"
#include "support/Sequences.h"
#include "trace/WellFormed.h"

#include <algorithm>

using namespace slin;

namespace {

/// Pointwise min of two multisets (the cap an abort's budget imposes on
/// every commit's availability).
Multiset<Input> pointwiseMin(const Multiset<Input> &A,
                             const Multiset<Input> &B) {
  Multiset<Input> Result;
  for (const auto &[In, Count] : A.entries()) {
    std::int64_t C = std::min(Count, B.count(In));
    if (C > 0)
      Result.add(In, C);
  }
  return Result;
}

} // namespace

void detail::capByAbortBudgets(std::vector<Multiset<Input>> &CommitAvail,
                               const std::vector<PendingAbort> &Aborts) {
  for (Multiset<Input> &M : CommitAvail)
    for (const PendingAbort &Ab : Aborts)
      M = pointwiseMin(M, Ab.Budget);
}

std::function<bool(const History &)> detail::makeAbortSynthesisLeaf(
    const InitRelation &Rel, const std::vector<PendingAbort> &Aborts,
    const History &Lcp,
    std::vector<std::pair<std::size_t, History>> &FoundAborts) {
  return [&Rel, &Aborts, &Lcp, &FoundAborts](const History &LongestCommit) {
    FoundAborts.clear();
    for (const PendingAbort &Ab : Aborts) {
      std::optional<History> AbortHistory =
          Rel.findAbortHistory(Ab.Sv, LongestCommit, Lcp, Ab.In, Ab.Budget);
      if (!AbortHistory)
        return false;
      FoundAborts.push_back({Ab.TraceIndex, std::move(*AbortHistory)});
    }
    return true;
  };
}

SlinCheckResult detail::shapeSlinResult(
    ChainResult R, const InputInterner &Interner, const InitRelation &Rel,
    bool HadAborts, std::vector<std::pair<std::size_t, History>> FoundAborts) {
  SlinCheckResult Result;
  Result.Outcome = R.Outcome;
  Result.NodesExplored = R.Stats.Nodes;
  Result.BudgetLimited = R.BudgetLimited;
  if (R.Outcome == Verdict::Yes) {
    Result.Witness.Master = Interner.history(R.Master);
    Result.Witness.Commits = std::move(R.Commits);
    Result.Witness.Aborts = std::move(FoundAborts);
  } else if (R.Outcome == Verdict::Unknown) {
    Result.Reason = std::move(R.Reason);
  } else if (!Rel.abortSearchExact() && HadAborts) {
    Result.Outcome = Verdict::Unknown;
    Result.Reason = "no witness found (abort synthesis incomplete for "
                    "this init relation)";
  } else {
    Result.Reason = "no speculative linearization function exists";
  }
  return Result;
}

CheckSession::CheckSession(const Adt &Type) : Type(Type) {}

void CheckSession::internSorted(std::vector<Input> Pool) {
  std::sort(Pool.begin(), Pool.end());
  Pool.erase(std::unique(Pool.begin(), Pool.end()), Pool.end());
  for (const Input &In : Pool)
    Interner.intern(In);
}

const std::int32_t *CheckSession::denseCounts(const Multiset<Input> &M) {
  InputId A = Interner.size();
  std::int32_t *Counts = Scratch.allocZeroed<std::int32_t>(A);
  for (const auto &[In, Count] : M.entries()) {
    InputId Id = Interner.intern(In);
    // An input first seen here cannot be a commit input or filler (those
    // are interned before the alphabet is sized), so dropping its count is
    // sound — it only keeps the array within its allocation.
    if (Id < A)
      Counts[Id] = static_cast<std::int32_t>(Count);
  }
  return Counts;
}

//===----------------------------------------------------------------------===//
// Plain linearizability: the Definition 5 obligation provider.
//===----------------------------------------------------------------------===//

LinCheckResult CheckSession::checkLin(const Trace &T,
                                      const LinCheckOptions &Opts) {
  LinCheckResult Result;
  WellFormedness Wf = checkWellFormedLin(T);
  if (!Wf) {
    Result.Outcome = Verdict::No;
    Result.Reason = "not well-formed: " + Wf.Reason;
    Stats.record(Result.Outcome);
    return Result;
  }
  for (const Action &A : T) {
    if (!Type.validInput(A.In)) {
      Result.Outcome = Verdict::No;
      Result.Reason = "invalid input for ADT";
      Stats.record(Result.Outcome);
      return Result;
    }
  }
  Result = runLin(T, Opts);
  Result.Grade = gradeFor(Result.Outcome);
  Stats.record(Result.Outcome);
  return Result;
}

LinCheckResult CheckSession::runLin(const Trace &T,
                                    const LinCheckOptions &Opts) {
  Scratch.reset();
  {
    std::vector<Input> Pool;
    Pool.reserve(T.size());
    for (const Action &Act : T)
      Pool.push_back(Act.In);
    internSorted(std::move(Pool));
  }
  InputId A = Interner.size();

  // One forward pass builds every obligation: Running holds the counts of
  // inputs invoked so far, and each response snapshots it as its
  // availability (elems(inputs(t, i)), Definition 9) — replacing the seed
  // checker's per-response O(trace) multiset rebuild.
  std::vector<CommitObligation> Commits;
  std::int32_t *Running = Scratch.allocZeroed<std::int32_t>(A);
  std::vector<std::size_t> OpenInvoke(64, SIZE_MAX);
  std::vector<OrderSite> Sites; // Parallel to Commits.
  const OrderRelation Rel(Opts.Order);
  std::vector<std::int32_t *> Rows; // Mutable view of the commits' rows.
  for (std::size_t I = 0, E = T.size(); I != E; ++I) {
    const Action &Act = T[I];
    if (Act.Client >= OpenInvoke.size())
      OpenInvoke.resize(Act.Client + 1, SIZE_MAX);
    if (isInvoke(Act)) {
      OpenInvoke[Act.Client] = I;
      InputId Id = Interner.intern(Act.In);
      ++Running[Id];
      // Availability credit for earlier responses the relation leaves
      // unordered past this invocation (never under Strict, where the
      // prefix snapshot is exact — see OrderRelation::creditsLaterInvoke).
      if (!Rel.isStrict())
        for (std::size_t Q = 0; Q != Rows.size(); ++Q)
          if (Rel.creditsLaterInvoke(Sites[Q].Client, Sites[Q].Meta,
                                     Act.Client))
            ++Rows[Q][Id];
      continue;
    }
    std::int32_t *Avail = Scratch.allocArray<std::int32_t>(A);
    std::copy(Running, Running + A, Avail);
    CommitObligation Ob;
    Ob.Tag = I;
    Ob.In = Interner.intern(Act.In);
    Ob.Out = Act.Out;
    Ob.Available = Avail;
    Commits.push_back(Ob);
    Sites.push_back({OpenInvoke[Act.Client], Act.Client, Act.Meta});
    Rows.push_back(Avail);
  }
  // Happens-before among commits: if X hb Y, X's commit history must be a
  // strict prefix of Y's — i.e. X commits earlier in the chain (the
  // condition Lemma 4 needs to reorder a trace while preserving
  // non-overlapping operations). Under the default Strict relation this is
  // exactly real-time order; the relation layer owns the derivation.
  Rel.deriveMasks(Commits.data(), Commits.size(), Sites.data());

  ChainProblemView Problem;
  Problem.Type = &Type;
  Problem.AlphabetSize = A;
  Problem.Commits = Commits.data();
  Problem.NumCommits = Commits.size();
  ChainLimits Limits{Opts.NodeBudget};
  ChainSearch Engine(Interner, Memo, Scratch);
  ChainResult R = Engine.run(Problem, Limits, ++RunSerial);
  Stats.Search.accumulate(R.Stats);

  LinCheckResult Result;
  Result.Outcome = R.Outcome;
  Result.NodesExplored = R.Stats.Nodes;
  Result.BudgetLimited = R.BudgetLimited;
  if (R.Outcome == Verdict::Yes) {
    Result.Witness.Master = Interner.history(R.Master);
    Result.Witness.Commits = std::move(R.Commits);
  } else if (R.Outcome == Verdict::Unknown) {
    Result.Reason = std::move(R.Reason);
  } else {
    Result.Reason = "no linearization function exists";
  }
  return Result;
}

//===----------------------------------------------------------------------===//
// Speculative linearizability: the Definition 19 obligation provider.
//===----------------------------------------------------------------------===//

SlinCheckResult CheckSession::checkSlinUnder(const Trace &T,
                                             const PhaseSignature &Sig,
                                             const InitRelation &Rel,
                                             const InitInterpretation &Finit,
                                             const SlinCheckOptions &Opts) {
  SlinCheckResult Result;
  WellFormedness Wf = checkWellFormedPhase(T, Sig);
  if (!Wf) {
    Result.Outcome = Verdict::No;
    Result.Reason = "not (m, n)-well-formed: " + Wf.Reason;
    Stats.record(Result.Outcome);
    return Result;
  }
  Result = runSlinUnder(T, Sig, Rel, Finit, Opts);
  Stats.record(Result.Outcome);
  return Result;
}

SlinCheckResult CheckSession::runSlinUnder(const Trace &T,
                                           const PhaseSignature &Sig,
                                           const InitRelation &Rel,
                                           const InitInterpretation &Finit,
                                           const SlinCheckOptions &Opts) {
  Scratch.reset();
  // One pool of trace inputs plus the interpretation's ghost inputs (the
  // ghosts take part in availability counting, so they must be in the
  // dense alphabet before arrays are sized).
  {
    std::vector<Input> Pool;
    Pool.reserve(T.size());
    for (const Action &Act : T)
      Pool.push_back(Act.In);
    for (const auto &[Index, H] : Finit) {
      (void)Index;
      Pool.insert(Pool.end(), H.begin(), H.end());
    }
    internSorted(std::move(Pool));
  }

  // Init LCP: Init Order forces it below every commit and abort history.
  std::vector<History> InitHistories;
  for (const auto &[Index, H] : Finit) {
    (void)Index;
    InitHistories.push_back(H);
  }
  History Lcp = longestCommonPrefix(InitHistories);
  bool HaveInits = !InitHistories.empty();

  std::vector<CommitObligation> Commits;
  std::vector<Multiset<Input>> CommitAvail;
  std::vector<OrderSite> Sites; // Parallel to Commits.
  std::vector<detail::PendingAbort> Aborts;

  std::vector<std::size_t> OpenStart(64, SIZE_MAX);
  const OrderRelation Ord(Opts.Search.Order);
  for (std::size_t I = 0, E = T.size(); I != E; ++I) {
    const Action &Act = T[I];
    if (Act.Client >= OpenStart.size())
      OpenStart.resize(Act.Client + 1, SIZE_MAX);
    if (isInvoke(Act) || Sig.isInitAction(Act)) {
      OpenStart[Act.Client] = I;
      // Availability credit mirroring the lin provider: earlier responses
      // the relation leaves unordered past this plain invocation keep its
      // input available (validInputs' prefix term encodes Strict). Init
      // actions are excluded — their ghost contributions already enter
      // every row through initiallyValidInputs' union-max, interpretation
      // by interpretation.
      if (isInvoke(Act) && !Ord.isStrict())
        for (std::size_t R = 0; R != CommitAvail.size(); ++R)
          if (Ord.creditsLaterInvoke(Sites[R].Client, Sites[R].Meta,
                                     Act.Client))
            CommitAvail[R].add(Act.In);
      continue;
    }
    if (isRespond(Act)) {
      CommitObligation Ob;
      Ob.Tag = I;
      Ob.In = Interner.intern(Act.In);
      Ob.Out = Act.Out;
      Commits.push_back(Ob);
      // Commit availability is vi(m, t, f_init, i) (Definition 26).
      CommitAvail.push_back(validInputs(T, Sig, Finit, I));
      Sites.push_back({OpenStart[Act.Client], Act.Client, Act.Meta});
    } else if (Sig.isAbortAction(Act)) {
      Aborts.push_back(
          {I, Act.In, Act.Sv,
           validInputs(T, Sig, Finit,
                       Opts.AbortValidityAtEnd ? T.size() : I)});
    }
  }
  // Happens-before among commits (as in the plain provider), through the
  // same relation-layer choke point.
  Ord.deriveMasks(Commits.data(), Commits.size(), Sites.data());
  detail::capByAbortBudgets(CommitAvail, Aborts);
  const InputId A = Interner.size();
  for (std::size_t R = 0; R != CommitAvail.size(); ++R)
    Commits[R].Available = denseCounts(CommitAvail[R]);

  // Seed the master with the init LCP (the strict-prefix obligation of
  // Init Order); its availability for each commit is checked at commit
  // time through the engine's deficit counters.
  std::vector<InputId> Seed;
  if (HaveInits)
    for (const Input &In : Lcp)
      Seed.push_back(Interner.intern(In));

  // At a leaf every response is committed; synthesize f_abort per abort
  // action. Abort histories extend the master *sequence*, so the memo key
  // must distinguish orderings whenever aborts are present. Without aborts
  // there is nothing to synthesize and no predicate is set.
  std::vector<std::pair<std::size_t, History>> FoundAborts;
  std::function<bool(const History &)> AcceptLeaf;
  if (!Aborts.empty())
    AcceptLeaf = detail::makeAbortSynthesisLeaf(Rel, Aborts, Lcp, FoundAborts);

  ChainProblemView Problem;
  Problem.Type = &Type;
  Problem.AlphabetSize = A;
  Problem.Commits = Commits.data();
  Problem.NumCommits = Commits.size();
  Problem.Seed = Seed.data();
  Problem.SeedLen = Seed.size();
  Problem.SequenceSensitive = !Aborts.empty();
  Problem.AcceptLeaf = &AcceptLeaf;
  ChainLimits Limits{Opts.Search.NodeBudget};
  ChainSearch Engine(Interner, Memo, Scratch);
  ChainResult R = Engine.run(Problem, Limits, ++RunSerial);
  Stats.Search.accumulate(R.Stats);
  return detail::shapeSlinResult(std::move(R), Interner, Rel, !Aborts.empty(),
                                 std::move(FoundAborts));
}

SlinVerdict CheckSession::checkSlin(const Trace &T, const PhaseSignature &Sig,
                                    const InitRelation &Rel,
                                    const SlinCheckOptions &Opts) {
  SlinVerdict Result;
  WellFormedness Wf = checkWellFormedPhase(T, Sig);
  if (!Wf) {
    Result.Outcome = Verdict::No;
    Result.Reason = "not (m, n)-well-formed: " + Wf.Reason;
    Result.Exact = true;
    Stats.record(Result.Outcome);
    return Result;
  }

  InterpretationFamily Family = Rel.interpretations(T, Sig);
  Result.Exact = Family.Exact && Rel.abortSearchExact();
  for (InitInterpretation &Finit : Family.Assignments) {
    SlinCheckResult R = runSlinUnder(T, Sig, Rel, Finit, Opts);
    Result.NodesExplored += R.NodesExplored;
    if (R.Outcome == Verdict::Yes) {
      Result.Witnesses.push_back({std::move(Finit), std::move(R.Witness)});
      continue;
    }
    Result.Outcome = R.Outcome;
    Result.Reason = R.Reason;
    Result.BudgetLimited = R.BudgetLimited;
    Result.Witnesses.clear();
    Result.Grade = gradeFor(Result.Outcome);
    Stats.record(Result.Outcome);
    return Result;
  }
  Result.Outcome = Verdict::Yes;
  Result.Grade = gradeFor(Result.Outcome);
  Stats.record(Result.Outcome);
  return Result;
}
