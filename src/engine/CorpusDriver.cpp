//===- engine/CorpusDriver.cpp --------------------------------------------==//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//

#include "engine/CorpusDriver.h"

#include "engine/Incremental.h"

#include <algorithm>
#include <numeric>

using namespace slin;

namespace {

/// Length of the longest common event prefix of two traces.
std::size_t lcpLen(const Trace &A, const Trace &B) {
  std::size_t N = std::min(A.size(), B.size());
  std::size_t L = 0;
  while (L != N && A[L] == B[L])
    ++L;
  return L;
}

/// Tallies \p Report's verdicts and takes the session's counters.
void finish(CorpusReport &Report, const SessionStats &Stats) {
  for (const CorpusTraceResult &R : Report.Results) {
    if (R.Outcome == Verdict::Yes)
      ++Report.Yes;
    else if (R.Outcome == Verdict::No)
      ++Report.No;
    else {
      ++Report.Unknown;
      Report.BudgetLimited += R.BudgetLimited;
    }
  }
  Report.Aggregate = Stats;
}

} // namespace

CorpusDriver::CorpusDriver(const Adt &Type, const CorpusOptions &Opts)
    : Type(Type), Opts(Opts) {}

CorpusReport CorpusDriver::checkLin(const std::vector<Trace> &Corpus,
                                    const LinCheckOptions &Check) {
  CorpusReport Report;
  Report.Results.resize(Corpus.size());
  if (!Opts.SharePrefixes) {
    CheckSession Session(Type);
    for (std::size_t I = 0; I != Corpus.size(); ++I) {
      LinCheckResult R = Session.checkLin(Corpus[I], Check);
      Report.Results[I] = {R.Outcome, R.BudgetLimited, R.NodesExplored};
    }
    finish(Report, Session.stats());
    return Report;
  }

  // Sort positions by trace so every trace follows its prefixes; stable so
  // equal traces keep corpus order (full determinism).
  std::vector<std::size_t> Perm(Corpus.size());
  std::iota(Perm.begin(), Perm.end(), 0);
  std::stable_sort(Perm.begin(), Perm.end(),
                   [&](std::size_t A, std::size_t B) {
                     return Corpus[A] < Corpus[B];
                   });

  IncrementalLinSession Inc(Type);
  for (std::size_t Pos : Perm) {
    const Trace &T = Corpus[Pos];
    // Stream only the delta when T extends the view. A doomed view never
    // does: the rejected event is not in it, so a trace that shares only
    // the accepted events must not inherit the doom.
    if (Inc.doomed() || lcpLen(Inc.trace(), T) != Inc.size())
      Inc.reset();
    // Stops at the first rejected event; the session is then doomed and
    // answers No, as the batch checker would on the full trace.
    for (std::size_t I = Inc.size(); I != T.size(); ++I)
      if (!Inc.append(T[I]))
        break;
    LinCheckResult R = Inc.verdict(Check);
    Report.Results[Pos] = {R.Outcome, R.BudgetLimited, R.NodesExplored};
  }
  finish(Report, Inc.stats());
  return Report;
}

CorpusReport CorpusDriver::checkSlin(const std::vector<Trace> &Corpus,
                                     const PhaseSignature &Sig,
                                     const InitRelation &Rel,
                                     const SlinCheckOptions &Check) {
  CorpusReport Report;
  Report.Results.resize(Corpus.size());
  CheckSession Session(Type);
  for (std::size_t I = 0; I != Corpus.size(); ++I) {
    SlinVerdict V = Session.checkSlin(Corpus[I], Sig, Rel, Check);
    Report.Results[I] = {V.Outcome, V.BudgetLimited, V.NodesExplored};
  }
  finish(Report, Session.stats());
  return Report;
}
