//===- slin/SlinChecker.cpp -----------------------------------------------==//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//
//
// The Definition 19 decision procedure is now a thin entry point over the
// shared chain-search engine: engine/CheckSession.cpp translates the trace
// and interpretation into a ChainProblemView (init-LCP seed, vi-capped commit
// obligations, per-leaf f_abort synthesis) and engine/ChainSearch.cpp
// performs the memoized commit-by-commit search both checkers share. Batch
// workloads should hold a CheckSession directly.
//
//===----------------------------------------------------------------------===//

#include "slin/SlinChecker.h"

#include "engine/CheckSession.h"

using namespace slin;

SlinCheckResult slin::checkSlinUnder(const Trace &T, const PhaseSignature &Sig,
                                     const Adt &Type, const InitRelation &Rel,
                                     const InitInterpretation &Finit,
                                     const SlinCheckOptions &Opts) {
  CheckSession Session(Type);
  return Session.checkSlinUnder(T, Sig, Rel, Finit, Opts);
}

SlinVerdict slin::checkSlin(const Trace &T, const PhaseSignature &Sig,
                            const Adt &Type, const InitRelation &Rel,
                            const SlinCheckOptions &Opts) {
  CheckSession Session(Type);
  return Session.checkSlin(T, Sig, Rel, Opts);
}

SlinDeltaKind slin::classifySlinDelta(const Action &A,
                                      const PhaseSignature &Sig) {
  if (isInvoke(A))
    return SlinDeltaKind::Invoke;
  if (isRespond(A))
    return SlinDeltaKind::Obligation;
  if (Sig.isInitAction(A))
    return SlinDeltaKind::Init;
  if (Sig.isAbortAction(A))
    return SlinDeltaKind::Obligation;
  // Interior switches of a composed phase carry no obligation.
  return SlinDeltaKind::Neutral;
}

bool slin::slinDeltasNonMonotone(bool SawInvoke, bool FamilyChanged,
                                 bool ReadingChanged, bool HaveAborts,
                                 bool AbortValidityAtEnd) {
  if (FamilyChanged || ReadingChanged)
    return true;
  // Under the relaxed reading every abort budget is measured at the
  // trace's end, so a new invocation loosens every abort's cap.
  return AbortValidityAtEnd && HaveAborts && SawInvoke;
}
