//===- engine/CorpusDriver.h - Corpus checking ------------------*- C++ -*-==//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every trace of a corpus is an independent decision problem (Definitions
/// 5 and 19). The CorpusDriver feeds a corpus through one warm session, in
/// corpus order, so every result is a function of the corpus alone.
/// Conclusive (Yes/No) verdicts never depend on warmth, since the search is
/// complete; which traces exhaust a node budget can, because a warm
/// session's exploration order follows the traces before (docs/engine.md).
///
//===----------------------------------------------------------------------===//

#ifndef SLIN_ENGINE_CORPUSDRIVER_H
#define SLIN_ENGINE_CORPUSDRIVER_H

#include "engine/CheckSession.h"

#include <cstdint>
#include <vector>

namespace slin {

/// Driver-level tuning knobs.
struct CorpusOptions {
  /// Lin corpora only: check the corpus in sorted order through one
  /// *resumable* session (engine/Incremental.h). A trace that extends the
  /// session's view streams only its delta and resumes from the retained
  /// memo and success frontier; any other trace resets the session. One
  /// verdict per trace, as without sharing; pays off for prefix-closed
  /// corpora (monitoring logs cut at every length).
  bool SharePrefixes = false;
};

/// Per-trace outcome, in corpus order.
struct CorpusTraceResult {
  Verdict Outcome = Verdict::No;
  /// The Unknown came from budget exhaustion, not a structural limit.
  bool BudgetLimited = false;
  std::uint64_t NodesExplored = 0;
};

/// Outcome of one corpus run.
struct CorpusReport {
  std::vector<CorpusTraceResult> Results; ///< Indexed by corpus position.
  std::uint64_t Yes = 0, No = 0, Unknown = 0;
  std::uint64_t BudgetLimited = 0; ///< Unknowns that were budget-limited.
  SessionStats Aggregate; ///< The session's counters over the corpus.
};

/// Checks trace corpora through one warm session each.
class CorpusDriver {
public:
  explicit CorpusDriver(const Adt &Type, const CorpusOptions &Opts = {});

  /// Checks every trace for plain linearizability (Definition 5).
  CorpusReport checkLin(const std::vector<Trace> &Corpus,
                        const LinCheckOptions &Check = {});

  /// Checks every trace for (m, n)-speculative linearizability
  /// (Definition 19) under \p Sig and \p Rel.
  CorpusReport checkSlin(const std::vector<Trace> &Corpus,
                         const PhaseSignature &Sig, const InitRelation &Rel,
                         const SlinCheckOptions &Check = {});

private:
  const Adt &Type;
  CorpusOptions Opts;
};

} // namespace slin

#endif // SLIN_ENGINE_CORPUSDRIVER_H
