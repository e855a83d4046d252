//===- engine/CorpusDriver.h - Parallel corpus checking ---------*- C++ -*-==//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Checking a trace corpus is embarrassingly parallel: every trace is an
/// independent decision problem, and the per-trace engine state (interner,
/// arena, transposition table) lives in a CheckSession. The CorpusDriver
/// exploits that: it spawns N worker threads, each owning one warm
/// CheckSession, and lets them steal fixed-size chunks of the corpus off a
/// shared cursor until it is drained — so an expensive trace stalls only
/// its own thread while the others keep draining.
///
/// Determinism: results are written into a vector indexed by corpus
/// position, so their *order* never depends on scheduling, and conclusive
/// (Yes/No) verdicts never conflict across schedules — the search is
/// complete, so two schedules can disagree on a trace only as
/// conclusive-vs-Unknown. Which traces end up budget-limited Unknown does
/// depend on scheduling: a warm session's exploration order depends on
/// which traces that thread checked before (see docs/engine.md). Every
/// per-trace result therefore carries BudgetLimited, and after the
/// parallel drain the driver re-checks exactly those traces one-shot (with
/// fresh-session semantics), pinning each to its one-shot verdict. Residual
/// schedule-dependence is then confined to budget-edge traces a warm
/// session decides but a fresh one cannot — unreachable with default
/// budgets on corpora like the shipped ones, whose traces sit orders of
/// magnitude below the node budget.
///
/// Thread-safety contract: the Adt (and, for slin corpora, the
/// InitRelation) is shared read-only across workers, so its implementation
/// must be immutable after construction — true of every ADT and relation
/// in this repository.
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
  /// Worker threads; 0 means std::thread::hardware_concurrency(). With one
  /// thread the corpus is checked inline (no thread is spawned).
  unsigned Threads = 1;
  /// Traces claimed per steal. Larger chunks amortize the shared-cursor
  /// contention; smaller chunks balance uneven per-trace costs.
  std::size_t ChunkSize = 8;
  /// Lin corpora only: check the corpus in sorted order and thread one
  /// *resumable* session (engine/Incremental.h) through each chunk. A
  /// trace that extends the session's view streams only its delta and
  /// resumes from the retained memo and success frontier; any other trace
  /// resets the session. One verdict per trace, as without sharing.
  /// Pays off for prefix-closed corpora (monitoring logs cut at every
  /// length). Conclusive verdicts are unchanged; which traces exhaust a
  /// budget can shift, as with any warm session (the retry pass repairs
  /// that).
  bool SharePrefixes = false;
};

/// Per-trace outcome, in corpus order.
struct CorpusTraceResult {
  Verdict Outcome = Verdict::No;
  /// The Unknown came from budget exhaustion (retry candidate), not from a
  /// structural limit such as >64 obligations.
  bool BudgetLimited = false;
  std::uint64_t NodesExplored = 0;
};

/// Outcome of one corpus run.
struct CorpusReport {
  std::vector<CorpusTraceResult> Results; ///< Indexed by corpus position.
  std::uint64_t Yes = 0, No = 0, Unknown = 0;
  /// Unknowns that were budget-limited after any retry pass.
  std::uint64_t BudgetLimited = 0;
  /// Budget-limited Unknowns the drain left, re-checked one-shot.
  std::uint64_t Retried = 0;
  unsigned ThreadsUsed = 1;
  /// Summed over every worker session and the retry session.
  SessionStats Aggregate;
};

/// Shards trace corpora across worker threads, one warm CheckSession each.
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
