//===- engine/CorpusDriver.cpp --------------------------------------------==//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//

#include "engine/CorpusDriver.h"

#include "engine/Incremental.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <numeric>
#include <thread>

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

/// The one drain loop. Workers claim fixed-size chunks of [0, NumTraces)
/// off a shared cursor; each owns one session built by \p Make and hands
/// it every chunk it claims — \p CheckChunk(Session, Begin, End, Results)
/// fills the chunk's rows — then merges the session's stats into the
/// report. \p CheckOne(CheckSession &, Index) checks one trace for the
/// repair pass.
template <typename MakeSession, typename CheckChunk, typename CheckOneFn>
CorpusReport drain(const Adt &Type, const CorpusOptions &Opts,
                   std::size_t NumTraces, const MakeSession &Make,
                   const CheckChunk &Check, const CheckOneFn &CheckOne) {
  CorpusReport Report;
  Report.Results.resize(NumTraces);

  unsigned Threads =
      Opts.Threads ? Opts.Threads : std::thread::hardware_concurrency();
  if (Threads == 0)
    Threads = 1;
  std::size_t Chunk = Opts.ChunkSize ? Opts.ChunkSize : 1;
  // No point spawning workers that could never claim a chunk.
  std::size_t Claims = (NumTraces + Chunk - 1) / Chunk;
  if (Threads > Claims)
    Threads = static_cast<unsigned>(Claims ? Claims : 1);
  Report.ThreadsUsed = Threads;

  std::atomic<std::size_t> Cursor{0};
  std::mutex AggregateMutex;
  auto Worker = [&] {
    auto Session = Make();
    for (;;) {
      std::size_t Begin =
          Cursor.fetch_add(Chunk, std::memory_order_relaxed);
      if (Begin >= NumTraces)
        break;
      Check(Session, Begin, std::min(NumTraces, Begin + Chunk),
            Report.Results);
    }
    std::lock_guard<std::mutex> Lock(AggregateMutex);
    Report.Aggregate.accumulate(Session.stats());
  };

  if (Threads == 1) {
    Worker();
  } else {
    std::vector<std::thread> Pool;
    Pool.reserve(Threads);
    for (unsigned T = 0; T != Threads; ++T)
      Pool.emplace_back(Worker);
    for (std::thread &T : Pool)
      T.join();
  }

  // Deterministic repair pass: a warm (or resumable) session's
  // budget-limited Unknowns depend on what it checked before, so re-check
  // exactly those traces with one-shot semantics. One retry session is
  // reused across the pass — reset() restores fresh-session verdicts and
  // node counts while keeping the warm arena blocks, instead of paying a
  // full session construction per retried trace. This makes the result
  // vector independent of thread count and scheduling.
  CheckSession Retry(Type);
  for (std::size_t I = 0; I != NumTraces; ++I) {
    CorpusTraceResult &R = Report.Results[I];
    if (R.Outcome != Verdict::Unknown || !R.BudgetLimited)
      continue;
    if (Report.Retried++)
      Retry.reset();
    R = CheckOne(Retry, I);
  }
  if (Report.Retried)
    Report.Aggregate.accumulate(Retry.stats());

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
  return Report;
}

/// The plain drain: one warm CheckSession per worker, \p CheckOne per
/// trace.
template <typename CheckOneFn>
CorpusReport drainEach(const Adt &Type, const CorpusOptions &Opts,
                       std::size_t NumTraces, const CheckOneFn &CheckOne) {
  return drain(
      Type, Opts, NumTraces, [&] { return CheckSession(Type); },
      [&](CheckSession &Session, std::size_t Begin, std::size_t End,
          std::vector<CorpusTraceResult> &Results) {
        for (std::size_t I = Begin; I != End; ++I)
          Results[I] = CheckOne(Session, I);
      },
      CheckOne);
}

} // namespace

CorpusDriver::CorpusDriver(const Adt &Type, const CorpusOptions &Opts)
    : Type(Type), Opts(Opts) {}

CorpusReport CorpusDriver::checkLin(const std::vector<Trace> &Corpus,
                                    const LinCheckOptions &Check) {
  auto CheckOne = [&](CheckSession &Session,
                      std::size_t I) -> CorpusTraceResult {
    LinCheckResult R = Session.checkLin(Corpus[I], Check);
    return {R.Outcome, R.BudgetLimited, R.NodesExplored};
  };
  if (!Opts.SharePrefixes)
    return drainEach(Type, Opts, Corpus.size(), CheckOne);

  // Sort positions by trace so every trace follows its prefixes; stable so
  // equal traces keep corpus order (full determinism).
  std::vector<std::size_t> Perm(Corpus.size());
  std::iota(Perm.begin(), Perm.end(), 0);
  std::stable_sort(Perm.begin(), Perm.end(),
                   [&](std::size_t A, std::size_t B) {
                     return Corpus[A] < Corpus[B];
                   });

  return drain(
      Type, Opts, Corpus.size(),
      [&] { return IncrementalLinSession(Type); },
      [&](IncrementalLinSession &Inc, std::size_t Begin, std::size_t End,
          std::vector<CorpusTraceResult> &Results) {
        // Chunks land on arbitrary workers: start each from a clean
        // session, so no verdict depends on what a worker checked before.
        Inc.reset();
        for (std::size_t K = Begin; K != End; ++K) {
          const Trace &T = Corpus[Perm[K]];
          // Stream only the delta when T extends the view. A doomed view
          // never does: the rejected event is not in it, so a trace that
          // shares only the accepted events must not inherit the doom.
          if (Inc.doomed() || lcpLen(Inc.trace(), T) != Inc.size())
            Inc.reset();
          // Stops at the first rejected event; the session is then doomed
          // and answers No, as the batch checker would on the full trace.
          for (std::size_t I = Inc.size(); I != T.size(); ++I)
            if (!Inc.append(T[I]))
              break;
          LinCheckResult R = Inc.verdict(Check);
          Results[Perm[K]] = {R.Outcome, R.BudgetLimited, R.NodesExplored};
        }
      },
      CheckOne);
}

CorpusReport CorpusDriver::checkSlin(const std::vector<Trace> &Corpus,
                                     const PhaseSignature &Sig,
                                     const InitRelation &Rel,
                                     const SlinCheckOptions &Check) {
  return drainEach(Type, Opts, Corpus.size(),
                   [&](CheckSession &Session,
                       std::size_t I) -> CorpusTraceResult {
                     SlinVerdict V =
                         Session.checkSlin(Corpus[I], Sig, Rel, Check);
                     return {V.Outcome, V.BudgetLimited, V.NodesExplored};
                   });
}
