//===- engine/ChainSearch.cpp ---------------------------------------------==//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//

#include "engine/ChainSearch.h"

#include <algorithm>
#include <chrono>

using namespace slin;

using detail::mix64;
using detail::pairMix;

namespace {

/// One depth-first search run over a ChainProblemView.
class Runner {
public:
  Runner(const ChainProblemView &P, const ChainLimits &Limits,
         const InputInterner &Interner, TranspositionTable &Memo,
         Arena &Scratch, std::uint64_t Salt)
      : P(P), Limits(Limits), Interner(Interner), Memo(Memo),
        Scratch(Scratch), Salt(Salt) {}

  ChainResult run() {
    ChainResult Result;
    std::size_t NumOb = P.NumCommits;
    if (NumOb > 64) {
      Result.Outcome = Verdict::Unknown;
      Result.Reason = "more than 64 responses; exact search not attempted";
      return Result;
    }
    Base = P.SeedBase;
    InputId A = P.AlphabetSize;
    // Whether the caller's retained FrontierState can stand in for the
    // whole seed prefix — decided up front, before any state is touched.
    // The engine never sees the retired part of a virtual seed, so a run
    // behind one must adopt (and, when sequence-sensitive, find the
    // sequence hash already folded); anything else is refused up front
    // rather than risk a wrong answer.
    FrontierState *F = P.Retained;
    bool Adopted = F && F->Valid && F->State && F->Len == Base + P.SeedLen &&
                   F->Len != 0 && F->Used.size() <= A;
    if (Base && (!Adopted || (P.SequenceSensitive && !F->HasSeqHash))) {
      Result.Outcome = Verdict::Unknown;
      Result.Reason = RetiredSeedUnavailableReason;
      return Result;
    }
    FullMask = NumOb == 64 ? ~0ull : ((1ull << NumOb) - 1);
    Used = Scratch.allocZeroed<std::int32_t>(A);
    Avail = Scratch.allocArray<const std::int32_t *>(NumOb);
    for (std::size_t R = 0; R != NumOb; ++R)
      Avail[R] = P.AvailOverride ? P.AvailOverride[R] : P.Commits[R].Available;
    Deficit = Scratch.allocZeroed<std::int32_t>(NumOb);
    if (P.SequenceSensitive) {
      IdHash = Scratch.allocArray<std::uint64_t>(A);
      for (InputId Id = 0; Id != A; ++Id)
        IdHash[Id] = hashValue(Interner.input(Id));
      SeqHashes.push_back(0x484953u); // hashValue(History) fold seed.
    }
    if (Limits.TimeBudgetMillis) {
      Deadline = std::chrono::steady_clock::now() +
                 std::chrono::milliseconds(Limits.TimeBudgetMillis);
      HaveDeadline = true;
    }

    // Bring the search to the end of the seed prefix. Fast path: adopt the
    // caller's retained FrontierState — the ADT state, used counts, and
    // hashes materialized by the previous run — so no seed input is ever
    // re-applied (and no throwaway fresh state is allocated). Slow path
    // (never behind a retired prefix): replay the seed into a fresh
    // state. Both paths leave identical
    // (Used, UsedHash, Deficit, Master, SeqHash) search state, so verdicts
    // AND node counts are independent of which one ran.
    std::unique_ptr<AdtState> State =
        Adopted ? std::move(F->State) : P.Type->makeState();

    // Obligations the seed already commits (a resumable session's retained
    // witness chain): mark them committed and replay their witness rows, so
    // the run starts at the retained frontier. Deficit counters are
    // maintained only for the remaining (active) obligations.
    std::uint64_t PreCommitted = 0;
    for (std::size_t I = 0; I != P.NumSeedCommits; ++I) {
      const auto &[Index, Len] = P.SeedCommits[I];
      PreCommitted |= 1ull << Index;
      Commits.push_back({P.Commits[Index].Tag, Len});
    }
    Active = Scratch.allocArray<std::uint32_t>(NumOb);
    for (std::size_t R = 0; R != NumOb; ++R)
      if (!(PreCommitted & (1ull << R)))
        Active[NumActive++] = static_cast<std::uint32_t>(R);

    if (Adopted) {
      std::copy(F->Used.begin(), F->Used.end(), Used);
      UsedHash = F->UsedHash;
      Master.assign(P.Seed, P.Seed + P.SeedLen);
      if (P.SequenceSensitive) {
        std::uint64_t H = F->SeqHash;
        if (!F->HasSeqHash) {
          // Captured before the problem became sequence-sensitive (first
          // abort): fold the seed's hash once, without touching the ADT.
          // Base is 0 here, so the seed is the whole master prefix.
          H = SeqHashes.back();
          for (std::size_t I = 0; I != P.SeedLen; ++I)
            H = hashCombine(H, IdHash[P.Seed[I]]);
        }
        SeqHashes.push_back(H);
      }
      // Deficits of the active obligations w.r.t. the retained counts:
      // Deficit[R] is the number of ids over-used beyond Avail[R].
      for (std::size_t K = 0; K != NumActive; ++K) {
        std::size_t R = Active[K];
        for (InputId Id = 0; Id != A; ++Id)
          if (Used[Id] > Avail[R][Id])
            ++Deficit[R];
      }
      Stats.SeedStepsSkipped += Base + P.SeedLen;
    } else {
      for (std::size_t I = 0; I != P.SeedLen; ++I) {
        InputId Id = P.Seed[I];
        State->apply(Interner.input(Id));
        push(Id);
      }
      Stats.SeedStepsReplayed += P.SeedLen;
    }

    bool Found = dfs(PreCommitted, *State);
    Result.Stats = Stats;
    if (Found) {
      if (F) {
        // Capture the new accepting leaf as the caller's next frontier:
        // the threaded state sits exactly there.
        F->State = std::move(State);
        F->Used.assign(Used, Used + A);
        F->UsedHash = UsedHash;
        F->HasSeqHash = P.SequenceSensitive;
        F->SeqHash = P.SequenceSensitive ? SeqHashes.back() : 0;
        F->Len = Base + Master.size();
        F->Valid = true;
      }
      Result.Outcome = Verdict::Yes;
      Result.Master = std::move(Master);
      Result.Commits = std::move(Commits);
      return Result;
    }
    if (Adopted) {
      // Strict LIFO undo restored the adopted state to the frontier; hand
      // it back so the caller's retained state survives failed runs.
      F->State = std::move(State);
    }
    if (BudgetExhausted) {
      Result.Outcome = Verdict::Unknown;
      Result.BudgetLimited = true;
      Result.Reason = DeadlineExhausted ? "time budget exhausted"
                                        : "node budget exhausted";
      return Result;
    }
    Result.Outcome = Verdict::No;
    return Result;
  }

private:
  /// Appends input \p Id to the master: bumps its used count, maintains the
  /// incremental multiset hash, the per-obligation deficit counters (number
  /// of inputs over-used w.r.t. that obligation's availability), and the
  /// sequence-hash stack.
  void push(InputId Id) {
    std::int32_t C = Used[Id]++;
    if (C > 0)
      UsedHash ^= pairMix(Id, C);
    UsedHash ^= pairMix(Id, C + 1);
    // Deficits are tracked only for obligations the run can still commit:
    // a seed-committed obligation is never uncommitted, so its counter is
    // never read (the hot-loop saving a resumable session's seed replay
    // depends on).
    for (std::size_t K = 0; K != NumActive; ++K)
      if (std::size_t R = Active[K]; Avail[R][Id] == C)
        ++Deficit[R];
    Master.push_back(Id);
    if (P.SequenceSensitive)
      SeqHashes.push_back(hashCombine(SeqHashes.back(), IdHash[Id]));
  }

  /// Undoes the matching push.
  void pop(InputId Id) {
    std::int32_t C = --Used[Id];
    UsedHash ^= pairMix(Id, C + 1);
    if (C > 0)
      UsedHash ^= pairMix(Id, C);
    for (std::size_t K = 0; K != NumActive; ++K)
      if (std::size_t R = Active[K]; Avail[R][Id] == C)
        --Deficit[R];
    Master.pop_back();
    if (P.SequenceSensitive)
      SeqHashes.pop_back();
  }

  bool atLeaf() {
    ++Stats.LeafChecks;
    if (!P.AcceptLeaf || !*P.AcceptLeaf)
      return true;
    // The longest commit history, materialized only here: commit lengths
    // are absolute, the ids cover the live part only.
    std::size_t Longest = Base;
    for (const auto &[Tag, Len] : Commits) {
      (void)Tag;
      Longest = std::max(Longest, Len);
    }
    return (*P.AcceptLeaf)(Interner.history({Master.data(), Longest - Base}));
  }

  bool dfs(std::uint64_t Committed, AdtState &State) {
    if (Committed == FullMask)
      return atLeaf();
    if (++Stats.Nodes > Limits.NodeBudget) {
      BudgetExhausted = true;
      return false;
    }
    if (HaveDeadline && (Stats.Nodes & 1023u) == 0 &&
        std::chrono::steady_clock::now() > Deadline) {
      BudgetExhausted = DeadlineExhausted = true;
      return false;
    }
    std::uint64_t Digest = State.digest();
    std::uint64_t Key =
        hashCombine(hashCombine(hashCombine(Salt, Committed), Digest),
                    UsedHash);
    if (P.SequenceSensitive)
      Key = hashCombine(Key, SeqHashes.back());
    if (Memo.contains(Key)) {
      ++Stats.MemoHits;
      return false;
    }

    // Move 1: commit an outstanding response by appending its input. The
    // move mutates State in place and reverts on the way back.
    for (std::size_t R = 0, E = P.NumCommits; R != E; ++R) {
      if (Committed & (1ull << R))
        continue;
      const CommitObligation &Ob = P.Commits[R];
      if ((Committed & Ob.MustFollow) != Ob.MustFollow)
        continue; // Real-time Order: a predecessor is still uncommitted.
      if (Deficit[R] != 0)
        continue; // Some earlier append is not available at this response.
      if (Used[Ob.In] + 1 > Avail[R][Ob.In])
        continue; // Validity would fail on the endpoint input.
      UndoToken U;
      if (State.applyInput(Interner.input(Ob.In), U, Scratch) != Ob.Out) {
        State.undoInput(U);
        continue; // Would not explain the response.
      }
      ++Stats.CommitMoves;
      push(Ob.In);
      Commits.push_back({Ob.Tag, Base + Master.size()});
      if (dfs(Committed | (1ull << R), State))
        return true;
      Commits.pop_back();
      pop(Ob.In);
      State.undoInput(U);
    }

    // Move 2: append a filler input. A filler lies in every later commit
    // history, so it must be available (beyond what is already used) at
    // every uncommitted obligation: candidates are the inputs with positive
    // pointwise-min remaining availability.
    // Note: deeper recursion may reallocate Frames, so take the (arena-
    // stable) buffer pointer rather than a reference into the vector.
    InputId *Candidates = frameAt(Master.size()).Candidates;
    std::size_t NumCandidates = 0;
    for (InputId Id = 0; Id != P.AlphabetSize; ++Id) {
      std::int32_t Min = INT32_MAX;
      for (std::size_t R = 0, E = P.NumCommits; R != E && Min > 0; ++R)
        if (!(Committed & (1ull << R)))
          Min = std::min(Min, Avail[R][Id] - Used[Id]);
      if (Min > 0 && Min != INT32_MAX)
        Candidates[NumCandidates++] = Id;
    }
    for (std::size_t I = 0; I != NumCandidates; ++I) {
      InputId Id = Candidates[I];
      UndoToken U;
      State.applyInput(Interner.input(Id), U, Scratch);
      ++Stats.FillerMoves;
      push(Id);
      if (dfs(Committed, State))
        return true;
      pop(Id);
      State.undoInput(U);
    }

    Memo.insert(Key);
    ++Stats.MemoStores;
    return false;
  }

  /// Per-depth candidate buffer; the recursion stack has strictly
  /// increasing master lengths, so one buffer per depth never aliases.
  struct Frame {
    InputId *Candidates = nullptr;
  };

  Frame &frameAt(std::size_t Depth) {
    while (Depth >= Frames.size()) {
      Frame F;
      F.Candidates = Scratch.allocArray<InputId>(P.AlphabetSize);
      Frames.push_back(F);
    }
    return Frames[Depth];
  }

  const ChainProblemView &P;
  const ChainLimits &Limits;
  const InputInterner &Interner;
  TranspositionTable &Memo;
  Arena &Scratch;
  std::uint64_t Salt;

  std::uint64_t FullMask = 0;
  std::size_t Base = 0; ///< ChainProblemView::SeedBase (retired master inputs).
  std::int32_t *Used = nullptr;
  const std::int32_t **Avail = nullptr;
  std::int32_t *Deficit = nullptr;
  std::uint32_t *Active = nullptr; ///< Obligations not committed by the seed.
  std::size_t NumActive = 0;
  std::uint64_t *IdHash = nullptr;
  std::uint64_t UsedHash = 0;
  std::vector<InputId> Master; ///< Live master in dense ids.
  std::vector<std::pair<std::size_t, std::size_t>> Commits;
  std::vector<std::uint64_t> SeqHashes;
  std::vector<Frame> Frames;
  ChainStats Stats;
  std::chrono::steady_clock::time_point Deadline;
  bool HaveDeadline = false;
  bool BudgetExhausted = false;
  bool DeadlineExhausted = false;
};

} // namespace

void slin::advanceFrontierState(FrontierState &F, const InputInterner &Interner,
                                const InputId *Ids, std::size_t N) {
  for (std::size_t I = 0; I != N; ++I) {
    InputId Id = Ids[I];
    const Input &In = Interner.input(Id);
    F.State->apply(In);
    if (F.Used.size() <= Id)
      F.Used.resize(Id + 1, 0);
    std::int32_t C = F.Used[Id]++;
    if (C > 0)
      F.UsedHash ^= pairMix(Id, C);
    F.UsedHash ^= pairMix(Id, C + 1);
    if (F.HasSeqHash)
      F.SeqHash = hashCombine(F.SeqHash, hashValue(In));
    ++F.Len;
  }
}

ChainResult ChainSearch::run(const ChainProblemView &Problem,
                             const ChainLimits &Limits, std::uint64_t Salt) {
  Runner R(Problem, Limits, Interner, Memo, Scratch, mix64(Salt));
  return R.run();
}
