//===- engine/ChainSearch.cpp ---------------------------------------------==//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//

#include "engine/ChainSearch.h"

#include <algorithm>

using namespace slin;

using detail::mix64;
using detail::pairMix;

namespace {

/// One depth-first search run over a ChainProblemView.
class Runner {
public:
  Runner(const ChainProblemView &P, const ChainLimits &Limits,
         const InputInterner &Interner, TranspositionTable &Memo,
         Arena &Scratch, std::uint64_t Salt, ChainResult &Result)
      : P(P), Limits(Limits), Interner(Interner), Memo(Memo),
        Scratch(Scratch), Salt(Salt), Result(Result), Master(Result.Master),
        Commits(Result.Commits) {}

  void run() {
    // Master and Commits are the caller's buffers: they may hold the seed
    // already (see ChainSearch::run), so they are left alone until the
    // seed is laid down below.
    Result.Outcome = Verdict::No;
    Result.Reason.clear();
    Result.BudgetLimited = false;
    Result.Stats = ChainStats();
    std::size_t NumOb = P.NumCommits;
    if (NumOb > 64) {
      Result.Outcome = Verdict::Unknown;
      Result.Reason = "more than 64 responses; exact search not attempted";
      return;
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
      return;
    }
    FullMask = NumOb == 64 ? ~0ull : ((1ull << NumOb) - 1);
    // Obligations the seed already commits (a resumable session's retained
    // witness chain) start committed, and their rows start the run's own.
    // Everything below is sized to the open rest: only open obligations
    // are ever read.
    const std::uint64_t PreCommitted = P.SeedCommitted & FullMask;
    const std::uint64_t Open = FullMask & ~PreCommitted;
    startWith(Master, P.Seed, P.SeedLen);
    startWith(Commits, P.SeedRows, P.NumSeedRows);
    Used = Scratch.allocZeroed<std::int32_t>(A);
    Avail = Scratch.allocArray<const std::int32_t *>(NumOb);
    for (std::uint64_t M = Open; M; M &= M - 1) {
      std::size_t R = lowBit(M);
      Avail[R] = P.AvailOverride ? P.AvailOverride[R] : P.Commits[R].Available;
    }
    Deficit = Scratch.allocZeroed<std::int32_t>(NumOb);
    if (P.SequenceSensitive) {
      IdHash = Scratch.allocArray<std::uint64_t>(A);
      for (InputId Id = 0; Id != A; ++Id)
        IdHash[Id] = hashValue(Interner.input(Id));
      SeqHash = 0x484953u; // hashValue(History) fold seed.
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
    if (Adopted) {
      std::copy(F->Used.begin(), F->Used.end(), Used);
      UsedHash = F->UsedHash;
      if (P.SequenceSensitive) {
        if (F->HasSeqHash) {
          SeqHash = F->SeqHash;
        } else {
          // Captured before the problem became sequence-sensitive (first
          // abort): fold the seed's hash once, without touching the ADT.
          // Base is 0 here, so the seed is the whole master prefix.
          for (std::size_t I = 0; I != P.SeedLen; ++I)
            SeqHash = hashCombine(SeqHash, IdHash[P.Seed[I]]);
        }
      }
      // Deficits of the open obligations w.r.t. the retained counts:
      // Deficit[R] is the number of ids over-used beyond Avail[R].
      for (std::uint64_t M = Open; M; M &= M - 1) {
        std::size_t R = lowBit(M);
        for (InputId Id = 0; Id != A; ++Id)
          if (Used[Id] > Avail[R][Id])
            ++Deficit[R];
      }
      Stats.SeedStepsSkipped += Base + P.SeedLen;
    } else {
      for (std::size_t I = 0; I != P.SeedLen; ++I) {
        InputId Id = Master[I];
        State->apply(Interner.input(Id));
        count(Id, Open);
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
        F->SeqHash = P.SequenceSensitive ? SeqHash : 0;
        F->Len = Base + Master.size();
        F->Valid = true;
      }
      Result.Outcome = Verdict::Yes;
      return;
    }
    if (Adopted) {
      // Strict LIFO undo restored the adopted state to the frontier; hand
      // it back so the caller's retained state survives failed runs.
      F->State = std::move(State);
    }
    if (BudgetExhausted) {
      Result.Outcome = Verdict::Unknown;
      Result.BudgetLimited = true;
      Result.Reason = NodeBudgetReason;
      return;
    }
    Result.Outcome = Verdict::No;
  }

private:
  static std::size_t lowBit(std::uint64_t M) {
    return static_cast<std::size_t>(__builtin_ctzll(M));
  }

  /// Lays \p N seed elements at \p Seed into the output buffer \p Out:
  /// a copy, or a truncation when the buffer already starts with them (a
  /// caller resuming inside its own chain).
  template <typename T>
  static void startWith(std::vector<T> &Out, const T *Seed, std::size_t N) {
    if (Seed == Out.data() && N <= Out.size())
      Out.resize(N);
    else
      Out.assign(Seed, Seed + N);
  }

  /// Counts input \p Id as appended: bumps its used count, maintains the
  /// incremental multiset hash, the deficit counters (number of inputs
  /// over-used w.r.t. that obligation's availability) of the \p Open
  /// obligations, and the sequence hash. A committed obligation's counter
  /// is neither read nor kept while it stays committed: every push below
  /// its commit is popped before the commit is undone, so the counter is
  /// exact again by then.
  void count(InputId Id, std::uint64_t Open) {
    std::int32_t C = Used[Id]++;
    if (C > 0)
      UsedHash ^= pairMix(Id, C);
    UsedHash ^= pairMix(Id, C + 1);
    for (std::uint64_t M = Open; M; M &= M - 1)
      if (std::size_t R = lowBit(M); Avail[R][Id] == C)
        ++Deficit[R];
    if (P.SequenceSensitive)
      SeqHash = hashCombine(SeqHash, IdHash[Id]);
  }

  /// Appends input \p Id to the master (see count).
  void push(InputId Id, std::uint64_t Open) {
    count(Id, Open);
    Master.push_back(Id);
  }

  /// Undoes the matching push(Id, Open), restoring the sequence hash
  /// \p Seq it started from.
  void pop(InputId Id, std::uint64_t Open, std::uint64_t Seq) {
    std::int32_t C = --Used[Id];
    UsedHash ^= pairMix(Id, C + 1);
    if (C > 0)
      UsedHash ^= pairMix(Id, C);
    for (std::uint64_t M = Open; M; M &= M - 1)
      if (std::size_t R = lowBit(M); Avail[R][Id] == C)
        --Deficit[R];
    Master.pop_back();
    SeqHash = Seq;
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

  /// Leaves a node whose subtree spent the budget, right after undoing the
  /// move into that subtree: the remaining children go unexplored and the
  /// node's key is not stored, since the node was not refuted.
  bool spent(const Arena::Mark &Frame) {
    Scratch.rewind(Frame);
    return false;
  }

  bool dfs(std::uint64_t Committed, AdtState &State) {
    if (Committed == FullMask)
      return atLeaf();
    // The budget counts expanded nodes: the node that finds it spent is
    // refused uncounted, so a budget-limited run reports exactly its budget.
    if (Stats.Nodes >= Limits.NodeBudget) {
      BudgetExhausted = true;
      return false;
    }
    ++Stats.Nodes;
    const std::uint64_t Seq = SeqHash;
    std::uint64_t Digest = State.digest();
    std::uint64_t Key =
        hashCombine(hashCombine(hashCombine(Salt, Committed), Digest),
                    UsedHash);
    if (P.SequenceSensitive)
      Key = hashCombine(Key, Seq);
    if (Memo.contains(Key)) {
      ++Stats.MemoHits;
      return false;
    }
    // Everything this node allocates (undo payloads, the candidate buffer)
    // is dead once it returns without a leaf.
    const Arena::Mark Frame = Scratch.mark();
    const std::uint64_t Open = FullMask & ~Committed;

    // Move 1: commit an open response by appending its input, in
    // obligation order. The move mutates State in place and reverts on the
    // way back.
    for (std::uint64_t M = Open; M; M &= M - 1) {
      const std::size_t R = lowBit(M);
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
      push(Ob.In, Open);
      Commits.push_back({Ob.Tag, Base + Master.size()});
      if (dfs(Committed | (1ull << R), State))
        return true;
      Commits.pop_back();
      pop(Ob.In, Open, Seq);
      State.undoInput(U);
      if (BudgetExhausted)
        return spent(Frame);
    }

    // Move 2: append a filler input. A filler lies in every later commit
    // history, so it must be available (beyond what is already used) at
    // every open obligation: candidates are the inputs with positive
    // pointwise-min remaining availability.
    InputId *Candidates = Scratch.allocArray<InputId>(P.AlphabetSize);
    std::size_t NumCandidates = 0;
    for (InputId Id = 0; Id != P.AlphabetSize; ++Id) {
      std::int32_t Min = INT32_MAX;
      for (std::uint64_t M = Open; M && Min > 0; M &= M - 1)
        Min = std::min(Min, Avail[lowBit(M)][Id] - Used[Id]);
      if (Min > 0 && Min != INT32_MAX)
        Candidates[NumCandidates++] = Id;
    }
    for (std::size_t I = 0; I != NumCandidates; ++I) {
      InputId Id = Candidates[I];
      UndoToken U;
      State.applyInput(Interner.input(Id), U, Scratch);
      ++Stats.FillerMoves;
      push(Id, Open);
      if (dfs(Committed, State))
        return true;
      pop(Id, Open, Seq);
      State.undoInput(U);
      if (BudgetExhausted)
        return spent(Frame);
    }

    Scratch.rewind(Frame);
    Memo.insert(Key);
    ++Stats.MemoStores;
    return false;
  }

  const ChainProblemView &P;
  const ChainLimits &Limits;
  const InputInterner &Interner;
  TranspositionTable &Memo;
  Arena &Scratch;
  std::uint64_t Salt;
  ChainResult &Result;
  std::vector<InputId> &Master; ///< Live master in dense ids.
  std::vector<std::pair<std::size_t, std::size_t>> &Commits;

  std::uint64_t FullMask = 0;
  std::size_t Base = 0; ///< ChainProblemView::SeedBase (retired master inputs).
  std::int32_t *Used = nullptr;
  /// Availability rows by obligation; set for the open ones only.
  const std::int32_t **Avail = nullptr;
  std::int32_t *Deficit = nullptr;
  std::uint64_t *IdHash = nullptr;
  std::uint64_t UsedHash = 0;
  std::uint64_t SeqHash = 0; ///< Sequence-hash fold (sequence-sensitive runs).
  ChainStats Stats;
  bool BudgetExhausted = false;
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

void ChainSearch::run(const ChainProblemView &Problem,
                      const ChainLimits &Limits, std::uint64_t Salt,
                      ChainResult &Out) {
  Runner(Problem, Limits, Interner, Memo, Scratch, mix64(Salt), Out).run();
}
