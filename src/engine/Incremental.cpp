//===- engine/Incremental.cpp ---------------------------------------------==//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//
//
// The two families the windowed session core (engine/SessionCore.cpp) runs
// over. What is left here is only what differs: lin's invalid-input doom
// and frontierHistory; slin's interpretation-family cache (whose hashes key
// the core's chain table), per-interpretation init overlays, aborts with
// the abort-synthesis leaf, and epoch rules for non-monotone deltas.
//
//===----------------------------------------------------------------------===//

#include "engine/Incremental.h"

#include "support/Sequences.h"

#include <algorithm>

using namespace slin;

namespace {

std::uint64_t interpretationHash(const InitInterpretation &Finit) {
  std::uint64_t H = 0xF1417ull;
  for (const auto &[Index, Hist] : Finit) {
    H = hashCombine(H, Index);
    H = hashCombine(H, hashValue(Hist));
  }
  return H;
}

} // namespace

//===----------------------------------------------------------------------===//
// IncrementalLinSession
//===----------------------------------------------------------------------===//

IncrementalLinSession::IncrementalLinSession(const Adt &Type,
                                             const IncrementalOptions &Opts)
    : WindowedSession(Type, Opts, /*Sig=*/nullptr) {}

void IncrementalLinSession::shapeNo(ChainResult &R) const {
  R.Reason = "no linearization function exists";
}

WellFormedness IncrementalLinSession::append(const Action &A) {
  if (Doomed)
    return WellFormedness::fail(DoomReason);
  if (!Type.validInput(A.In))
    return doom("invalid input for ADT");
  WellFormedness W = Builder.append(A);
  if (!W) {
    doom("not well-formed: " + W.Reason);
    return W;
  }
  if (Frozen) {
    // The No stands whatever follows: nothing to intern, open or push.
    ++Stats.FrozenAppends;
    return W;
  }
  const std::size_t I = Builder.size() - 1;
  const InputId In = Interner.intern(A.In);
  if (isInvoke(A))
    noteInvoke(A, I, In);
  else
    noteResponse(A, I, In);
  return W;
}

void IncrementalLinSession::verdict(const LinCheckOptions &Limits,
                                    LinCheckResult &R) {
  resetResult(R);
  if (Doomed) {
    R.Outcome = Verdict::No;
    R.Reason = DoomReason;
    return seal(R);
  }
  decide(Limits, R);
  // Under Strict no later event retracts a cached No (see *Finality* in
  // SessionCore.cpp); a weaker relation's invocation credit can.
  if (!Frozen && HaveResult && Cached == Verdict::No && Order.isStrict())
    freeze();
  // A Yes with nothing ever committed leaves no chain (and an empty
  // witness).
  if (R.Outcome == Verdict::Yes && Limits.WantWitness)
    if (const RetainedChain *C = findChain(0))
      completeWitness(*C, R.Witness.Master, R.Witness.Commits);
}

const FrontierState &IncrementalLinSession::frontierState() const {
  static const FrontierState None;
  const RetainedChain *C = findChain(0);
  return C ? C->Replay : None;
}

History IncrementalLinSession::frontierHistory() const {
  LinWitness W;
  if (const RetainedChain *C = findChain(0))
    completeWitness(*C, W.Master, W.Commits);
  return W.Master;
}

//===----------------------------------------------------------------------===//
// IncrementalSlinSession
//===----------------------------------------------------------------------===//

IncrementalSlinSession::IncrementalSlinSession(const Adt &Type,
                                               const PhaseSignature &Sig,
                                               const InitRelation &Rel,
                                               const IncrementalOptions &Opts)
    : WindowedSession(Type, Opts, &Sig), Sig(Sig), Rel(Rel) {}

WellFormedness IncrementalSlinSession::append(const Action &A) {
  if (Doomed)
    return WellFormedness::fail(DoomReason);
  WellFormedness W = Builder.append(A);
  if (!W) {
    doom("not (m, n)-well-formed: " + W.Reason);
    return W;
  }
  const std::size_t I = Builder.size() - 1;
  openSlot(A.Client);
  const InputId In = Interner.intern(A.In);
  // FreshBound for interpretationsFromInits tracks exactly what
  // InitRelation::interpretations' trace walk computes: the max over every
  // ingested action.
  const std::int64_t ActMax = std::max(A.In.A, A.Sv.Val);
  const bool FreshRaised = ActMax > MaxSeenVal;
  if (FreshRaised)
    MaxSeenVal = ActMax;
  const SlinDeltaKind Kind = classifySlinDelta(A, Sig);
  switch (Kind) {
  case SlinDeltaKind::Invoke:
    InvokedMs.add(A.In);
    noteInvoke(A, I, In);
    SawInvokeSinceVerdict = true;
    break;
  case SlinDeltaKind::Init:
    openSlot(A.Client) = I;
    InitActions.push_back({I, A});
    ++NumInits;
    NewNonResponse = true;
    FamilyDirty = true;
    break;
  case SlinDeltaKind::Obligation:
    if (isRespond(A)) {
      noteResponse(A, I, In);
      break;
    }
    // An abort only tightens the problem (budget caps, leaf predicate):
    // retained failures stay failures, but a cached Yes is stale. It also
    // pins every slot (see PinnedByAborts), and one arriving *after*
    // retirement is the one tightening a frozen prefix cannot absorb —
    // Abort Order caps every commit's availability, retired ones included.
    // The aborting client never responds, so its open entry pins the cut.
    Aborts.push_back({I, A.In, A.Sv, InvokedMs});
    PinnedByAborts = true;
    NewNonResponse = true;
    RetiredStale = RetiredStale || WindowBase != 0;
    break;
  case SlinDeltaKind::Neutral:
    break; // Interior switches of a composed phase carry no obligation.
  }
  // A non-init append can still perturb the family by raising the
  // fresh-value bound (consensus' extended extremes consume values one
  // past the trace maximum); the relation says when that matters.
  if (Kind != SlinDeltaKind::Init && !FamilyDirty &&
      !Rel.interpretationsStableUnderAppend(!InitActions.empty(),
                                            FreshRaised))
    FamilyDirty = true;
  return W;
}

void IncrementalSlinSession::refreshFamily() {
  if (HaveCachedFamily && !FamilyDirty)
    return;
  // Built from the retained init actions and the running fresh-value bound
  // — never from the materialized trace, so outcome-only monitors can run
  // with RetainTrace off. interpretations(trace(), Sig) is this very call
  // on the same inits and bound, so the two derivations cannot drift.
  CachedFamily = Rel.interpretationsFromInits(InitActions, MaxSeenVal);
  CachedInterpHashes.clear();
  std::uint64_t H = hashCombine(0xFA111ull, CachedFamily.Assignments.size());
  for (const InitInterpretation &Finit : CachedFamily.Assignments) {
    CachedInterpHashes.push_back(interpretationHash(Finit));
    H = hashCombine(H, CachedInterpHashes.back());
  }
  if (H != CachedFamilyHash)
    HaveRound = false; // The excursion round covered another family.
  CachedFamilyHash = H;
  HaveCachedFamily = true;
  FamilyDirty = false;
}

std::size_t IncrementalSlinSession::members() {
  refreshFamily();
  return CachedFamily.Assignments.size();
}

void IncrementalSlinSession::shapeNo(ChainResult &R) const {
  // With aborts, a No is conclusive only when the relation's abort search
  // is a decision procedure.
  if (!Aborts.empty() && !Rel.abortSearchExact()) {
    R.Outcome = Verdict::Unknown;
    R.Reason = "no witness found (abort synthesis incomplete for this init "
               "relation)";
  } else {
    R.Reason = "no speculative linearization function exists";
  }
}

void IncrementalSlinSession::prepareRun(std::size_t I, std::size_t NumOb,
                                        MemberRun &M) {
  const InitInterpretation &Finit = CachedFamily.Assignments[I];
  Budgeted.clear();
  FoundAborts.clear();
  AnyInit = false;
  // No init action, no abort and an empty interpretation: the shared
  // window is the member's whole problem (no overlay, no seed, no leaf
  // predicate), and the core publishes it.
  if (InitActions.empty() && Aborts.empty() && Finit.empty())
    return;
  // Ghost inputs join the alphabet before any dense array is sized; the
  // init LCP seeds root runs (Init Order forces it below every history).
  std::vector<History> Histories;
  for (const auto &[Index, H] : Finit) {
    (void)Index;
    for (const Input &In : H)
      Interner.intern(In);
    Histories.push_back(H);
  }
  Lcp = longestCommonPrefix(Histories);
  const InputId A = Interner.size();
  const CommitObligation *Rows = Obligations.finalize(A);
  M.Commits = Rows;

  // One sweep in trace-index order maintains the running max-union of init
  // contributions as a dense row, giving each response and abort its
  // initiallyValidInputs in O(#inits · alphabet + #responses). A response's
  // availability is the shared window row plus that running row, so
  // obligations no init action precedes share the window row outright and
  // the rest get an arena overlay copy. Aborts force copies for every row —
  // their budgets cap availability in place below — and keep a multiset
  // mirror of the running union for the budget bookkeeping
  // (findAbortHistory consumes multisets). Capped runs (the first NumOb
  // obligations) serve abort-free streams only.
  OverlayPtrs.resize(NumOb);
  const bool HaveAborts = !Aborts.empty();
  Multiset<Input> RunningInitM;
  bool AnyOverlay = false;
  std::size_t NextInit = 0;
  auto AdvanceTo = [&](std::size_t Index) {
    while (NextInit != InitActions.size() &&
           InitActions[NextInit].first < Index) {
      const auto &[J, Act] = InitActions[NextInit];
      ++NextInit;
      if (!AnyInit) {
        RunningInitScratch.assign(A, 0);
        AnyInit = true;
      }
      // max(elems(f_init(j)), {in_j}) folded pointwise into the running
      // row: Definition 25's max-union, densified. Every input here is
      // already interned, so the bound guards are defensive.
      ContribScratch.assign(A, 0);
      auto It = Finit.find(J);
      if (It != Finit.end())
        for (const Input &In : It->second)
          if (InputId Id = Interner.intern(In); Id < A)
            ++ContribScratch[Id];
      if (InputId Id = Interner.intern(Act.In);
          Id < A && ContribScratch[Id] < 1)
        ContribScratch[Id] = 1;
      for (InputId Id = 0; Id != A; ++Id)
        RunningInitScratch[Id] =
            std::max(RunningInitScratch[Id], ContribScratch[Id]);
      if (HaveAborts) {
        Multiset<Input> Contribution;
        Contribution.add(Act.In);
        if (It != Finit.end())
          Contribution.unionMaxInPlace(Multiset<Input>::fromRange(It->second));
        RunningInitM.unionMaxInPlace(Contribution);
      }
    }
  };
  for (std::size_t R = 0, Ab = 0; R != NumOb || Ab != Aborts.size();) {
    if (Ab == Aborts.size() ||
        (R != NumOb && Obligations.tag(R) < Aborts[Ab].TraceIndex)) {
      AdvanceTo(Obligations.tag(R));
      const std::int32_t *Row = Rows[R].Available;
      if (AnyInit || HaveAborts) {
        std::int32_t *Copy = Scratch.allocArray<std::int32_t>(A);
        for (InputId Id = 0; Id != A; ++Id)
          Copy[Id] = Row[Id] + (AnyInit ? RunningInitScratch[Id] : 0);
        Row = Copy;
        AnyOverlay = true;
      }
      OverlayPtrs[R++] = Row;
      continue;
    }
    const AbortRec &Rec = Aborts[Ab++];
    Budgeted.push_back({Rec.TraceIndex, Rec.In, Rec.Sv, Multiset<Input>()});
    if (!AbortValidityAtEnd) {
      AdvanceTo(Rec.TraceIndex);
      Budgeted.back().Budget = RunningInitM.unionSum(Rec.InvokedBefore);
    }
  }
  // The chain's InitDense on Yes is the running row at the trace end.
  AdvanceTo(Builder.size());
  if (AbortValidityAtEnd && !Budgeted.empty()) {
    // Relaxed reading: every budget is measured at the trace's end.
    Multiset<Input> AtEnd = RunningInitM.unionSum(InvokedMs);
    for (detail::PendingAbort &Pa : Budgeted)
      Pa.Budget = AtEnd;
  }
  // Abort Order + Definition 28: cap every commit's availability by every
  // abort's budget — capByAbortBudgets' pointwise min, done dense. Mutating
  // in place is sound: aborts forced every row to be an arena copy above.
  for (const detail::PendingAbort &Pa : Budgeted) {
    std::int32_t *BudgetRow = Scratch.allocZeroed<std::int32_t>(A);
    for (const auto &[In, Count] : Pa.Budget.entries())
      if (InputId Id = Interner.intern(In); Id < A)
        BudgetRow[Id] = static_cast<std::int32_t>(Count);
    for (std::size_t R = 0; R != NumOb; ++R) {
      std::int32_t *Row = const_cast<std::int32_t *>(OverlayPtrs[R]);
      for (InputId Id = 0; Id != A; ++Id)
        Row[Id] = std::min(Row[Id], BudgetRow[Id]);
    }
  }
  SeedScratch.clear();
  if (!Histories.empty())
    for (const Input &In : Lcp)
      SeedScratch.push_back(Interner.intern(In));
  M.AvailOverride = AnyOverlay ? OverlayPtrs.data() : nullptr;
  M.Seed = SeedScratch.data();
  M.SeedLen = SeedScratch.size();
  if (!Budgeted.empty()) {
    // f_abort is synthesized at every leaf; abort histories extend the
    // master *sequence*, so memo keys must distinguish orderings.
    Leaf = detail::makeAbortSynthesisLeaf(Rel, Budgeted, Lcp, FoundAborts);
    M.AcceptLeaf = &Leaf;
    M.SequenceSensitive = true;
  }
}

void IncrementalSlinSession::memberYes(std::size_t, RetainedChain &C) {
  // The dense init overlay the fast step re-applies without re-sweeping.
  if (AnyInit)
    C.InitDense.assign(RunningInitScratch.begin(), RunningInitScratch.end());
  else
    C.InitDense.clear();
  C.InitUpTo = InitActions.size();
  // This run's f_abort (prepareRun cleared it; the accepting leaf filled
  // it).
  C.Aborts = std::move(FoundAborts);
}

void IncrementalSlinSession::verdict(const SlinCheckOptions &SOpts,
                                     SlinVerdict &Out) {
  LinCheckResult &R = Ladder;
  resetResult(R);
  Out.Witnesses.clear();
  if (Doomed) {
    R.Outcome = Verdict::No;
    R.Reason = DoomReason;
    seal(R);
    Out.Exact = true;
  } else {
    refreshFamily();
    const bool FamilyChanged = !AnyVerdict || CachedFamilyHash != LastFamilyHash;
    const bool ReadingChanged =
        AnyVerdict && SOpts.AbortValidityAtEnd != LastAbortValidityAtEnd;
    // Non-monotone deltas orphan every retained memo entry: a changed
    // family (or reading) changes seeds and availabilities outright, and
    // under the relaxed reading a new invocation grows every abort budget —
    // prior failures may now complete. The chains are only invalidated
    // (their memo era is salted out), never discarded: keyed by
    // interpretation hash, they stay sound seeds.
    CacheStale = slinDeltasNonMonotone(SawInvokeSinceVerdict, FamilyChanged,
                                       ReadingChanged, !Aborts.empty(),
                                       SOpts.AbortValidityAtEnd);
    if (CacheStale && AnyVerdict)
      newEpoch();
    AbortValidityAtEnd = SOpts.AbortValidityAtEnd;
    LinCheckOptions Limits = SOpts.Search;
    Limits.WantWitness = SOpts.WantWitness;
    decide(Limits, R);
    SawInvokeSinceVerdict = false;
    AnyVerdict = true;
    LastAbortValidityAtEnd = AbortValidityAtEnd;
    LastFamilyHash = CachedFamilyHash;
    Out.Exact = CachedFamily.Exact && Rel.abortSearchExact();
    if (R.Outcome == Verdict::Yes && SOpts.WantWitness)
      for (std::size_t I = 0; I != CachedFamily.Assignments.size(); ++I) {
        // A member whose Yes committed nothing and found no f_abort keeps
        // no chain: its witness is empty.
        SlinWitness W;
        if (const RetainedChain *C = findChain(memberKey(I))) {
          completeWitness(*C, W.Master, W.Commits);
          W.Aborts = C->Aborts;
        }
        Out.Witnesses.push_back({CachedFamily.Assignments[I], std::move(W)});
      }
  }
  Out.Outcome = R.Outcome;
  Out.Reason = R.Reason;
  Out.BudgetLimited = R.BudgetLimited;
  Out.NodesExplored = R.NodesExplored;
  Out.Grade = R.Grade;
  Out.Interference = R.Interference;
}

std::size_t IncrementalSlinSession::memoryFootprintBytes() const {
  return coreBytes() + Aborts.capacity() * sizeof(AbortRec) +
         InitActions.capacity() * sizeof(std::pair<std::size_t, Action>) +
         SeedScratch.capacity() * sizeof(InputId) +
         OverlayPtrs.capacity() * sizeof(const std::int32_t *) +
         (RunningInitScratch.capacity() + ContribScratch.capacity()) *
             sizeof(std::int32_t) +
         CachedInterpHashes.capacity() * sizeof(std::uint64_t);
}

void IncrementalSlinSession::reset() {
  resetCore();
  Aborts.clear();
  InitActions.clear();
  InvokedMs = Multiset<Input>();
  MaxSeenVal = 0;
  HaveCachedFamily = false;
  FamilyDirty = false;
  CachedFamily = InterpretationFamily();
  CachedInterpHashes.clear();
  SawInvokeSinceVerdict = false;
  AnyVerdict = false;
}
