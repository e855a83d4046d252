//===- engine/SessionCore.cpp ---------------------------------------------==//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//
//
// Soundness notes for the retention rules implemented here.
//
// *Monotonicity of failure.* A transposition entry records "from this
// (committed set, used multiset, ADT state), the remaining obligations
// cannot all be committed". Extending the trace adds obligations whose
// availability snapshots cover strictly later indices and leaves every
// existing obligation's snapshot, predecessors, and output untouched. If
// the extended problem were completable from the same search state, then
// deleting the new obligations' commit appends from that completion yields
// a completion of the original problem from the same state: used counts
// only shrink, every kept filler was available at all then-uncommitted
// original obligations, and no original obligation ever must-follow a new
// one (the new response's invocation lies after every original response).
// Hence failure is preserved by extension and every retained entry stays a
// sound prune — the basis for the epoch salt: one growing trace keeps its
// entries across verdicts.
//
// *Absorption.* The same deletion argument gives: an extension of a
// non-linearizable trace is non-linearizable (No is final), and an
// appended invocation changes no obligation at all (the cached verdict
// stands as-is). The slin session marks the deltas for which this fails
// (CacheStale) and moves the epoch for them.
//
// *Pollution.* A budget-exhausted run returns through ancestors whose
// other children were never explored. The engine stores no key for such
// an ancestor (dfs returns as soon as the budget is spent), so every key
// a budget-limited run leaves is a node it refuted in full: the memo stays
// sound and the epoch stays. Only the events that change what a key means
// move the epoch, and every move also forgets the memo (newEpoch): the
// salt is what makes the old entries unreachable, the forget only frees
// their slots.
//
// *Finality.* Under the Strict relation a cached No is final: the
// deletion argument above shows every extension of the trace is refuted
// too, and nothing in a lin session ever retracts it (only a weaker
// relation's availability credit does, noteInvoke). So a lin session under
// Strict freezes at its first No and stops building obligations. Slin
// does not freeze: a new init action or a changed abort reading sets
// CacheStale and searches the No again.
//
// *Restriction.* The first WindowLimit obligations of an overflowed window
// form an exact restriction under every interpretation: deleting the
// out-of-window completions' commits from any full witness leaves a
// witness for the prefix (their responses lie after every in-window
// response, so nothing in-window must-follow them, and availability
// snapshots are functions of the prefix alone). So a capped sub-chain's
// aligned prefix is a sound retired prefix, and a capped sub-No with
// nothing retired is conclusive for the whole stream.
//
//===----------------------------------------------------------------------===//

#include "engine/SessionCore.h"

#include <algorithm>
#include <cassert>
#include <optional>
#include <string_view>
#include <type_traits>

using namespace slin;

namespace {

using Rows = std::vector<std::pair<std::size_t, std::size_t>>;

/// Folded with the epoch and the member key into every member's memo salt.
constexpr std::uint64_t SaltDomain = 0x51A9B8C7D6E5F403ull;

/// Bound on the chain table (one entry per recurring member key).
constexpr std::size_t ChainTableLimit = 64;

std::size_t rowBytes(const Rows &V) {
  return V.capacity() * sizeof(std::pair<std::size_t, std::size_t>);
}

} // namespace

//===----------------------------------------------------------------------===//
// LiveWindow
//===----------------------------------------------------------------------===//

void LiveWindow::compact(std::size_t RowStride) {
  // Source rows always lie at or after their destination, so the forward
  // moves are overlap-safe.
  auto Front = [&](auto &V) {
    std::move(V.begin() + static_cast<std::ptrdiff_t>(Base),
              V.begin() + static_cast<std::ptrdiff_t>(Base + N), V.begin());
  };
  Front(Slots);
  Front(Invokes);
  Front(Clients);
  Front(Metas);
  if (RowStride)
    for (std::size_t Q = 0; Q != N; ++Q)
      std::copy(AvailStore.begin() +
                    static_cast<std::ptrdiff_t>((Base + Q) * RowStride),
                AvailStore.begin() +
                    static_cast<std::ptrdiff_t>((Base + Q + 1) * RowStride),
                AvailStore.begin() + static_cast<std::ptrdiff_t>(Q * RowStride));
  Base = 0;
}

void LiveWindow::publish() {
  for (std::size_t Q = Base; Q != Base + N; ++Q)
    Slots[Q].Available = AvailStore.data() + Q * Stride;
}

void LiveWindow::ensureStride(std::size_t AlphabetSize) {
  if (Stride >= AlphabetSize)
    return;
  // One cache line of int32 at least: a small alphabet's rows stay dense.
  std::size_t NewStride = Stride ? Stride : 16;
  while (NewStride < AlphabetSize)
    NewStride *= 2;
  // Re-lay the live rows out at the wider stride, compacting to the front.
  // Rare: the alphabet grows past a power of two at most O(log |I|) times.
  std::vector<std::int32_t> NewStore(Slots.size() * NewStride, 0);
  for (std::size_t Q = 0; Q != N; ++Q)
    std::copy(AvailStore.begin() +
                  static_cast<std::ptrdiff_t>((Base + Q) * Stride),
              AvailStore.begin() +
                  static_cast<std::ptrdiff_t>((Base + Q + 1) * Stride),
              NewStore.begin() + static_cast<std::ptrdiff_t>(Q * NewStride));
  AvailStore = std::move(NewStore);
  if (Base != 0)
    compact(/*RowStride=*/0); // The rows moved already.
  Stride = NewStride;
  publish();
}

void LiveWindow::pushResponse(std::size_t Tag, InputId In, const Output &Out,
                              std::size_t InvokeIdx, std::uint64_t MustFollow,
                              ClientId Client, std::uint32_t Meta,
                              const std::vector<std::int32_t> &Invoked) {
  ensureStride(Invoked.size());
  if (Base + N == Slots.size()) {
    if (Base != 0) {
      // Reuse the front vacated by retirement: a steady-state append after
      // a fold slides rows forward within existing storage — no heap
      // traffic on the event path.
      compact(Stride);
      publish();
    } else {
      // The window itself (64 slots) at first: a fold at the limit leaves
      // the vacated front for compaction. Only an overflow excursion
      // (64 live rows, none retirable) doubles it.
      std::size_t NewCap =
          std::max(IncrementalWindowLimit, Slots.size() * 2);
      Slots.resize(NewCap);
      Invokes.resize(NewCap);
      Clients.resize(NewCap);
      Metas.resize(NewCap);
      AvailStore.resize(NewCap * Stride, 0);
      publish();
    }
  }
  std::size_t Row = Base + N;
  CommitObligation &C = Slots[Row];
  C.Tag = Tag;
  C.In = In;
  C.Out = Out;
  C.MustFollow = MustFollow;
  C.Available = AvailStore.data() + Row * Stride;
  Invokes[Row] = InvokeIdx;
  Clients[Row] = Client;
  Metas[Row] = Meta;
  // Zero-extending the row to the stride at write time realizes the lazy
  // zero-extension contract: an input first interned after this response
  // cannot have been invoked before it.
  std::int32_t *Dst = AvailStore.data() + Row * Stride;
  std::copy(Invoked.begin(), Invoked.end(), Dst);
  std::fill(Dst + Invoked.size(), Dst + Stride, 0);
  ++N;
}

bool LiveWindow::creditInvoke(const OrderRelation &Order, ClientId Invoker,
                              InputId In) {
  if (N == 0)
    return false;
  // A first-seen input forces the same stride regrow a pushResponse would;
  // steady streams hit existing cells only.
  ensureStride(static_cast<std::size_t>(In) + 1);
  bool Any = false;
  for (std::size_t Q = 0; Q != N; ++Q) {
    if (!Order.creditsLaterInvoke(Clients[Base + Q], Metas[Base + Q],
                                  Invoker))
      continue;
    ++AvailStore[(Base + Q) * Stride + In];
    Any = true;
  }
  return Any;
}

void LiveWindow::shrinkToFit() {
  auto Live = [&](auto &V, std::size_t Width) {
    using Vec = std::remove_reference_t<decltype(V)>;
    V = Vec(V.begin() + static_cast<std::ptrdiff_t>(Base * Width),
            V.begin() + static_cast<std::ptrdiff_t>((Base + N) * Width));
  };
  Live(Slots, 1);
  Live(Invokes, 1);
  Live(Clients, 1);
  Live(Metas, 1);
  Live(AvailStore, Stride);
  Base = 0;
  publish();
}

std::size_t LiveWindow::lowerBoundTag(std::size_t T) const {
  std::size_t Lo = 0, Hi = N;
  while (Lo != Hi) {
    std::size_t Mid = Lo + (Hi - Lo) / 2;
    if (Slots[Base + Mid].Tag < T)
      Lo = Mid + 1;
    else
      Hi = Mid;
  }
  return Lo;
}

std::uint64_t
LiveWindow::alignedPrefixes(const std::pair<std::size_t, std::size_t> *Rows,
                            std::size_t K, std::size_t From) const {
  K = std::min({K, N, IncrementalWindowLimit});
  if (From >= K)
    return 0;
  const std::size_t Lo = tag(0);
  std::size_t MaxTag = From ? tag(From - 1) : 0;
  std::uint64_t Bits = 0;
  for (std::size_t Q = From; Q < K; ++Q) {
    if (Rows[Q].first < Lo)
      break; // Below the window: no longer prefix can qualify.
    MaxTag = std::max(MaxTag, Rows[Q].first);
    if (MaxTag == tag(Q))
      Bits |= 1ull << Q;
  }
  return Bits;
}

const CommitObligation *LiveWindow::finalize(InputId AlphabetSize) {
  ensureStride(AlphabetSize);
  return Slots.data() + Base;
}

std::size_t RetainedChain::memoryBytes() const {
  return (Master.capacity() + RetiredMaster.capacity()) * sizeof(InputId) +
         rowBytes(Commits) + rowBytes(RetiredCommits) +
         Aborts.capacity() * sizeof(std::pair<std::size_t, History>) +
         (Replay.Used.capacity() + RetiredBoundary.Used.capacity() +
          (Cut ? Cut->Used.capacity() : 0) + InitDense.capacity()) *
             sizeof(std::int32_t) +
         (Cut ? sizeof(FrontierState) : 0);
}

//===----------------------------------------------------------------------===//
// Ingest
//===----------------------------------------------------------------------===//

WindowedSession::WindowedSession(const Adt &Type,
                                 const IncrementalOptions &Opts,
                                 const PhaseSignature *Sig)
    : Type(Type), Opts(Opts), Order(Opts.Order),
      Scratch(/*FirstBlockBytes=*/256), Memo(Opts.TranspositionCapacity),
      Builder(Sig ? TraceBuilder(*Sig) : TraceBuilder()) {
  if (!Opts.RetainTrace)
    Builder.setRetainView(false);
}

WellFormedness WindowedSession::doom(std::string Reason) {
  Doomed = true;
  DoomReason = std::move(Reason);
  return WellFormedness::fail(DoomReason);
}

std::size_t &WindowedSession::openSlot(ClientId Client) {
  if (Client >= OpenStart.size())
    OpenStart.resize(Client + 1, SIZE_MAX);
  return OpenStart[Client];
}

void WindowedSession::noteInvoke(const Action &A, std::size_t I, InputId In) {
  if (In >= Invoked.size())
    Invoked.resize(In + 1, 0);
  ++Invoked[In];
  openSlot(A.Client) = I;
  // Under Strict an appended invocation changes no obligation: every
  // availability snapshot covers indices before it. A weaker relation may
  // instead credit the new input to live responses it leaves unordered
  // past this invocation (OrderRelation::creditsLaterInvoke): the problem
  // only *relaxes*, so a cached Yes and the retained chains stand, but a
  // cached No — and every retained memo failure — may have depended on the
  // tighter rows and must go.
  if (!Order.isStrict() && Obligations.creditInvoke(Order, A.Client, In)) {
    if (HaveResult && Cached == Verdict::No)
      HaveResult = false;
    newEpoch();
  }
}

void WindowedSession::noteResponse(const Action &A, std::size_t I,
                                   InputId In) {
  // The operation closes; the open table must be exact — it is what
  // retirement derives its quiescent cut from.
  std::size_t &Open = openSlot(A.Client);
  const std::size_t InvokeIdx = Open;
  Open = SIZE_MAX;
  if (Obligations.size() == WindowLimit)
    retireQuiescentPrefix(); // The cheap cached-chain fold, search-free.
  // Happens-before over the live window, window-relative bits. In an
  // overflow excursion the mask is not representable; it is rebuilt when
  // the drain brings the window back under the limit, and capped runs
  // derive fresh masks meanwhile.
  std::uint64_t MustFollow = 0;
  if (Obligations.size() < WindowLimit)
    MustFollow = Order.pushMask(Obligations, InvokeIdx, A.Client);
  // The availability row snapshots Invoked: elems(inputs(t, I)),
  // Definition 9.
  Obligations.pushResponse(I, In, A.Out, InvokeIdx, MustFollow, A.Client,
                           A.Meta, Invoked);
  ++NewResponses;
  if (Obligations.size() > Stats.LiveWindowHighWater)
    Stats.LiveWindowHighWater = Obligations.size();
  if (overflowed() && !OverflowNoted) {
    OverflowNoted = true; // One overflow excursion, counted once.
    ++Stats.WindowOverflows;
  }
}

std::size_t WindowedSession::openCut() const {
  // The quiescent cut: every response before E — the earliest currently
  // open operation (trace end when none is open) — precedes every open and
  // every future invocation, so real-time order forces those commits
  // before everything still live. No instant of zero concurrency is
  // required; a pipelined stream retires continuously.
  std::size_t E = Builder.size();
  for (std::size_t Idx : OpenStart)
    E = std::min(E, Idx);
  return E;
}

std::size_t WindowedSession::cutBound(std::size_t FirstUncovered) const {
  // A fold or a cut must not strand a response no chain covers yet
  // concurrent with an obligation before it: the pinned prefix might then
  // admit no completion (the WindowRetired Unknown) where the full search
  // finds one. So E also stops at the earliest invocation among them — with
  // a verdict per append nothing is uncovered and this is no limit at all.
  std::size_t E = openCut();
  for (std::size_t Q = FirstUncovered; Q < Obligations.size(); ++Q)
    E = std::min(E, Obligations.invokeIdx(Q));
  return E;
}

//===----------------------------------------------------------------------===//
// The chain table
//===----------------------------------------------------------------------===//

const RetainedChain *WindowedSession::findChain(std::uint64_t Key) const {
  for (const auto &[K, C] : Chains)
    if (K == Key)
      return &C;
  return nullptr;
}

RetainedChain *WindowedSession::chain(std::size_t I) {
  auto *C = const_cast<RetainedChain *>(findChain(memberKey(I)));
  if (C)
    C->LastTouch = ++TouchCounter;
  return C;
}

RetainedChain &WindowedSession::admit(std::size_t I, RetainedChain &&C) {
  C.LastTouch = ++TouchCounter;
  if (Chains.size() < ChainTableLimit) {
    Chains.emplace_back(memberKey(I), std::move(C));
    return Chains.back().second;
  }
  // At the bound, recycle the least-recently-touched entry: cycling
  // one-shot members (e.g. the consensus relation's extended extremes over
  // a growing trace) cannot thrash the hot steady-state chain, which every
  // verdict touches.
  auto Victim = std::min_element(
      Chains.begin(), Chains.end(), [](const auto &X, const auto &Y) {
        return X.second.LastTouch < Y.second.LastTouch;
      });
  Victim->first = memberKey(I);
  Victim->second = std::move(C);
  return Victim->second;
}

void WindowedSession::dropChain(std::size_t J) {
  std::swap(Chains[J], Chains.back());
  Chains.pop_back();
}

std::uint64_t WindowedSession::memberSalt(std::size_t I) const {
  return hashCombine(hashCombine(SaltDomain, Epoch), memberKey(I));
}

void WindowedSession::newEpoch() {
  ++Epoch;
  Memo.forget();
}

//===----------------------------------------------------------------------===//
// Retirement
//===----------------------------------------------------------------------===//

std::uint64_t WindowedSession::foldMask(const Rows &Commits,
                                        std::size_t LiveLen,
                                        std::size_t RetiredLen,
                                        std::size_t Limit,
                                        std::size_t E) const {
  // Bit k-1 is set iff the chain's first k rows commit *exactly* the first
  // k window obligations, all responded before E, at in-bounds lengths.
  // The chain may commit concurrent operations out of response order, so
  // only a prefix aligned on both axes — commit-length order and response
  // (tag) order — can fold: rows' tags are distinct window tags, so
  // rows[0..k) == window[0..k) iff their running max tag equals
  // window[k-1]'s.
  static_assert(IncrementalWindowLimit <= 64,
                "fold masks are 64-bit over window positions");
  Limit = std::min({Limit, Commits.size(), Obligations.size()});
  std::uint64_t Mask = 0;
  std::size_t MaxTag = 0;
  for (std::size_t Q = 1; Q <= Limit; ++Q) {
    MaxTag = std::max(MaxTag, Commits[Q - 1].first);
    if (MaxTag >= E)
      break; // The running max only grows; later prefixes cannot qualify.
    std::size_t L = Commits[Q - 1].second;
    if (L < RetiredLen || L - RetiredLen > LiveLen)
      break; // Defensive: a malformed row must never pin a prefix.
    if (MaxTag == Obligations.tag(Q - 1))
      Mask |= 1ull << (Q - 1);
  }
  return Mask;
}

std::uint64_t WindowedSession::alignedMask(const RetainedChain &C) const {
  assert(C.Aligned == foldMask(C.Commits, C.Master.size(), C.RetiredLen,
                               WindowLimit, SIZE_MAX) &&
         "the aligned-prefix mask drifted from its rows");
  return C.Aligned;
}

std::uint64_t WindowedSession::cutMask(std::uint64_t Mask, std::size_t Limit,
                                       std::size_t E) const {
  if (Limit < 64)
    Mask &= (1ull << Limit) - 1;
  // Tags grow with window position, so the prefixes whose last obligation
  // responded at or after E are the highest set bits.
  while (Mask) {
    const std::size_t Top = 63 - static_cast<std::size_t>(__builtin_clzll(Mask));
    if (Obligations.tag(Top) < E)
      break;
    Mask &= ~(1ull << Top);
  }
  return Mask;
}

bool WindowedSession::alignedAtEnd(const RetainedChain &C) const {
  const std::size_t Rows = C.Commits.size();
  return Rows == 0 ||
         (Rows <= std::min(Obligations.size(), WindowLimit) &&
          (alignedMask(C) >> (Rows - 1) & 1));
}

void WindowedSession::realign(RetainedChain &C, std::size_t From) const {
  assert((From == 0 || (C.Aligned >> (From - 1) & 1)) &&
         "a seed point is an aligned prefix");
  const std::uint64_t Keep =
      From >= 64 ? C.Aligned : C.Aligned & ((1ull << From) - 1);
  C.Aligned = Keep | Obligations.alignedPrefixes(C.Commits.data(),
                                                 C.Commits.size(), From);
}

std::size_t WindowedSession::misalignedChains() const {
  std::size_t Bad = 0;
  for (const auto &[Key, C] : Chains)
    Bad += C.Aligned != foldMask(C.Commits, C.Master.size(), C.RetiredLen,
                                 WindowLimit, SIZE_MAX);
  return Bad;
}

void WindowedSession::startFrontier(FrontierState &F) const {
  F.State = Type.makeState();
  F.Used.assign(Interner.size(), 0);
  F.UsedHash = F.SeqHash = 0;
  F.HasSeqHash = false;
  F.Len = 0;
  F.Valid = true;
}

void WindowedSession::foldChain(RetainedChain &C,
                                const std::vector<InputId> &Ids,
                                const Rows &Commits, std::size_t K) {
  const std::size_t L = Commits[K - 1].second; // Absolute length at the cut.
  if (!C.RetiredBoundary.Valid)
    startFrontier(C.RetiredBoundary);
  // The boundary replay state always advances — it is what keeps searches
  // behind the retired prefix sound; the ids and rows are optional.
  advanceFrontierState(C.RetiredBoundary, Interner, Ids.data(),
                       L - C.RetiredLen);
  if (Opts.RetainRetiredWitness) {
    C.RetiredMaster.insert(C.RetiredMaster.end(), Ids.begin(),
                           Ids.begin() + static_cast<std::ptrdiff_t>(
                                             L - C.RetiredLen));
    C.RetiredCommits.insert(C.RetiredCommits.end(), Commits.begin(),
                            Commits.begin() + static_cast<std::ptrdiff_t>(K));
  }
  C.RetiredLen = L;
  C.RetiredRows += K;
}

void WindowedSession::foldWindow(std::size_t K) {
  Obligations.eraseFront(K);
  WindowBase += K;
  Stats.RetiredObligations += K;
  // Memo keys embed window-relative committed masks; the shift renumbers
  // every bit, so every retained entry is salted out. Retirement is
  // amortized-rare, so the lost reuse is a bounded cost, not a steady-state
  // one.
  newEpoch();
  HaveRound = false;
}

void WindowedSession::retireQuiescentPrefix() {
  // The search-free retirement path: fold the cached Yes chains' common
  // committed prefix out of the live window. Every member must hold a chain
  // covering it (each linearizes the retired region its own way, but the
  // *set* of retired responses must be uniform). Aborts rule retirement
  // out: Abort Order caps every commit's availability by every abort's
  // budget, so a frozen prefix could not be re-capped.
  if (PinnedByAborts || !HaveResult || Cached != Verdict::Yes)
    return;
  // The responses since the last verdict are the window's last ones, and
  // no chain covers them yet. Cheap early-out before the family walk: a
  // pinned cut can never fold anything, and it is exactly the case where
  // this runs on every append while the window stays full.
  const std::size_t N = Obligations.size();
  const std::size_t E = cutBound(N - std::min(NewResponses, N));
  if (Obligations.empty() || Obligations.tag(0) >= E)
    return;
  // The relation's retirement gate: only a window prefix every slot of
  // which is ordered before all open and future operations may fold (the
  // whole window under Strict; a weak relation stops at, e.g., an
  // unflushed TSO response).
  const std::size_t Limit = Order.retirablePrefix(Obligations, N);
  const std::size_t Members = members();
  if (Limit == 0 || Members == 0)
    return; // An empty family must not retire what nothing re-validates.
  auto MaskOf = [&](const RetainedChain &C) -> std::uint64_t {
    if (C.RetiredRows != WindowBase)
      return 0; // Stale retirement depth: cannot participate.
    return cutMask(alignedMask(C), Limit, E);
  };
  // Validate the whole family before mutating anything.
  std::uint64_t Common = ~0ull;
  for (std::size_t I = 0; I != Members && Common; ++I) {
    const RetainedChain *C = chain(I);
    Common &= C ? MaskOf(*C) : 0;
  }
  if (!Common)
    return;
  const std::size_t K = 64 - static_cast<std::size_t>(__builtin_clzll(Common));
  // Fold every capable retained chain (members and recurring stale ones
  // alike); chains that cannot fold at K would reference dropped responses
  // and are discarded — losing one costs re-search, never soundness.
  for (std::size_t J = Chains.size(); J-- > 0;) {
    RetainedChain &C = Chains[J].second;
    if (!(MaskOf(C) & (1ull << (K - 1)))) {
      dropChain(J);
      continue;
    }
    const std::size_t Take = C.Commits[K - 1].second - C.RetiredLen;
    foldChain(C, C.Master, C.Commits, K);
    // The chain stays valid beyond the fold: trim its retired part.
    C.Master.erase(C.Master.begin(),
                   C.Master.begin() + static_cast<std::ptrdiff_t>(Take));
    C.Commits.erase(C.Commits.begin(),
                    C.Commits.begin() + static_cast<std::ptrdiff_t>(K));
    // Its rows [0, K) were window [0, K): every longer aligned prefix stays
    // aligned past them.
    C.Aligned = K == 64 ? 0 : C.Aligned >> K;
  }
  foldWindow(K);
  // Surviving masks move to the shrunk window's bit positions (the
  // dropped low bits are enforced by the retired prefix).
  Obligations.shiftMasks(K);
}

void WindowedSession::cacheNo(ChainResult &Sub) {
  shapeNo(Sub);
  HaveResult = true;
  Cached = Verdict::No;
  CachedReason = Sub.Reason;
}

WindowedSession::SubRun
WindowedSession::cappedRun(std::size_t I, RetainedChain *C,
                           std::uint64_t &Left, ChainResult &Out,
                           LinCheckResult &R) {
  // Member I over the first WindowLimit obligations (see *Restriction*),
  // from its boundary point, on the nodes the verdict has left. Every
  // way it can end short of a sub-Yes but a structural Unknown decides the
  // verdict: budget exhaustion (retryable), a member that cannot validate
  // the retired responses, or a sub-No — conclusive with nothing retired,
  // the WindowRetired Unknown behind a retired prefix.
  auto Decide = [&](Verdict V, std::string_view Reason, bool BudgetLimited) {
    R.Outcome = V;
    R.Reason = Reason; // In place: a reused result keeps its buffer.
    R.BudgetLimited = BudgetLimited;
    return SubRun::Decided;
  };
  if (Left == 0)
    return Decide(Verdict::Unknown, NodeBudgetReason, true);
  if (WindowBase != 0 && (!C || C->RetiredRows != WindowBase)) {
    // No chain at the retirement depth: this member cannot validate the
    // retired responses.
    ++Stats.WindowRetiredUnknowns;
    return Decide(Verdict::Unknown, WindowRetiredReason, false);
  }
  ChainProblemView V;
  prepareMember(I, WindowLimit, V);
  runFrom(I, C, boundaryPoint(C), V, ChainLimits{Left}, Out);
  R.NodesExplored += Out.Stats.Nodes;
  Left -= std::min(Left, Out.Stats.Nodes);
  if (Out.Outcome == Verdict::Yes)
    return SubRun::Yes;
  if (Out.Outcome == Verdict::Unknown)
    return Out.BudgetLimited // The engine's wording.
               ? Decide(Verdict::Unknown, Out.Reason, true)
               : SubRun::Structural;
  // One member's sub-No kills the ∀ over the family.
  if (WindowBase == 0) {
    cacheNo(Out);
    return Decide(Verdict::No, CachedReason, false);
  }
  ++Stats.WindowRetiredUnknowns;
  return Decide(Verdict::Unknown, WindowRetiredReason, false);
}

bool WindowedSession::decideExcursion(std::uint64_t &Left,
                                      LinCheckResult &R) {
  // A straggler overlapped more completions than the engine's exact search
  // carries. Every step reads one capped round: each member's sub-chain
  // over the first WindowLimit obligations from its boundary (see
  // *Restriction*). The family folds at the largest prefix every round
  // chain aligns on before the cut, then repeats with a new round; while
  // nothing can fold, the round grades the pinned window BoundedYes(tail)
  // if the out-of-window tail is within the bound. A round in which every
  // member answered Yes is kept until a fold, a reset or a new family:
  // completions appended past the window leave its restriction as it was,
  // and each sub-search is deterministic, so a kept round is the round a
  // new search would find. (A weaker relation's invocation credit only
  // relaxes the rows: a kept round stays a witness of its restriction.)
  // Families larger than the chain table never fold (each member needs a
  // fold target).
  bool Folded = false;
  SubRun Step = SubRun::Yes; // Yes: the excursion closed.
  while (overflowed()) {
    const std::size_t Members = PinnedByAborts ? 0 : members();
    const std::size_t Tail = Obligations.size() - WindowLimit;
    const bool Grade = Members != 0 && Opts.InterferenceBound != 0 &&
                       Tail <= Opts.InterferenceBound;
    // A cut pinned by an open straggler costs O(clients) and no search.
    const std::size_t E = openCut();
    const std::size_t Limit =
        Members != 0 && Members <= ChainTableLimit && Obligations.tag(0) < E
            ? Order.retirablePrefix(Obligations, WindowLimit)
            : 0;
    // The round, run only as far as a fold or the grade reads it. A member
    // that does not answer Yes decides the verdict, or leaves the
    // structural Unknown.
    std::uint64_t Common = Limit ? ~0ull : 0;
    if (!HaveRound)
      DrainRound.resize(Members);
    for (std::size_t I = 0; I != Members && (Common || Grade); ++I) {
      if (!HaveRound) {
        Step = cappedRun(I, chain(I), Left, DrainRound[I], R);
        if (Step != SubRun::Yes)
          break;
        HaveRound = I + 1 == Members;
      }
      if (!Common)
        continue;
      const ChainResult &Sub = DrainRound[I];
      const std::uint64_t Mask = cutMask(
          Obligations.alignedPrefixes(Sub.Commits.data(), Sub.Commits.size(),
                                      0),
          Limit, E);
      assert(Mask == foldMask(Sub.Commits, Sub.Master.size(),
                              findChain(memberKey(I))
                                  ? findChain(memberKey(I))->RetiredLen
                                  : 0,
                              Limit, E));
      Common &= Mask;
    }
    if (Step != SubRun::Yes)
      break;
    if (!Common) {
      if (Grade) {
        R.Outcome = Verdict::Unknown;
        R.Grade = VerdictGrade::BoundedYes;
        R.Interference = Tail;
        R.Reason = WindowBoundedReason;
        ++Stats.BoundedYesVerdicts;
      }
      Step = Grade ? SubRun::Decided : SubRun::Structural;
      break;
    }
    const std::size_t K =
        64 - static_cast<std::size_t>(__builtin_clzll(Common));
    for (std::size_t I = 0; I != Members; ++I) {
      // Members without a chain yet (nothing was retired, so their capped
      // run started fresh) are admitted now: the fold target must exist.
      RetainedChain *C = chain(I);
      if (!C)
        C = &admit(I, RetainedChain());
      if (C->RetiredRows != WindowBase)
        continue; // Already folded under a duplicate member.
      foldChain(*C, DrainRound[I].Master, DrainRound[I].Commits, K);
      // The capped chain's remainder covers the restriction, not the whole
      // window; the next full search from the boundary rebuilds it (in
      // fresh buffers: an excursion's chain is no size to keep).
      C->Master = std::vector<InputId>();
      C->Commits = Rows();
      C->Aligned = 0;
      C->Replay.invalidate();
      C->Cut.reset();
    }
    // Chains that fell behind the new retirement depth could never fold or
    // resume again.
    for (std::size_t J = Chains.size(); J-- > 0;)
      if (Chains[J].second.RetiredRows != WindowBase + K)
        dropChain(J);
    foldWindow(K);
    Folded = true;
  }
  if (Step == SubRun::Structural) {
    R.Outcome = Verdict::Unknown;
    R.Reason = PinnedByAborts ? WindowAbortPinnedReason : WindowOverflowReason;
  }
  if (Folded) {
    Order.rebuildMasks(Obligations);
    // The cached Yes predates the folds. (A cached No survives — it is
    // absorbing regardless of windowing.)
    if (HaveResult && Cached == Verdict::Yes)
      HaveResult = false;
  }
  if (!overflowed())
    OverflowNoted = false; // The excursion ended; count the next one anew.
  return Step != SubRun::Yes;
}

//===----------------------------------------------------------------------===//
// Searching
//===----------------------------------------------------------------------===//

WindowedSession::SeedPoint
WindowedSession::boundaryPoint(RetainedChain *C) {
  if (C && C->RetiredBoundary.Valid)
    return {0, C->RetiredLen, &C->RetiredBoundary};
  return {};
}

std::optional<WindowedSession::SeedPoint>
WindowedSession::advanceCut(RetainedChain &C) {
  // The cut is the largest chain prefix that commits exactly the first k
  // window obligations, all responded before E: the earliest open
  // operation or uncovered response. (The chain commits window [0, rows);
  // the responses after it are in no chain yet.) Every obligation before
  // the cut real-time-precedes what the verdict must place, so only the
  // obligations after it are reopened. Aborts pin every slot and make the
  // search sequence-sensitive, so they rule the point out.
  const std::size_t N = Obligations.size();
  const std::size_t Rows = C.Commits.size();
  if (PinnedByAborts || Rows == 0 || Rows > N)
    return std::nullopt;
  const std::uint64_t Mask = cutMask(
      alignedMask(C), Order.retirablePrefix(Obligations, N), cutBound(Rows));
  if (!Mask)
    return std::nullopt;
  const std::size_t K = 64 - static_cast<std::size_t>(__builtin_clzll(Mask));
  if (K == Rows)
    return std::nullopt; // The whole chain: that is the chain's end.
  const std::size_t L = C.Commits[K - 1].second;
  if (!C.Cut)
    C.Cut = std::make_unique<FrontierState>();
  FrontierState &Cut = *C.Cut;
  if (!Cut.Valid || Cut.Len > L || Cut.Len < C.RetiredLen) {
    // Rebuild from the retired boundary (the empty state before any
    // retirement) when the cut moved back or a fold passed it (lengths
    // are absolute, so a fold at or before the cut keeps it).
    if (C.RetiredBoundary.Valid)
      Cut.assign(C.RetiredBoundary);
    else
      startFrontier(Cut);
  }
  advanceFrontierState(Cut, Interner,
                       C.Master.data() + (Cut.Len - C.RetiredLen),
                       L - Cut.Len);
  return SeedPoint{K, L, &Cut};
}

void WindowedSession::prepareMember(std::size_t I, std::size_t NumOb,
                                    ChainProblemView &V) {
  Scratch.reset();
  MemberRun M;
  prepareRun(I, NumOb, M);
  V = ChainProblemView();
  V.Type = &Type;
  V.AlphabetSize = Interner.size();
  V.Commits = M.Commits ? M.Commits : Obligations.finalize(V.AlphabetSize);
  V.NumCommits = NumOb;
  if (NumOb < Obligations.size()) {
    // Fresh masks over the capped sub-window: the stored ones are deferred
    // during an excursion.
    CappedScratch.assign(V.Commits, V.Commits + NumOb);
    for (std::size_t Q = 0; Q != NumOb; ++Q)
      CappedScratch[Q].MustFollow = Order.maskOver(Obligations, Q);
    V.Commits = CappedScratch.data();
  }
  V.AvailOverride = M.AvailOverride;
  V.AcceptLeaf = M.AcceptLeaf;
  V.SequenceSensitive = M.SequenceSensitive;
  if (WindowBase == 0) {
    // The seed of a run from the root; once anything retired it lies in
    // the retired prefix.
    V.Seed = M.Seed;
    V.SeedLen = M.SeedLen;
  }
  PreparedMark = Scratch.mark();
}

void WindowedSession::runFrom(std::size_t I, RetainedChain *C,
                              const SeedPoint &P, ChainProblemView V,
                              const ChainLimits &L, ChainResult &Out) {
  Scratch.rewind(PreparedMark);
  // A capped run (an excursion round's) covers a restriction of the
  // window: it writes into Out and leaves the chain as it was. Every other
  // run resumes inside the chain, in place: the chain's buffers are its
  // output, its ids up to the point are the seed (the boundary keeps none
  // of them and seeds with what prepareMember laid), and its first P.Rows
  // rows (window [0, P.Rows)) are pre-committed, so only the obligations
  // after them need placing. What lies past the point is set aside in the
  // arena, below everything the run allocates, and put back if the run
  // fails.
  const bool InPlace = V.NumCommits == Obligations.size();
  // Behind a retired prefix a run rides behind it as the engine's virtual
  // seed: it is never re-materialized or re-replayed.
  if (C)
    V.SeedBase = C->RetiredLen;
  const std::size_t Kept = P.Len - V.SeedBase;
  const std::uint64_t Salt = memberSalt(I);
  // The state the run adopts: the chain end's in place (a Yes moves it to
  // the new leaf), a shorter point's as a copy in the spare, so that the
  // point outlives the run. Without one (the boundary before any
  // retirement) an in-place run hands the engine the chain end's to
  // capture its leaf into; the engine adopts it only when it sits at the
  // seed's end, as for a slin chain that is exactly the init LCP.
  FrontierState *Retained = InPlace ? &C->Replay : nullptr;
  if (P.State) {
    if (!V.SequenceSensitive && P.State->State) {
      // The root's memo key, so that its probe window is resident by the
      // time the engine has set the run up.
      const std::uint64_t Committed =
          InPlace ? (P.Rows == 64 ? ~0ull : (1ull << P.Rows) - 1) : 0;
      Memo.prefetch(hashCombine(
          hashCombine(hashCombine(detail::mix64(Salt), Committed),
                      P.State->State->digest()),
          P.State->UsedHash));
    }
    if (P.State != &C->Replay) {
      if (!Spare)
        Spare = std::make_unique<FrontierState>();
      Spare->assign(*P.State);
      Retained = Spare.get();
    }
  }
  InputId *TailIds = nullptr;
  std::pair<std::size_t, std::size_t> *TailRows = nullptr;
  std::size_t NumTailIds = 0, NumTailRows = 0;
  if (InPlace) {
    NumTailIds = C->Master.size() - Kept;
    NumTailRows = C->Commits.size() - P.Rows;
    TailIds = Scratch.allocArray<InputId>(NumTailIds);
    TailRows = Scratch.allocArray<std::pair<std::size_t, std::size_t>>(
        NumTailRows);
    std::copy(C->Master.end() - static_cast<std::ptrdiff_t>(NumTailIds),
              C->Master.end(), TailIds);
    std::copy(C->Commits.end() - static_cast<std::ptrdiff_t>(NumTailRows),
              C->Commits.end(), TailRows);
    Out.Master.swap(C->Master);
    Out.Commits.swap(C->Commits);
    if (Kept) {
      V.Seed = Out.Master.data();
      V.SeedLen = Kept;
    }
    V.SeedRows = Out.Commits.data();
    V.NumSeedRows = P.Rows;
    V.SeedCommitted = P.Rows == 64 ? ~0ull : (1ull << P.Rows) - 1;
  }
  V.Retained = Retained;
  ChainSearch(Interner, Memo, Scratch).run(V, L, Salt, Out);
  Stats.Search.accumulate(Out.Stats);
  if (!InPlace)
    return;
  if (Out.Outcome == Verdict::Yes) {
    // The accepting leaf is the chain's new end (the old end state becomes
    // the spare); a cut past the point no longer describes the chain.
    if (Retained == Spare.get())
      std::swap(C->Replay, *Spare);
    if (C->Cut && C->Cut->Len > P.Len)
      C->Cut->Valid = false;
  } else {
    // A failed run left the seed (a refused one, the whole chain); put
    // back what followed the point.
    Out.Master.resize(Kept);
    Out.Commits.resize(P.Rows);
    Out.Master.insert(Out.Master.end(), TailIds, TailIds + NumTailIds);
    Out.Commits.insert(Out.Commits.end(), TailRows, TailRows + NumTailRows);
  }
  Out.Master.swap(C->Master);
  Out.Commits.swap(C->Commits);
  if (Out.Outcome == Verdict::Yes)
    realign(*C, P.Rows); // Only the rows past the point are new.
}

bool WindowedSession::fastStep(bool WantWitness, std::uint64_t Left,
                               LinCheckResult &R) {
  // The steady-state shape: a cached Yes, exactly one new obligation, and
  // per-member chains the engine would adopt verbatim. Each member's
  // resumed run then degenerates to one node — adopt, probe the memo,
  // check the new obligation's deficit (shared window row plus the
  // member's init overlay) and endpoint, apply one input, reach the
  // all-committed leaf. This inlines that node per member over the SoA
  // window with bit-identical verdicts, stats and retained state, touching
  // no heap. Any miss for any member undoes the applied inputs and returns
  // false with the session untouched (beyond memo prefetches).
  if (WantWitness || Left == 0 || PinnedByAborts || NewNonResponse ||
      NewResponses != 1 || !HaveResult || Cached != Verdict::Yes)
    return false;
  const std::size_t N = Obligations.size();
  if (N == 0 || N > 64)
    return false;
  const std::size_t Members = members();
  if (Members == 0)
    return false;
  // The uncommitted obligation is necessarily the newest: every chain
  // holds the previous window's commits, and the window grew by one.
  const std::size_t Q = N - 1;
  const std::uint64_t FullMask = N == 64 ? ~0ull : (1ull << N) - 1;
  const std::uint64_t Committed = FullMask & ~(1ull << Q);
  if (Obligations.mustFollow(Q) & ~Committed)
    return false; // Defensive; a prefix mask can never trip this.

  Scratch.reset();
  const InputId In = Obligations.in(Q);
  const InputId A = Interner.size();
  const std::int32_t *Row = Obligations.availRow(Q);
  FastUndoScratch.clear();
  auto Rollback = [&] {
    for (auto &[C, U] : FastUndoScratch)
      C->Replay.State->undoInput(U);
    return false;
  };
  for (std::size_t I = 0; I != Members; ++I) {
    RetainedChain *C = chain(I);
    if (!C || (WindowBase != 0 && C->RetiredRows != WindowBase) ||
        C->Commits.size() + 1 != N)
      return Rollback();
    // Mirror the engine's frontier-adoption conditions exactly.
    FrontierState &F = C->Replay;
    if (!F.Valid || !F.State ||
        F.Len != C->RetiredLen + C->Master.size() || F.Len == 0 ||
        F.Used.size() > A || F.Used.size() > Obligations.stride())
      return Rollback();
    // The member's init overlay, snapshotted by its last full run; a chain
    // that has not seen every init action falls back to the full sweep.
    const std::int32_t *Init = C->InitDense.data();
    const std::size_t InitLen = NumInits ? C->InitDense.size() : 0;
    if (NumInits && C->InitUpTo != NumInits)
      return Rollback();

    const std::uint64_t Key = hashCombine(
        hashCombine(hashCombine(detail::mix64(memberSalt(I)), Committed),
                    F.State->digest()),
        F.UsedHash);
    Memo.prefetch(Key);

    // Branchless deficit scan over the newest obligation's availability
    // (the engine computes Deficit[Q] on adoption; committed obligations'
    // deficits are moot). Ids beyond the frontier's dense range are unused.
    const std::int32_t *Used = F.Used.data();
    const std::size_t UsedLen = F.Used.size();
    bool Over = false;
    if (InitLen == 0)
      for (std::size_t Id = 0; Id != UsedLen; ++Id)
        Over |= Used[Id] > Row[Id];
    else
      for (std::size_t Id = 0; Id != UsedLen; ++Id)
        Over |= Used[Id] > Row[Id] + (Id < InitLen ? Init[Id] : 0);
    // Endpoint check: committing Q consumes one more of its input.
    const std::int32_t UsedIn = In < UsedLen ? Used[In] : 0;
    const std::int32_t InitIn = In < InitLen ? Init[In] : 0;
    // Memo probe, short-circuit order as in the engine: a hit means the
    // engine would fail this subtree and fall back to the root search — let
    // it run the whole thing for identical accounting.
    if (Over || UsedIn + 1 > Row[In] + InitIn || Memo.contains(Key))
      return Rollback();
    UndoToken U;
    if (F.State->applyInput(Interner.input(In), U, Scratch) !=
        Obligations.out(Q)) {
      F.State->undoInput(U);
      return Rollback();
    }
    FastUndoScratch.push_back({C, U});
  }

  // Every member committed: a guaranteed Yes. Advance each chain in place
  // exactly as the engine's leaf capture would.
  for (auto &[C, U] : FastUndoScratch) {
    (void)U;
    FrontierState &F = C->Replay;
    if (F.Used.size() < A)
      F.Used.resize(A, 0); // Amortized: only when the alphabet grew.
    const std::int32_t Count = F.Used[In]++;
    if (Count > 0)
      F.UsedHash ^= detail::pairMix(In, Count);
    F.UsedHash ^= detail::pairMix(In, Count + 1);
    F.HasSeqHash = false;
    F.SeqHash = 0;
    ChainStats S;
    S.Nodes = 1;
    S.CommitMoves = 1;
    S.LeafChecks = 1;
    S.SeedStepsSkipped = F.Len;
    Stats.Search.accumulate(S);
    ++Stats.FrontierResumes;
    ++F.Len;
    C->Master.push_back(In);
    C->Commits.push_back({Obligations.tag(Q), F.Len});
    // The chain committed the previous window, [0, Q), and now commits Q.
    C->Aligned |= 1ull << Q;
  }
  ++Stats.FastPathVerdicts;
  R.Outcome = Verdict::Yes;
  R.NodesExplored = FastUndoScratch.size();
  return true;
}

//===----------------------------------------------------------------------===//
// The verdict ladder
//===----------------------------------------------------------------------===//

void WindowedSession::seal(LinCheckResult &R) {
  Stats.record(R.Outcome);
  // gradeFor(Outcome) everywhere except an excursion's BoundedYes, graded
  // where it was decided.
  if (R.Grade != VerdictGrade::BoundedYes)
    R.Grade = gradeFor(R.Outcome);
  NewResponses = 0;
  NewNonResponse = false;
  CacheStale = false;
}

void WindowedSession::decide(const LinCheckOptions &Limits,
                             LinCheckResult &R) {
  if (HaveResult && !CacheStale && Cached == Verdict::No) {
    R.Outcome = Verdict::No; // No is final under monotone extension.
    R.Reason = CachedReason;
    return seal(R);
  }
  // The nodes the verdict may still spend (R.NodesExplored counts what it
  // spent).
  std::uint64_t Left = Limits.NodeBudget;
  // An excursion that closes leaves the rest of the budget to the ladder.
  if (overflowed() && decideExcursion(Left, R))
    return seal(R);
  if (RetiredStale) {
    // A delta capped the frozen retired region (an abort after
    // retirement): nothing sound can be concluded short of re-checking it,
    // and it is gone.
    ++Stats.WindowRetiredUnknowns;
    R.Outcome = Verdict::Unknown;
    R.Reason = WindowRetiredReason;
    return seal(R);
  }
  if (HaveResult && !CacheStale && Cached == Verdict::Yes &&
      NewResponses == 0 && !NewNonResponse) {
    // Nothing but invocations since the Yes: same obligations, same
    // chains, and so the same witnesses.
    R.Outcome = Verdict::Yes;
    return seal(R);
  }
  if (fastStep(Limits.WantWitness, Left, R))
    return seal(R);
  if (Left == 0) {
    // No node to spend: answer before any member is prepared.
    HaveResult = false;
    R.Outcome = Verdict::Unknown;
    R.Reason = NodeBudgetReason;
    R.BudgetLimited = true;
    return seal(R);
  }

  // Per member, the seed points of its chain, longest first: its end (the
  // accepting leaf), its last aligned quiescent cut, which reopens only
  // what the new responses are concurrent with, and its boundary (the
  // root, behind the retired prefix if any). A No from a longer point only
  // rules out what lies past it, so only the boundary concludes one; a Yes
  // from any point is a complete witness. The points share one prepared
  // view, and each runs on what the longer ones left of the member's
  // budget: all the verdict has left, for every member.
  R.Outcome = Verdict::Yes;
  const std::size_t Members = members();
  for (std::size_t I = 0; I != Members; ++I) {
    // A member without a chain runs against a scratch chain, admitted only
    // if it captured something (see Chains).
    std::optional<RetainedChain> Fresh;
    RetainedChain *C = chain(I);
    const bool IsFresh = !C;
    if (IsFresh)
      C = &Fresh.emplace();
    ChainResult Run;
    if (WindowBase != 0 && (IsFresh || C->RetiredRows != WindowBase)) {
      // A member without a chain at the retirement depth cannot validate
      // the retired obligations (they left the window).
      ++Stats.WindowRetiredUnknowns;
      Run.Outcome = Verdict::Unknown;
      Run.Reason = WindowRetiredReason;
    } else {
      ChainProblemView V;
      prepareMember(I, Obligations.size(), V);
      const SeedPoint Boundary = boundaryPoint(C);
      // The end's rows are the whole chain; they must commit exactly a
      // window prefix to be pre-committed by position (defense in depth —
      // reset() drops every chain; the cut is an aligned prefix by
      // construction).
      SeedPoint P = Boundary;
      if (!C->Master.empty() && alignedAtEnd(*C))
        P = {C->Commits.size(), C->RetiredLen + C->Master.size(), &C->Replay};
      ChainLimits Budget{Left};
      for (std::uint64_t Nodes = 0;;) {
        const bool AtEnd = P.State == &C->Replay;
        const bool AtBoundary = P.State == Boundary.State;
        if (AtEnd)
          ++Stats.FrontierResumes;
        if (AtBoundary)
          ++Stats.RootSearches;
        runFrom(I, C, P, V, Budget, Run);
        Run.Stats.Nodes += Nodes;
        Nodes = Run.Stats.Nodes;
        if (Run.Outcome == Verdict::Yes && !AtEnd && !AtBoundary)
          ++Stats.CutResumes;
        if (Run.Outcome != Verdict::No || AtBoundary)
          break;
        const std::optional<SeedPoint> Cut =
            AtEnd ? advanceCut(*C) : std::nullopt;
        P = Cut ? *Cut : Boundary;
        Budget.NodeBudget = Left - std::min(Left, Nodes);
        if (Budget.NodeBudget == 0) {
          Run.Outcome = Verdict::Unknown;
          Run.Reason = NodeBudgetReason;
          Run.BudgetLimited = true;
          break;
        }
      }
    }
    if (Run.Outcome == Verdict::No)
      shapeNo(Run);
    if (Run.Outcome == Verdict::No && WindowBase != 0) {
      // Complete over completions of the member's pinned retired chain
      // only: a different linearization of the retired region might have
      // worked, so a conclusive No is not sound here.
      ++Stats.WindowRetiredUnknowns;
      Run.Outcome = Verdict::Unknown;
      Run.Reason = WindowRetiredReason;
      Run.BudgetLimited = false;
    }
    R.NodesExplored += Run.Stats.Nodes;
    if (Run.Outcome == Verdict::Yes)
      memberYes(I, *C);
    if (IsFresh && (!Fresh->Master.empty() || !Fresh->Aborts.empty()))
      admit(I, std::move(*Fresh));
    if (Run.Outcome != Verdict::Yes) {
      R.Outcome = Run.Outcome;
      R.Reason = std::move(Run.Reason);
      R.BudgetLimited = Run.BudgetLimited;
      break;
    }
  }
  HaveResult = R.Outcome != Verdict::Unknown;
  Cached = R.Outcome;
  if (R.Outcome == Verdict::No)
    CachedReason = R.Reason;
  return seal(R);
}

//===----------------------------------------------------------------------===//
// Witnesses, the freeze, reset, footprint
//===----------------------------------------------------------------------===//

void WindowedSession::resetResult(LinCheckResult &R) {
  R.Outcome = Verdict::No;
  R.Reason.clear();
  R.Witness.Master.clear();
  R.Witness.Commits.clear();
  R.NodesExplored = 0;
  R.BudgetLimited = false;
  R.Grade = VerdictGrade::No;
  R.Interference = 0;
}

void WindowedSession::freeze() {
  // The window at the No and the interner its ids index are the evidence;
  // what only a later search would use goes.
  Frozen = true;
  Obligations.shrinkToFit();
  Memo.shrinkToInitial();
  Scratch.release();
  Chains = decltype(Chains)();
  Spare.reset();
  CappedScratch = decltype(CappedScratch)();
  DrainRound = decltype(DrainRound)();
  HaveRound = false;
  FastUndoScratch = decltype(FastUndoScratch)();
}

void WindowedSession::completeWitness(const RetainedChain &C, History &Master,
                                      Rows &Commits) const {
  // Without witness retention the retired ids/rows were never stored (both
  // stay empty); the witness is then the live-window (post-retirement)
  // chain alone.
  Master = Interner.history(C.RetiredMaster);
  const History Live = Interner.history(C.Master);
  Master.insert(Master.end(), Live.begin(), Live.end());
  Commits = C.RetiredCommits;
  Commits.insert(Commits.end(), C.Commits.begin(), C.Commits.end());
}

void WindowedSession::resetCore() {
  Builder.clear();
  Obligations.clear();
  std::fill(Invoked.begin(), Invoked.end(), 0);
  OpenStart.clear();
  Doomed = false;
  DoomReason.clear();
  Frozen = false;
  WindowBase = 0;
  OverflowNoted = false;
  HaveRound = false;
  newEpoch();
  HaveResult = false;
  NewResponses = 0;
  NewNonResponse = false;
  CacheStale = false;
  PinnedByAborts = false;
  RetiredStale = false;
  NumInits = 0;
  Scratch.reset();
  // Chains of an unrelated trace are meaningless (their commit tags index
  // the old trace): discard, don't just invalidate.
  Chains.clear();
}

std::size_t WindowedSession::coreBytes() const {
  std::size_t ChainBytes =
      Chains.capacity() * sizeof(std::pair<std::uint64_t, RetainedChain>);
  for (const auto &[Key, C] : Chains)
    ChainBytes += C.memoryBytes();
  if (Spare)
    ChainBytes += sizeof(FrontierState) +
                  Spare->Used.capacity() * sizeof(std::int32_t);
  return ChainBytes + Memo.memoryBytes() + Scratch.reservedBytes() +
         Interner.memoryBytes() + Obligations.memoryBytes() +
         Invoked.capacity() * sizeof(std::int32_t) +
         OpenStart.capacity() * sizeof(std::size_t) +
         CappedScratch.capacity() * sizeof(CommitObligation) +
         DrainRound.capacity() * sizeof(ChainResult) +
         FastUndoScratch.capacity() *
             sizeof(std::pair<RetainedChain *, UndoToken>) +
         Builder.trace().capacity() * sizeof(Action);
}
