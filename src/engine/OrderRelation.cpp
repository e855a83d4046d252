//===- engine/OrderRelation.cpp -------------------------------------------==//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//

#include "engine/OrderRelation.h"

#include "engine/Incremental.h"

using namespace slin;

const char *slin::orderRelationName(OrderRelationKind K) {
  return K == OrderRelationKind::Strict ? "strict" : "tso";
}

bool slin::parseOrderRelation(std::string_view Name, OrderRelationKind &K) {
  if (Name == "strict") {
    K = OrderRelationKind::Strict;
    return true;
  }
  if (Name == "tso") {
    K = OrderRelationKind::TsoHb;
    return true;
  }
  return false;
}

void OrderRelation::deriveMasks(CommitObligation *Commits, std::size_t N,
                                const OrderSite *Sites) const {
  // The mask word covers obligation indices [0, 64); obligations past it
  // keep mask 0 and never contribute a bit — the caps the old batch loops
  // carried, preserved exactly so Strict node counts stay bit-identical.
  for (std::size_t R = 0; R < N && R < 64; ++R) {
    std::uint64_t M = 0;
    for (std::size_t Q = 0; Q < N && Q < 64; ++Q)
      if (orders(Commits[Q].Tag, Sites[Q].Client, Sites[Q].Meta,
                 Sites[R].InvokeIdx, Sites[R].Client))
        M |= 1ull << Q;
    Commits[R].MustFollow = M;
  }
}

std::uint64_t OrderRelation::pushMask(const LiveWindow &W,
                                      std::size_t InvokeIdx,
                                      ClientId Client) const {
  // Tags are strictly increasing in trace order, so slots that responded
  // before this operation's invocation form the window prefix [0, K) —
  // one binary search, for every relation. Strict orders the whole prefix
  // (the old inline derivation); TsoHb keeps only program-order and
  // flushed-response bits of it.
  std::size_t K = W.lowerBoundTag(InvokeIdx);
  if (K == 0)
    return 0;
  if (isStrict())
    return ~0ull >> (64 - K);
  std::uint64_t M = 0;
  for (std::size_t Q = 0; Q != K; ++Q)
    if (W.client(Q) == Client || (W.meta(Q) & ActionMetaFlushed) != 0)
      M |= 1ull << Q;
  return M;
}

std::uint64_t OrderRelation::maskOver(const LiveWindow &W,
                                      std::size_t Q) const {
  if (Q == 0 || Q > 64)
    return 0; // Out of mask range: never handed to the engine as-is.
  std::uint64_t M = 0;
  std::size_t InvokeIdx = W.invokeIdx(Q);
  ClientId Client = W.client(Q);
  for (std::size_t R = 0; R != Q && R != 64; ++R)
    if (orders(W.tag(R), W.client(R), W.meta(R), InvokeIdx, Client))
      M |= 1ull << R;
  return M;
}

void OrderRelation::rebuildMasks(LiveWindow &W) const {
  // From-first-principles recompute over the live window (tags, invoke
  // indices, clients, and metadata are all retained). Obligations past the
  // 64-bit mask range get mask 0 — they are never handed to the engine
  // while out of range, exactly as the old LiveWindow::rebuildMasks.
  for (std::size_t Q = 0, E = W.size(); Q != E; ++Q)
    W.setMustFollow(Q, Q < 64 ? maskOver(W, Q) : 0);
}

std::size_t OrderRelation::retirablePrefix(const LiveWindow &W,
                                           std::size_t Limit) const {
  if (isStrict())
    return Limit; // The tag test alone is the full guarantee.
  std::size_t K = 0;
  std::size_t E = Limit < W.size() ? Limit : W.size();
  while (K != E && orderedBeforeAllFuture(W.client(K), W.meta(K)))
    ++K;
  return K;
}
