//===- tests/order_relation_test.cpp - Pluggable happens-before -----------==//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//
//
// The relation-parameterized order layer (engine/OrderRelation.h): the
// relation's pairwise semantics, its mask derivations over the SoA live
// window, the TSO store-buffer litmus family (batch and incremental, lin
// and slin), and the retirement gate that keeps the windowed sessions
// sound under relations weaker than Strict — a slot may fold out of the
// window only when the relation can promise no future operation will ever
// need to be ordered before it.
//
// The abort-pinned structured reason also lands here: an abort-carrying
// slin stream that overflows the window can neither drain (aborts disable
// retirement) nor take the bounded first-64 fallback (abort budgets cap
// every slot), and that dead end must be reported as its own stable
// reason, not folded into the generic overflow Unknown.
//
//===----------------------------------------------------------------------===//

#include "adt/KvStore.h"
#include "adt/Register.h"
#include "engine/Incremental.h"
#include "engine/OrderRelation.h"
#include "service/Service.h"
#include "slin/InitRelation.h"
#include "trace/TraceIo.h"

#include <gtest/gtest.h>

#include <memory>

using namespace slin;

namespace {

LinCheckOptions withOrder(OrderRelationKind K) {
  LinCheckOptions Opts;
  Opts.Order = K;
  return Opts;
}

IncrementalOptions incrementalWithOrder(OrderRelationKind K) {
  IncrementalOptions Opts;
  Opts.Order = K;
  return Opts;
}

/// Streams \p T through a session under \p K, asserting per-prefix verdict
/// agreement with batch checking under the same relation.
void expectIncrementalMatchesBatch(const Adt &Type, const Trace &T,
                                   OrderRelationKind K) {
  IncrementalLinSession Inc(Type, incrementalWithOrder(K));
  Trace Prefix;
  for (const Action &A : T) {
    Inc.append(A);
    Prefix.push_back(A);
    LinCheckResult FromInc = Inc.verdict();
    LinCheckResult Batch = checkLinearizable(Prefix, Type, withOrder(K));
    ASSERT_EQ(FromInc.Outcome, Batch.Outcome)
        << orderRelationName(K) << " session disagrees with batch at prefix "
        << Prefix.size() << ":\n"
        << formatTrace(Prefix);
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Relation semantics.
//===----------------------------------------------------------------------===//

TEST(OrderRelationTest, ParseAndName) {
  OrderRelationKind K = OrderRelationKind::Strict;
  EXPECT_TRUE(parseOrderRelation("strict", K));
  EXPECT_EQ(K, OrderRelationKind::Strict);
  EXPECT_TRUE(parseOrderRelation("tso", K));
  EXPECT_EQ(K, OrderRelationKind::TsoHb);
  EXPECT_FALSE(parseOrderRelation("sc", K));
  EXPECT_FALSE(parseOrderRelation("", K));
  EXPECT_STREQ(orderRelationName(OrderRelationKind::Strict), "strict");
  EXPECT_STREQ(orderRelationName(OrderRelationKind::TsoHb), "tso");
}

TEST(OrderRelationTest, PairwiseSemantics) {
  OrderRelation Strict(OrderRelationKind::Strict);
  OrderRelation Tso(OrderRelationKind::TsoHb);

  // No relation orders a response after (or at) the later op's invocation.
  EXPECT_FALSE(Strict.orders(5, 0, 0, 5, 1));
  EXPECT_FALSE(Tso.orders(5, 0, ActionMetaFlushed, 5, 1));

  // Strict orders on real time alone.
  EXPECT_TRUE(Strict.orders(2, 0, 0, 5, 1));
  // TsoHb: same client is program order — always ordered.
  EXPECT_TRUE(Tso.orders(2, 3, 0, 5, 3));
  // TsoHb: cross-client order needs the earlier response flushed.
  EXPECT_FALSE(Tso.orders(2, 0, 0, 5, 1));
  EXPECT_TRUE(Tso.orders(2, 0, ActionMetaFlushed, 5, 1));

  // TsoHb is a sub-relation of Strict: whenever it orders, Strict does.
  for (std::uint32_t Meta : {0u, ActionMetaFlushed})
    for (ClientId C : {ClientId(0), ClientId(1)})
      if (Tso.orders(2, C, Meta, 5, 0)) {
        EXPECT_TRUE(Strict.orders(2, C, Meta, 5, 0));
      }

  // The retirement guarantee: Strict slots always precede the future;
  // TsoHb can only promise that for flushed slots.
  EXPECT_TRUE(Strict.orderedBeforeAllFuture(0, 0));
  EXPECT_FALSE(Tso.orderedBeforeAllFuture(0, 0));
  EXPECT_TRUE(Tso.orderedBeforeAllFuture(0, ActionMetaFlushed));
}

//===----------------------------------------------------------------------===//
// Mask derivations over the live window.
//===----------------------------------------------------------------------===//

TEST(OrderRelationTest, WindowMasksStrictVsTso) {
  // Three committed responses with increasing tags, clients 0/1/0, the
  // middle one flushed; a fourth response invoked after all of them.
  //
  //   slot 0: client 0, tag 1, unflushed
  //   slot 1: client 1, tag 3, flushed
  //   slot 2: client 0, tag 5, unflushed
  //
  // A client-1 response invoked at 7 must follow: everything under
  // Strict; under TsoHb slot 1 (same client... no — flushed) and nothing
  // else unless same-client. Client 1: slot 1 is same client AND flushed;
  // slots 0/2 are client 0 and unflushed — unordered.
  LiveWindow W;
  const std::vector<std::int32_t> NoAvail;
  W.pushResponse(1, 0, Output{0}, 0, 0, /*Client=*/0, /*Meta=*/0, NoAvail);
  W.pushResponse(3, 1, Output{0}, 2, 0, /*Client=*/1, ActionMetaFlushed,
                 NoAvail);
  W.pushResponse(5, 2, Output{0}, 4, 0, /*Client=*/0, /*Meta=*/0, NoAvail);

  OrderRelation Strict(OrderRelationKind::Strict);
  OrderRelation Tso(OrderRelationKind::TsoHb);

  EXPECT_EQ(Strict.pushMask(W, /*InvokeIdx=*/7, /*Client=*/1), 0b111u);
  EXPECT_EQ(Tso.pushMask(W, /*InvokeIdx=*/7, /*Client=*/1), 0b010u);
  // Client 0 invoking at 7: slots 0 and 2 are program order, slot 1 is
  // flushed — all three ordered, same as Strict.
  EXPECT_EQ(Tso.pushMask(W, /*InvokeIdx=*/7, /*Client=*/0), 0b111u);
  // An invocation concurrent with everything must-follows nothing.
  EXPECT_EQ(Strict.pushMask(W, /*InvokeIdx=*/0, /*Client=*/1), 0u);
  EXPECT_EQ(Tso.pushMask(W, /*InvokeIdx=*/0, /*Client=*/1), 0u);

  // maskOver(Q) recomputes slot Q's mask over its predecessors: slot 2
  // (client 0, invoked at 4) must follow slot 0 (program order) under
  // TsoHb but not slot 1 — no wait, slot 1 is flushed with tag 3 < 4:
  // ordered. Under both relations the answer is the full prefix {0, 1}.
  EXPECT_EQ(Strict.maskOver(W, 2), 0b11u);
  EXPECT_EQ(Tso.maskOver(W, 2), 0b11u);
  // Slot 1 (client 1, invoked at 2): slot 0 has tag 1 < 2, client 0,
  // unflushed — ordered under Strict only.
  EXPECT_EQ(Strict.maskOver(W, 1), 0b1u);
  EXPECT_EQ(Tso.maskOver(W, 1), 0u);

  // rebuildMasks writes exactly maskOver(Q) into every slot.
  Tso.rebuildMasks(W);
  EXPECT_EQ(W.mustFollow(1), 0u);
  EXPECT_EQ(W.mustFollow(2), 0b11u);
  Strict.rebuildMasks(W);
  EXPECT_EQ(W.mustFollow(1), 0b1u);
  EXPECT_EQ(W.mustFollow(2), 0b11u);

  // The retirement gate: Strict retires any prefix; TsoHb stops at the
  // first unflushed slot (slot 0 here — nothing retires).
  EXPECT_EQ(Strict.retirablePrefix(W, W.size()), 3u);
  EXPECT_EQ(Tso.retirablePrefix(W, W.size()), 0u);
}

TEST(OrderRelationTest, RetirablePrefixStopsAtFirstUnflushedSlot) {
  LiveWindow W;
  const std::vector<std::int32_t> NoAvail;
  W.pushResponse(1, 0, Output{0}, 0, 0, 0, ActionMetaFlushed, NoAvail);
  W.pushResponse(3, 1, Output{0}, 2, 0, 1, ActionMetaFlushed, NoAvail);
  W.pushResponse(5, 2, Output{0}, 4, 0, 0, /*Meta=*/0, NoAvail);
  W.pushResponse(7, 3, Output{0}, 6, 0, 1, ActionMetaFlushed, NoAvail);

  OrderRelation Tso(OrderRelationKind::TsoHb);
  EXPECT_EQ(Tso.retirablePrefix(W, W.size()), 2u);
  // The limit caps the scan.
  EXPECT_EQ(Tso.retirablePrefix(W, 1), 1u);
  OrderRelation Strict(OrderRelationKind::Strict);
  EXPECT_EQ(Strict.retirablePrefix(W, W.size()), 4u);
}

//===----------------------------------------------------------------------===//
// The store-buffer litmus: the verdict family TsoHb exists for.
//===----------------------------------------------------------------------===//

namespace {

/// w(1) responds unflushed on client 0; client 1 then invokes a read that
/// returns the *initial* value. Real-time order forbids that (the write
/// completed first); TSO happens-before permits it (the write may still
/// sit in client 0's store buffer).
Trace storeBufferLitmus(std::uint32_t WriteMeta) {
  RegisterAdt Reg;
  std::unique_ptr<AdtState> Fresh = Reg.makeState();
  Output WroteOut = Fresh->apply(reg::write(1));
  Output StaleOut = Reg.makeState()->apply(reg::read());
  Trace T;
  T.push_back(makeInvoke(0, 1, reg::write(1)));
  Action WriteRes = makeRespond(0, 1, reg::write(1), WroteOut);
  WriteRes.Meta = WriteMeta;
  T.push_back(WriteRes);
  T.push_back(makeInvoke(1, 1, reg::read()));
  T.push_back(makeRespond(1, 1, reg::read(), StaleOut));
  return T;
}

} // namespace

TEST(OrderRelationTest, StoreBufferStaleReadIsTsoOnlyLinearizable) {
  RegisterAdt Reg;
  Trace T = storeBufferLitmus(/*WriteMeta=*/0);
  EXPECT_EQ(checkLinearizable(T, Reg, withOrder(OrderRelationKind::Strict))
                .Outcome,
            Verdict::No);
  EXPECT_EQ(
      checkLinearizable(T, Reg, withOrder(OrderRelationKind::TsoHb)).Outcome,
      Verdict::Yes);
}

TEST(OrderRelationTest, FlushedWriteRestoresTheStrictVerdict) {
  // A flushed write anchors cross-client order: the stale read is a
  // violation under both relations.
  RegisterAdt Reg;
  Trace T = storeBufferLitmus(ActionMetaFlushed);
  EXPECT_EQ(checkLinearizable(T, Reg, withOrder(OrderRelationKind::Strict))
                .Outcome,
            Verdict::No);
  EXPECT_EQ(
      checkLinearizable(T, Reg, withOrder(OrderRelationKind::TsoHb)).Outcome,
      Verdict::No);
}

TEST(OrderRelationTest, ProgramOrderSurvivesTso) {
  // The same shape on ONE client: its own earlier write is program order,
  // so the stale read stays a violation under TsoHb.
  RegisterAdt Reg;
  Trace T = storeBufferLitmus(/*WriteMeta=*/0);
  for (Action &A : T)
    A.Client = 0;
  EXPECT_EQ(
      checkLinearizable(T, Reg, withOrder(OrderRelationKind::TsoHb)).Outcome,
      Verdict::No);
}

TEST(OrderRelationTest, IncrementalLitmusMatchesBatchUnderBothRelations) {
  RegisterAdt Reg;
  for (std::uint32_t Meta : {0u, ActionMetaFlushed}) {
    Trace T = storeBufferLitmus(Meta);
    expectIncrementalMatchesBatch(Reg, T, OrderRelationKind::Strict);
    expectIncrementalMatchesBatch(Reg, T, OrderRelationKind::TsoHb);
  }
}

TEST(OrderRelationTest, TsoInvocationRetractsACachedNoSoOnlyStrictFreezes) {
  // A read of 1 responds, unflushed, before any write is invoked: No under
  // both relations. Under TsoHb the read stays unordered with a later
  // cross-client write(1), whose invocation credits the read's row and
  // retracts the No; a session there must not freeze. Under Strict the No
  // is final and the session freezes at it.
  RegisterAdt Reg;
  Trace T;
  T.push_back(makeInvoke(0, 1, reg::read()));
  T.push_back(makeRespond(0, 1, reg::read(), Output{1}));
  IncrementalLinSession Strict(Reg,
                               incrementalWithOrder(OrderRelationKind::Strict));
  IncrementalLinSession Tso(Reg,
                            incrementalWithOrder(OrderRelationKind::TsoHb));
  for (const Action &A : T) {
    ASSERT_TRUE(static_cast<bool>(Strict.append(A)));
    ASSERT_TRUE(static_cast<bool>(Tso.append(A)));
  }
  EXPECT_EQ(Strict.verdict().Outcome, Verdict::No);
  EXPECT_EQ(Tso.verdict().Outcome, Verdict::No);
  EXPECT_TRUE(Strict.frozen());
  EXPECT_FALSE(Tso.frozen());

  T.push_back(makeInvoke(1, 1, reg::write(1)));
  ASSERT_TRUE(static_cast<bool>(Strict.append(T.back())));
  ASSERT_TRUE(static_cast<bool>(Tso.append(T.back())));
  EXPECT_EQ(Strict.verdict().Outcome, Verdict::No);
  EXPECT_EQ(Tso.verdict().Outcome, Verdict::Yes);
  EXPECT_EQ(Strict.stats().FrozenAppends, 1u);
  EXPECT_EQ(Tso.stats().FrozenAppends, 0u);
  expectIncrementalMatchesBatch(Reg, T, OrderRelationKind::Strict);
  expectIncrementalMatchesBatch(Reg, T, OrderRelationKind::TsoHb);
}

//===----------------------------------------------------------------------===//
// Relation-aware retirement on unbounded streams.
//===----------------------------------------------------------------------===//

namespace {

/// \p Ops fully-sequential KV operations on one client, every response
/// carrying \p Meta. Sequential rounds quiesce after every response, so a
/// Strict session retires freely and the stream runs forever.
Trace sequentialKvStream(unsigned Ops, std::uint32_t Meta) {
  KvStoreAdt Kv;
  std::unique_ptr<AdtState> S = Kv.makeState();
  Trace T;
  for (unsigned I = 0; I != Ops; ++I) {
    Input In = (I % 2) ? kv::get(1) : kv::put(1, I);
    T.push_back(makeInvoke(0, 1, In));
    Action R = makeRespond(0, 1, In, S->apply(In));
    R.Meta = Meta;
    T.push_back(R);
  }
  return T;
}

} // namespace

TEST(OrderRelationTest, UnflushedStreamCannotRetireUnderTso) {
  // 80 sequential unflushed ops: Strict retires at every quiescent cut and
  // stays definitively Yes; TsoHb cannot promise any slot precedes future
  // operations, so nothing retires and the window overflows into the
  // stable structural Unknown. Sound — just conservative — and exactly
  // the behavior the retirement gate exists to force.
  KvStoreAdt Kv;
  Trace T = sequentialKvStream(80, /*Meta=*/0);

  IncrementalOptions StrictOpts = incrementalWithOrder(OrderRelationKind::Strict);
  IncrementalLinSession StrictInc(Kv, StrictOpts);
  for (const Action &A : T)
    StrictInc.append(A);
  EXPECT_EQ(StrictInc.verdict().Outcome, Verdict::Yes);
  EXPECT_GT(StrictInc.retiredObligations(), 0u);

  IncrementalOptions TsoOpts = incrementalWithOrder(OrderRelationKind::TsoHb);
  TsoOpts.InterferenceBound = 0; // Flat overflow Unknown, no graded fallback.
  IncrementalLinSession TsoInc(Kv, TsoOpts);
  for (const Action &A : T)
    TsoInc.append(A);
  LinCheckResult R = TsoInc.verdict();
  EXPECT_EQ(TsoInc.retiredObligations(), 0u);
  EXPECT_EQ(R.Outcome, Verdict::Unknown);
  EXPECT_EQ(R.Reason, WindowOverflowReason);
}

TEST(OrderRelationTest, FlushedStreamRetiresIdenticallyUnderTso) {
  // All-flushed responses: TsoHb's masks and retirement cuts coincide with
  // Strict's, so the weak session keeps the definitive verdict, retires,
  // and spends identical nodes.
  KvStoreAdt Kv;
  Trace T = sequentialKvStream(80, ActionMetaFlushed);

  IncrementalLinSession StrictInc(Kv,
                                  incrementalWithOrder(OrderRelationKind::Strict));
  IncrementalLinSession TsoInc(Kv,
                               incrementalWithOrder(OrderRelationKind::TsoHb));
  for (const Action &A : T) {
    StrictInc.append(A);
    TsoInc.append(A);
    LinCheckResult RS = StrictInc.verdict();
    LinCheckResult RT = TsoInc.verdict();
    ASSERT_EQ(RS.Outcome, RT.Outcome);
    ASSERT_EQ(RS.NodesExplored, RT.NodesExplored);
  }
  EXPECT_EQ(StrictInc.retiredObligations(), TsoInc.retiredObligations());
  EXPECT_GT(TsoInc.retiredObligations(), 0u);
  EXPECT_EQ(TsoInc.stats().WindowOverflows, 0u);
}

//===----------------------------------------------------------------------===//
// The abort-pinned structured reason (slin).
//===----------------------------------------------------------------------===//

namespace {

/// Client 0 opens an operation at trace index 0 (pinning the quiescent cut
/// so nothing ever retires), client 1 streams \p Rounds sequential
/// completions to overflow the 64-slot window, and client 0 then aborts
/// out of the phase. The standing abort disables both the drain and the
/// bounded fallback, so the overflow becomes a permanent pinned Unknown —
/// and the abort history extends every commit history (Abort Order), so
/// no intermediate verdict can conclude No first.
Trace abortThenOverflow(unsigned Rounds, UniversalInitRelation &Rel) {
  KvStoreAdt Kv;
  std::unique_ptr<AdtState> S = Kv.makeState();
  Trace T;
  Input Aborted = kv::put(9, 9);
  T.push_back(makeInvoke(0, 1, Aborted));
  History Committed;
  for (unsigned I = 0; I != Rounds; ++I) {
    Input In = (I % 2) ? kv::get(1) : kv::put(1, I);
    T.push_back(makeInvoke(1, 1, In));
    T.push_back(makeRespond(1, 1, In, S->apply(In)));
    Committed.push_back(In);
  }
  T.push_back(makeSwitch(0, 2, Aborted, Rel.encode(Committed)));
  return T;
}

} // namespace

TEST(OrderRelationTest, AbortPinnedOverflowReportsStructuredReason) {
  KvStoreAdt Kv;
  PhaseSignature Sig(1, 2);
  UniversalInitRelation Rel;
  IncrementalSlinSession Session(Kv, Sig, Rel);
  for (const Action &A : abortThenOverflow(70, Rel)) {
    WellFormedness W = Session.append(A);
    ASSERT_TRUE(W.Ok) << W.Reason;
  }
  SlinVerdict R = Session.verdict();
  EXPECT_EQ(R.Outcome, Verdict::Unknown);
  EXPECT_EQ(R.Reason, WindowAbortPinnedReason)
      << "abort-pinned overflow must not report the generic overflow reason";
  EXPECT_EQ(Session.retiredObligations(), 0u);
}

TEST(OrderRelationTest, AbortPinnedReasonSurfacesThroughTheService) {
  // The same dead end over the service wire: the shard's standing reason
  // must carry the structured tag to the composed verdict's consumer.
  KvStoreAdt Kv;
  PhaseSignature Sig(1, 2);
  UniversalInitRelation Rel;
  ServiceConfig Config;
  MonitorService Service(Kv, Sig, Rel, Config);
  std::string Buf;
  for (const Action &A : abortThenOverflow(70, Rel)) {
    Buf.clear();
    appendServiceLine(Buf, /*Object=*/3, A);
    ASSERT_TRUE(Service.ingestText(Buf)) << Service.lastError();
  }
  Service.flush();
  EXPECT_EQ(Service.composedVerdict(), Verdict::Unknown);
  EXPECT_EQ(Service.shardReason(3), WindowAbortPinnedReason);
  EXPECT_EQ(Service.culpritObject(), 3u);
}

//===----------------------------------------------------------------------===//
// Order plumbing: options reach every shard session.
//===----------------------------------------------------------------------===//

TEST(OrderRelationTest, ServiceOrderReachesShardSessions) {
  // The litmus through a TsoHb service says Yes; through a Strict service
  // it says No — the config knob must reach the shard's mask derivations.
  RegisterAdt Reg;
  for (OrderRelationKind K :
       {OrderRelationKind::Strict, OrderRelationKind::TsoHb}) {
    ServiceConfig Config;
    Config.Order = K;
    MonitorService Service(Reg, Config);
    std::string Buf;
    for (const Action &A : storeBufferLitmus(/*WriteMeta=*/0)) {
      Buf.clear();
      appendServiceLine(Buf, /*Object=*/0, A);
      ASSERT_TRUE(Service.ingestText(Buf)) << Service.lastError();
    }
    Service.flush();
    EXPECT_EQ(Service.composedVerdict(), K == OrderRelationKind::TsoHb
                                             ? Verdict::Yes
                                             : Verdict::No)
        << orderRelationName(K);
  }
}
