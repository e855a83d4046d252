//===- tests/service_test.cpp - Sharded monitoring service ----------------==//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//
//
// The sharded multi-object monitoring service (src/service/), composed
// verdict and all:
//
//   * the wire format round-trips and rejects malformed lines with exact
//     diagnostics (the object-id prefix is the service's only addition to
//     the hardened base format);
//   * differential: the service's per-shard verdicts on a genuinely
//     multiplexed stream equal the batch checker's verdicts on the
//     per-object projections, and the composed verdict is their
//     conjunction — the composition theorem, checked both ways;
//   * windowed sessions keep retiring past the 64-obligation window on
//     long multi-object streams (composed Yes with retirement active);
//   * one shard's No turns the composed verdict No and names the object
//     (and stays No — absorbing under extension); a pinned shard's
//     Unknown turns it Unknown, and a No on another shard overrides it;
//   * BatchWindow batches publication only: any window yields the same
//     standing verdicts after flush() as per-event publication;
//   * ingest() is the whole pipeline: the composed verdict is current
//     after every call, poll() or not, and an out-of-range object id is
//     counted and dropped, never indexed;
//   * the steady-state service path is allocation-free end to end (this
//     binary interposes operator new — support/AllocGauge.h), and a warm
//     register shard, lin or slin, reserves at most 16 KiB;
//   * ComposedVerdictTracker unit coverage (absorption, culprit and
//     reason tracking, re-reporting, clear()).
//
//===----------------------------------------------------------------------===//

#include "adt/Register.h"
#include "lin/LinChecker.h"
#include "service/Service.h"
#include "slin/Composition.h"
#include "support/AllocGauge.h"
#include "trace/Gen.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

SLIN_DEFINE_ALLOC_GAUGE()

using namespace slin;

namespace {

/// A multiplexed quiescing wire stream over N register objects plus the
/// per-object projections it encodes: each round, every object runs Conc
/// concurrent operations (all invoke, then all respond with the outputs of
/// applying the inputs in invocation order — every round boundary a
/// quiescence cut), rendered as wire lines with global client ids.
class MultiObjectStream {
public:
  MultiObjectStream(std::size_t Objects, unsigned Conc, std::uint64_t Seed)
      : Conc(Conc), R(Seed), Projections(Objects) {
    for (std::size_t K = 0; K != Objects; ++K)
      Models.push_back(Reg.makeState());
  }

  /// Appends one round for every object to \p Out.
  void appendRound(std::string &Out) {
    const Input Alphabet[4] = {reg::read(), reg::write(1), reg::write(2),
                               reg::write(3)};
    for (std::size_t Obj = 0; Obj != Models.size(); ++Obj) {
      Input Ins[8];
      for (unsigned C = 0; C != Conc; ++C) {
        Ins[C] = Alphabet[R.next() % 4];
        record(Out, Obj, makeInvoke(client(Obj, C), 1, Ins[C]));
      }
      for (unsigned C = 0; C != Conc; ++C)
        record(Out, Obj,
               makeRespond(client(Obj, C), 1, Ins[C],
                           Models[Obj]->apply(Ins[C])));
    }
  }

  const Trace &projection(std::size_t Obj) const { return Projections[Obj]; }
  std::size_t objects() const { return Models.size(); }

private:
  ClientId client(std::size_t Obj, unsigned C) const {
    return static_cast<ClientId>(Obj * Conc + C);
  }

  void record(std::string &Out, std::size_t Obj, const Action &A) {
    appendServiceLine(Out, static_cast<ObjectId>(Obj), A);
    Projections[Obj].push_back(A);
  }

  RegisterAdt Reg;
  std::vector<std::unique_ptr<AdtState>> Models;
  unsigned Conc;
  Rng R;
  std::vector<Trace> Projections;
};

std::string formatLine(ObjectId Obj, const Action &A) {
  std::string Out;
  appendServiceLine(Out, Obj, A);
  Out.pop_back(); // appendServiceLine terminates the line; drop the '\n'.
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===//
// Wire format.
//===----------------------------------------------------------------------===//

TEST(ServiceWire, RoundTrip) {
  ServiceRecord R;
  R.Object = 12345;
  R.A = makeInvoke(7, 1, reg::write(42));
  std::string Error;
  ServiceRecord Back;
  ASSERT_EQ(parseServiceLine(formatServiceRecord(R), Back, Error),
            LineKind::Record)
      << Error;
  EXPECT_EQ(Back.Object, R.Object);
  EXPECT_EQ(Back.A, R.A);

  // appendServiceLine renders the same line, newline-terminated.
  EXPECT_EQ(formatLine(R.Object, R.A), formatServiceRecord(R));

  ServiceRecord Resp;
  Resp.Object = 0;
  Resp.A = makeRespond(7, 1, reg::write(42), Output{});
  ASSERT_EQ(parseServiceLine(formatServiceRecord(Resp), Back, Error),
            LineKind::Record)
      << Error;
  EXPECT_EQ(Back.Object, Resp.Object);
  EXPECT_EQ(Back.A, Resp.A);
}

TEST(ServiceWire, BlankAndComment) {
  ServiceRecord R;
  std::string Error;
  EXPECT_EQ(parseServiceLine("", R, Error), LineKind::Blank);
  EXPECT_EQ(parseServiceLine("# comment", R, Error), LineKind::Blank);
  EXPECT_EQ(parseServiceLine("   \t ", R, Error), LineKind::Blank);
}

TEST(ServiceWire, MalformedLines) {
  ServiceRecord R;
  std::string Error;

  EXPECT_EQ(parseServiceLine("zap inv 0 1 0 1 1 0", R, Error), LineKind::Bad);
  EXPECT_NE(Error.find("malformed object id"), std::string::npos) << Error;

  // At or past the cap.
  std::string TooBig = std::to_string(MaxObjectId) + " inv 0 1 0 1 1 0";
  EXPECT_EQ(parseServiceLine(TooBig, R, Error), LineKind::Bad);
  EXPECT_NE(Error.find("out of range"), std::string::npos) << Error;

  // A bare object id is a malformed record, not a blank line.
  EXPECT_EQ(parseServiceLine("7", R, Error), LineKind::Bad);
  EXPECT_NE(Error.find("without an action record"), std::string::npos)
      << Error;

  // The base-format parser's diagnostics pass through.
  EXPECT_EQ(parseServiceLine("7 inv 0 1", R, Error), LineKind::Bad);
  EXPECT_FALSE(Error.empty());
}

TEST(ServiceWire, IngestTextReportsLineNumbers) {
  RegisterAdt Reg;
  MonitorService Service(Reg);
  std::string Text;
  appendServiceLine(Text, 0, makeInvoke(0, 1, reg::read()));
  Text += "0 bogus line\n";
  EXPECT_FALSE(Service.ingestText(Text));
  EXPECT_NE(Service.lastError().find("line 2"), std::string::npos)
      << Service.lastError();
  EXPECT_EQ(Service.stats().ParseErrors, 1u);
}

//===----------------------------------------------------------------------===//
// Differential against the batch checker + retirement on long streams.
//===----------------------------------------------------------------------===//

TEST(Service, DifferentialAgainstBatchChecker) {
  RegisterAdt Reg;
  MonitorService Service(Reg);
  // 10 rounds x 3 concurrent ops = 30 obligations per object — inside the
  // batch checker's 64-obligation exact-search bound, so the projections
  // are batch-checkable verbatim. (The long-stream case, where only the
  // windowed service can keep answering, is RetiresOnLongStreams.)
  MultiObjectStream Stream(6, 3, 0x591);
  std::string Buf;
  for (unsigned Round = 0; Round != 10; ++Round) {
    Buf.clear();
    Stream.appendRound(Buf);
    ASSERT_TRUE(Service.ingestText(Buf)) << Service.lastError();
  }
  Service.flush();

  bool AllYes = true;
  for (std::size_t Obj = 0; Obj != Stream.objects(); ++Obj) {
    LinCheckResult Batch = checkLinearizable(Stream.projection(Obj), Reg);
    EXPECT_EQ(Service.shardVerdict(static_cast<ObjectId>(Obj)),
              Batch.Outcome)
        << "object " << Obj;
    AllYes &= Batch.Outcome == Verdict::Yes;
    EXPECT_EQ(Service.shardEvents(static_cast<ObjectId>(Obj)),
              Stream.projection(Obj).size());
  }
  EXPECT_EQ(Service.composedVerdict(),
            AllYes ? Verdict::Yes : Verdict::No);
  EXPECT_EQ(Service.composedVerdict(), Verdict::Yes); // The streams are
                                                      // correct by
                                                      // construction.
}

TEST(Service, RetiresOnLongStreams) {
  RegisterAdt Reg;
  MonitorService Service(Reg);
  // 60 rounds x 3 concurrent ops = 180 obligations per object — far past
  // the 64-obligation window, where a batch exact search refuses and the
  // shards only stay Yes by retiring at the round boundaries' quiescent
  // cuts.
  MultiObjectStream Stream(6, 3, 0x597);
  std::string Buf;
  for (unsigned Round = 0; Round != 60; ++Round) {
    Buf.clear();
    Stream.appendRound(Buf);
    ASSERT_TRUE(Service.ingestText(Buf)) << Service.lastError();
  }
  Service.flush();
  EXPECT_EQ(Service.composedVerdict(), Verdict::Yes);
  SessionStats Sessions = Service.aggregateSessionStats();
  EXPECT_GT(Sessions.RetiredObligations, 0u);
  EXPECT_LE(Sessions.LiveWindowHighWater, 64u);
  EXPECT_EQ(Sessions.WindowOverflows, 0u);
}

TEST(Service, SlinModeAgreesWithLin) {
  // Whole objects as sole phases of speculative objects: the universal
  // family is the singleton empty assignment, so the slin service's
  // verdicts coincide with the lin service's on the same stream.
  RegisterAdt Reg;
  PhaseSignature Sig(1, 2);
  UniversalInitRelation Rel;
  MonitorService LinService(Reg);
  MonitorService SlinService(Reg, Sig, Rel);
  EXPECT_EQ(SlinService.mode(), ServiceMode::Slin);

  MultiObjectStream Stream(4, 2, 0x592);
  std::string Buf;
  for (unsigned Round = 0; Round != 30; ++Round) {
    Buf.clear();
    Stream.appendRound(Buf);
    ASSERT_TRUE(LinService.ingestText(Buf));
    ASSERT_TRUE(SlinService.ingestText(Buf));
  }
  LinService.flush();
  SlinService.flush();
  EXPECT_EQ(LinService.composedVerdict(), Verdict::Yes);
  EXPECT_EQ(SlinService.composedVerdict(), Verdict::Yes);
  for (std::size_t Obj = 0; Obj != Stream.objects(); ++Obj) {
    EXPECT_EQ(LinService.shardVerdict(static_cast<ObjectId>(Obj)),
              SlinService.shardVerdict(static_cast<ObjectId>(Obj)));
    EXPECT_NE(SlinService.slinShard(static_cast<ObjectId>(Obj)), nullptr);
    EXPECT_EQ(SlinService.linShard(static_cast<ObjectId>(Obj)), nullptr);
  }
}

//===----------------------------------------------------------------------===//
// Fault propagation through the composition.
//===----------------------------------------------------------------------===//

TEST(Service, ShardNoPropagatesAndAbsorbs) {
  RegisterAdt Reg;
  MonitorService Service(Reg);
  MultiObjectStream Stream(4, 2, 0x593);
  std::string Buf;
  for (unsigned Round = 0; Round != 10; ++Round) {
    Buf.clear();
    Stream.appendRound(Buf);
    ASSERT_TRUE(Service.ingestText(Buf));
  }
  ASSERT_EQ(Service.composedVerdict(), Verdict::Yes);

  // Object 2 emits an output no register execution produces.
  Input In = reg::read();
  Action BadInv = makeInvoke(900, 1, In);
  Action BadResp = makeRespond(900, 1, In, Output{});
  BadResp.Out.Val = 424242;
  Service.ingest(2, BadInv);
  Service.ingest(2, BadResp);

  EXPECT_EQ(Service.composedVerdict(), Verdict::No);
  EXPECT_EQ(Service.culpritObject(), 2u);
  EXPECT_EQ(Service.shardVerdict(2), Verdict::No);
  EXPECT_FALSE(Service.composedReason().empty());
  EXPECT_EQ(Service.composedReason(), Service.shardReason(2));
  // The other shards are untouched.
  EXPECT_EQ(Service.shardVerdict(0), Verdict::Yes);
  EXPECT_EQ(Service.shardVerdict(1), Verdict::Yes);
  EXPECT_EQ(Service.shardVerdict(3), Verdict::Yes);

  // No is absorbing: more (correct) traffic changes nothing.
  for (unsigned Round = 0; Round != 5; ++Round) {
    Buf.clear();
    Stream.appendRound(Buf);
    ASSERT_TRUE(Service.ingestText(Buf));
  }
  EXPECT_EQ(Service.composedVerdict(), Verdict::No);
  EXPECT_EQ(Service.culpritObject(), 2u);
}

TEST(Service, ShardUnknownPropagatesAndNoOverrides) {
  RegisterAdt Reg;
  MonitorService Service(Reg);

  // Object 1: an open straggler pins the retirement cut while 70 completed
  // operations pile up behind it — the live window outgrows the engine's
  // 64-obligation bound with no quiescent cut to retire at, so the shard
  // degrades to the structural Unknown.
  Service.ingest(1, makeInvoke(0, 1, reg::write(1)));
  std::unique_ptr<AdtState> Model = Reg.makeState();
  for (unsigned I = 0; I != 70; ++I) {
    Input In = reg::read();
    Service.ingest(1, makeInvoke(1, 1, In));
    Service.ingest(1, makeRespond(1, 1, In, Model->apply(In)));
  }
  EXPECT_EQ(Service.shardVerdict(1), Verdict::Unknown);
  EXPECT_EQ(Service.composedVerdict(), Verdict::Unknown);
  EXPECT_EQ(Service.culpritObject(), 1u);
  EXPECT_FALSE(Service.composedReason().empty());
  EXPECT_GT(Service.aggregateSessionStats().WindowOverflows, 0u);

  // A No elsewhere outranks the Unknown.
  Input In = reg::read();
  Service.ingest(0, makeInvoke(0, 1, In));
  Action Bad = makeRespond(0, 1, In, Output{});
  Bad.Out.Val = 424242;
  Service.ingest(0, Bad);
  EXPECT_EQ(Service.composedVerdict(), Verdict::No);
  EXPECT_EQ(Service.culpritObject(), 0u);
}

//===----------------------------------------------------------------------===//
// Batched publication.
//===----------------------------------------------------------------------===//

TEST(Service, BatchWindowPublishesSameVerdicts) {
  RegisterAdt Reg;
  ServiceConfig Batched;
  Batched.BatchWindow = 8;
  MonitorService PerEvent(Reg);
  MonitorService Windowed(Reg, Batched);

  MultiObjectStream Stream(4, 2, 0x594);
  std::string Buf;
  for (unsigned Round = 0; Round != 60; ++Round) {
    Buf.clear();
    Stream.appendRound(Buf);
    ASSERT_TRUE(PerEvent.ingestText(Buf));
    ASSERT_TRUE(Windowed.ingestText(Buf));
  }
  // Batching changes when verdicts are published, never which verdicts
  // are computed: publications are ~8x rarer, the standing verdicts after
  // flush() identical, and retirement (which needs the per-append session
  // cadence) keeps both services' windows bounded.
  EXPECT_LT(Windowed.stats().ShardVerdicts * 4,
            PerEvent.stats().ShardVerdicts);
  PerEvent.flush();
  Windowed.flush();
  EXPECT_EQ(PerEvent.composedVerdict(), Verdict::Yes);
  EXPECT_EQ(Windowed.composedVerdict(), Verdict::Yes);
  for (std::size_t Obj = 0; Obj != Stream.objects(); ++Obj)
    EXPECT_EQ(PerEvent.shardVerdict(static_cast<ObjectId>(Obj)),
              Windowed.shardVerdict(static_cast<ObjectId>(Obj)));
  SessionStats Sessions = Windowed.aggregateSessionStats();
  EXPECT_GT(Sessions.RetiredObligations, 0u);
  EXPECT_LE(Sessions.LiveWindowHighWater, 64u);
  EXPECT_EQ(Sessions.WindowOverflows, 0u);
}

//===----------------------------------------------------------------------===//
// Direct ingest: nothing is left pending between calls.
//===----------------------------------------------------------------------===//

TEST(Service, IngestIsCurrentWithoutPoll) {
  // ingest() is the whole pipeline, so a service that is never polled
  // answers exactly as one polled after every buffer, at every point.
  RegisterAdt Reg;
  MonitorService Polled(Reg);
  MonitorService Unpolled(Reg);
  MultiObjectStream Stream(3, 2, 0x595);
  std::string Buf;
  for (unsigned Round = 0; Round != 20; ++Round) {
    Buf.clear();
    Stream.appendRound(Buf);
    ASSERT_TRUE(Polled.ingestText(Buf));
    Polled.poll();
    ASSERT_TRUE(Unpolled.ingestText(Buf));
    EXPECT_EQ(Unpolled.composedVerdict(), Polled.composedVerdict());
    EXPECT_EQ(Unpolled.composedGrade(), Polled.composedGrade());
    EXPECT_EQ(Polled.stats().ShardVerdicts, Polled.stats().Events);
    EXPECT_EQ(Unpolled.stats().ShardVerdicts, Unpolled.stats().Events);
    SessionStats P = Polled.aggregateSessionStats();
    SessionStats U = Unpolled.aggregateSessionStats();
    EXPECT_EQ(U.Checks, P.Checks);
    EXPECT_EQ(U.Yes, P.Yes);
    EXPECT_EQ(U.No, P.No);
    EXPECT_EQ(U.Unknown, P.Unknown);
    EXPECT_EQ(U.Search.Nodes, P.Search.Nodes);
  }
  ASSERT_EQ(Unpolled.composedVerdict(), Verdict::Yes);

  // One corrupted response on object 1 turns the composition No at once.
  Input In = reg::read();
  Unpolled.ingest(1, makeInvoke(900, 1, In));
  Action Bad = makeRespond(900, 1, In, Output{});
  Bad.Out.Val = 424242;
  Unpolled.ingest(1, Bad);
  EXPECT_EQ(Unpolled.composedVerdict(), Verdict::No);
  EXPECT_EQ(Unpolled.culpritObject(), 1u);
}

TEST(Service, OutOfRangeObjectIdIsCountedNotIndexed) {
  // The object id sizes the flat shard index, so ingest() bounds a
  // caller-supplied id itself: counted, dropped, never a shard.
  RegisterAdt Reg;
  MonitorService Service(Reg);
  MultiObjectStream Stream(2, 2, 0x599);
  std::string Buf;
  Stream.appendRound(Buf);
  ASSERT_TRUE(Service.ingestText(Buf));
  const std::size_t Shards = Service.shardCount();
  const std::uint64_t Events = Service.stats().Events;

  Action Inv = makeInvoke(0, 1, reg::read());
  Service.ingest(MaxObjectId, Inv);
  Service.ingest(~0u, Inv);
  EXPECT_EQ(Service.stats().Rejected, 2u);
  EXPECT_EQ(Service.stats().Events, Events);
  EXPECT_EQ(Service.shardCount(), Shards);
  EXPECT_EQ(Service.shardEvents(MaxObjectId), 0u);
  Service.flush();
  EXPECT_EQ(Service.composedVerdict(), Verdict::Yes);
}

//===----------------------------------------------------------------------===//
// Steady-state allocation freedom, end to end.
//===----------------------------------------------------------------------===//

TEST(Service, SteadyStateServicePathIsAllocationFree) {
  RegisterAdt Reg;
  MonitorService Service(Reg);
  MultiObjectStream Stream(4, 2, 0x596);
  std::string Buf;
  Buf.reserve(4096);
  // Warm-up: past ~700 events per shard the retirement folds stop growing
  // anything (interner, arena, memo, window storage all saturated).
  for (unsigned Round = 0; Round != 200; ++Round) {
    Buf.clear();
    Stream.appendRound(Buf);
    ASSERT_TRUE(Service.ingestText(Buf));
  }
  ASSERT_EQ(Service.composedVerdict(), Verdict::Yes);

  // Steady state: the whole service path — parse, demux, append,
  // verdict, publication, composition — touches the heap zero times. The
  // gauge brackets exactly the service calls; the harness's own stream
  // rendering (which grows projection vectors) stays outside.
  std::uint64_t Allocs = 0;
  for (unsigned Round = 0; Round != 100; ++Round) {
    Buf.clear();
    Stream.appendRound(Buf);
    std::uint64_t Allocs0 = AllocGauge::count();
    ASSERT_TRUE(Service.ingestText(Buf));
    Allocs += AllocGauge::count() - Allocs0;
  }
  if (AllocGauge::active()) {
    EXPECT_EQ(Allocs, 0u);
  }
  EXPECT_EQ(Service.composedVerdict(), Verdict::Yes);
}

// A warmed register shard reserves about what it touches: a 64-slot
// window of cache-line rows, a scratch arena near its high-water, and no
// memo array (the steady state only probes it). Under 16 KiB per shard in
// both modes; a fixed wide reserve (a 64 KB arena block, a 4 Ki-slot memo,
// 128 rows at stride 64) would be several times that.
TEST(Service, WarmRegisterShardsStayWithin16KiB) {
  RegisterAdt Reg;
  PhaseSignature Sig(1, 2);
  UniversalInitRelation Rel;
  MonitorService LinService(Reg);
  MonitorService SlinService(Reg, Sig, Rel);
  MultiObjectStream Stream(4, 4, 0x59A);
  std::string Buf;
  for (unsigned Round = 0; Round != 200; ++Round) {
    Buf.clear();
    Stream.appendRound(Buf);
    ASSERT_TRUE(LinService.ingestText(Buf));
    ASSERT_TRUE(SlinService.ingestText(Buf));
  }
  for (const MonitorService *S : {&LinService, &SlinService}) {
    ASSERT_EQ(S->composedVerdict(), Verdict::Yes);
    ASSERT_EQ(S->shardCount(), 4u);
    EXPECT_GT(S->aggregateSessionStats().RetiredObligations, 0u);
    EXPECT_LE(S->memoryFootprintBytes() / S->shardCount(), 16384u)
        << (S == &LinService ? "lin" : "slin") << " shard";
  }
}

//===----------------------------------------------------------------------===//
// ComposedVerdictTracker.
//===----------------------------------------------------------------------===//

TEST(ComposedVerdictTracker, AllYesComposesYes) {
  ComposedVerdictTracker T;
  EXPECT_EQ(T.verdict(), Verdict::Yes); // Vacuously.
  const std::string Empty;
  for (std::uint32_t S = 0; S != 8; ++S)
    T.update(S, Verdict::Yes, Empty);
  EXPECT_EQ(T.verdict(), Verdict::Yes);
  EXPECT_EQ(T.shardsReported(), 8u);
  EXPECT_TRUE(T.reason().empty());
}

TEST(ComposedVerdictTracker, NoBeatsUnknownBeatsYes) {
  ComposedVerdictTracker T;
  T.update(0, Verdict::Yes, "");
  T.update(5, Verdict::Unknown, "window overflow");
  EXPECT_EQ(T.verdict(), Verdict::Unknown);
  EXPECT_EQ(T.culpritShard(), 5u);
  EXPECT_EQ(T.reason(), "window overflow");

  T.update(3, Verdict::No, "no linearization function exists");
  EXPECT_EQ(T.verdict(), Verdict::No);
  EXPECT_EQ(T.culpritShard(), 3u);
  EXPECT_EQ(T.reason(), "no linearization function exists");

  // The Unknown recovering does not disturb the No.
  T.update(5, Verdict::Yes, "");
  EXPECT_EQ(T.verdict(), Verdict::No);
  EXPECT_EQ(T.culpritShard(), 3u);
}

TEST(ComposedVerdictTracker, CulpritFollowsRecoveries) {
  ComposedVerdictTracker T;
  T.update(4, Verdict::Unknown, "slow");
  T.update(2, Verdict::Unknown, "pinned");
  EXPECT_EQ(T.culpritShard(), 2u); // Lowest-indexed Unknown.
  EXPECT_EQ(T.reason(), "pinned");
  T.update(2, Verdict::Yes, "");
  EXPECT_EQ(T.verdict(), Verdict::Unknown);
  EXPECT_EQ(T.culpritShard(), 4u);
  EXPECT_EQ(T.reason(), "slow");
  T.update(4, Verdict::Yes, "");
  EXPECT_EQ(T.verdict(), Verdict::Yes);
}

TEST(ComposedVerdictTracker, ReReportingIsIdempotent) {
  ComposedVerdictTracker T;
  T.update(1, Verdict::Yes, "");
  std::size_t Reported = T.shardsReported();
  for (int I = 0; I != 100; ++I)
    T.update(1, Verdict::Yes, "");
  EXPECT_EQ(T.shardsReported(), Reported);
  EXPECT_EQ(T.verdict(), Verdict::Yes);
}

TEST(ComposedVerdictTracker, ClearResets) {
  ComposedVerdictTracker T;
  T.update(0, Verdict::No, "bad");
  ASSERT_EQ(T.verdict(), Verdict::No);
  T.clear();
  EXPECT_EQ(T.verdict(), Verdict::Yes);
  EXPECT_EQ(T.shardsReported(), 0u);
  EXPECT_TRUE(T.reason().empty());
}

TEST(ComposedVerdictTracker, BoundedYesSitsBetweenYesAndUnknown) {
  // The severity order Yes < BoundedYes < Unknown < No, walked both ways:
  // a BoundedYes-graded Unknown (a pinned shard vouching for its in-window
  // restriction) degrades the composed grade less than a flat Unknown, and
  // recoveries peel the levels off in reverse.
  ComposedVerdictTracker T;
  T.update(0, Verdict::Yes, "");
  T.update(1, Verdict::Unknown, VerdictGrade::BoundedYes, "pinned window");
  EXPECT_EQ(T.verdict(), Verdict::Unknown);
  EXPECT_EQ(T.composedGrade(), VerdictGrade::BoundedYes);
  EXPECT_EQ(T.culpritShard(), 1u);
  EXPECT_EQ(T.reason(), "pinned window");
  EXPECT_EQ(T.boundedShards(), 1u);

  T.update(2, Verdict::Unknown, "budget");
  EXPECT_EQ(T.composedGrade(), VerdictGrade::Unknown);
  EXPECT_EQ(T.culpritShard(), 2u);
  EXPECT_EQ(T.reason(), "budget");

  // The flat Unknown recovers: the composition falls back to BoundedYes.
  T.update(2, Verdict::Yes, "");
  EXPECT_EQ(T.verdict(), Verdict::Unknown);
  EXPECT_EQ(T.composedGrade(), VerdictGrade::BoundedYes);
  EXPECT_EQ(T.culpritShard(), 1u);
  EXPECT_EQ(T.reason(), "pinned window");

  // The pinned shard's straggler completes: all the way back to Yes.
  T.update(1, Verdict::Yes, "");
  EXPECT_EQ(T.verdict(), Verdict::Yes);
  EXPECT_EQ(T.composedGrade(), VerdictGrade::Yes);
  EXPECT_EQ(T.boundedShards(), 0u);
  EXPECT_TRUE(T.reason().empty());
}

TEST(ComposedVerdictTracker, ImprovementRecountsWhenTheTopLevelMoves) {
  // The O(1)-culprit cache's hard case: the worst shard improves *onto*
  // the level a lower-indexed shard already occupies. The recount must
  // re-derive the lowest index at the new top level, not keep the stale
  // culprit (nor miss the improving shard's own new level).
  ComposedVerdictTracker T;
  T.update(1, Verdict::Unknown, VerdictGrade::BoundedYes, "pinned");
  T.update(5, Verdict::Unknown, "budget");
  ASSERT_EQ(T.culpritShard(), 5u);
  T.update(5, Verdict::Unknown, VerdictGrade::BoundedYes, "pinned too");
  EXPECT_EQ(T.composedGrade(), VerdictGrade::BoundedYes);
  EXPECT_EQ(T.culpritShard(), 1u) << "lowest index at the new top level";
  EXPECT_EQ(T.reason(), "pinned");
  EXPECT_EQ(T.boundedShards(), 2u);
  T.update(5, Verdict::Yes, "");
  EXPECT_EQ(T.culpritShard(), 1u);
  T.update(1, Verdict::Yes, "");
  EXPECT_EQ(T.composedGrade(), VerdictGrade::Yes);
}

TEST(ComposedVerdictTracker, WorseningUndercutsTheCachedCulprit) {
  // A lower-indexed shard joining the standing top level must take over
  // the culprit slot (the rule is lowest index at the worst grade), and a
  // non-monotone shard bouncing back off the top level must hand it back.
  ComposedVerdictTracker T;
  T.update(3, Verdict::Unknown, "slow");
  T.update(5, Verdict::Unknown, "slower");
  ASSERT_EQ(T.culpritShard(), 3u);
  T.update(2, Verdict::Unknown, "pinned");
  EXPECT_EQ(T.culpritShard(), 2u);
  EXPECT_EQ(T.reason(), "pinned");
  T.update(2, Verdict::Yes, "");
  EXPECT_EQ(T.composedGrade(), VerdictGrade::Unknown);
  EXPECT_EQ(T.culpritShard(), 3u);
  EXPECT_EQ(T.reason(), "slow");
}

//===----------------------------------------------------------------------===//
// Graded shard verdicts: pinned-window excursions compose as BoundedYes
// and un-pin when the shard recovers.
//===----------------------------------------------------------------------===//

TEST(Service, StragglerShardDegradesToBoundedYesAndRecovers) {
  RegisterAdt Reg;
  MonitorService Service(Reg);
  MultiObjectStream Stream(3, 2, 0x597);
  std::string Buf;
  for (unsigned Round = 0; Round != 10; ++Round) {
    Buf.clear();
    Stream.appendRound(Buf);
    ASSERT_TRUE(Service.ingestText(Buf));
  }
  ASSERT_EQ(Service.composedVerdict(), Verdict::Yes);
  ASSERT_EQ(Service.composedGrade(), VerdictGrade::Yes);

  // Object 9 (a fresh shard): a straggler invokes and stays open while 70
  // completions pile up behind it — the shard's window overflows with the
  // cut pinned, but the backlog past the window stays under the
  // interference bound, so the shard (and the composition) degrades only
  // to a BoundedYes-graded Unknown, naming the pinned object.
  Service.ingest(9, makeInvoke(900, 1, reg::write(9)));
  std::unique_ptr<AdtState> Model = Reg.makeState();
  for (unsigned I = 0; I != 70; ++I) {
    Input In = reg::read();
    Service.ingest(9, makeInvoke(901, 1, In));
    Service.ingest(9, makeRespond(901, 1, In, Model->apply(In)));
  }
  EXPECT_EQ(Service.composedVerdict(), Verdict::Unknown);
  EXPECT_EQ(Service.composedGrade(), VerdictGrade::BoundedYes);
  EXPECT_EQ(Service.culpritObject(), 9u);
  EXPECT_EQ(Service.shardGrade(9), VerdictGrade::BoundedYes);
  EXPECT_EQ(Service.composedReason(), Service.shardReason(9));
  EXPECT_EQ(Service.tracker().boundedShards(), 1u);
  EXPECT_GT(Service.aggregateSessionStats().BoundedYesVerdicts, 0u);
  // The untouched shards still stand at Yes.
  EXPECT_EQ(Service.shardGrade(0), VerdictGrade::Yes);
  EXPECT_EQ(Service.shardGrade(2), VerdictGrade::Yes);

  // The straggler completes: the shard's session drains its backlog, the
  // shard verdict recovers to a definitive Yes, and the recovery un-pins
  // the composed verdict — grade and culprit included.
  Service.ingest(9, makeRespond(900, 1, reg::write(9), Model->apply(reg::write(9))));
  EXPECT_EQ(Service.shardVerdict(9), Verdict::Yes);
  EXPECT_EQ(Service.shardGrade(9), VerdictGrade::Yes);
  EXPECT_EQ(Service.composedVerdict(), Verdict::Yes);
  EXPECT_EQ(Service.composedGrade(), VerdictGrade::Yes);
  EXPECT_EQ(Service.tracker().boundedShards(), 0u);
  SessionStats Sessions = Service.aggregateSessionStats();
  EXPECT_EQ(Sessions.WindowOverflows, 1u)
      << "one excursion, counted once across the fleet";
  EXPECT_GT(Sessions.RetiredObligations, 0u);

  // And the whole service keeps running definitively afterwards.
  for (unsigned Round = 0; Round != 5; ++Round) {
    Buf.clear();
    Stream.appendRound(Buf);
    ASSERT_TRUE(Service.ingestText(Buf));
  }
  EXPECT_EQ(Service.composedVerdict(), Verdict::Yes);
  EXPECT_EQ(Service.composedGrade(), VerdictGrade::Yes);
}

TEST(Service, InterferenceBoundZeroRestoresFlatUnknowns) {
  RegisterAdt Reg;
  ServiceConfig Config;
  Config.InterferenceBound = 0; // Opt out of the graded fallback.
  MonitorService Service(Reg, Config);
  Service.ingest(0, makeInvoke(0, 1, reg::write(1)));
  std::unique_ptr<AdtState> Model = Reg.makeState();
  for (unsigned I = 0; I != 70; ++I) {
    Input In = reg::read();
    Service.ingest(0, makeInvoke(1, 1, In));
    Service.ingest(0, makeRespond(1, 1, In, Model->apply(In)));
  }
  EXPECT_EQ(Service.composedVerdict(), Verdict::Unknown);
  EXPECT_EQ(Service.composedGrade(), VerdictGrade::Unknown)
      << "a disabled fallback must not grade the pinned shard";
  EXPECT_EQ(Service.shardGrade(0), VerdictGrade::Unknown);
  EXPECT_EQ(Service.aggregateSessionStats().BoundedYesVerdicts, 0u);
}
