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

namespace {

using namespace std::string_view_literals;

/// One wire line and everything parseServiceLine must report for it.
/// Want is the exact Error text for a Bad line, formatServiceRecord of
/// the parsed record for a Record line, and empty for a Blank line.
struct WireGoldenRow {
  std::string_view Line;
  LineKind Kind;
  std::string_view Want;
};

constexpr LineKind Rec = LineKind::Record, Blank = LineKind::Blank,
                   Bad = LineKind::Bad;

// The object column is checked first: malformed id, then id out of range,
// then a missing record. The record behind it is then checked exactly as
// parseActionLine checks a base-format line (trace_io_test's golden
// table), with field counts that exclude the object id.
const WireGoldenRow WireGolden[] = {
    {""sv, Blank, ""sv},
    {"   \t "sv, Blank, ""sv},
    {"\r"sv, Blank, ""sv},
    {"# comment"sv, Blank, ""sv},
    {"#5 inv 0 1 0 0 0 0"sv, Blank, ""sv},
    // The object id.
    {"zap inv 0 1 0 1 1 0"sv, Bad, "malformed object id 'zap'"sv},
    {" # x"sv, Bad, "malformed object id '#'"sv},
    {"-1 inv 0 1 0 0 0 0"sv, Bad, "malformed object id '-1'"sv},
    {"+3 inv 0 1 0 0 0 0"sv, Bad, "malformed object id '+3'"sv},
    {"- inv 0 1 0 0 0 0"sv, Bad, "malformed object id '-'"sv},
    {"5#x"sv, Bad, "malformed object id '5#x'"sv},
    {"5\0 inv 0 1 0 0 0 0"sv, Bad, "malformed object id '5\0'"sv},
    {"4294967296 inv 0 1 0 0 0 0"sv, Bad,
     "malformed object id '4294967296'"sv},
    {"99999999999999999999 inv 0 1 0 0 0 0"sv, Bad,
     "malformed object id '99999999999999999999'"sv},
    {"4294967295 inv 0 1 0 0 0 0"sv, Bad,
     "object id 4294967295 out of range"sv},
    {"1048576 inv 0 1 0 0 0 0"sv, Bad, "object id 1048576 out of range"sv},
    {"001048576 inv 0 1 0 0 0 0"sv, Bad,
     "object id 001048576 out of range"sv},
    {"1048575 inv 0 1 0 0 0 0"sv, Rec, "1048575 inv 0 1 0 0 0 0"sv},
    {"-0 inv 0 1 0 0 0 0"sv, Rec, "0 inv 0 1 0 0 0 0"sv},
    // A malformed or out-of-range id outranks a missing record.
    {"zap"sv, Bad, "malformed object id 'zap'"sv},
    {"1048576"sv, Bad, "object id 1048576 out of range"sv},
    {"7"sv, Bad, "object id without an action record"sv},
    {"7 "sv, Bad, "object id without an action record"sv},
    {"7 \r"sv, Bad, "object id without an action record"sv},
    {"\t7\t\f\v"sv, Bad, "object id without an action record"sv},
    // After the id a '#' is a kind, not a comment.
    {"5 #x"sv, Bad, "unknown action kind '#x'"sv},
    {"5 # comment"sv, Bad, "unknown action kind '#'"sv},
    {"5 bogus"sv, Bad, "unknown action kind 'bogus'"sv},
    {"5 5 inv 0 1 0 0 0 0"sv, Bad, "unknown action kind '5'"sv},
    {"5 inv\0 0 1 0 0 0 0"sv, Bad, "unknown action kind 'inv\0'"sv},
    // The record's field counts exclude the object id.
    {"7 inv"sv, Bad, "expected 7 or 8 fields, found 1"sv},
    {"7 inv 0 1"sv, Bad, "expected 7 or 8 fields, found 3"sv},
    {"7 inv 0 1 0 0 0 0 0 0"sv, Bad, "expected 7 or 8 fields, found 9"sv},
    {"7 res 0 1 0 0 0 0"sv, Bad, "expected 8 or 9 fields, found 7"sv},
    {"7 swi 0 1 0 0 0 0 0 0 0"sv, Bad, "expected 8 or 9 fields, found 10"sv},
    {"7 inv x y"sv, Bad, "expected 7 or 8 fields, found 3"sv},
    // Numeric fields, then phase 0, then the client and phase bounds.
    {"5 res x 1 0 0 0 0 0"sv, Bad, "malformed numeric field"sv},
    {"5 inv 0 1 0 0 +3 0"sv, Bad, "malformed numeric field"sv},
    {"5 inv 0 1 0 0 - 0"sv, Bad, "malformed numeric field"sv},
    {"5 inv 0 1 4294967296 0 0 0"sv, Bad, "malformed numeric field"sv},
    {"5 inv 0 1 0 0 9223372036854775808 0"sv, Bad,
     "malformed numeric field"sv},
    {"5 inv 0 1 0 0 1\0 0"sv, Bad, "malformed numeric field"sv},
    {"5 inv 0 0 x 0 0 0"sv, Bad, "malformed numeric field"sv},
    {"5 inv 0 0 0 0 0 0"sv, Bad, "phase numbering starts at 1"sv},
    {"5 inv 1048576 0 0 0 0 0"sv, Bad, "phase numbering starts at 1"sv},
    {"5 inv 1048576 1 0 0 0 0"sv, Bad, "client id 1048576 out of range"sv},
    {"5 inv 1048576 1048576 0 0 0 0"sv, Bad,
     "client id 1048576 out of range"sv},
    {"5 inv 0 1048576 0 0 0 0"sv, Bad, "phase id 1048576 out of range"sv},
    {"5 inv 1048575 1048575 4294967295 0 0 0"sv, Rec,
     "5 inv 1048575 1048575 4294967295 0 0 0"sv},
    {"5 inv -0 1 0 0 -9223372036854775808 9223372036854775807"sv, Rec,
     "5 inv 0 1 0 0 -9223372036854775808 9223372036854775807"sv},
    // Separators and the Meta column.
    {"\t5\tinv\t0\t1\t0\t0\t0\t0\r"sv, Rec, "5 inv 0 1 0 0 0 0"sv},
    {" 5 res 2 1 0 0 5 6 7 "sv, Rec, "5 res 2 1 0 0 5 6 7"sv},
    {"5 swi 0 2 1 1 0 0 -9 1\r\r"sv, Rec, "5 swi 0 2 1 1 0 0 -9 1"sv},
    {"5 inv 0 1 0 0 0 0 7"sv, Rec, "5 inv 0 1 0 0 0 0 7"sv},
};

std::string show(std::string_view Line) {
  return ::testing::PrintToString(std::string(Line));
}

} // namespace

TEST(ServiceWire, GoldenDiagnostics) {
  for (const WireGoldenRow &Row : WireGolden) {
    ServiceRecord R;
    std::string Error = "untouched";
    LineKind K = parseServiceLine(Row.Line, R, Error);
    EXPECT_EQ(K, Row.Kind) << show(Row.Line) << " -> " << show(Error);
    if (K == LineKind::Bad) {
      EXPECT_EQ(Error, Row.Want) << show(Row.Line);
      continue;
    }
    // Only a Bad line writes the error.
    EXPECT_EQ(Error, "untouched") << show(Row.Line);
    if (K == LineKind::Record) {
      EXPECT_EQ(formatServiceRecord(R), Row.Want) << show(Row.Line);
    }
  }
}

TEST(ServiceWire, GoldenDiagnosticsCarryLineNumbersThroughIngestText) {
  // ingestText stops at the first Bad line, prefixes its diagnostic and
  // counts it; a Blank line passes.
  for (const WireGoldenRow &Row : WireGolden) {
    if (Row.Kind == LineKind::Record)
      continue;
    RegisterAdt Reg;
    MonitorService Service(Reg);
    std::string Text = "0 inv 0 1 0 0 0 0\n\n";
    Text += Row.Line;
    bool Ok = Service.ingestText(Text);
    EXPECT_EQ(Ok, Row.Kind == LineKind::Blank) << show(Row.Line);
    if (!Ok) {
      EXPECT_EQ(Service.lastError(), "line 3: " + std::string(Row.Want))
          << show(Row.Line);
      EXPECT_EQ(Service.stats().ParseErrors, 1u) << show(Row.Line);
    }
  }
}

namespace {

/// A random action over every column's full range: all three kinds, u32
/// extremes in the op, tag and meta columns, int64 extremes in the
/// payloads, and client and phase ids up to the dense bound.
Action randomAction(Rng &R) {
  auto Pick64 = [&] {
    switch (R.next() % 4) {
    case 0:
      return INT64_MIN;
    case 1:
      return INT64_MAX;
    case 2:
      return static_cast<std::int64_t>(R.next() % 201) - 100;
    default:
      return static_cast<std::int64_t>(R.next());
    }
  };
  auto Pick32 = [&] {
    return R.next() % 4 == 0 ? UINT32_MAX
                             : static_cast<std::uint32_t>(R.next());
  };
  Action A;
  A.Kind = static_cast<ActionKind>(R.next() % 3);
  A.Client = static_cast<ClientId>(R.next() % MaxObjectId);
  A.Phase = 1 + static_cast<PhaseId>(R.next() % (MaxObjectId - 1));
  A.In.Op = Pick32();
  A.In.Tag = Pick32();
  A.In.A = Pick64();
  A.In.B = Pick64();
  if (isRespond(A))
    A.Out.Val = Pick64();
  if (isSwitch(A))
    A.Sv.Val = Pick64();
  A.Meta = R.next() % 2 ? 0 : Pick32();
  return A;
}

} // namespace

TEST(ServiceWire, RandomRecordsRoundTripThroughBothEntryPoints) {
  Rng Rand(0x5EED);
  std::string Error;
  for (int Iter = 0; Iter != 5000; ++Iter) {
    ServiceRecord R;
    R.Object = static_cast<ObjectId>(Rand.next() % MaxObjectId);
    R.A = randomAction(Rand);
    Action Back;
    ASSERT_EQ(parseActionLine(formatAction(R.A), Back, Error),
              LineKind::Record)
        << formatAction(R.A) << ": " << Error;
    EXPECT_EQ(Back, R.A) << formatAction(R.A);
    ServiceRecord BackRec;
    ASSERT_EQ(parseServiceLine(formatServiceRecord(R), BackRec, Error),
              LineKind::Record)
        << formatServiceRecord(R) << ": " << Error;
    EXPECT_EQ(BackRec.Object, R.Object) << formatServiceRecord(R);
    EXPECT_EQ(BackRec.A, R.A) << formatServiceRecord(R);
  }
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
