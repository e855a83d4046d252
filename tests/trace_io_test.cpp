//===- tests/trace_io_test.cpp - Hardened textual trace parsing -----------==//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//
//
// Malformed-input and round-trip coverage for trace/TraceIo: the streaming
// ingest path (TraceBuilder + parseActionLine) consumes records from
// untrusted sources, so the parser must reject — never crash on, never
// mis-read — truncated records, overflowing numerics, and out-of-range
// dense ids, and the well-formedness layer behind it must catch the
// semantic corruptions (duplicate completions) the parser cannot see. The
// golden table pins every diagnostic byte for byte, and with it the order
// in which the parser's checks fire.
//
//===----------------------------------------------------------------------===//

#include "trace/TraceIo.h"

#include "adt/Register.h"
#include "service/Service.h"
#include "support/AllocGauge.h"
#include "support/Rng.h"
#include "trace/TraceBuilder.h"
#include "trace/WellFormed.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <string_view>

// Interpose the global operator new: the zero-copy parse hot path
// (parseActionLine over a string_view) must not allocate on any accepted
// record — the monitoring service parses one line per ingested event, so a
// per-line allocation would break the service's steady-state
// allocation-free contract. Under ASan the interposer is compiled out and
// the heap assertions become vacuous (AllocGauge::active() reports it).
SLIN_DEFINE_ALLOC_GAUGE()

using namespace slin;

namespace {

Trace sampleTrace() {
  Trace T;
  T.push_back(makeInvoke(0, 1, Input{3, 1, 42, -7}));
  T.push_back(makeInvoke(1, 1, Input{2, 2, INT64_MIN, INT64_MAX}));
  T.push_back(makeRespond(0, 1, Input{3, 1, 42, -7}, Output{9}));
  T.push_back(makeSwitch(1, 2, Input{2, 2, INT64_MIN, INT64_MAX},
                         SwitchValue{-1}));
  return T;
}

} // namespace

//===----------------------------------------------------------------------===//
// Round trips.
//===----------------------------------------------------------------------===//

TEST(TraceIoHardeningTest, ExtremeValuesRoundTrip) {
  Trace T = sampleTrace();
  TraceParseResult R = parseTrace(formatTrace(T));
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.ParsedTrace, T);
}

TEST(TraceIoHardeningTest, RandomTracesRoundTrip) {
  Rng Rand(0x10AD);
  for (int Iter = 0; Iter != 200; ++Iter) {
    Trace T;
    unsigned Len = 1 + Rand.next() % 12;
    for (unsigned I = 0; I != Len; ++I) {
      Action A;
      A.Kind = static_cast<ActionKind>(Rand.next() % 3);
      A.Client = static_cast<ClientId>(Rand.next() % 1000);
      A.Phase = 1 + static_cast<PhaseId>(Rand.next() % 1000);
      A.In.Op = static_cast<std::uint32_t>(Rand.next());
      A.In.Tag = static_cast<std::uint32_t>(Rand.next());
      A.In.A = static_cast<std::int64_t>(Rand.next());
      A.In.B = static_cast<std::int64_t>(Rand.next());
      if (isRespond(A))
        A.Out.Val = static_cast<std::int64_t>(Rand.next());
      if (isSwitch(A))
        A.Sv.Val = static_cast<std::int64_t>(Rand.next());
      T.push_back(A);
    }
    TraceParseResult R = parseTrace(formatTrace(T));
    ASSERT_TRUE(R.Ok) << R.Error;
    EXPECT_EQ(R.ParsedTrace, T);
  }
}

//===----------------------------------------------------------------------===//
// The optional trailing metadata column.
//===----------------------------------------------------------------------===//

TEST(TraceIoHardeningTest, MetaColumnRoundTrips) {
  Trace T = sampleTrace();
  T[0].Meta = ActionMetaFlushed;
  T[2].Meta = 0x7u; // Multiple bits survive verbatim.
  TraceParseResult R = parseTrace(formatTrace(T));
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.ParsedTrace, T);
  EXPECT_EQ(R.ParsedTrace[0].Meta, ActionMetaFlushed);
  EXPECT_EQ(R.ParsedTrace[1].Meta, 0u);
}

TEST(TraceIoHardeningTest, ZeroMetaRendersTheLegacyShape) {
  // Traces that never touch Action::Meta must format byte-identically to
  // the pre-metadata column shape — downstream golden files and diff-based
  // tooling see no change.
  EXPECT_EQ(formatAction(makeInvoke(1, 2, Input{3, 4, 5, 6})),
            "inv 1 2 3 4 5 6");
  EXPECT_EQ(formatAction(makeRespond(1, 2, Input{3, 4, 5, 6}, Output{7})),
            "res 1 2 3 4 5 6 7");
  Action Flushed = makeRespond(1, 2, Input{3, 4, 5, 6}, Output{7});
  Flushed.Meta = ActionMetaFlushed;
  EXPECT_EQ(formatAction(Flushed), "res 1 2 3 4 5 6 7 1");
}

TEST(TraceIoHardeningTest, MetaColumnParsesOnEveryKind) {
  TraceParseResult R = parseTrace("inv 0 1 0 0 5 0 1\n"
                                  "res 0 1 0 0 5 0 9 3\n"
                                  "swi 0 2 0 0 5 0 -1 1\n");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.ParsedTrace[0].Meta, 1u);
  EXPECT_EQ(R.ParsedTrace[1].Meta, 3u);
  EXPECT_EQ(R.ParsedTrace[2].Meta, 1u);
  // Absent column defaults to zero; one column past Meta is still an
  // exact-count error, and a non-numeric or overflowing Meta is malformed.
  EXPECT_EQ(parseTrace("res 0 1 0 0 5 0 9\n").ParsedTrace[0].Meta, 0u);
  EXPECT_FALSE(parseTrace("res 0 1 0 0 5 0 9 3 3\n").Ok);
  EXPECT_FALSE(parseTrace("res 0 1 0 0 5 0 9 x\n").Ok);
  EXPECT_FALSE(parseTrace("res 0 1 0 0 5 0 9 4294967296\n").Ok);
  EXPECT_FALSE(parseTrace("res 0 1 0 0 5 0 9 -1\n").Ok);
}

//===----------------------------------------------------------------------===//
// Truncated and corrupted records.
//===----------------------------------------------------------------------===//

TEST(TraceIoHardeningTest, EveryTruncationOfAValidLineIsRejected) {
  // Dropping trailing fields must always produce a structured error, never
  // a crash or a silently short record.
  const std::string Full = "res 1 2 3 4 5 6 7";
  for (std::size_t Cut = Full.size() - 1; Cut > 0; --Cut) {
    std::string Line = Full.substr(0, Cut);
    Action A;
    std::string Error;
    LineKind K = parseActionLine(Line, A, Error);
    if (K == LineKind::Record)
      ADD_FAILURE() << "truncation parsed as a record: '" << Line << "'";
  }
}

TEST(TraceIoHardeningTest, NumericOverflowIsAnErrorNotAThrow) {
  // Values beyond int64 range used to escape as std::out_of_range from
  // std::stoll; they must be ordinary parse failures.
  EXPECT_FALSE(parseTrace("inv 1 1 0 0 99999999999999999999999 0\n").Ok);
  EXPECT_FALSE(parseTrace("inv 1 1 0 0 0 -99999999999999999999999\n").Ok);
  EXPECT_FALSE(parseTrace("res 1 1 0 0 0 0 18446744073709551616\n").Ok);
  // The exact boundary still parses.
  TraceParseResult R =
      parseTrace("inv 1 1 0 0 -9223372036854775808 9223372036854775807\n");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.ParsedTrace[0].In.A, INT64_MIN);
  EXPECT_EQ(R.ParsedTrace[0].In.B, INT64_MAX);
}

TEST(TraceIoHardeningTest, OutOfRangeProcessIdsAreRejected) {
  // Dense per-client indexing downstream makes giant ids a memory bomb;
  // the parser stops them at the door.
  EXPECT_FALSE(parseTrace("inv 4294967295 1 0 0 0 0\n").Ok);
  EXPECT_FALSE(parseTrace("inv 1048576 1 0 0 0 0\n").Ok);
  EXPECT_TRUE(parseTrace("inv 1048575 1 0 0 0 0\n").Ok);
  EXPECT_FALSE(parseTrace("inv 1 4294967295 0 0 0 0\n").Ok);
  // And the streaming builder enforces the same bound on directly
  // constructed actions.
  TraceBuilder B;
  EXPECT_FALSE(B.append(makeInvoke(TraceBuilder::MaxClients, 1, Input{})));
  EXPECT_EQ(B.size(), 0u);
}

TEST(TraceIoHardeningTest, RandomCorruptionNeverCrashesTheParser) {
  Rng Rand(0xF422);
  const std::string Base = formatTrace(sampleTrace());
  const char Junk[] = {'x', '-', ' ', '\t', '9', '#', '\n', '\0', '+'};
  for (int Iter = 0; Iter != 500; ++Iter) {
    std::string Text = Base;
    // Corrupt 1-4 positions with junk bytes.
    unsigned Edits = 1 + Rand.next() % 4;
    for (unsigned E = 0; E != Edits; ++E)
      Text[Rand.next() % Text.size()] =
          Junk[Rand.next() % (sizeof(Junk) / sizeof(Junk[0]))];
    TraceParseResult R = parseTrace(Text);
    if (!R.Ok) {
      EXPECT_FALSE(R.Error.empty());
    }
  }
}

//===----------------------------------------------------------------------===//
// Golden diagnostics: the parser's exact contract, line by line.
//===----------------------------------------------------------------------===//

namespace {

using namespace std::string_view_literals;

/// One line and everything parseActionLine must report for it. Want is
/// the exact Error text for a Bad line, formatAction of the parsed record
/// for a Record line, and empty for a Blank line.
struct GoldenRow {
  std::string_view Line;
  LineKind Kind;
  std::string_view Want;
};

constexpr LineKind Rec = LineKind::Record, Blank = LineKind::Blank,
                   Bad = LineKind::Bad;

// The checks run in a fixed order, and the first failing one names the
// line: kind, then field count, then every numeric field, then phase 0,
// then the client bound, then the phase bound.
const GoldenRow ActionGolden[] = {
    // Blank and comment lines. Only a '#' in the first byte comments.
    {""sv, Blank, ""sv},
    {"   "sv, Blank, ""sv},
    {" \t\r\f\v"sv, Blank, ""sv},
    {"\r"sv, Blank, ""sv},
    {"#"sv, Blank, ""sv},
    {"#inv 0 1 0 0 0 0"sv, Blank, ""sv},
    {"# res 1 1 0 0 0 0 0"sv, Blank, ""sv},
    {"res 1 1 0 0 0 0 0"sv, Rec, "res 1 1 0 0 0 0 0"sv},
    // The kind is checked first, before any field is counted.
    {" #x 1 2"sv, Bad, "unknown action kind '#x'"sv},
    {"bogus"sv, Bad, "unknown action kind 'bogus'"sv},
    {"bogus 1 2 3"sv, Bad, "unknown action kind 'bogus'"sv},
    {"INV 0 1 0 0 0 0"sv, Bad, "unknown action kind 'INV'"sv},
    {"in 0 1 0 0 0 0"sv, Bad, "unknown action kind 'in'"sv},
    {"invx 0 1 0 0 0 0"sv, Bad, "unknown action kind 'invx'"sv},
    {"resw 0 1 0 0 0 0 0"sv, Bad, "unknown action kind 'resw'"sv},
    {"inv\0 0 1 0 0 0 0"sv, Bad, "unknown action kind 'inv\0'"sv},
    {"\n"sv, Bad, "unknown action kind '\n'"sv},
    {"0 inv 0 1 0 0 0 0"sv, Bad, "unknown action kind '0'"sv},
    // Field counts include the kind; an exact count past the optional
    // Meta column.
    {"inv"sv, Bad, "expected 7 or 8 fields, found 1"sv},
    {"inv "sv, Bad, "expected 7 or 8 fields, found 1"sv},
    {"inv 0 1"sv, Bad, "expected 7 or 8 fields, found 3"sv},
    {"inv 0 1 0 0 0"sv, Bad, "expected 7 or 8 fields, found 6"sv},
    {"inv 0 1 0 0 0 0 0 0"sv, Bad, "expected 7 or 8 fields, found 9"sv},
    {"inv x y"sv, Bad, "expected 7 or 8 fields, found 3"sv},
    {"inv 0 1 0 0 0 0 0 x y z"sv, Bad, "expected 7 or 8 fields, found 11"sv},
    {"res"sv, Bad, "expected 8 or 9 fields, found 1"sv},
    {"res 0 1 0 0 0 0"sv, Bad, "expected 8 or 9 fields, found 7"sv},
    {"res 0 1 0 0 0 0 0 0 0"sv, Bad, "expected 8 or 9 fields, found 10"sv},
    {"swi 0 1 0 0 0 0"sv, Bad, "expected 8 or 9 fields, found 7"sv},
    {"swi 0 1 0 0 0 0 0 0 0 0 0 0"sv, Bad,
     "expected 8 or 9 fields, found 13"sv},
    // Numeric fields: an optional '-' and decimal digits, nothing else.
    {"inv x 1 0 0 0 0"sv, Bad, "malformed numeric field"sv},
    {"inv -1 1 0 0 0 0"sv, Bad, "malformed numeric field"sv},
    {"inv +3 1 0 0 0 0"sv, Bad, "malformed numeric field"sv},
    {"inv 0 1 0 0 +3 0"sv, Bad, "malformed numeric field"sv},
    {"inv 0 1 0 0 - 0"sv, Bad, "malformed numeric field"sv},
    {"inv 0 1 0 0 -- 0"sv, Bad, "malformed numeric field"sv},
    {"inv 0 1 0 0 1- 0"sv, Bad, "malformed numeric field"sv},
    {"inv 0 1 0 0 0x1 0"sv, Bad, "malformed numeric field"sv},
    {"inv 0 1 0 0 1\0 0"sv, Bad, "malformed numeric field"sv},
    {"inv 0 1 0 0 0 0\n"sv, Bad, "malformed numeric field"sv},
    {"inv -0 1 -0 -0 -0 -0"sv, Rec, "inv 0 1 0 0 0 0"sv},
    {"inv 0 1 0 0 -00 0000000000000000000000000001"sv, Rec,
     "inv 0 1 0 0 0 1"sv},
    // u32 columns: op, tag and meta take the full range.
    {"inv 0 1 4294967295 4294967295 0 0 4294967295"sv, Rec,
     "inv 0 1 4294967295 4294967295 0 0 4294967295"sv},
    {"inv 0 1 4294967296 0 0 0"sv, Bad, "malformed numeric field"sv},
    {"inv 0 1 0 4294967296 0 0"sv, Bad, "malformed numeric field"sv},
    {"inv 0 1 0 0 0 0 4294967296"sv, Bad, "malformed numeric field"sv},
    {"inv 0 1 0 0 0 0 -1"sv, Bad, "malformed numeric field"sv},
    {"inv 0 1 -1 0 0 0"sv, Bad, "malformed numeric field"sv},
    {"inv 0 1 9223372036854775807 0 0 0"sv, Bad,
     "malformed numeric field"sv},
    {"inv 0 1 0 0 0 0 -0"sv, Rec, "inv 0 1 0 0 0 0"sv},
    // i64 columns: exactly [-2^63, 2^63 - 1].
    {"inv 0 1 0 0 9223372036854775807 -9223372036854775808"sv, Rec,
     "inv 0 1 0 0 9223372036854775807 -9223372036854775808"sv},
    {"inv 0 1 0 0 9223372036854775808 0"sv, Bad,
     "malformed numeric field"sv},
    {"inv 0 1 0 0 0 -9223372036854775809"sv, Bad,
     "malformed numeric field"sv},
    {"inv 0 1 0 0 99999999999999999999 0"sv, Bad,
     "malformed numeric field"sv},
    {"inv 0 1 0 0 -99999999999999999999 0"sv, Bad,
     "malformed numeric field"sv},
    {"inv 0 1 0 0 18446744073709551616 0"sv, Bad,
     "malformed numeric field"sv},
    {"res 0 1 0 0 0 0 -9223372036854775808"sv, Rec,
     "res 0 1 0 0 0 0 -9223372036854775808"sv},
    {"res 0 1 0 0 0 0 9223372036854775808"sv, Bad,
     "malformed numeric field"sv},
    {"swi 0 1 0 0 0 0 x"sv, Bad, "malformed numeric field"sv},
    {"swi 0 1 0 0 0 0 -5 3"sv, Rec, "swi 0 1 0 0 0 0 -5 3"sv},
    // A malformed field outranks every range check behind it.
    {"inv 0 0 x 0 0 0"sv, Bad, "malformed numeric field"sv},
    {"inv 1048576 1 0 0 0 x"sv, Bad, "malformed numeric field"sv},
    {"inv 4294967296 1 0 0 0 0"sv, Bad, "malformed numeric field"sv},
    // Phase 0, then the client bound, then the phase bound.
    {"inv 0 0 0 0 0 0"sv, Bad, "phase numbering starts at 1"sv},
    {"inv 0 -0 0 0 0 0"sv, Bad, "phase numbering starts at 1"sv},
    {"inv 1048576 0 0 0 0 0"sv, Bad, "phase numbering starts at 1"sv},
    {"inv 1048575 1 0 0 0 0"sv, Rec, "inv 1048575 1 0 0 0 0"sv},
    {"inv 1048576 1 0 0 0 0"sv, Bad, "client id 1048576 out of range"sv},
    {"inv 4294967295 1 0 0 0 0"sv, Bad,
     "client id 4294967295 out of range"sv},
    {"inv 01048576 1 0 0 0 0"sv, Bad, "client id 01048576 out of range"sv},
    {"inv 1048576 1048576 0 0 0 0"sv, Bad,
     "client id 1048576 out of range"sv},
    {"inv 0 1048575 0 0 0 0"sv, Rec, "inv 0 1048575 0 0 0 0"sv},
    {"inv 0 1048576 0 0 0 0"sv, Bad, "phase id 1048576 out of range"sv},
    {"res 0 4294967295 0 0 0 0 0"sv, Bad,
     "phase id 4294967295 out of range"sv},
    // Separators: any run of " \t\r\f\v", before, between and after.
    {"\tinv\t0\t1\t0\t0\t0\t0\t"sv, Rec, "inv 0 1 0 0 0 0"sv},
    {"inv 3 1 0 0 0 0\r"sv, Rec, "inv 3 1 0 0 0 0"sv},
    {"inv 3 1 0 0 0 0\r\r"sv, Rec, "inv 3 1 0 0 0 0"sv},
    {"  res  2 1  0 0 5 6 7  "sv, Rec, "res 2 1 0 0 5 6 7"sv},
    {"swi\v0\f2 1 1 0 0 -9"sv, Rec, "swi 0 2 1 1 0 0 -9"sv},
    {"res 0 1 0 0 5 0 9 3 \r"sv, Rec, "res 0 1 0 0 5 0 9 3"sv},
};

std::string show(std::string_view Line) {
  return ::testing::PrintToString(std::string(Line));
}

} // namespace

TEST(TraceIoHardeningTest, GoldenDiagnostics) {
  for (const GoldenRow &Row : ActionGolden) {
    Action A;
    std::string Error = "untouched";
    LineKind K = parseActionLine(Row.Line, A, Error);
    EXPECT_EQ(K, Row.Kind) << show(Row.Line) << " -> " << show(Error);
    if (K == LineKind::Bad) {
      EXPECT_EQ(Error, Row.Want) << show(Row.Line);
      continue;
    }
    // Only a Bad line writes the error.
    EXPECT_EQ(Error, "untouched") << show(Row.Line);
    if (K == LineKind::Record) {
      EXPECT_EQ(formatAction(A), Row.Want) << show(Row.Line);
    }
  }
}

TEST(TraceIoHardeningTest, GoldenDiagnosticsCarryLineNumbersThroughParseTrace) {
  // parseTrace stops at the first Bad line and prefixes its diagnostic.
  for (const GoldenRow &Row : ActionGolden) {
    if (Row.Line.find('\n') != std::string_view::npos)
      continue; // A newline splits the line in a trace.
    std::string Text = "inv 0 1 0 0 0 0\n\n";
    Text += Row.Line;
    TraceParseResult R = parseTrace(Text);
    EXPECT_EQ(R.Ok, Row.Kind != LineKind::Bad) << show(Row.Line);
    if (Row.Kind == LineKind::Bad) {
      EXPECT_EQ(R.Error, "line 3: " + std::string(Row.Want))
          << show(Row.Line);
    } else {
      EXPECT_EQ(R.ParsedTrace.size(), Row.Kind == LineKind::Record ? 2u : 1u)
          << show(Row.Line);
    }
  }
}

//===----------------------------------------------------------------------===//
// The zero-copy parse hot path.
//===----------------------------------------------------------------------===//

TEST(TraceIoHardeningTest, ParseLoopIsAllocationFree) {
  // Pre-render a batch of records, interleaved with blank and comment
  // lines, once in each format, then parse them in a loop over
  // string_views into the shared buffers: past the first iteration (which
  // may still warm allocator caches), neither line parser performs a heap
  // allocation — the cursor reads the view in place and accepted records
  // build no strings.
  Trace T = sampleTrace();
  for (int I = 0; I != 16; ++I)
    T.push_back(makeRespond(2, 1, Input{1, static_cast<std::uint32_t>(I),
                                        I * 3, -I},
                            Output{I}));
  T[1].Meta = 0x5u;
  const char *Blanks[] = {"", "# a comment", " \t\r"};
  std::string Text, Wire;
  for (std::size_t I = 0; I != T.size(); ++I) {
    Text += formatAction(T[I]) + "\n" + Blanks[I % 3] + "\n";
    appendServiceLine(Wire, static_cast<ObjectId>(I * 977), T[I]);
    Wire += std::string(Blanks[I % 3]) + "\n";
  }

  auto ParseAll = [&](std::string_view Rest, auto Parse) {
    std::size_t Records = 0, Blank = 0;
    std::string Error;
    while (!Rest.empty()) {
      std::size_t Eol = Rest.find('\n');
      std::string_view Line = Rest.substr(0, Eol);
      Rest = Eol == std::string_view::npos ? std::string_view{}
                                           : Rest.substr(Eol + 1);
      LineKind K = Parse(Line, Error);
      ASSERT_NE(K, LineKind::Bad) << Error;
      ++(K == LineKind::Record ? Records : Blank);
    }
    ASSERT_EQ(Records, T.size());
    ASSERT_EQ(Blank, T.size());
  };
  auto ParseBoth = [&] {
    ParseAll(Text, [](std::string_view Line, std::string &Error) {
      Action A;
      return parseActionLine(Line, A, Error);
    });
    ParseAll(Wire, [](std::string_view Line, std::string &Error) {
      ServiceRecord R;
      return parseServiceLine(Line, R, Error);
    });
  };

  ParseBoth(); // Warm-up.
  std::uint64_t Before = AllocGauge::count();
  for (int Round = 0; Round != 8; ++Round)
    ParseBoth();
  std::uint64_t Delta = AllocGauge::count() - Before;
  if (AllocGauge::active()) {
    EXPECT_EQ(Delta, 0u) << "zero-copy parse loop touched the heap";
  }

  // The service's own parse loop, ingestText, over the same mix: a
  // sequential register stream on four objects, each block starting with
  // a write so every repetition is linearizable. Past the warm-up (the
  // shards' retirement folds stop growing anything), ingesting a block
  // touches the heap zero times.
  RegisterAdt Reg;
  std::unique_ptr<AdtState> Model = Reg.makeState();
  const Input Ops[] = {reg::write(1), reg::read(), reg::write(2),
                       reg::read()};
  std::string Block;
  for (ObjectId Obj = 0; Obj != 4; ++Obj)
    for (unsigned K = 0; K != 4; ++K) {
      ClientId C = K % 2;
      appendServiceLine(Block, Obj, makeInvoke(C, 1, Ops[K]));
      Block += std::string(Blanks[K % 3]) + "\n";
      appendServiceLine(Block, Obj,
                        makeRespond(C, 1, Ops[K], Model->apply(Ops[K])));
    }
  MonitorService Service(Reg);
  for (int Round = 0; Round != 200; ++Round)
    ASSERT_TRUE(Service.ingestText(Block)) << Service.lastError();
  Before = AllocGauge::count();
  for (int Round = 0; Round != 8; ++Round)
    ASSERT_TRUE(Service.ingestText(Block)) << Service.lastError();
  Delta = AllocGauge::count() - Before;
  if (AllocGauge::active()) {
    EXPECT_EQ(Delta, 0u) << "ingestText touched the heap";
  }
  EXPECT_EQ(Service.composedVerdict(), Verdict::Yes);
  EXPECT_EQ(Service.stats().ParseErrors, 0u);
}

TEST(TraceIoHardeningTest, StringViewParseMatchesStringParse) {
  // The string_view entry point is the primary one; a std::string caller
  // converts implicitly and must see identical results, including on
  // malformed input.
  const char *Lines[] = {
      "res 1 2 3 4 5 6 7",  "inv 0 1 0 0 -5 9",   "swi 3 2 1 1 0 0 -9",
      "  res 1 2 3 4 5 6 7 ", "res 1 2 3 4 5 6",  "inv 1 0 0 0 0 0",
      "bogus 1 2 3",          "res 1 2 3 4 5 6 7 8",
  };
  for (const char *L : Lines) {
    Action FromView, FromString;
    std::string ErrView, ErrString;
    LineKind KView = parseActionLine(std::string_view(L), FromView, ErrView);
    LineKind KString =
        parseActionLine(std::string(L), FromString, ErrString);
    EXPECT_EQ(KView, KString) << L;
    if (KView == LineKind::Record && KString == LineKind::Record) {
      EXPECT_EQ(FromView, FromString) << L;
    }
    if (KView == LineKind::Bad && KString == LineKind::Bad) {
      EXPECT_EQ(ErrView, ErrString) << L;
    }
  }
}

//===----------------------------------------------------------------------===//
// Semantic corruption the parser cannot see: the well-formedness layer.
//===----------------------------------------------------------------------===//

TEST(TraceIoHardeningTest, DuplicateCompletionsAreCaughtDownstream) {
  // Two completions for one invocation parse fine — rejecting them is the
  // well-formedness automaton's job, per event.
  TraceParseResult R = parseTrace("inv 0 1 0 0 5 0\n"
                                  "res 0 1 0 0 5 0 1\n"
                                  "res 0 1 0 0 5 0 1\n");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_FALSE(checkWellFormedLin(R.ParsedTrace).Ok);

  TraceBuilder B;
  EXPECT_TRUE(B.append(R.ParsedTrace[0]));
  EXPECT_TRUE(B.append(R.ParsedTrace[1]));
  WellFormedness W = B.append(R.ParsedTrace[2]);
  EXPECT_FALSE(W.Ok);
  // The duplicate is not ingested: the view stays a well-formed trace.
  EXPECT_EQ(B.size(), 2u);
  EXPECT_TRUE(checkWellFormedLin(B.trace()).Ok);
}

TEST(TraceIoHardeningTest, ResponseToWrongInputCaughtPerEvent) {
  TraceBuilder B;
  EXPECT_TRUE(B.append(makeInvoke(0, 1, Input{0, 0, 5, 0})));
  EXPECT_FALSE(B.append(makeRespond(0, 1, Input{0, 0, 6, 0}, Output{1})));
  EXPECT_TRUE(B.append(makeRespond(0, 1, Input{0, 0, 5, 0}, Output{1})));
  EXPECT_EQ(B.size(), 2u);
}
