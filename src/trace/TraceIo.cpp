//===- trace/TraceIo.cpp --------------------------------------------------==//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//

#include "trace/TraceIo.h"

#include "trace/TraceBuilder.h"

#include <cstdio>

using namespace slin;

std::string slin::formatAction(const Action &A) {
  char Buf[192];
  int Len = 0;
  switch (A.Kind) {
  case ActionKind::Invoke:
    Len = std::snprintf(Buf, sizeof(Buf), "inv %u %u %u %u %lld %lld",
                        A.Client, A.Phase, A.In.Op, A.In.Tag,
                        static_cast<long long>(A.In.A),
                        static_cast<long long>(A.In.B));
    break;
  case ActionKind::Respond:
    Len = std::snprintf(Buf, sizeof(Buf), "res %u %u %u %u %lld %lld %lld",
                        A.Client, A.Phase, A.In.Op, A.In.Tag,
                        static_cast<long long>(A.In.A),
                        static_cast<long long>(A.In.B),
                        static_cast<long long>(A.Out.Val));
    break;
  case ActionKind::Switch:
    Len = std::snprintf(Buf, sizeof(Buf), "swi %u %u %u %u %lld %lld %lld",
                        A.Client, A.Phase, A.In.Op, A.In.Tag,
                        static_cast<long long>(A.In.A),
                        static_cast<long long>(A.In.B),
                        static_cast<long long>(A.Sv.Val));
    break;
  }
  // The metadata column is emitted only when set, so traces that never
  // touch Action::Meta render byte-identical to the pre-metadata format.
  if (A.Meta != 0)
    std::snprintf(Buf + Len, sizeof(Buf) - static_cast<std::size_t>(Len),
                  " %u", A.Meta);
  return Buf;
}

std::string slin::formatTrace(const Trace &T) {
  std::string Result;
  for (const Action &A : T) {
    Result += formatAction(A);
    Result += '\n';
  }
  return Result;
}

namespace {

/// Byte classes of the line format: a decimal digit maps to its value,
/// the five separators " \t\r\f\v" to Sep, and every other byte to Other.
constexpr std::uint8_t Sep = 10, Other = 11;

struct ByteClassTable {
  std::uint8_t Of[256];
  constexpr ByteClassTable() : Of() {
    for (unsigned C = 0; C != 256; ++C)
      Of[C] = C >= '0' && C <= '9' ? static_cast<std::uint8_t>(C - '0')
                                   : Other;
    for (unsigned char C : {' ', '\t', '\r', '\f', '\v'})
      Of[C] = Sep;
  }
};

constexpr ByteClassTable ByteClass;

/// One forward cursor over a line. Every byte is classified once, by one
/// table load, and each numeric field is converted while it is scanned.
class LineCursor {
public:
  LineCursor(const char *Begin, const char *End) : P(Begin), End(End) {}

  const char *pos() const { return P; }

  /// The bytes consumed since \p Begin.
  std::string_view since(const char *Begin) const {
    return {Begin, static_cast<std::size_t>(P - Begin)};
  }

  /// Moves to the start of the next field; false when none is left.
  bool toField() {
    while (P != End && classOf(*P) == Sep)
      ++P;
    return P != End;
  }

  /// Consumes the field at the cursor and returns it.
  std::string_view field() {
    const char *Begin = P;
    while (P != End && classOf(*P) != Sep)
      ++P;
    return since(Begin);
  }

  /// Consumes the field at the cursor as a signed decimal: an optional
  /// '-' and at least one digit, nothing else, with a magnitude of at most
  /// 2^63 for negatives and 2^63 - 1 otherwise. Never throws: a value
  /// outside int64 range is a parse failure, so untrusted input cannot
  /// terminate the process. The whole field is consumed either way.
  bool number(std::int64_t &Out) {
    bool Negative = *P == '-';
    P += Negative;
    const char *Digits = P;
    // Below this bound Acc * 10 + 9 cannot wrap; past it the magnitude
    // exceeds 2^63 whatever follows.
    constexpr std::uint64_t NoWrap = (UINT64_MAX - 9) / 10;
    std::uint64_t Acc = 0;
    bool Digital = true, Fits = true;
    for (; P != End; ++P) {
      std::uint8_t C = classOf(*P);
      if (C > 9) {
        if (C == Sep)
          break;
        Digital = false; // Neither digit nor separator: scan on to the end.
        continue;
      }
      Fits &= Acc <= NoWrap;
      Acc = Acc * 10 + C;
    }
    const std::uint64_t Limit = Negative ? 1ull << 63 : (1ull << 63) - 1;
    if (!Digital || P == Digits || !Fits || Acc > Limit)
      return false;
    Out = Negative ? static_cast<std::int64_t>(~Acc + 1)
                   : static_cast<std::int64_t>(Acc);
    return true;
  }

private:
  static std::uint8_t classOf(char C) {
    return ByteClass.Of[static_cast<unsigned char>(C)];
  }

  const char *P;
  const char *End;
};

/// Writes a Bad line's diagnostic, \p Head + \p Quoted + \p Tail. Kept out
/// of line and cold, so the accepted path carries none of its code.
[[gnu::cold, gnu::noinline]] LineKind bad(std::string &Error,
                                          std::string_view Head,
                                          std::string_view Quoted = {},
                                          std::string_view Tail = {}) {
  std::string Why(Head);
  Why.append(Quoted).append(Tail);
  Error = std::move(Why); // Quoted may view the caller's Error.
  return LineKind::Bad;
}

[[gnu::cold, gnu::noinline]] LineKind badCount(std::string &Error,
                                               std::size_t Columns,
                                               std::size_t Found) {
  return bad(Error,
             "expected " + std::to_string(Columns + 1) + " or " +
                 std::to_string(Columns + 2) + " fields, found ",
             std::to_string(Found));
}

bool isU32(std::int64_t V) { return V >= 0 && V <= UINT32_MAX; }

/// Bound on parsed client and phase ids. Downstream structures (the
/// well-formedness automata, the engine's per-client tables) are densely
/// indexed by these, so the parser rejects ids that no legitimate trace
/// reaches but that would turn a one-line file into gigabytes of zeroed
/// memory. The builder's bound is authoritative so they cannot drift.
constexpr std::uint32_t MaxDenseId = TraceBuilder::MaxClients;

/// The one line parser, in one pass over \p Line. With \p HasObject the
/// line starts with an object-id column below \p ObjectBound, written to
/// \p Object on a Record. The first failing check names a Bad line, in
/// this order: malformed object id, object id out of range, object id
/// without a record; then unknown kind, field count, any malformed
/// numeric field, phase 0, client bound, phase bound. Diagnostics are
/// built only on the Bad path, and \p Error is written only there.
LineKind parseLine(std::string_view Line, bool HasObject,
                   std::uint32_t ObjectBound, std::uint32_t &Object,
                   Action &A, std::string &Error) {
  if (Line.empty() || Line[0] == '#')
    return LineKind::Blank;
  const char *End = Line.data() + Line.size();
  LineCursor Cur(Line.data(), End);
  if (!Cur.toField())
    return LineKind::Blank;

  std::int64_t Obj = 0;
  if (HasObject) {
    const char *Begin = Cur.pos();
    if (!Cur.number(Obj) || !isU32(Obj))
      return bad(Error, "malformed object id '", Cur.since(Begin), "'");
    if (Obj >= ObjectBound)
      return bad(Error, "object id ", Cur.since(Begin), " out of range");
    // A bare object id is a malformed record, not a blank line.
    if (!Cur.toField())
      return bad(Error, "object id without an action record");
  }

  std::string_view Kind = Cur.field();
  ActionKind K;
  if (Kind == "inv")
    K = ActionKind::Invoke;
  else if (Kind == "res")
    K = ActionKind::Respond;
  else if (Kind == "swi")
    K = ActionKind::Switch;
  else
    return bad(Error, "unknown action kind '", Kind, "'");

  // The columns after the kind: client, phase, op, tag, a, b, the output
  // or switch value for res/swi, then the optional Meta column. Fields
  // past those are only counted, so a count error outranks a malformed
  // field wherever it sits.
  const char *ColumnsAt = Cur.pos();
  const std::size_t Columns = K == ActionKind::Invoke ? 6 : 7;
  std::int64_t V[8] = {};
  bool Numeric = true;
  std::size_t Got = 0;
  for (; Got != Columns + 1 && Cur.toField(); ++Got)
    Numeric &= Cur.number(V[Got]);
  std::size_t Found = 1 + Got;
  for (; Cur.toField(); ++Found)
    Cur.field();
  if (Found != Columns + 1 && Found != Columns + 2)
    return badCount(Error, Columns, Found);
  bool HasMeta = Got == Columns + 1;
  if (!Numeric || !isU32(V[0]) || !isU32(V[1]) || !isU32(V[2]) ||
      !isU32(V[3]) || (HasMeta && !isU32(V[Columns])))
    return bad(Error, "malformed numeric field");
  // A range diagnostic quotes the client or phase field as written; only
  // then is the field's text read again.
  auto Quote = [&](std::size_t Column) {
    LineCursor Ids(ColumnsAt, End);
    for (std::size_t I = 0; I != Column; ++I) {
      Ids.toField();
      Ids.field();
    }
    Ids.toField();
    return Ids.field();
  };
  if (V[1] == 0)
    return bad(Error, "phase numbering starts at 1");
  if (V[0] >= MaxDenseId)
    return bad(Error, "client id ", Quote(0), " out of range");
  if (V[1] >= MaxDenseId)
    return bad(Error, "phase id ", Quote(1), " out of range");

  A = Action();
  A.Kind = K;
  A.Client = static_cast<ClientId>(V[0]);
  A.Phase = static_cast<PhaseId>(V[1]);
  A.In.Op = static_cast<std::uint32_t>(V[2]);
  A.In.Tag = static_cast<std::uint32_t>(V[3]);
  A.In.A = V[4];
  A.In.B = V[5];
  if (K == ActionKind::Respond)
    A.Out.Val = V[6];
  else if (K == ActionKind::Switch)
    A.Sv.Val = V[6];
  if (HasMeta)
    A.Meta = static_cast<std::uint32_t>(V[Columns]);
  Object = static_cast<std::uint32_t>(Obj);
  return LineKind::Record;
}

} // namespace

LineKind slin::parseActionLine(std::string_view Line, Action &A,
                               std::string &Error) {
  std::uint32_t Object = 0;
  return parseLine(Line, /*HasObject=*/false, 0, Object, A, Error);
}

LineKind slin::parseObjectActionLine(std::string_view Line,
                                     std::uint32_t ObjectBound,
                                     std::uint32_t &Object, Action &A,
                                     std::string &Error) {
  return parseLine(Line, /*HasObject=*/true, ObjectBound, Object, A, Error);
}

TraceParseResult slin::parseTrace(std::string_view Text) {
  TraceParseResult Result;
  unsigned LineNo = 0;

  while (!Text.empty()) {
    std::size_t Eol = Text.find('\n');
    std::string_view Line =
        Text.substr(0, Eol == std::string_view::npos ? Text.size() : Eol);
    Text = Eol == std::string_view::npos ? std::string_view{}
                                         : Text.substr(Eol + 1);
    ++LineNo;
    Action A;
    std::string Error;
    switch (parseActionLine(Line, A, Error)) {
    case LineKind::Blank:
      break;
    case LineKind::Bad:
      Result.Ok = false;
      Result.Error = "line " + std::to_string(LineNo) + ": " + Error;
      return Result;
    case LineKind::Record:
      Result.ParsedTrace.push_back(A);
      break;
    }
  }
  Result.Ok = true;
  return Result;
}
