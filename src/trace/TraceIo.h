//===- trace/TraceIo.h - Textual trace format -------------------*- C++ -*-==//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A line-oriented textual format for traces, used by the trace-lint example
/// tool, the online monitor, and test fixtures. One action per line:
///
///   inv <client> <phase> <op> <tag> <a> <b> [meta]
///   res <client> <phase> <op> <tag> <a> <b> <out> [meta]
///   swi <client> <phase> <op> <tag> <a> <b> <sv> [meta]
///
/// Blank lines and lines starting with '#' are ignored. The optional
/// trailing [meta] column is Action::Meta (a u32 bitset; bit 0 is
/// ActionMetaFlushed, consumed by the TsoHb order relation). It is
/// omitted on output when zero and defaults to zero when absent, so the
/// extended format reads and writes every pre-metadata trace unchanged.
///
/// The parser is hardened for untrusted input — the streaming ingest path
/// (trace/TraceBuilder.h) inherits it record by record: numeric fields
/// reject overflow instead of throwing, and client/phase ids are bounded
/// (every per-client structure downstream is densely indexed, so a 2^32
/// client id would be a memory bomb, not a trace).
///
/// The line parser is also the per-event unit of the monitoring service's
/// wire protocol (service/Wire.h), which makes it a steady-state hot path.
/// One routine serves parseActionLine, parseObjectActionLine (the wire
/// format's entry) and parseTrace: a single forward cursor over the
/// std::string_view that classifies each byte with a 256-entry table,
/// dispatches on the kind once and converts each numeric field while it
/// scans it. It performs no heap allocation on a Record or Blank line;
/// diagnostics are built only for a Bad one. The zero-allocation contract
/// is enforced by the AllocGauge coverage in tests/trace_io_test, and the
/// exact diagnostics by its golden table.
///
//===----------------------------------------------------------------------===//

#ifndef SLIN_TRACE_TRACEIO_H
#define SLIN_TRACE_TRACEIO_H

#include "trace/Action.h"

#include <string>
#include <string_view>

namespace slin {

/// Renders one action in the textual format (no trailing newline).
std::string formatAction(const Action &A);

/// Renders a whole trace, one action per line.
std::string formatTrace(const Trace &T);

/// Outcome of parsing one line of the textual format.
enum class LineKind : std::uint8_t {
  Record, ///< The line held one action, written to the out-parameter.
  Blank,  ///< Blank or comment line; nothing parsed.
  Bad,    ///< Malformed; the error string describes the first problem.
};

/// Parses a single line — the streaming unit of the format. Returns
/// LineKind::Record and fills \p A on success; LineKind::Bad and fills
/// \p Error (without line-number prefix) on a malformed record, leaving
/// it untouched otherwise. The first failing check names the line: kind,
/// field count, every numeric field, phase 0, client bound, phase bound.
/// Never allocates on the Record or Blank outcomes: the line is read in
/// place over the view.
LineKind parseActionLine(std::string_view Line, Action &A,
                         std::string &Error);

/// Parses a line of the format behind a leading object-id column (the
/// service wire format, service/Wire.h). The id must be a u32 below
/// \p ObjectBound; it is written to \p Object on a Record. The id is
/// checked first (malformed, then out of range, then an id with no record
/// after it) and the record then exactly as parseActionLine checks it,
/// by the same routine. Allocation-free on the Record and Blank outcomes.
LineKind parseObjectActionLine(std::string_view Line,
                               std::uint32_t ObjectBound,
                               std::uint32_t &Object, Action &A,
                               std::string &Error);

/// Result of parsing a textual trace.
struct TraceParseResult {
  bool Ok = false;
  std::string Error;   ///< First error, with 1-based line number.
  Trace ParsedTrace;
};

/// Parses the textual format, one parseActionLine per line. Returns
/// Ok=false with a diagnostic on the first malformed line.
TraceParseResult parseTrace(std::string_view Text);

} // namespace slin

#endif // SLIN_TRACE_TRACEIO_H
