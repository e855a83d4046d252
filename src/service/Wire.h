//===- service/Wire.h - Multi-object streaming wire format ------*- C++ -*-==//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The monitoring service's line-oriented wire format: the hardened
/// single-object TraceIo record (trace/TraceIo.h) extended with a leading
/// object-id field, one event per line:
///
///   <obj> inv <client> <phase> <op> <tag> <a> <b>
///   <obj> res <client> <phase> <op> <tag> <a> <b> <out>
///   <obj> swi <client> <phase> <op> <tag> <a> <b> <sv>
///
/// Blank lines and lines starting with '#' are ignored, exactly as in the
/// base format; a stream with every object id equal is the base format
/// modulo the prefix, so single-object tooling upgrades by prepending a
/// column.
///
/// The parser inherits every hardening rule of the base format (overflow
/// is a parse failure, client/phase ids are dense-bounded) and adds the
/// same bound on the object id: the demux keys per-shard state by object,
/// so an adversarial 2^32-scale id must be a parse error, not a memory
/// bomb. parseServiceLine is parseObjectActionLine (trace/TraceIo.h) with
/// that bound: the base format's one-pass parser reads the object id in
/// the same pass as the record, never allocates on an accepted record,
/// and reports the object column's errors before the record's — it is the
/// service's per-event ingest hot path.
///
//===----------------------------------------------------------------------===//

#ifndef SLIN_SERVICE_WIRE_H
#define SLIN_SERVICE_WIRE_H

#include "trace/TraceIo.h"

#include <string>
#include <string_view>

namespace slin {

/// Identifies one monitored object (one shard of the service).
using ObjectId = std::uint32_t;

/// Bound on wire object ids (same dense-id rationale and value as the
/// client/phase bound in the base format).
inline constexpr ObjectId MaxObjectId = 1u << 20;

/// One parsed wire event: which object, and the action observed at its
/// interface.
struct ServiceRecord {
  ObjectId Object = 0;
  Action A;
};

/// Parses one wire line. Returns LineKind::Record and fills \p R on
/// success; LineKind::Blank for blank/comment lines; LineKind::Bad with a
/// diagnostic in \p Error otherwise (checked in the order: malformed
/// object id, object id out of range, object id without an action record,
/// then the base format's order). Allocation-free on the Record and Blank
/// outcomes.
LineKind parseServiceLine(std::string_view Line, ServiceRecord &R,
                          std::string &Error);

/// Renders one wire event (no trailing newline).
std::string formatServiceRecord(const ServiceRecord &R);

/// Appends one wire event plus newline to \p Out — the bulk-rendering
/// form generators use to build a stream without a string per line.
void appendServiceLine(std::string &Out, ObjectId Object, const Action &A);

} // namespace slin

#endif // SLIN_SERVICE_WIRE_H
