//===- trace/Gen.h - Trace generation for tests and benches -----*- C++ -*-==//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Trace generators powering the property-test suites and the checker
/// benchmarks:
///
///   * genLinearizableTrace simulates a perfectly linearizable concurrent
///     object: clients invoke, operations take effect at a random point
///     between invocation and response, outputs come from the ADT. Every
///     generated trace is linearizable by construction (positive family).
///   * genArbitraryTrace produces well-formed traces with outputs drawn at
///     random from a supplied alphabet — mostly *not* linearizable
///     (mixed family for checker-equivalence testing).
///   * enumerateWellFormedTraces exhaustively visits every well-formed
///     trace up to the given bounds (used to validate Theorem 1/4 on a
///     complete universe of small traces).
///   * mutateTrace applies a random linearizability-breaking or benign
///     mutation (negative family with known provenance).
///
//===----------------------------------------------------------------------===//

#ifndef SLIN_TRACE_GEN_H
#define SLIN_TRACE_GEN_H

#include "adt/Adt.h"
#include "support/Rng.h"
#include "trace/Action.h"

#include <functional>
#include <vector>

namespace slin {

/// Parameters shared by the random generators.
struct GenOptions {
  unsigned NumClients = 3;
  unsigned NumOps = 6;          ///< Total operations to invoke.
  std::vector<Input> Alphabet;  ///< Inputs to draw from (must be non-empty).
  std::vector<Output> Outputs;  ///< Output alphabet for arbitrary traces.
  double PendingFraction = 0.2; ///< Chance an op never gets its response.
};

/// Generates a linearizable-by-construction trace of \p Type.
Trace genLinearizableTrace(const Adt &Type, const GenOptions &Opts, Rng &R);

/// Generates a well-formed trace whose outputs are random alphabet draws.
Trace genArbitraryTrace(const GenOptions &Opts, Rng &R);

/// Generates \p Rounds quiescing rounds of \p Clients concurrent register
/// operations in phase 1: \p Writes clients, drawn at random, write a value
/// in 1..3 and the others read. Every client invokes before any responds,
/// outputs come from applying the inputs in client order, and the
/// responses arrive shuffled. Every round boundary is a quiescent cut, and
/// the trace is linearizable by construction. With one write per round,
/// the register state at each cut is fixed by the round's own outputs;
/// with more, only the round's reads observe the write order.
Trace genShuffledRegisterRounds(unsigned Rounds, unsigned Clients,
                                unsigned Writes, Rng &R);

/// Exhaustively enumerates well-formed traces with at most \p MaxActions
/// actions over \p NumClients clients, inputs from \p Alphabet and response
/// outputs from \p Outputs, invoking \p Visit on each (including every
/// prefix, since prefixes of well-formed traces are well-formed).
void enumerateWellFormedTraces(
    unsigned NumClients, unsigned MaxActions,
    const std::vector<Input> &Alphabet, const std::vector<Output> &Outputs,
    const std::function<void(const Trace &)> &Visit);

/// Kinds of trace mutation.
enum class MutationKind : std::uint8_t {
  FlipOutput,   ///< Replace a response output with a different one.
  SwapActions,  ///< Swap two adjacent actions of different clients.
  DropResponse, ///< Delete a response (the op becomes pending).
  DuplicateInvoke, ///< Re-invoke an input on a fresh client.
};

/// Applies one random mutation of kind \p Kind; returns false if the trace
/// has no applicable site.
bool mutateTrace(Trace &T, MutationKind Kind, const GenOptions &Opts, Rng &R);

} // namespace slin

#endif // SLIN_TRACE_GEN_H
