//===- trace/TraceBuilder.h - Streaming trace ingest ------------*- C++ -*-==//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Streaming ingest of a trace, one action at a time. Speculative
/// linearizability is about monitoring histories as they unfold, so the
/// well-formedness disciplines of Definitions 13–15 (plain traces) and
/// 33–35 (phase traces) are enforced *per event*: append(A) runs the
/// appending client's sequential-client automaton one step and either
/// accepts the action into the materialized Trace view or rejects it with
/// the first violation — the builder itself is left unchanged by a
/// rejection. The batch checkers (trace/WellFormed.h) are now thin loops
/// over a TraceBuilder, so the streaming and whole-trace paths cannot
/// drift apart.
///
/// Because every prefix of a well-formed trace is well-formed (each client
/// automaton is simply mid-run), a builder's view is a checkable trace at
/// every point — the property the incremental check sessions
/// (engine/Incremental.h) rely on to emit a verdict after every event.
///
//===----------------------------------------------------------------------===//

#ifndef SLIN_TRACE_TRACEBUILDER_H
#define SLIN_TRACE_TRACEBUILDER_H

#include "trace/Action.h"
#include "trace/Signature.h"
#include "trace/WellFormed.h"

#include <cstddef>
#include <vector>

namespace slin {

/// Streaming, per-event-validated trace construction.
class TraceBuilder {
public:
  /// Client ids at or above this bound are rejected: every per-client
  /// structure in the builder and the engine is indexed densely by client
  /// id, so an adversarial 2^32-scale id would be a memory bomb.
  static constexpr ClientId MaxClients = 1u << 20;

  /// A plain (switch-free, sig_T) builder: Definitions 13–15 per event.
  TraceBuilder() = default;

  /// A phase builder over sig_T(m, n, Init): Definitions 33–35 per event.
  explicit TraceBuilder(const PhaseSignature &Sig) : Sig(Sig), Phase(true) {}

  /// Validates \p A as the next action and appends it to the view. On
  /// failure the builder is unchanged and the result carries the first
  /// violation, phrased as in the batch checkers.
  WellFormedness append(const Action &A);

  /// The materialized view: everything accepted so far, a well-formed
  /// trace at all times. Empty when retention is off (setRetainView).
  const Trace &trace() const { return View; }

  std::size_t size() const { return Count; }
  const PhaseSignature &signature() const { return Sig; }

  /// Turns materialization of the accepted-action view on or off. With
  /// retention off the builder still validates and counts every action —
  /// only the O(n) View stops growing, which is what makes an unbounded
  /// outcome-only monitor's ingest allocation-free. Must be toggled only
  /// while empty: the view cannot be reconstructed after the fact.
  void setRetainView(bool Retain) { RetainView = Retain; }

  /// Forgets everything; mode and retention are kept.
  void clear() {
    View.clear();
    Clients.clear();
    Count = 0;
  }

private:
  /// Per-client sequential-client automaton (Definition 34; the plain
  /// discipline uses the subset {Start, NeedAnswer, Idle}).
  enum class ClientState : std::uint8_t {
    Start,      ///< No action seen yet.
    NeedAnswer, ///< An invocation or init switch is pending.
    Idle,       ///< Last invocation answered; may invoke again.
    Done,       ///< Aborted: no further actions allowed.
  };

  struct ClientSlot {
    ClientState State = ClientState::Start;
    Input PendingIn;
  };

  WellFormedness step(ClientSlot &C, const Action &A) const;

  PhaseSignature Sig;
  bool Phase = false;
  bool RetainView = true;
  Trace View;
  std::size_t Count = 0; ///< Accepted actions (== View.size() if retained).
  std::vector<ClientSlot> Clients;
};

} // namespace slin

#endif // SLIN_TRACE_TRACEBUILDER_H
