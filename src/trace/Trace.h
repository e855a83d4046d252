//===- trace/Trace.h - Trace operations (Section 3) -------------*- C++ -*-==//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Operations on traces: projection onto a signature or onto a client's
/// action set (Definitions 2, 13, 33), the sequence of previous inputs
/// inputs(t, i) (Definition 9), and interleaving composition of component
/// traces (Definition 2). All indices are 0-based; the paper is 1-based.
///
//===----------------------------------------------------------------------===//

#ifndef SLIN_TRACE_TRACE_H
#define SLIN_TRACE_TRACE_H

#include "trace/Action.h"
#include "trace/Signature.h"

#include <cstddef>
#include <vector>

namespace slin {

/// proj(t, acts(Sig)): the subsequence of \p T whose actions lie in \p Sig.
Trace projectTrace(const Trace &T, const PhaseSignature &Sig);

/// proj(t, acts(sig_T)): drops every switch action — the projection under
/// which Theorem 2 reduces speculative linearizability to plain
/// linearizability.
Trace stripSwitches(const Trace &T);

/// The (m, n)-client sub-trace sub(t, m, n, c) of Definition 33: \p C's
/// invocations and responses with phase in [m..n] plus \p C's switches into
/// exactly m or n. Switches into interior phases are projected away.
Trace clientSubTrace(const Trace &T, ClientId C, const PhaseSignature &Sig);

/// The plain-linearizability client sub-trace (Definition 13): all of \p C's
/// actions. The caller is expected to pass a switch-free trace.
Trace clientSubTrace(const Trace &T, ClientId C);

/// inputs(t, i) (Definition 9): the sequence of inputs submitted by
/// *invocation* actions strictly before index \p I of \p T.
History inputsBefore(const Trace &T, std::size_t I);

/// Positions in \p T of each action of proj(t, Sig): PosMap[j] is the index
/// in \p T of the j-th projected action. This is the pos' function of
/// Appendix C, used to relate a composed trace to its component traces.
std::vector<std::size_t> projectionPositions(const Trace &T,
                                             const PhaseSignature &Sig);

/// Deterministically interleaves component traces \p T1 and \p T2 into a
/// composed trace according to \p PickFirst: PickFirst[k] == true means the
/// k-th action of the composition comes from \p T1. Sizes must agree
/// (|PickFirst| == |T1| + |T2|, with exactly |T1| trues). Inverse of
/// projection for disjoint signatures.
Trace interleave(const Trace &T1, const Trace &T2,
                 const std::vector<bool> &PickFirst);

} // namespace slin

#endif // SLIN_TRACE_TRACE_H
