//===- lin/LinChecker.h - Deciding the new linearizability def --*- C++ -*-==//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An exact decision procedure for the paper's new definition of
/// linearizability (Definition 5): a trace is linearizable iff it is
/// well-formed and admits a linearization function. The checker searches for
/// a witness in chain form (see lin/Witness.h) by extending a candidate
/// master history one input at a time; at each step it either *commits* an
/// outstanding response (the appended input becomes that response's commit
/// point) or appends a *filler* input (an input that some later commit
/// history will contain — e.g. the input of a pending invocation that took
/// effect before a response, or a duplicate). Memoization on (committed
/// responses, used-input multiset, ADT state digest) prunes the exponential
/// search; this is where the new definition's "local reasoning" pays off:
/// candidate prefixes are validated commit-by-commit instead of reordering
/// the whole trace.
///
/// Deciding linearizability is NP-complete in general, so the search is
/// bounded by a node budget; exceeding it yields Verdict::Unknown (never a
/// wrong answer).
///
//===----------------------------------------------------------------------===//

#ifndef SLIN_LIN_LINCHECKER_H
#define SLIN_LIN_LINCHECKER_H

#include "adt/Adt.h"
#include "engine/ChainSearch.h"
#include "engine/OrderRelation.h"
#include "lin/Witness.h"
#include "trace/Trace.h"

#include <cstdint>
#include <string>

namespace slin {

// Verdict (the three-valued checker outcome) now lives with the shared
// chain-search engine in engine/ChainSearch.h and is re-exported here for
// the checker's many existing users.

/// Outcome of a linearizability check.
struct LinCheckResult {
  Verdict Outcome = Verdict::No;
  std::string Reason;      ///< Human-readable cause for No/Unknown.
  LinWitness Witness;      ///< Valid iff Outcome == Verdict::Yes.
  std::uint64_t NodesExplored = 0;
  /// True when an Unknown came from exhausting the node budget, as opposed
  /// to a structural limit. A warm session's budget-limited Unknowns can
  /// fall on different traces than one-shot checking would give.
  bool BudgetLimited = false;
  /// Graded refinement of Outcome: gradeFor(Outcome) everywhere except the
  /// windowed session's pinned-excursion fallback, which reports Outcome ==
  /// Unknown with Grade == VerdictGrade::BoundedYes (the first 64 live
  /// obligations linearized; only Interference out-of-window completions
  /// remain unchecked). Batch checkers never report BoundedYes.
  VerdictGrade Grade = VerdictGrade::No;
  /// Out-of-window live obligations left unchecked by a BoundedYes verdict
  /// (<= the session's configured InterferenceBound); 0 otherwise.
  std::size_t Interference = 0;

  explicit operator bool() const { return Outcome == Verdict::Yes; }
};

/// Tuning knobs for the search.
struct LinCheckOptions {
  /// Maximum number of search nodes before giving up with Unknown.
  std::uint64_t NodeBudget = 1u << 22;
  /// Materialize the witness on Yes. Monitors that consume only
  /// Outcome/NodesExplored can turn this off; the incremental session then
  /// skips the O(trace) witness materialization from its retained chain
  /// and may answer through its fast step, making the steady-state verdict
  /// genuinely O(1) (batch checkers always materialize).
  bool WantWitness = true;
  /// The happens-before relation MustFollow masks are derived under
  /// (engine/OrderRelation.h). Strict — the default — is the paper's
  /// real-time order and is bit-identical to the pre-parameterized
  /// checker; TsoHb weakens cross-client order to flushed responses
  /// (Action::Meta bit ActionMetaFlushed), deciding classical
  /// linearizability on TSO per Smith/Winter/Colvin. The incremental
  /// sessions' verdict() ignores this field: a session derives its masks
  /// as events arrive, so its relation is fixed at construction by
  /// IncrementalOptions::Order.
  OrderRelationKind Order = OrderRelationKind::Strict;
};

/// Decides whether \p T (a switch-free trace in sig_T) satisfies the
/// new definition of linearizability with respect to \p Type.
LinCheckResult checkLinearizable(const Trace &T, const Adt &Type,
                                 const LinCheckOptions &Opts = {});

} // namespace slin

#endif // SLIN_LIN_LINCHECKER_H
