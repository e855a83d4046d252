//===- lin/Classical.cpp --------------------------------------------------==//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//

#include "lin/Classical.h"

#include "support/Arena.h"
#include "trace/WellFormed.h"

#include <limits>
#include <unordered_set>

using namespace slin;

namespace {

/// One operation of the trace: an invocation and its response (or infinity
/// if pending, in which case the completion appends one).
struct Operation {
  std::size_t InvokeIndex;
  std::size_t RespondIndex; ///< SIZE_MAX when pending.
  Input In;
  Output Out;   ///< Meaningful when not pending.
  bool Pending;
};

/// Scheduling search for a legal sequential reordering.
class ClassicalSearch {
public:
  ClassicalSearch(const Trace &T, const Adt &Type,
                  const LinCheckOptions &Opts)
      : Type(Type), Opts(Opts) {
    // Pair up invocations and responses per client (the trace is
    // well-formed, so they alternate).
    std::vector<std::size_t> OpenOp(64, SIZE_MAX);
    for (std::size_t I = 0, E = T.size(); I != E; ++I) {
      const Action &A = T[I];
      if (A.Client >= OpenOp.size())
        OpenOp.resize(A.Client + 1, SIZE_MAX);
      if (isInvoke(A)) {
        OpenOp[A.Client] = Ops.size();
        Ops.push_back({I, SIZE_MAX, A.In, Output{}, true});
        continue;
      }
      Operation &Op = Ops[OpenOp[A.Client]];
      Op.RespondIndex = I;
      Op.Out = A.Out;
      Op.Pending = false;
      OpenOp[A.Client] = SIZE_MAX;
    }
  }

  ClassicalCheckResult run() {
    ClassicalCheckResult Result;
    if (Ops.size() > 64) {
      Result.Outcome = Verdict::Unknown;
      Result.Reason = "more than 64 operations; exact search not attempted";
      return Result;
    }
    std::unique_ptr<AdtState> State = Type.makeState();
    bool Found = dfs(0, *State);
    Result.NodesExplored = Nodes;
    if (Found) {
      Result.Outcome = Verdict::Yes;
      Result.Witness.Order = std::move(Order);
      return Result;
    }
    if (BudgetExhausted) {
      Result.Outcome = Verdict::Unknown;
      Result.Reason = "node budget exhausted";
      return Result;
    }
    Result.Outcome = Verdict::No;
    Result.Reason = "no completion admits a legal sequential reordering";
    return Result;
  }

private:
  bool dfs(std::uint64_t Scheduled, AdtState &State) {
    if (Scheduled ==
        (Ops.size() == 64 ? ~0ull : ((1ull << Ops.size()) - 1)))
      return true;
    if (++Nodes > Opts.NodeBudget) {
      BudgetExhausted = true;
      return false;
    }
    std::uint64_t Key = hashCombine(Scheduled, State.digest());
    if (Failed.count(Key))
      return false;

    // The earliest response among unscheduled operations bounds which
    // operations may be scheduled next: scheduling X is legal iff no
    // unscheduled Y has resp(Y) < inv(X) (Definition 44).
    std::size_t MinResp = SIZE_MAX;
    for (std::size_t I = 0, E = Ops.size(); I != E; ++I)
      if (!(Scheduled & (1ull << I)))
        MinResp = std::min(MinResp, Ops[I].RespondIndex);

    for (std::size_t I = 0, E = Ops.size(); I != E; ++I) {
      if (Scheduled & (1ull << I))
        continue;
      const Operation &Op = Ops[I];
      if (Op.InvokeIndex > MinResp)
        continue; // Some unscheduled operation finished before Op started.
      // Original responses must agree with the ADT; completed (pending)
      // operations accept whatever the ADT produces (Definition 45 lets the
      // completion choose the output). The step mutates in place and is
      // reverted on mismatch or backtrack.
      UndoToken U;
      Output Produced = State.applyInput(Op.In, U, TokenOverflow);
      if (!Op.Pending && Produced != Op.Out) {
        State.undoInput(U);
        continue;
      }
      Order.push_back({Op.InvokeIndex, Op.Pending, Produced});
      if (dfs(Scheduled | (1ull << I), State))
        return true;
      Order.pop_back();
      State.undoInput(U);
    }
    Failed.insert(Key);
    return false;
  }

  const Adt &Type;
  const LinCheckOptions &Opts;
  std::vector<Operation> Ops;
  std::vector<ClassicalWitness::Entry> Order;
  std::unordered_set<std::uint64_t> Failed;
  Arena TokenOverflow; ///< Undo-token spill space; lives for the search.
  std::uint64_t Nodes = 0;
  bool BudgetExhausted = false;
};

} // namespace

ClassicalCheckResult
slin::checkLinearizableClassical(const Trace &T, const Adt &Type,
                                 const LinCheckOptions &Opts) {
  ClassicalCheckResult Result;
  WellFormedness Wf = checkWellFormedLin(T);
  if (!Wf) {
    Result.Outcome = Verdict::No;
    Result.Reason = "not well-formed: " + Wf.Reason;
    return Result;
  }
  for (const Action &A : T) {
    if (!Type.validInput(A.In)) {
      Result.Outcome = Verdict::No;
      Result.Reason = "invalid input for ADT";
      return Result;
    }
  }
  ClassicalSearch S(T, Type, Opts);
  return S.run();
}
