//===- trace/Trace.cpp ----------------------------------------------------==//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//

#include "trace/Trace.h"

#include <cassert>

using namespace slin;

Trace slin::projectTrace(const Trace &T, const PhaseSignature &Sig) {
  Trace Result;
  for (const Action &A : T)
    if (Sig.contains(A))
      Result.push_back(A);
  return Result;
}

Trace slin::stripSwitches(const Trace &T) {
  Trace Result;
  for (const Action &A : T)
    if (!isSwitch(A))
      Result.push_back(A);
  return Result;
}

/// True iff \p A belongs to Act_T(c, m, n) (Definition 33): note switch
/// actions into interior phases are excluded.
static bool inClientActs(const Action &A, ClientId C,
                         const PhaseSignature &Sig) {
  if (A.Client != C || !Sig.contains(A))
    return false;
  if (!isSwitch(A))
    return true;
  return A.Phase == Sig.M || A.Phase == Sig.N;
}

Trace slin::clientSubTrace(const Trace &T, ClientId C,
                           const PhaseSignature &Sig) {
  Trace Result;
  for (const Action &A : T)
    if (inClientActs(A, C, Sig))
      Result.push_back(A);
  return Result;
}

Trace slin::clientSubTrace(const Trace &T, ClientId C) {
  Trace Result;
  for (const Action &A : T)
    if (A.Client == C)
      Result.push_back(A);
  return Result;
}

History slin::inputsBefore(const Trace &T, std::size_t I) {
  assert(I <= T.size() && "index out of range");
  History H;
  for (std::size_t J = 0; J < I; ++J)
    if (isInvoke(T[J]))
      H.push_back(T[J].In);
  return H;
}

std::vector<std::size_t>
slin::projectionPositions(const Trace &T, const PhaseSignature &Sig) {
  std::vector<std::size_t> Positions;
  for (std::size_t I = 0, E = T.size(); I != E; ++I)
    if (Sig.contains(T[I]))
      Positions.push_back(I);
  return Positions;
}

Trace slin::interleave(const Trace &T1, const Trace &T2,
                       const std::vector<bool> &PickFirst) {
  assert(PickFirst.size() == T1.size() + T2.size() &&
         "interleave schedule has wrong length");
  Trace Result;
  Result.reserve(PickFirst.size());
  std::size_t I = 0, J = 0;
  for (bool FromFirst : PickFirst) {
    if (FromFirst) {
      assert(I < T1.size() && "schedule exhausts first trace");
      Result.push_back(T1[I++]);
    } else {
      assert(J < T2.size() && "schedule exhausts second trace");
      Result.push_back(T2[J++]);
    }
  }
  return Result;
}
