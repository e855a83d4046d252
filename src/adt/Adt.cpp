//===- adt/Adt.cpp --------------------------------------------------------==//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//

#include "adt/Adt.h"

#include <cassert>

using namespace slin;

AdtState::~AdtState() = default;

void AdtState::serializeCanonical(std::vector<std::int64_t> &Out) const {
  Out.push_back(static_cast<std::int64_t>(digest()));
}

Adt::~Adt() = default;

Output Adt::evaluate(const History &H) const {
  assert(!H.empty() && "f_T is queried at response points, where the history "
                       "ends with the responded input");
  std::unique_ptr<AdtState> State = makeState();
  Output Out;
  for (const Input &In : H)
    Out = State->apply(In);
  return Out;
}

bool Adt::validInput(const Input &) const { return true; }

bool Adt::equivalent(const History &H1, const History &H2) const {
  std::unique_ptr<AdtState> S1 = makeState(), S2 = makeState();
  for (const Input &In : H1)
    S1->apply(In);
  for (const Input &In : H2)
    S2->apply(In);
  return S1->digest() == S2->digest();
}
