//===- adt/Queue.cpp ------------------------------------------------------==//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//

#include "adt/Queue.h"

#include <deque>

using namespace slin;

namespace {

class QueueState final : public AdtState {
  enum UndoKind : std::uint32_t { UndoNothing, UndoEnq, UndoDeq };

public:
  Output apply(const Input &In) override {
    if (In.Op == queue::OpEnq) {
      Items.push_back(In.A);
      return Output{In.A};
    }
    if (Items.empty())
      return Output{NoValue};
    std::int64_t Front = Items.front();
    Items.pop_front();
    return Output{Front};
  }

  Output applyInput(const Input &In, UndoToken &U, Arena &) override {
    if (In.Op == queue::OpEnq) {
      U.Kind = UndoEnq;
      Items.push_back(In.A);
      return Output{In.A};
    }
    if (Items.empty()) {
      U.Kind = UndoNothing;
      return Output{NoValue};
    }
    U.Kind = UndoDeq;
    U.A = Items.front();
    Items.pop_front();
    return Output{U.A};
  }

  void undoInput(const UndoToken &U) override {
    if (U.Kind == UndoEnq)
      Items.pop_back();
    else if (U.Kind == UndoDeq)
      Items.push_front(U.A);
  }

  std::unique_ptr<AdtState> clone() const override {
    return std::make_unique<QueueState>(*this);
  }

  void copyFrom(const AdtState &Other) override {
    Items = static_cast<const QueueState &>(Other).Items;
  }

  std::uint64_t digest() const override {
    std::uint64_t H = 0x9u;
    for (std::int64_t V : Items)
      H = hashCombine(H, static_cast<std::uint64_t>(V));
    return H;
  }

  void serializeCanonical(std::vector<std::int64_t> &Out) const override {
    Out.push_back(static_cast<std::int64_t>(Items.size()));
    Out.insert(Out.end(), Items.begin(), Items.end());
  }

private:
  std::deque<std::int64_t> Items;
};

} // namespace

std::unique_ptr<AdtState> QueueAdt::makeState() const {
  return std::make_unique<QueueState>();
}

bool QueueAdt::validInput(const Input &In) const {
  if (In.B != 0)
    return false;
  if (In.Op == queue::OpEnq)
    return In.A != NoValue;
  return In.Op == queue::OpDeq && In.A == 0;
}
