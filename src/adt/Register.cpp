//===- adt/Register.cpp ---------------------------------------------------==//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//

#include "adt/Register.h"

using namespace slin;

namespace {

class RegisterState final : public AdtState {
public:
  Output apply(const Input &In) override {
    if (In.Op == reg::OpWrite)
      Content = In.A;
    return Output{Content};
  }

  Output applyInput(const Input &In, UndoToken &U, Arena &) override {
    U.A = Content;
    return apply(In);
  }

  void undoInput(const UndoToken &U) override { Content = U.A; }

  std::unique_ptr<AdtState> clone() const override {
    return std::make_unique<RegisterState>(*this);
  }

  void copyFrom(const AdtState &Other) override {
    Content = static_cast<const RegisterState &>(Other).Content;
  }

  std::uint64_t digest() const override {
    return hashCombine(0x4e6u, static_cast<std::uint64_t>(Content));
  }

  void serializeCanonical(std::vector<std::int64_t> &Out) const override {
    Out.push_back(Content);
  }

private:
  std::int64_t Content = NoValue;
};

} // namespace

std::unique_ptr<AdtState> RegisterAdt::makeState() const {
  return std::make_unique<RegisterState>();
}

bool RegisterAdt::validInput(const Input &In) const {
  if (In.B != 0)
    return false;
  if (In.Op == reg::OpRead)
    return In.A == 0;
  return In.Op == reg::OpWrite && In.A != NoValue;
}
