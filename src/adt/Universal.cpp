//===- adt/Universal.cpp --------------------------------------------------==//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//

#include "adt/Universal.h"

using namespace slin;

namespace {

class UniversalState final : public AdtState {
public:
  Output apply(const Input &In) override {
    Fingerprint = hashCombine(Fingerprint, hashValue(In));
    return Output{static_cast<std::int64_t>(Fingerprint)};
  }

  Output applyInput(const Input &In, UndoToken &U, Arena &) override {
    U.A = static_cast<std::int64_t>(Fingerprint);
    return apply(In);
  }

  void undoInput(const UndoToken &U) override {
    Fingerprint = static_cast<std::uint64_t>(U.A);
  }

  std::unique_ptr<AdtState> clone() const override {
    return std::make_unique<UniversalState>(*this);
  }

  void copyFrom(const AdtState &Other) override {
    Fingerprint = static_cast<const UniversalState &>(Other).Fingerprint;
  }

  std::uint64_t digest() const override { return Fingerprint; }

  void serializeCanonical(std::vector<std::int64_t> &Out) const override {
    Out.push_back(static_cast<std::int64_t>(Fingerprint));
  }

private:
  std::uint64_t Fingerprint = 0x484953u;
};

} // namespace

std::unique_ptr<AdtState> UniversalAdt::makeState() const {
  return std::make_unique<UniversalState>();
}
