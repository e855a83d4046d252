//===- adt/Consensus.cpp --------------------------------------------------==//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//

#include "adt/Consensus.h"

using namespace slin;

namespace {

/// Replay state for consensus: remembers the first proposal, which decides
/// every operation (Figure 1).
class ConsensusState final : public AdtState {
public:
  Output apply(const Input &In) override {
    if (Decided == NoValue)
      Decided = cons::proposalOf(In);
    return cons::decide(Decided);
  }

  Output applyInput(const Input &In, UndoToken &U, Arena &) override {
    U.A = Decided;
    return apply(In);
  }

  void undoInput(const UndoToken &U) override { Decided = U.A; }

  std::unique_ptr<AdtState> clone() const override {
    return std::make_unique<ConsensusState>(*this);
  }

  void copyFrom(const AdtState &Other) override {
    Decided = static_cast<const ConsensusState &>(Other).Decided;
  }

  std::uint64_t digest() const override {
    return hashCombine(0xC0115u, static_cast<std::uint64_t>(Decided));
  }

  void serializeCanonical(std::vector<std::int64_t> &Out) const override {
    Out.push_back(Decided);
  }

private:
  std::int64_t Decided = NoValue;
};

} // namespace

std::unique_ptr<AdtState> ConsensusAdt::makeState() const {
  return std::make_unique<ConsensusState>();
}

bool ConsensusAdt::validInput(const Input &In) const {
  return In.Op == cons::OpPropose && In.A != NoValue && In.B == 0;
}
