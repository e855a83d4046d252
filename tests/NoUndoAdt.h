//===- tests/NoUndoAdt.h - An ADT whose states lack undo --------*- C++ -*-==//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A test-only decorator that hides the mutate/undo protocol of any ADT:
/// its states forward apply, clone, digest and serializeCanonical to the
/// wrapped ADT's states and keep AdtState::supportsUndo() == false. Every
/// in-tree ADT implements undo, so this is how tests reach the engine's
/// clone-per-child fallback and the sessions' replay paths. Interning,
/// move order and memo keys are the wrapped ADT's, so verdicts and node
/// counts must match the plain ADT's exactly.
///
//===----------------------------------------------------------------------===//

#ifndef SLIN_TESTS_NOUNDOADT_H
#define SLIN_TESTS_NOUNDOADT_H

#include "adt/Adt.h"

#include <memory>
#include <utility>

namespace slin {

class NoUndoAdt final : public Adt {
public:
  /// \p Inner must outlive this ADT.
  explicit NoUndoAdt(const Adt &Inner) : Inner(Inner) {}

  const char *name() const override { return Inner.name(); }
  std::unique_ptr<AdtState> makeState() const override {
    return std::make_unique<State>(Inner.makeState());
  }
  bool validInput(const Input &In) const override {
    return Inner.validInput(In);
  }

private:
  class State final : public AdtState {
  public:
    explicit State(std::unique_ptr<AdtState> S) : S(std::move(S)) {}
    Output apply(const Input &In) override { return S->apply(In); }
    std::unique_ptr<AdtState> clone() const override {
      return std::make_unique<State>(S->clone());
    }
    std::uint64_t digest() const override { return S->digest(); }
    void serializeCanonical(std::vector<std::int64_t> &Out) const override {
      S->serializeCanonical(Out);
    }

  private:
    std::unique_ptr<AdtState> S;
  };

  const Adt &Inner;
};

} // namespace slin

#endif // SLIN_TESTS_NOUNDOADT_H
