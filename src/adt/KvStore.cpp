//===- adt/KvStore.cpp ----------------------------------------------------==//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//

#include "adt/KvStore.h"

#include <map>
#include <vector>

using namespace slin;

namespace {

class KvStoreState final : public AdtState {
  enum UndoKind : std::uint32_t { UndoNothing, UndoEraseKey, UndoSetKey };

public:
  KvStoreState() = default;
  /// Spare nodes are per-instance scratch, not state — a copy starts with
  /// an empty free-list.
  KvStoreState(const KvStoreState &O) : Map(O.Map) {}

  Output apply(const Input &In) override {
    switch (In.Op) {
    case kv::OpGet: {
      auto It = Map.find(In.A);
      return Output{It == Map.end() ? NoValue : It->second};
    }
    case kv::OpPut: {
      auto It = Map.lower_bound(In.A);
      if (It != Map.end() && It->first == In.A)
        It->second = In.B;
      else
        insertAt(It, In.A, In.B);
      return Output{In.B};
    }
    default: {
      auto It = Map.find(In.A);
      if (It == Map.end())
        return Output{NoValue};
      std::int64_t Old = It->second;
      recycle(Map.extract(It));
      return Output{Old};
    }
    }
  }

  Output applyInput(const Input &In, UndoToken &U, Arena &) override {
    switch (In.Op) {
    case kv::OpGet:
      U.Kind = UndoNothing;
      return apply(In);
    case kv::OpPut: {
      auto It = Map.lower_bound(In.A);
      if (It != Map.end() && It->first == In.A) {
        U.Kind = UndoSetKey;
        U.A = In.A;
        U.B = It->second;
        It->second = In.B;
      } else {
        U.Kind = UndoEraseKey;
        U.A = In.A;
        insertAt(It, In.A, In.B);
      }
      return Output{In.B};
    }
    default: {
      auto It = Map.find(In.A);
      if (It == Map.end()) {
        U.Kind = UndoNothing;
        return Output{NoValue};
      }
      U.Kind = UndoSetKey;
      U.A = In.A;
      U.B = It->second;
      recycle(Map.extract(It));
      return Output{U.B};
    }
    }
  }

  void undoInput(const UndoToken &U) override {
    if (U.Kind == UndoEraseKey) {
      auto It = Map.find(U.A);
      if (It != Map.end())
        recycle(Map.extract(It));
    } else if (U.Kind == UndoSetKey) {
      auto It = Map.lower_bound(U.A);
      if (It != Map.end() && It->first == U.A)
        It->second = U.B;
      else
        insertAt(It, U.A, U.B);
    }
  }

  std::unique_ptr<AdtState> clone() const override {
    return std::make_unique<KvStoreState>(*this);
  }

  void copyFrom(const AdtState &Other) override {
    Map = static_cast<const KvStoreState &>(Other).Map;
  }

  std::uint64_t digest() const override {
    std::uint64_t H = 0x6b76u;
    for (const auto &[K, V] : Map) {
      H = hashCombine(H, static_cast<std::uint64_t>(K));
      H = hashCombine(H, static_cast<std::uint64_t>(V));
    }
    return H;
  }

  void serializeCanonical(std::vector<std::int64_t> &Out) const override {
    Out.push_back(static_cast<std::int64_t>(Map.size()));
    for (const auto &[K, V] : Map) { // std::map iterates in key order.
      Out.push_back(K);
      Out.push_back(V);
    }
  }

private:
  using MapT = std::map<std::int64_t, std::int64_t>;

  /// Insert (K, V) at the position \p Hint (from lower_bound(K)), reusing a
  /// recycled node when one is spare. Keeping erased nodes on a bounded
  /// free-list makes the del -> put churn of a long-running monitored
  /// workload allocation-free in steady state: the search's mutate/undo
  /// protocol extracts and reinserts the same node instead of hitting the
  /// heap on every cycle (see the zero-alloc contract in docs/engine.md).
  void insertAt(MapT::iterator Hint, std::int64_t K, std::int64_t V) {
    if (Spare.empty()) {
      Map.emplace_hint(Hint, K, V);
      return;
    }
    MapT::node_type Nh = std::move(Spare.back());
    Spare.pop_back();
    Nh.key() = K;
    Nh.mapped() = V;
    Map.insert(Hint, std::move(Nh));
  }

  void recycle(MapT::node_type &&Nh) {
    if (Spare.size() < MaxSpare)
      Spare.push_back(std::move(Nh)); // Else drop: the handle frees it.
  }

  static constexpr std::size_t MaxSpare = 64;

  MapT Map;
  std::vector<MapT::node_type> Spare;
};

} // namespace

std::unique_ptr<AdtState> KvStoreAdt::makeState() const {
  return std::make_unique<KvStoreState>();
}

bool KvStoreAdt::validInput(const Input &In) const {
  switch (In.Op) {
  case kv::OpGet:
  case kv::OpDel:
    return In.B == 0;
  case kv::OpPut:
    return In.B != NoValue;
  default:
    return false;
  }
}
