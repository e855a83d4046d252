//===- engine/Interner.h - Dense input interning ----------------*- C++ -*-==//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Interns Input values into dense InputIds so the chain-search engine can
/// replace sorted-vector multisets (binary search + full rehash per node)
/// with flat count arrays indexed by id and an incrementally maintained
/// multiset hash. An interner is owned by a CheckSession and shared across
/// every trace the session checks, so a corpus with a common alphabet pays
/// the hashing cost of each distinct input once.
///
//===----------------------------------------------------------------------===//

#ifndef SLIN_ENGINE_INTERNER_H
#define SLIN_ENGINE_INTERNER_H

#include "adt/Values.h"

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

namespace slin {

/// Dense identifier of an interned Input.
using InputId = std::uint32_t;

/// Bidirectional Input <-> InputId map. Ids are assigned in interning order
/// starting from 0 and are stable for the interner's lifetime.
class InputInterner {
public:
  /// Returns the id of \p In, interning it first if needed.
  InputId intern(const Input &In) {
    auto [It, Inserted] = Index.try_emplace(In, size());
    if (Inserted)
      Inputs.push_back(In);
    return It->second;
  }

  /// The input denoted by \p Id. \p Id must have been produced by intern.
  const Input &input(InputId Id) const { return Inputs[Id]; }

  /// The inputs denoted by \p Ids, in order: the one place a dense master
  /// (the engine's, or a retained chain's) becomes a History.
  History history(std::span<const InputId> Ids) const {
    History H;
    H.reserve(Ids.size());
    for (InputId Id : Ids)
      H.push_back(Inputs[Id]);
    return H;
  }

  /// Number of distinct inputs interned so far (== smallest unassigned id).
  InputId size() const { return static_cast<InputId>(Inputs.size()); }

  /// Estimated bytes held: the dense table plus the hash index's nodes and
  /// bucket array (node-based unordered_map, so per-entry header + bucket
  /// pointer approximated at three words). Used by the sharded service's
  /// per-shard memory accounting; an estimate, not an exact audit.
  std::size_t memoryBytes() const {
    return Inputs.capacity() * sizeof(Input) +
           Index.size() * (sizeof(Input) + sizeof(InputId) +
                           3 * sizeof(void *)) +
           Index.bucket_count() * sizeof(void *);
  }

private:
  struct InputHash {
    std::size_t operator()(const Input &In) const {
      return static_cast<std::size_t>(hashValue(In));
    }
  };
  struct InputEq {
    bool operator()(const Input &A, const Input &B) const { return A == B; }
  };

  std::vector<Input> Inputs;
  std::unordered_map<Input, InputId, InputHash, InputEq> Index;
};

} // namespace slin

#endif // SLIN_ENGINE_INTERNER_H
