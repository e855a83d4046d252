//===- support/Multiset.h - Multisets over ordered elements -----*- C++ -*-==//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Multisets as used throughout the paper (Section 3): a multiplicity
/// function E -> N with pointwise-max union (the paper's U), pointwise-sum
/// union (the paper's (+)), and inclusion. Backed by a sorted flat vector of
/// (element, count) pairs, which is cache-friendly for the small multisets
/// the checkers manipulate.
///
//===----------------------------------------------------------------------===//

#ifndef SLIN_SUPPORT_MULTISET_H
#define SLIN_SUPPORT_MULTISET_H

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

namespace slin {

/// A multiset of elements of type \p T, where \p T is totally ordered.
template <typename T> class Multiset {
public:
  Multiset() = default;

  /// Builds the multiset of elements of \p Seq (the paper's elems()).
  template <typename Range> static Multiset fromRange(const Range &Seq) {
    Multiset M;
    for (const auto &E : Seq)
      M.add(E);
    return M;
  }

  /// Adds \p Count occurrences of \p E.
  void add(const T &E, std::int64_t Count = 1) {
    assert(Count >= 0 && "negative multiplicity");
    if (Count == 0)
      return;
    auto It = lowerBound(E);
    if (It != Entries.end() && It->first == E) {
      It->second += Count;
      return;
    }
    Entries.insert(It, {E, Count});
  }

  /// Removes one occurrence of \p E; returns false if \p E is absent.
  bool removeOne(const T &E) {
    auto It = lowerBound(E);
    if (It == Entries.end() || It->first != E)
      return false;
    if (--It->second == 0)
      Entries.erase(It);
    return true;
  }

  /// Returns the multiplicity of \p E.
  std::int64_t count(const T &E) const {
    auto It = lowerBound(E);
    if (It == Entries.end() || It->first != E)
      return 0;
    return It->second;
  }

  bool contains(const T &E) const { return count(E) > 0; }

  /// Total number of element occurrences.
  std::int64_t size() const {
    std::int64_t N = 0;
    for (const auto &Entry : Entries)
      N += Entry.second;
    return N;
  }

  bool empty() const { return Entries.empty(); }

  /// True iff this is included in \p Other: for all e, count(e) <=
  /// Other.count(e). This is the paper's subseteq on multisets.
  bool includedIn(const Multiset &Other) const {
    for (const auto &Entry : Entries)
      if (Entry.second > Other.count(Entry.first))
        return false;
    return true;
  }

  /// Pointwise-max union (the paper's U, Definition in Section 3).
  Multiset unionMax(const Multiset &Other) const {
    Multiset Result;
    mergeWith(Other, Result,
              [](std::int64_t A, std::int64_t B) { return std::max(A, B); });
    return Result;
  }

  /// Pointwise-sum union (the paper's disjoint union (+)).
  Multiset unionSum(const Multiset &Other) const {
    Multiset Result;
    mergeWith(Other, Result,
              [](std::int64_t A, std::int64_t B) { return A + B; });
    return Result;
  }

  /// In-place pointwise max with \p Other.
  void unionMaxInPlace(const Multiset &Other) { *this = unionMax(Other); }

  bool operator==(const Multiset &Other) const {
    return Entries == Other.Entries;
  }

  /// Access to the underlying sorted (element, count) entries.
  const std::vector<std::pair<T, std::int64_t>> &entries() const {
    return Entries;
  }

private:
  using Entry = std::pair<T, std::int64_t>;

  typename std::vector<Entry>::iterator lowerBound(const T &E) {
    return std::lower_bound(
        Entries.begin(), Entries.end(), E,
        [](const Entry &A, const T &Key) { return A.first < Key; });
  }
  typename std::vector<Entry>::const_iterator lowerBound(const T &E) const {
    return std::lower_bound(
        Entries.begin(), Entries.end(), E,
        [](const Entry &A, const T &Key) { return A.first < Key; });
  }

  template <typename Combine>
  void mergeWith(const Multiset &Other, Multiset &Result,
                 Combine Fn) const {
    auto I = Entries.begin(), IE = Entries.end();
    auto J = Other.Entries.begin(), JE = Other.Entries.end();
    while (I != IE || J != JE) {
      if (J == JE || (I != IE && I->first < J->first)) {
        Result.Entries.push_back({I->first, Fn(I->second, 0)});
        ++I;
      } else if (I == IE || J->first < I->first) {
        Result.Entries.push_back({J->first, Fn(0, J->second)});
        ++J;
      } else {
        Result.Entries.push_back({I->first, Fn(I->second, J->second)});
        ++I;
        ++J;
      }
    }
  }

  std::vector<Entry> Entries;
};

} // namespace slin

#endif // SLIN_SUPPORT_MULTISET_H
