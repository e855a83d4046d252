//===- support/Arena.h - Bump allocation for search scratch -----*- C++ -*-==//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A monotonic bump arena for the chain-search engine's scratch data: the
/// per-obligation availability count arrays, the per-node candidate
/// buffers, and any AdtState undo payload too large for the inline
/// UndoToken fields (the overflow-token contract of adt/Adt.h). The search
/// bump-allocates these and rewinds a node's share when it backtracks,
/// where the seed checkers built a heap Multiset per node, and a
/// CheckSession rewinds the arena between traces so a corpus run performs
/// a bounded number of real heap allocations no matter how many traces it
/// checks.
///
//===----------------------------------------------------------------------===//

#ifndef SLIN_SUPPORT_ARENA_H
#define SLIN_SUPPORT_ARENA_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

namespace slin {

/// A monotonic allocator: allocation bumps a pointer within chained blocks;
/// reset() rewinds to empty while keeping the blocks for reuse. Blocks grow
/// geometrically: the first is \p FirstBlockBytes (64 KB by default), and
/// each later one max(2 x the last block, the request), so the reserve stays
/// within a small factor of the high-water however small the first block
/// is. Only trivially-destructible payloads may be placed in the arena —
/// reset() runs no destructors.
class Arena {
public:
  explicit Arena(std::size_t FirstBlockBytes = 1u << 16)
      : FirstBlockBytes(FirstBlockBytes) {}

  /// Allocates \p Bytes with the given power-of-two alignment.
  void *allocate(std::size_t Bytes,
                 std::size_t Align = alignof(std::max_align_t)) {
    if (Current == Blocks.size() || Offset + Bytes + Align > Capacities[Current])
      grow(Bytes + Align);
    std::uintptr_t P =
        reinterpret_cast<std::uintptr_t>(Blocks[Current].get() + Offset);
    std::uintptr_t Aligned = (P + Align - 1) & ~(Align - 1);
    Offset += (Aligned - P) + Bytes;
    Allocated += Bytes;
    if (Allocated > HighWater)
      HighWater = Allocated;
    return reinterpret_cast<void *>(Aligned);
  }

  /// Allocates an uninitialized array of \p N elements of \p T.
  template <typename T> T *allocArray(std::size_t N) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena never runs destructors");
    return static_cast<T *>(allocate(N * sizeof(T), alignof(T)));
  }

  /// Allocates an array of \p N elements of \p T, zero-filled.
  template <typename T> T *allocZeroed(std::size_t N) {
    T *P = allocArray<T>(N);
    for (std::size_t I = 0; I != N; ++I)
      P[I] = T{};
    return P;
  }

  /// Rewinds the arena to empty, retaining the allocated blocks.
  void reset() {
    Current = 0;
    Offset = 0;
    Allocated = 0;
  }

  /// Frees every block: the arena is then as freshly constructed, except
  /// that highWaterBytes() is kept.
  void release() {
    decltype(Blocks)().swap(Blocks);
    decltype(Capacities)().swap(Capacities);
    reset();
    Reserved = 0;
  }

  /// A bump position to rewind() to.
  struct Mark {
    std::size_t Block = 0;
    std::size_t Offset = 0;
    std::size_t Allocated = 0;
  };

  Mark mark() const { return {Current, Offset, Allocated}; }

  /// Frees everything allocated since \p M was taken (the blocks stay).
  /// Marks nest: rewinding to one invalidates every mark taken after it.
  void rewind(const Mark &M) {
    Current = M.Block;
    Offset = M.Offset;
    Allocated = M.Allocated;
  }

  /// Bytes handed out since the last reset (excluding alignment padding).
  std::size_t bytesAllocated() const { return Allocated; }

  /// Largest bytesAllocated() ever observed; survives reset(). The
  /// steady-state allocation audit asserts this stops moving once a
  /// monitor has reached its high-water scratch demand.
  std::size_t highWaterBytes() const { return HighWater; }

  /// Total bytes reserved from the heap across all retained blocks. Flat
  /// in steady state: growth here is a real heap allocation on the event
  /// path.
  std::size_t reservedBytes() const { return Reserved; }

  /// Number of retained blocks (each one heap allocation, ever).
  std::size_t blockCount() const { return Blocks.size(); }

private:
  /// Advances to the next retained block with at least \p AtLeast free
  /// bytes, appending a fresh block (twice the last one, or the request if
  /// larger) when none fits.
  void grow(std::size_t AtLeast) {
    std::size_t Next = Blocks.empty() ? 0 : Current + 1;
    while (Next < Blocks.size() && Capacities[Next] < AtLeast)
      ++Next;
    if (Next == Blocks.size()) {
      std::size_t Cap = std::max(
          Blocks.empty() ? FirstBlockBytes : 2 * Capacities.back(), AtLeast);
      Blocks.push_back(std::make_unique<std::byte[]>(Cap));
      Capacities.push_back(Cap);
      Reserved += Cap;
    }
    Current = Next;
    Offset = 0;
  }

  std::size_t FirstBlockBytes;
  std::vector<std::unique_ptr<std::byte[]>> Blocks;
  std::vector<std::size_t> Capacities;
  std::size_t Current = 0; ///< Index of the block being bumped.
  std::size_t Offset = 0;  ///< Bump offset within the current block.
  std::size_t Allocated = 0;
  std::size_t HighWater = 0; ///< Max Allocated ever (survives reset()).
  std::size_t Reserved = 0;  ///< Sum of retained block capacities.
};

} // namespace slin

#endif // SLIN_SUPPORT_ARENA_H
