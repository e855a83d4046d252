//===- engine/Transposition.h - Bounded failed-state memo -------*- C++ -*-==//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A bounded transposition table over 64-bit search-state keys, replacing
/// the seed checkers' unbounded std::unordered_set. The table records
/// *failed* subtrees only, so losing an entry to replacement merely costs a
/// re-exploration — never a wrong verdict. Keys are salted per run by the
/// engine, which lets a CheckSession keep one warm table across an entire
/// corpus without cross-trace key aliasing and without an O(capacity) clear
/// per trace. A resumable session salts by epoch as well, and forgets the
/// whole table when its epoch moves: keys of a past epoch can never match
/// again, so they would only take slots and force growth.
///
/// Layout: open addressing in a power-of-two array of raw keys, probing
/// linearly from a key's home slot, taken from its Fibonacci hash (the
/// whole key times 2^64/phi, top bits), so keys that share their low bits —
/// a session's keys often do — still spread over the table. The table grows
/// by load alone. Below its bound the load stays under 1/2, so a key whose
/// 8-slot probe window is full takes the next empty slot past it and no key
/// is ever dropped; lookups probe as far as the farthest key sits from its
/// home. At the bound a key whose window is full overwrites the entry whose
/// slot the key hashes to (an always-replace policy biased to spread
/// overwrites across the window), which in practice retains the hot recent
/// keys a depth-first search re-encounters.
///
//===----------------------------------------------------------------------===//

#ifndef SLIN_ENGINE_TRANSPOSITION_H
#define SLIN_ENGINE_TRANSPOSITION_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace slin {

/// A bounded set of 64-bit keys with replacement. Holds no slot array until
/// the first insert, which allocates a small one (512 slots, or
/// MaxCapacity if smaller); it then doubles (rehashing the stored keys) as
/// it fills, so a table that is only probed costs nothing, short checks
/// never pay for a large table, and long searches grow up to MaxCapacity
/// before the replacement policy kicks in.
class TranspositionTable {
public:
  /// \p MaxCapacity is rounded up to a power of two; growth stops there.
  explicit TranspositionTable(std::size_t MaxCapacity = 1u << 20);

  /// True iff \p Key is currently stored.
  bool contains(std::uint64_t Key);

  /// Hints \p Key's home slot into cache. The steady-state fast path
  /// issues this for its lookup key before the work that must precede the
  /// probe, so the probe window is resident by the time contains() runs.
  /// A no-op while the table is empty.
  void prefetch(std::uint64_t Key) const {
#if defined(__GNUC__) || defined(__clang__)
    if (!Slots.empty())
      __builtin_prefetch(Slots.data() + homeSlot(Key));
#else
    (void)Key;
#endif
  }

  /// Stores \p Key, growing the table by load only and evicting a colliding
  /// key only when the table is at max capacity and the key's probe window
  /// is full.
  void insert(std::uint64_t Key);

  /// Forgets every key and keeps the slot array: the next inserts reuse it
  /// without allocating. A no-op on a table that holds no key (it touches
  /// no memory then); otherwise O(capacity).
  void forget();

  /// Forgets every key and frees the slot array, exactly as freshly
  /// constructed — the cheap way for a reused session to offer
  /// fresh-session semantics (the next insert allocates the initial array
  /// again).
  void shrinkToInitial();

  std::size_t capacity() const { return Slots.size(); }
  std::size_t liveKeys() const { return Live; }
  /// Bytes currently reserved by the slot array — the table's whole
  /// footprint up to the fixed-size header, and 0 before the first insert.
  /// The sharded monitoring service sums this per shard for its
  /// bounded-memory accounting.
  std::size_t memoryBytes() const {
    return Slots.capacity() * sizeof(std::uint64_t);
  }

private:
  static constexpr std::size_t ProbeWindow = 8;
  /// Sized from the per-epoch key high water of a resumable session, which
  /// forgets its memo at every epoch move: on shuffled one-write slin
  /// rounds no epoch stored more than 161 keys, under the half load that
  /// triggers growth (and growth is by load alone).
  static constexpr std::size_t InitialCapacity = 1u << 9;
  static constexpr std::uint64_t EmptyKey = 0;

  /// Fibonacci hashing: the top bits of the key times 2^64/phi depend on
  /// every key bit.
  std::size_t homeSlot(std::uint64_t Key) const {
    return static_cast<std::size_t>((Key * 0x9E3779B97F4A7C15ull) >> Shift);
  }

  /// Allocates a \p Cap-slot array of empty slots.
  void allocate(std::size_t Cap);

  /// Doubles the slot array and reinserts every stored key.
  void grow();

  /// Places \p Key in the first empty slot among the \p Limit from its
  /// home (none if it is stored already), extending Reach to cover it;
  /// returns false when all of them hold other keys.
  bool tryPlace(std::uint64_t Key, std::size_t Limit);

  std::vector<std::uint64_t> Slots; ///< Empty until the first insert.
  std::size_t Mask = 0;
  unsigned Shift = 0; ///< 64 - log2(capacity()) once allocated.
  /// How many slots from its home a lookup probes: the probe window, or
  /// farther once a key had to sit past its full window.
  unsigned Reach = ProbeWindow;
  std::size_t MaxCapacity;
  std::size_t Live = 0;
};

} // namespace slin

#endif // SLIN_ENGINE_TRANSPOSITION_H
