//===- engine/Transposition.cpp -------------------------------------------==//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//

#include "engine/Transposition.h"

#include <algorithm>

using namespace slin;

namespace {

std::size_t roundUpPow2(std::size_t N) {
  std::size_t P = 1;
  while (P < N)
    P <<= 1;
  return P;
}

} // namespace

TranspositionTable::TranspositionTable(std::size_t MaxCap) {
  MaxCapacity = roundUpPow2(std::max(MaxCap, ProbeWindow));
}

bool TranspositionTable::contains(std::uint64_t Key) {
  if (Slots.empty())
    return false; // Nothing stored yet: a miss that touches no memory.
  if (Key == EmptyKey)
    Key = 1; // Remap the sentinel; collides with genuine 1-keys only.
  std::size_t Home = homeSlot(Key);
  for (std::size_t I = 0; I != Reach; ++I) {
    std::uint64_t Slot = Slots[(Home + I) & Mask];
    if (Slot == Key)
      return true;
    if (Slot == EmptyKey)
      break; // Probe chains never skip an empty slot.
  }
  return false;
}

bool TranspositionTable::tryPlace(std::uint64_t Key, std::size_t Limit) {
  std::size_t Home = homeSlot(Key);
  for (std::size_t I = 0; I != Limit; ++I) {
    std::uint64_t &Slot = Slots[(Home + I) & Mask];
    if (Slot == Key)
      return true;
    if (Slot == EmptyKey) {
      Slot = Key;
      ++Live;
      Reach = std::max(Reach, static_cast<unsigned>(I + 1));
      return true;
    }
  }
  return false;
}

void TranspositionTable::allocate(std::size_t Cap) {
  Slots.assign(Cap, EmptyKey);
  Mask = Cap - 1;
  Shift = 64 - static_cast<unsigned>(__builtin_ctzll(Cap));
  Reach = ProbeWindow;
}

void TranspositionTable::grow() {
  std::vector<std::uint64_t> Old = std::move(Slots);
  allocate(Old.size() * 2);
  Live = 0;
  // The new array is at most half full, so every key finds a slot.
  for (std::uint64_t Key : Old)
    if (Key != EmptyKey)
      tryPlace(Key, Slots.size());
}

void TranspositionTable::insert(std::uint64_t Key) {
  if (Key == EmptyKey)
    Key = 1;
  if (Slots.empty()) {
    // The first store allocates the initial array; a table that is only
    // ever probed (the steady-state fast path) never does.
    allocate(std::min(MaxCapacity, InitialCapacity));
  }
  // Grow by load alone, keeping it below 1/2 while growth is allowed.
  while (2 * Live >= Slots.size() && Slots.size() < MaxCapacity)
    grow();
  // Below the cap an empty slot exists, so a key whose window is full takes
  // the next one further on and Reach grows to cover it: no key is dropped.
  if (tryPlace(Key, Slots.size() < MaxCapacity ? Slots.size() : Reach))
    return;
  // At max capacity with a full window: overwrite a window slot chosen from
  // the key's high bits so repeated collisions spread their victims.
  std::size_t Victim =
      (homeSlot(Key) + ((Key >> 57) & (ProbeWindow - 1))) & Mask;
  Slots[Victim] = Key;
}

void TranspositionTable::forget() {
  if (Live == 0)
    return;
  std::fill(Slots.begin(), Slots.end(), EmptyKey);
  Live = 0;
  Reach = ProbeWindow;
}

void TranspositionTable::shrinkToInitial() {
  std::vector<std::uint64_t>().swap(Slots);
  Mask = 0;
  Live = 0;
  Reach = ProbeWindow;
}
