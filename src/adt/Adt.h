//===- adt/Adt.h - Abstract data types (Definition 4) -----------*- C++ -*-==//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The abstract-data-type interface of Definition 4: an ADT is a triple
/// T = (I_T, O_T, f_T) where f_T : I_T* -> O_T maps a history of inputs to
/// the output of the *last* input in the history. Computing f_T amounts to
/// replaying a sequential state machine, so in addition to the functional
/// form (evaluate) every ADT provides an incremental replay object
/// (AdtState) used heavily by the linearizability checkers, which explore
/// many histories sharing long prefixes.
///
/// Branching searches thread ONE replay state down the whole search path
/// through a mutate/undo protocol: applyInput records how to revert the
/// step into a small POD UndoToken (spilling to a caller-provided Arena
/// when the inline fields don't fit) and undoInput reverts it in O(1).
/// Every AdtState implements both; adt_test's undo round-trip checks each
/// in-tree ADT against apply on a clone.
///
//===----------------------------------------------------------------------===//

#ifndef SLIN_ADT_ADT_H
#define SLIN_ADT_ADT_H

#include "adt/Values.h"

#include <cstdint>
#include <memory>
#include <vector>

namespace slin {

class Arena;

/// How to revert one applyInput, recorded by the state that produced it.
/// The fields are ADT-private: Kind discriminates the mutation performed,
/// A/B carry the displaced values (previous register content, dequeued
/// element, overwritten map entry, ...). State that does not fit the inline
/// fields goes behind Overflow, allocated from the Arena passed to
/// applyInput — that arena must stay live until the token is undone or
/// abandoned, and is rewound by the owner (the engine's session arena is
/// reset per trace), so tokens of abandoned branches need no cleanup.
struct UndoToken {
  std::uint32_t Kind = 0;
  std::int64_t A = 0;
  std::int64_t B = 0;
  void *Overflow = nullptr;
};

/// Incremental evaluator for an ADT: mirrors the sequential state machine
/// whose replay computes f_T. apply(In) returns f_T(h :: In) where h is the
/// sequence of inputs applied so far.
class AdtState {
public:
  virtual ~AdtState();

  /// Applies \p In to the current state and returns its output, i.e.
  /// f_T(applied-so-far :: In).
  virtual Output apply(const Input &In) = 0;

  /// Applies \p In like apply and records into \p U how to revert it;
  /// payloads too large for the token's inline fields are allocated from
  /// \p Overflow.
  virtual Output applyInput(const Input &In, UndoToken &U,
                            Arena &Overflow) = 0;

  /// Reverts the most recent not-yet-undone applyInput (tokens are strictly
  /// LIFO: undo order must mirror apply order). After the call the state is
  /// logically identical — same digest, same response to every future — to
  /// the state before the matching applyInput.
  virtual void undoInput(const UndoToken &U) = 0;

  /// Deep-copies the state (snapshots of a retained replay state).
  virtual std::unique_ptr<AdtState> clone() const = 0;

  /// Makes this state a copy of \p Other, a state of the same ADT, reusing
  /// this object and its storage: a session that re-seeds one replay state
  /// from another on every missed verdict allocates nothing once warm.
  virtual void copyFrom(const AdtState &Other) = 0;

  /// A fingerprint of the *logical* state: two states with equal digests
  /// respond identically to all futures (up to hash collision). This is the
  /// paper's notion of history equivalence (Section 2.3) made executable,
  /// and it powers memoization in the checkers.
  virtual std::uint64_t digest() const = 0;

  /// Appends a canonical encoding of the logical state to \p Out: two
  /// states are logically identical iff their canonical serializations are
  /// equal — an exact witness where digest() is only a hash. The property
  /// tests for the engine's retained replay state (a cached AdtState rolled
  /// forward across appends must stay bit-equivalent to a fresh seed
  /// replay) compare through this. The default encodes the digest, which is
  /// exact only up to collision; all in-tree ADTs override it with a
  /// lossless encoding.
  virtual void serializeCanonical(std::vector<std::int64_t> &Out) const;
};

/// An abstract data type T = (I_T, O_T, f_T).
class Adt {
public:
  virtual ~Adt();

  /// Human-readable type name.
  virtual const char *name() const = 0;

  /// The output function f_T applied to a non-empty history: the output of
  /// the last input of \p H after sequentially executing \p H.
  Output evaluate(const History &H) const;

  /// Creates a fresh replay state (empty history applied).
  virtual std::unique_ptr<AdtState> makeState() const = 0;

  /// True iff \p In is a syntactically valid input of this ADT. Checkers use
  /// it to reject malformed traces early.
  virtual bool validInput(const Input &In) const;

  /// True iff two histories are equivalent w.r.t. this ADT (drive the state
  /// machine to states with equal digests). Equivalent histories bring the
  /// object to the same logical state (Section 2.3).
  bool equivalent(const History &H1, const History &H2) const;
};

} // namespace slin

#endif // SLIN_ADT_ADT_H
