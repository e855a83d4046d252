//===- examples/SimDriver.h - Shared example harness ------------*- C++ -*-==//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the examples share: the canonical open-loop KV workload, a
/// lockstep multi-object pump over N independent replicated objects (the
/// Paxos/Quorum-stack simulation the service monitor watches), and strict
/// parsing of numeric command-line arguments.
///
/// The workload shape and pacing are observable behavior (CI's monitor
/// and service smokes assert event and retirement counts), so changing
/// them changes what those smokes see.
///
//===----------------------------------------------------------------------===//

#ifndef SLIN_EXAMPLES_SIMDRIVER_H
#define SLIN_EXAMPLES_SIMDRIVER_H

#include "smr/Smr.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace slin {
namespace simdrv {

/// Submits the canonical open-loop workload of \p Ops operations into \p H:
/// operation I goes to client C = I % Clients in round I / Clients,
/// cycling put/get/del by round over keys 1 + I % 2. Put values cycle
/// 10 * (1 + I % 64): a bounded alphabet stops the monitor's interner
/// growing after warm-up, which the allocation-free steady state depends
/// on. Rounds are paced above their serialization time (an object commits
/// one op per ~20 ticks; 100 ticks, above the Paxos retry timeout, up to 4
/// clients, else 25 per client), and client C submits C / Clients of the
/// way into its round: simultaneous proposals above ~4 clients collide
/// into dueling-proposer storms whose straggler would pin the monitor's
/// retirement cut for the whole run.
void submitKvWorkload(SmrHarness &H, unsigned Clients, unsigned Ops);

/// N independent replicated objects — one SmrHarness each, differing only
/// in seed — pumped in lockstep slices, so the merged event stream
/// interleaves across objects exactly as wall-clock concurrent objects
/// would. The sharded service example's client population is the sum over
/// objects.
class MultiObjectSim {
public:
  /// \p Type must outlive the sim. Object K runs under \p Base with seed
  /// Base.Seed + K.
  MultiObjectSim(const Adt &Type, std::size_t Objects,
                 const StackConfig &Base);
  ~MultiObjectSim();

  std::size_t objects() const { return Harnesses.size(); }
  SmrHarness &harness(std::size_t Obj) { return *Harnesses[Obj]; }

  /// Lockstep pump: advances every object by one 50-tick slice, drains
  /// each object's new events into \p OnEvent (object id, slice time,
  /// action), repeats until every submitted operation everywhere has
  /// completed, then quiesces each object (Now = -1 for the tail events).
  /// Returns total events delivered.
  std::size_t
  run(const std::function<void(std::uint32_t, SimTime, const Action &)>
          &OnEvent);

private:
  std::vector<std::unique_ptr<SmrHarness>> Harnesses;
  std::vector<std::size_t> Fed; ///< Events already delivered, per object.
};

/// Parses \p Text as a decimal integer in [\p Lo, \p Hi] into \p Out.
/// Rejects empty text, a sign, trailing characters and overflow, so a
/// command-line count is never a wrapped negative or a silent zero.
bool parseUnsigned(const char *Text, unsigned long long Lo,
                   unsigned long long Hi, unsigned long long &Out);

} // namespace simdrv
} // namespace slin

#endif // SLIN_EXAMPLES_SIMDRIVER_H
