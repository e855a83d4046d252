//===- stack/Stack.h - Speculation-phase stacks over the network -*- C++ -*-=//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The message-passing incarnation of the paper's framework: a consensus
/// object implemented as a stack of speculation phases — phases
/// 1..NumPhases-1 are Quorum fast phases, phase NumPhases is the Paxos
/// Backup — composed exactly through the switch interface: a phase hands
/// its successor a switch value and the pending invocation, nothing else.
/// Clients move through phases independently, without agreement, as
/// speculative linearizability demands.
///
/// With NumPhases == 2 this is the paper's Quorum+Backup object
/// (Section 2.1); with NumPhases == 1 it degenerates to the Paxos-only
/// baseline; larger stacks exercise the O(n)-phases composition claim
/// (experiment E5). Instances are indexed by slot, which the SMR layer uses
/// as log positions.
///
/// The harness owns the simulator, network, server and client nodes, a
/// fault plan, and the trace recorder; every run yields a phase trace that
/// the checkers of slin/ consume directly — the integration tests assert
/// invariants I1–I5 and speculative linearizability on every recorded
/// trace.
///
//===----------------------------------------------------------------------===//

#ifndef SLIN_STACK_STACK_H
#define SLIN_STACK_STACK_H

#include "adt/Consensus.h"
#include "msg/Net.h"
#include "msg/Sim.h"
#include "paxos/Paxos.h"
#include "quorum/Quorum.h"
#include "trace/Action.h"

#include <functional>
#include <map>
#include <memory>
#include <vector>

namespace slin {

/// Configuration of a phase-stack deployment.
struct StackConfig {
  unsigned NumServers = 3;
  unsigned NumClients = 2;
  /// Phases 1..NumPhases-1 are Quorum; NumPhases is the Paxos backup.
  /// NumPhases == 1 means Paxos only.
  unsigned NumPhases = 2;
  NetConfig Net;
  SimTime QuorumTimeout = 60;
  SimTime PaxosTimeout = 400;
  std::uint64_t Seed = 1;
};

/// Everything recorded about one client operation.
struct OpRecord {
  ClientId Client = 0;
  std::uint32_t Slot = 0;
  Input In;
  SimTime Start = 0;
  SimTime End = 0;
  PhaseId ResponsePhase = 0; ///< 0 while pending.
  std::int64_t Decision = NoValue;
  unsigned Switches = 0;

  bool completed() const { return ResponsePhase != 0; }
};

/// One server node: Quorum cell server + Paxos acceptor + Paxos leader.
class ServerNode {
public:
  ServerNode(Simulator &Sim, Network &Net, NodeId Self, std::uint32_t Index,
             std::vector<NodeId> Acceptors, std::vector<NodeId> Learners);

  void onMessage(const Message &M);

private:
  QuorumServer QServer;
  PaxosAcceptor Acceptor;
  PaxosLeader Leader;
};

class StackHarness;

/// One client node driving the phase stack for its operations.
class StackClient {
public:
  StackClient(StackHarness &Harness, ClientId Index, NodeId Self);

  /// Begins propose(value) on \p Slot. One outstanding op per (client,
  /// slot); returns the op index in the harness record table.
  std::size_t propose(std::uint32_t Slot, std::int64_t Value);

  void onMessage(const Message &M);

private:
  struct SlotState {
    PhaseId CurPhase = 1;
    bool Pending = false;
    std::size_t OpIndex = 0;
    Input In;
    /// Phase-level decisions already learned (phase -> value).
    std::map<PhaseId, std::int64_t> Learned;
  };

  void engage(std::uint32_t Slot, std::int64_t Value);
  void respond(std::uint32_t Slot, PhaseId Phase, std::int64_t Value);
  void onQuorumOutcome(std::uint32_t Slot, std::uint32_t Phase,
                       const QuorumOutcome &Out);
  void onPaxosDecide(std::uint32_t Slot, std::uint32_t Phase,
                     std::int64_t Value);

  StackHarness &Harness;
  ClientId Index;
  NodeId Self;
  QuorumClient QClient;
  PaxosClient PClient;
  std::map<std::uint32_t, SlotState> Slots;
};

/// Owns a full deployment: simulator, network, nodes, trace, op records.
class StackHarness {
public:
  explicit StackHarness(const StackConfig &Config);

  Simulator &sim() { return TheSim; }
  Network &net() { return TheNet; }
  const StackConfig &config() const { return Config; }

  /// Submits propose(value) by client \p C on \p Slot now; returns the op
  /// index.
  std::size_t submit(ClientId C, std::uint32_t Slot, std::int64_t Value);

  /// Schedules a submission at absolute simulated time \p T.
  void submitAt(SimTime T, ClientId C, std::uint32_t Slot,
                std::int64_t Value);

  /// Schedules a server crash at absolute simulated time \p T.
  void crashServerAt(SimTime T, std::uint32_t ServerIndex);

  /// Runs the simulation (optionally bounded).
  void run(SimTime Deadline = 0) { TheSim.run(Deadline); }

  /// All actions, across slots, in simulation order.
  const Trace &trace() const { return Recorded; }
  /// The actions of one consensus instance — the per-object trace the
  /// checkers consume (inter-object composition: each slot is checked
  /// independently).
  const Trace &slotTrace(std::uint32_t Slot) const;
  std::vector<std::uint32_t> slots() const;
  const std::vector<OpRecord> &ops() const { return Ops; }

  /// Called when an op completes (benches chain workloads through this).
  std::function<void(std::size_t)> OnOpComplete;

  /// Number of completed ops answered by phase 1 (the fast path).
  unsigned fastPathDecisions() const;

  // Internal API used by the client nodes.
  void record(std::uint32_t Slot, const Action &A);
  std::size_t openOp(ClientId C, std::uint32_t Slot, const Input &In);
  OpRecord &op(std::size_t Index) { return Ops[Index]; }
  NodeId serverNode(std::uint32_t Index) const { return Index; }
  NodeId clientNode(ClientId C) const { return Config.NumServers + C; }
  std::vector<NodeId> serverNodes() const;

private:
  StackConfig Config;
  Simulator TheSim;
  Network TheNet;
  std::vector<std::unique_ptr<ServerNode>> Servers;
  std::vector<std::unique_ptr<StackClient>> Clients;
  Trace Recorded;
  std::map<std::uint32_t, Trace> PerSlot;
  std::vector<OpRecord> Ops;
};

} // namespace slin

#endif // SLIN_STACK_STACK_H
