//===- stack/Stack.cpp ----------------------------------------------------==//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//

#include "stack/Stack.h"

#include <cassert>

using namespace slin;

//===----------------------------------------------------------------------===//
// ServerNode
//===----------------------------------------------------------------------===//

ServerNode::ServerNode(Simulator &Sim, Network &Net, NodeId Self,
                       std::uint32_t Index, std::vector<NodeId> Acceptors,
                       std::vector<NodeId> Learners)
    : QServer(Net, Self), Acceptor(Net, Self, std::move(Learners)),
      Leader(Sim, Net, Self, Index, std::move(Acceptors)) {}

void ServerNode::onMessage(const Message &M) {
  switch (M.Type) {
  case MsgType::QuorumPropose:
    QServer.onPropose(M);
    break;
  case MsgType::PaxosForward:
    Leader.onForward(M);
    break;
  case MsgType::Paxos1a:
    Acceptor.on1a(M);
    break;
  case MsgType::Paxos1b:
    Leader.on1b(M);
    break;
  case MsgType::Paxos2a:
    Acceptor.on2a(M);
    break;
  case MsgType::Paxos2b:
    Leader.on2b(M);
    break;
  case MsgType::PaxosNack:
    Leader.onNack(M);
    break;
  case MsgType::QuorumAccept:
    break; // Client-only message; ignore.
  }
}

//===----------------------------------------------------------------------===//
// StackClient
//===----------------------------------------------------------------------===//

StackClient::StackClient(StackHarness &Harness, ClientId Index, NodeId Self)
    : Harness(Harness), Index(Index), Self(Self),
      QClient(Harness.sim(), Harness.net(), Self, Harness.serverNodes(),
              Harness.config().QuorumTimeout,
              [this](std::uint32_t Slot, std::uint32_t Phase,
                     const QuorumOutcome &Out) {
                onQuorumOutcome(Slot, Phase, Out);
              }),
      PClient(Harness.sim(), Harness.net(), Self, Harness.serverNodes(),
              Harness.config().PaxosTimeout,
              [this](std::uint32_t Slot, std::uint32_t Phase,
                     std::int64_t Value) {
                onPaxosDecide(Slot, Phase, Value);
              }) {}

std::size_t StackClient::propose(std::uint32_t Slot, std::int64_t Value) {
  SlotState &S = Slots[Slot];
  assert(!S.Pending && "client is sequential: one op per slot at a time");
  Input In = cons::proposeBy(Value, Index);
  S.Pending = true;
  S.In = In;
  S.OpIndex = Harness.openOp(Index, Slot, In);
  Harness.record(Slot, makeInvoke(Index, S.CurPhase, In));
  // Already know this phase's decision (consensus is one-shot): answer
  // immediately.
  auto It = S.Learned.find(S.CurPhase);
  if (It != S.Learned.end()) {
    respond(Slot, S.CurPhase, It->second);
    return S.OpIndex;
  }
  engage(Slot, Value);
  return S.OpIndex;
}

void StackClient::engage(std::uint32_t Slot, std::int64_t Value) {
  SlotState &S = Slots[Slot];
  if (S.CurPhase < Harness.config().NumPhases)
    QClient.engage(Slot, S.CurPhase, Value, clientTag(Index));
  else
    PClient.engage(Slot, S.CurPhase, Value, clientTag(Index));
}

void StackClient::respond(std::uint32_t Slot, PhaseId Phase,
                          std::int64_t Value) {
  SlotState &S = Slots[Slot];
  assert(S.Pending && "no pending operation to answer");
  S.Pending = false;
  S.Learned[Phase] = Value;
  Harness.record(Slot, makeRespond(Index, Phase, S.In, cons::decide(Value)));
  OpRecord &Op = Harness.op(S.OpIndex);
  Op.End = Harness.sim().now();
  Op.ResponsePhase = Phase;
  Op.Decision = Value;
  if (Harness.OnOpComplete)
    Harness.OnOpComplete(S.OpIndex);
}

void StackClient::onQuorumOutcome(std::uint32_t Slot, std::uint32_t Phase,
                                  const QuorumOutcome &Out) {
  SlotState &S = Slots[Slot];
  // Stale outcome from an earlier phase or a finished op: ignore.
  if (!S.Pending || Phase != S.CurPhase)
    return;
  if (Out.K == QuorumOutcome::Kind::Decide) {
    respond(Slot, Phase, Out.Value);
    return;
  }
  // Switch: hand the pending invocation and the switch value to the next
  // phase — this is the entire inter-phase interface.
  Harness.record(Slot,
                 makeSwitch(Index, Phase + 1, S.In, SwitchValue{Out.Value}));
  ++Harness.op(S.OpIndex).Switches;
  S.CurPhase = Phase + 1;
  auto It = S.Learned.find(S.CurPhase);
  if (It != S.Learned.end()) {
    respond(Slot, S.CurPhase, It->second);
    return;
  }
  engage(Slot, Out.Value);
}

void StackClient::onPaxosDecide(std::uint32_t Slot, std::uint32_t Phase,
                                std::int64_t Value) {
  SlotState &S = Slots[Slot];
  S.Learned[Phase] = Value;
  if (S.Pending && Phase == S.CurPhase)
    respond(Slot, Phase, Value);
}

void StackClient::onMessage(const Message &M) {
  switch (M.Type) {
  case MsgType::QuorumAccept:
    QClient.onAccept(M);
    break;
  case MsgType::Paxos2b:
    PClient.on2b(M);
    break;
  default:
    break; // Server-only messages; ignore.
  }
}

//===----------------------------------------------------------------------===//
// StackHarness
//===----------------------------------------------------------------------===//

StackHarness::StackHarness(const StackConfig &Config)
    : Config(Config), TheSim(Config.Seed), TheNet(TheSim, Config.Net) {
  std::vector<NodeId> Acceptors = serverNodes();
  // Learners: every client and every server (leaders track chosen values).
  std::vector<NodeId> Learners;
  for (unsigned C = 0; C < Config.NumClients; ++C)
    Learners.push_back(clientNode(C));
  for (NodeId S : Acceptors)
    Learners.push_back(S);

  for (unsigned S = 0; S < Config.NumServers; ++S) {
    auto Node = std::make_unique<ServerNode>(TheSim, TheNet, serverNode(S), S,
                                             Acceptors, Learners);
    ServerNode *Raw = Node.get();
    TheNet.attach(serverNode(S),
                  [Raw](const Message &M) { Raw->onMessage(M); });
    Servers.push_back(std::move(Node));
  }
  for (unsigned C = 0; C < Config.NumClients; ++C) {
    auto Node = std::make_unique<StackClient>(*this, C, clientNode(C));
    StackClient *Raw = Node.get();
    TheNet.attach(clientNode(C),
                  [Raw](const Message &M) { Raw->onMessage(M); });
    Clients.push_back(std::move(Node));
  }
}

std::vector<NodeId> StackHarness::serverNodes() const {
  std::vector<NodeId> Ids;
  for (unsigned S = 0; S < Config.NumServers; ++S)
    Ids.push_back(S);
  return Ids;
}

std::size_t StackHarness::submit(ClientId C, std::uint32_t Slot,
                                 std::int64_t Value) {
  assert(C < Clients.size() && "unknown client");
  return Clients[C]->propose(Slot, Value);
}

void StackHarness::submitAt(SimTime T, ClientId C, std::uint32_t Slot,
                            std::int64_t Value) {
  TheSim.at(T, [this, C, Slot, Value] { submit(C, Slot, Value); });
}

void StackHarness::crashServerAt(SimTime T, std::uint32_t ServerIndex) {
  TheSim.at(T, [this, ServerIndex] { TheNet.crash(serverNode(ServerIndex)); });
}

void StackHarness::record(std::uint32_t Slot, const Action &A) {
  Recorded.push_back(A);
  PerSlot[Slot].push_back(A);
}

const Trace &StackHarness::slotTrace(std::uint32_t Slot) const {
  static const Trace Empty;
  auto It = PerSlot.find(Slot);
  return It == PerSlot.end() ? Empty : It->second;
}

std::vector<std::uint32_t> StackHarness::slots() const {
  std::vector<std::uint32_t> Result;
  for (const auto &[Slot, T] : PerSlot) {
    (void)T;
    Result.push_back(Slot);
  }
  return Result;
}

std::size_t StackHarness::openOp(ClientId C, std::uint32_t Slot,
                                 const Input &In) {
  OpRecord Op;
  Op.Client = C;
  Op.Slot = Slot;
  Op.In = In;
  Op.Start = TheSim.now();
  Ops.push_back(Op);
  return Ops.size() - 1;
}

unsigned StackHarness::fastPathDecisions() const {
  unsigned N = 0;
  for (const OpRecord &Op : Ops)
    N += Op.completed() && Op.ResponsePhase == 1;
  return N;
}
