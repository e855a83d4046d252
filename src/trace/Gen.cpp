//===- trace/Gen.cpp ------------------------------------------------------==//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//

#include "trace/Gen.h"

#include "adt/Register.h"

#include <algorithm>
#include <cassert>
#include <optional>

using namespace slin;

namespace {

/// Client bookkeeping for the linearizable generator.
struct ClientSlot {
  bool Busy = false;            ///< Has a pending invocation.
  bool TookEffect = false;      ///< Operation already linearized.
  Input In;
  Output Out;                   ///< Valid once TookEffect.
  bool WillRespond = true;      ///< False: stays pending forever.
};

} // namespace

Trace slin::genLinearizableTrace(const Adt &Type, const GenOptions &Opts,
                                 Rng &R) {
  assert(!Opts.Alphabet.empty() && "generator needs an input alphabet");
  Trace T;
  std::vector<ClientSlot> Clients(Opts.NumClients);
  std::unique_ptr<AdtState> State = Type.makeState();
  unsigned Invoked = 0;

  auto AnyBusy = [&] {
    for (const ClientSlot &C : Clients)
      if (C.Busy)
        return true;
    return false;
  };

  while (Invoked < Opts.NumOps || AnyBusy()) {
    // Candidate moves: invoke on an idle client, linearize a pending op,
    // respond to a linearized op.
    std::vector<std::pair<char, ClientId>> Moves;
    for (ClientId C = 0; C < Clients.size(); ++C) {
      if (!Clients[C].Busy && Invoked < Opts.NumOps)
        Moves.push_back({'i', C});
      else if (Clients[C].Busy && !Clients[C].TookEffect)
        Moves.push_back({'l', C});
      else if (Clients[C].Busy && Clients[C].TookEffect &&
               Clients[C].WillRespond)
        Moves.push_back({'r', C});
    }
    if (Moves.empty())
      break; // Only never-responding linearized ops remain.
    auto [Kind, C] = Moves[R.nextBounded(Moves.size())];
    ClientSlot &Slot = Clients[C];
    switch (Kind) {
    case 'i':
      Slot.Busy = true;
      Slot.TookEffect = false;
      Slot.In = Opts.Alphabet[R.nextBounded(Opts.Alphabet.size())];
      Slot.WillRespond = !R.nextBool(Opts.PendingFraction);
      T.push_back(makeInvoke(C, 1, Slot.In));
      ++Invoked;
      break;
    case 'l':
      Slot.TookEffect = true;
      Slot.Out = State->apply(Slot.In);
      break;
    default:
      Slot.Busy = false;
      T.push_back(makeRespond(C, 1, Slot.In, Slot.Out));
      break;
    }
  }
  return T;
}

Trace slin::genShuffledRegisterRounds(unsigned Rounds, unsigned Clients,
                                      unsigned Writes, Rng &R) {
  assert(Writes <= Clients && "more writers than clients");
  RegisterAdt Reg;
  std::unique_ptr<AdtState> S = Reg.makeState();
  std::vector<ClientId> Order(Clients);
  std::vector<Input> Ins(Clients);
  Trace T;
  for (unsigned Round = 0; Round != Rounds; ++Round) {
    // The first Writes clients of a shuffled order write.
    for (unsigned C = 0; C != Clients; ++C)
      Order[C] = C;
    for (unsigned K = Clients; K > 1; --K)
      std::swap(Order[K - 1], Order[R.nextBounded(K)]);
    for (unsigned C = 0; C != Clients; ++C)
      Ins[Order[C]] = C < Writes ? reg::write(R.nextInRange(1, 3))
                                 : reg::read();
    for (ClientId C = 0; C != Clients; ++C)
      T.push_back(makeInvoke(C, 1, Ins[C]));
    std::vector<Action> Responses;
    for (ClientId C = 0; C != Clients; ++C)
      Responses.push_back(makeRespond(C, 1, Ins[C], S->apply(Ins[C])));
    for (std::size_t K = Responses.size(); K > 1; --K)
      std::swap(Responses[K - 1], Responses[R.nextBounded(K)]);
    T.insert(T.end(), Responses.begin(), Responses.end());
  }
  return T;
}

Trace slin::genArbitraryTrace(const GenOptions &Opts, Rng &R) {
  assert(!Opts.Alphabet.empty() && !Opts.Outputs.empty() &&
         "generator needs input and output alphabets");
  Trace T;
  std::vector<std::optional<Input>> PendingOf(Opts.NumClients);
  // A client whose operation is deliberately left pending forever must not
  // invoke again: clients are sequential (Definition 14).
  std::vector<bool> Abandoned(Opts.NumClients, false);
  unsigned Invoked = 0;

  auto AnyPending = [&] {
    for (ClientId C = 0; C < PendingOf.size(); ++C)
      if (PendingOf[C] && !Abandoned[C])
        return true;
    return false;
  };

  while (Invoked < Opts.NumOps || AnyPending()) {
    std::vector<std::pair<char, ClientId>> Moves;
    for (ClientId C = 0; C < PendingOf.size(); ++C) {
      if (Abandoned[C])
        continue;
      if (!PendingOf[C] && Invoked < Opts.NumOps)
        Moves.push_back({'i', C});
      else if (PendingOf[C])
        Moves.push_back({'r', C});
    }
    if (Moves.empty())
      break;
    auto [Kind, C] = Moves[R.nextBounded(Moves.size())];
    if (Kind == 'i') {
      Input In = Opts.Alphabet[R.nextBounded(Opts.Alphabet.size())];
      PendingOf[C] = In;
      T.push_back(makeInvoke(C, 1, In));
      ++Invoked;
      continue;
    }
    // Respond, or leave pending forever.
    if (R.nextBool(Opts.PendingFraction)) {
      Abandoned[C] = true;
      continue;
    }
    Output Out = Opts.Outputs[R.nextBounded(Opts.Outputs.size())];
    T.push_back(makeRespond(C, 1, *PendingOf[C], Out));
    PendingOf[C].reset();
  }
  return T;
}

namespace {

/// Recursive exhaustive enumeration.
class Enumerator {
public:
  Enumerator(unsigned NumClients, unsigned MaxActions,
             const std::vector<Input> &Alphabet,
             const std::vector<Output> &Outputs,
             const std::function<void(const Trace &)> &Visit)
      : MaxActions(MaxActions), Alphabet(Alphabet), Outputs(Outputs),
        Visit(Visit) {
    Pending.resize(NumClients);
  }

  void run() { recurse(); }

private:
  void recurse() {
    Visit(Current);
    if (Current.size() >= MaxActions)
      return;
    for (ClientId C = 0; C < Pending.size(); ++C) {
      if (!Pending[C]) {
        for (const Input &In : Alphabet) {
          Pending[C] = In;
          Current.push_back(makeInvoke(C, 1, In));
          recurse();
          Current.pop_back();
          Pending[C].reset();
        }
        continue;
      }
      for (const Output &Out : Outputs) {
        Input In = *Pending[C];
        Pending[C].reset();
        Current.push_back(makeRespond(C, 1, In, Out));
        recurse();
        Current.pop_back();
        Pending[C] = In;
      }
    }
  }

  unsigned MaxActions;
  const std::vector<Input> &Alphabet;
  const std::vector<Output> &Outputs;
  const std::function<void(const Trace &)> &Visit;
  std::vector<std::optional<Input>> Pending;
  Trace Current;
};

} // namespace

void slin::enumerateWellFormedTraces(
    unsigned NumClients, unsigned MaxActions,
    const std::vector<Input> &Alphabet, const std::vector<Output> &Outputs,
    const std::function<void(const Trace &)> &Visit) {
  Enumerator E(NumClients, MaxActions, Alphabet, Outputs, Visit);
  E.run();
}

bool slin::mutateTrace(Trace &T, MutationKind Kind, const GenOptions &Opts,
                       Rng &R) {
  switch (Kind) {
  case MutationKind::FlipOutput: {
    std::vector<std::size_t> Sites;
    for (std::size_t I = 0; I < T.size(); ++I)
      if (isRespond(T[I]))
        Sites.push_back(I);
    if (Sites.empty() || Opts.Outputs.size() < 2)
      return false;
    std::size_t I = Sites[R.nextBounded(Sites.size())];
    Output Out;
    do {
      Out = Opts.Outputs[R.nextBounded(Opts.Outputs.size())];
    } while (Out == T[I].Out);
    T[I].Out = Out;
    return true;
  }
  case MutationKind::SwapActions: {
    std::vector<std::size_t> Sites;
    for (std::size_t I = 0; I + 1 < T.size(); ++I)
      if (T[I].Client != T[I + 1].Client)
        Sites.push_back(I);
    if (Sites.empty())
      return false;
    std::size_t I = Sites[R.nextBounded(Sites.size())];
    std::swap(T[I], T[I + 1]);
    return true;
  }
  case MutationKind::DropResponse: {
    std::vector<std::size_t> Sites;
    for (std::size_t I = 0; I < T.size(); ++I)
      if (isRespond(T[I]))
        Sites.push_back(I);
    if (Sites.empty())
      return false;
    T.erase(T.begin() +
            static_cast<std::ptrdiff_t>(Sites[R.nextBounded(Sites.size())]));
    return true;
  }
  case MutationKind::DuplicateInvoke: {
    std::vector<std::size_t> Sites;
    for (std::size_t I = 0; I < T.size(); ++I)
      if (isInvoke(T[I]))
        Sites.push_back(I);
    if (Sites.empty())
      return false;
    std::size_t I = Sites[R.nextBounded(Sites.size())];
    ClientId Fresh = 0;
    for (const Action &A : T)
      Fresh = std::max(Fresh, A.Client + 1);
    T.insert(T.begin() + static_cast<std::ptrdiff_t>(I),
             makeInvoke(Fresh, T[I].Phase, T[I].In));
    return true;
  }
  }
  return false;
}
