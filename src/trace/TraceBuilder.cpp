//===- trace/TraceBuilder.cpp ---------------------------------------------==//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//

#include "trace/TraceBuilder.h"

#include <string>

using namespace slin;

static std::string describe(const Action &A) {
  std::string Kind = isInvoke(A) ? "inv" : isRespond(A) ? "res" : "swi";
  return Kind + "(c" + std::to_string(A.Client) + ", ph" +
         std::to_string(A.Phase) + ")";
}

WellFormedness TraceBuilder::step(ClientSlot &C, const Action &A) const {
  if (!Phase) {
    // Definitions 13–15: strict invoke/respond alternation, no switches.
    if (isSwitch(A))
      return WellFormedness::fail("switch action " + describe(A) +
                                  " in a plain sig_T trace");
    if (isInvoke(A)) {
      if (C.State == ClientState::NeedAnswer)
        return WellFormedness::fail("client " + std::to_string(A.Client) +
                                    " invokes while an invocation is pending");
      C.State = ClientState::NeedAnswer;
      C.PendingIn = A.In;
      return WellFormedness::pass();
    }
    if (C.State != ClientState::NeedAnswer)
      return WellFormedness::fail("response " + describe(A) +
                                  " with no pending invocation");
    if (A.In != C.PendingIn)
      return WellFormedness::fail("response " + describe(A) +
                                  " does not answer the pending input");
    C.State = ClientState::Idle;
    return WellFormedness::pass();
  }

  // Definitions 33–35 on sig_T(m, n, Init).
  if (!Sig.contains(A))
    return WellFormedness::fail("action " + describe(A) +
                                " outside signature");
  // A switch into an interior phase (m < o < n) of a composed phase is in
  // the signature but projected out of the Definition 33 client sub-trace:
  // it is an internal hand-off, invisible to the client discipline.
  if (isSwitch(A) && !Sig.isInitAction(A) && !Sig.isAbortAction(A))
    return WellFormedness::pass();
  if (C.State == ClientState::Done)
    return WellFormedness::fail("client " + std::to_string(A.Client) +
                                " acts after aborting");
  if (Sig.isInitAction(A)) {
    if (Sig.M == 1)
      return WellFormedness::fail("init action " + describe(A) +
                                  " in a first phase (m = 1)");
    if (C.State != ClientState::Start)
      return WellFormedness::fail("client " + std::to_string(A.Client) +
                                  " has more than one init action");
    C.State = ClientState::NeedAnswer;
    C.PendingIn = A.In;
    return WellFormedness::pass();
  }
  if (Sig.isAbortAction(A)) {
    if (C.State != ClientState::NeedAnswer)
      return WellFormedness::fail("abort " + describe(A) +
                                  " without a pending invocation");
    if (A.In != C.PendingIn)
      return WellFormedness::fail("abort " + describe(A) +
                                  " does not carry the pending input");
    C.State = ClientState::Done;
    return WellFormedness::pass();
  }
  if (isInvoke(A)) {
    if (C.State == ClientState::Start) {
      if (Sig.M != 1)
        return WellFormedness::fail(
            "client " + std::to_string(A.Client) +
            " of phase (m != 1) must start with an init action");
    } else if (C.State != ClientState::Idle) {
      return WellFormedness::fail("client " + std::to_string(A.Client) +
                                  " invokes while an invocation is pending");
    }
    C.State = ClientState::NeedAnswer;
    C.PendingIn = A.In;
    return WellFormedness::pass();
  }
  // Response.
  if (C.State != ClientState::NeedAnswer)
    return WellFormedness::fail("response " + describe(A) +
                                " with no pending invocation");
  if (A.In != C.PendingIn)
    return WellFormedness::fail("response " + describe(A) +
                                " does not answer the pending input");
  C.State = ClientState::Idle;
  return WellFormedness::pass();
}

WellFormedness TraceBuilder::append(const Action &A) {
  if (A.Client >= MaxClients)
    return WellFormedness::fail("client id " + std::to_string(A.Client) +
                                " out of range");
  if (A.Client >= Clients.size())
    Clients.resize(A.Client + 1);
  // Run the automaton on a scratch copy so a rejected action leaves the
  // builder exactly as it was.
  ClientSlot Next = Clients[A.Client];
  WellFormedness W = step(Next, A);
  if (!W)
    return W;
  Clients[A.Client] = Next;
  if (RetainView)
    View.push_back(A);
  ++Count;
  return W;
}
