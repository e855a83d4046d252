//===- examples/trace_lint.cpp - Check a trace file for (S)Lin ------------==//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//
//
// A command-line checker: reads a trace in the textual format (one action
// per line; see trace/TraceIo.h) from a file or stdin and reports
// well-formedness, linearizability with respect to a chosen ADT, and — if
// the trace contains switch actions — speculative linearizability for a
// given phase range under the consensus init relation.
//
// Usage: trace_lint [--adt consensus|register|queue|kvstore]
//                   [--phases M N] [--relaxed-aborts] [file]
//
//===----------------------------------------------------------------------===//

#include "SimDriver.h"
#include "adt/Consensus.h"
#include "adt/KvStore.h"
#include "adt/Queue.h"
#include "adt/Register.h"
#include "lin/Classical.h"
#include "lin/LinChecker.h"
#include "slin/SlinChecker.h"
#include "trace/TraceIo.h"
#include "trace/WellFormed.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

using namespace slin;

static std::unique_ptr<Adt> makeAdt(const std::string &Name) {
  if (Name == "consensus")
    return std::make_unique<ConsensusAdt>();
  if (Name == "register")
    return std::make_unique<RegisterAdt>();
  if (Name == "queue")
    return std::make_unique<QueueAdt>();
  if (Name == "kvstore")
    return std::make_unique<KvStoreAdt>();
  return nullptr;
}

int main(int Argc, char **Argv) {
  std::string AdtName = "consensus";
  PhaseId M = 1, N = 2;
  bool RelaxedAborts = false;
  const char *Path = nullptr;
  bool ArgsOk = true;

  for (int I = 1; I < Argc; ++I) {
    if (!std::strcmp(Argv[I], "--adt") && I + 1 < Argc) {
      AdtName = Argv[++I];
    } else if (!std::strcmp(Argv[I], "--phases")) {
      // Phase ids the trace parser accepts lie below 2^20.
      unsigned long long First = 0, Last = 0;
      if (I + 2 >= Argc ||
          !simdrv::parseUnsigned(Argv[I + 1], 0, (1u << 20) - 1, First) ||
          !simdrv::parseUnsigned(Argv[I + 2], 0, (1u << 20) - 1, Last))
        ArgsOk = false;
      M = static_cast<PhaseId>(First);
      N = static_cast<PhaseId>(Last);
      I += 2;
    } else if (!std::strcmp(Argv[I], "--relaxed-aborts")) {
      RelaxedAborts = true;
    } else {
      Path = Argv[I];
    }
  }

  std::unique_ptr<Adt> Type = makeAdt(AdtName);
  if (!ArgsOk || !Type || M >= N) {
    std::fprintf(stderr, "usage: trace_lint [--adt consensus|register|queue|"
                         "kvstore] [--phases M N] [--relaxed-aborts] [file]\n");
    return 2;
  }

  std::string Text;
  if (Path) {
    std::ifstream File(Path);
    if (!File) {
      std::fprintf(stderr, "error: cannot open %s\n", Path);
      return 2;
    }
    std::stringstream Buf;
    Buf << File.rdbuf();
    Text = Buf.str();
  } else {
    std::stringstream Buf;
    Buf << std::cin.rdbuf();
    Text = Buf.str();
  }

  TraceParseResult Parsed = parseTrace(Text);
  if (!Parsed.Ok) {
    std::fprintf(stderr, "parse error: %s\n", Parsed.Error.c_str());
    return 2;
  }
  const Trace &T = Parsed.ParsedTrace;
  std::printf("%zu actions\n", T.size());

  bool HasSwitches = false;
  for (const Action &A : T)
    HasSwitches |= isSwitch(A);

  if (!HasSwitches) {
    WellFormedness Wf = checkWellFormedLin(T);
    std::printf("well-formed: %s%s%s\n", Wf.Ok ? "yes" : "no",
                Wf.Ok ? "" : " — ", Wf.Reason.c_str());
    LinCheckResult NewDef = checkLinearizable(T, *Type);
    std::printf("linearizable (new definition): %s\n",
                NewDef.Outcome == Verdict::Yes   ? "yes"
                : NewDef.Outcome == Verdict::No ? "no"
                                                : "unknown");
    ClassicalCheckResult Classical = checkLinearizableClassical(T, *Type);
    std::printf("linearizable* (classical):     %s\n",
                Classical.Outcome == Verdict::Yes   ? "yes"
                : Classical.Outcome == Verdict::No ? "no"
                                                   : "unknown");
    return NewDef.Outcome == Verdict::Yes ? 0 : 1;
  }

  PhaseSignature Sig(M, N);
  WellFormedness Wf = checkWellFormedPhase(T, Sig);
  std::printf("(%u, %u)-well-formed: %s%s%s\n", M, N, Wf.Ok ? "yes" : "no",
              Wf.Ok ? "" : " — ", Wf.Reason.c_str());
  if (AdtName != "consensus") {
    std::fprintf(stderr, "note: speculative checking uses the consensus "
                         "init relation; --adt must be consensus\n");
    return 2;
  }
  ConsensusAdt Cons;
  ConsensusInitRelation Rel;
  SlinCheckOptions Opts;
  Opts.AbortValidityAtEnd = RelaxedAborts;
  SlinVerdict V = checkSlin(T, Sig, Cons, Rel, Opts);
  std::printf("(%u, %u)-speculatively linearizable%s: %s%s%s\n", M, N,
              RelaxedAborts ? " (relaxed aborts)" : "",
              V.Outcome == Verdict::Yes   ? "yes"
              : V.Outcome == Verdict::No ? "no"
                                         : "unknown",
              V.Outcome == Verdict::Yes ? "" : " — ", V.Reason.c_str());
  return V.Outcome == Verdict::Yes ? 0 : 1;
}
