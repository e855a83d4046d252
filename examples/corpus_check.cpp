//===- examples/corpus_check.cpp - Batched corpus checking ----------------==//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//
//
// The batched-workload face of the chain-search engine: check whole corpora
// of traces through the CorpusDriver, which feeds each corpus through one
// warm session (interner + arena + transposition table) in corpus order.
//
// Usage:
//   corpus_check [traces <n>] [seed <n>] [--share-prefixes]
//                                            generate + check a mixed corpus
//   corpus_check file <trace.txt>...         check textual traces (consensus)
//
// With no arguments a deterministic mixed corpus (linearizable-by-
// construction, arbitrary, and mutated traces over consensus and queue) is
// generated with trace/Gen and checked; the tool prints one JSON line per
// family and a final summary line with aggregated statistics — the same
// shape the benches emit, so corpus throughput can be tracked across PRs.
// `traces` takes an integer in [1, 1000000] and `seed` a decimal unsigned
// integer; anything else prints the usage line and exits 2.
//
//===----------------------------------------------------------------------===//

#include "SimDriver.h"
#include "adt/Consensus.h"
#include "adt/Queue.h"
#include "engine/CorpusDriver.h"
#include "trace/Gen.h"
#include "trace/TraceIo.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace slin;
using simdrv::parseUnsigned;

namespace {

struct FamilyReport {
  const char *Name;
  std::size_t Traces = 0;
  std::uint64_t Yes = 0, No = 0, Unknown = 0, BudgetLimited = 0;
  double Millis = 0;
};

FamilyReport checkFamily(const char *Name, CorpusDriver &Driver,
                         const std::vector<Trace> &Corpus,
                         SessionStats &Aggregate) {
  FamilyReport Rep;
  Rep.Name = Name;
  Rep.Traces = Corpus.size();
  auto Start = std::chrono::steady_clock::now();
  CorpusReport R = Driver.checkLin(Corpus);
  Rep.Millis = std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - Start)
                   .count();
  Rep.Yes = R.Yes;
  Rep.No = R.No;
  Rep.Unknown = R.Unknown;
  Rep.BudgetLimited = R.BudgetLimited;
  Aggregate.accumulate(R.Aggregate);
  return Rep;
}

void printReport(const FamilyReport &Rep) {
  double PerTrace = Rep.Traces ? Rep.Millis * 1e6 / Rep.Traces : 0;
  std::printf("{\"family\":\"%s\",\"traces\":%zu,\"yes\":%llu,\"no\":%llu,"
              "\"unknown\":%llu,\"budget_limited\":%llu,\"ms\":%.2f,"
              "\"ns_per_trace\":%.0f}\n",
              Rep.Name, Rep.Traces,
              static_cast<unsigned long long>(Rep.Yes),
              static_cast<unsigned long long>(Rep.No),
              static_cast<unsigned long long>(Rep.Unknown),
              static_cast<unsigned long long>(Rep.BudgetLimited), Rep.Millis,
              PerTrace);
}

int checkFiles(int Argc, char **Argv) {
  ConsensusAdt Cons;
  CheckSession Session(Cons);
  int Bad = 0;
  for (int I = 0; I != Argc; ++I) {
    std::ifstream In(Argv[I]);
    if (!In) {
      std::fprintf(stderr, "cannot open %s\n", Argv[I]);
      return 2;
    }
    std::ostringstream Text;
    Text << In.rdbuf();
    TraceParseResult Parsed = parseTrace(Text.str());
    if (!Parsed.Ok) {
      std::fprintf(stderr, "%s: %s\n", Argv[I], Parsed.Error.c_str());
      return 2;
    }
    LinCheckResult R = Session.checkLin(Parsed.ParsedTrace);
    const char *V = R.Outcome == Verdict::Yes      ? "yes"
                    : R.Outcome == Verdict::No     ? "no"
                                                   : "unknown";
    std::printf("{\"file\":\"%s\",\"verdict\":\"%s\",\"nodes\":%llu%s%s%s}\n",
                Argv[I], V,
                static_cast<unsigned long long>(R.NodesExplored),
                R.Reason.empty() ? "" : ",\"reason\":\"",
                R.Reason.c_str(), R.Reason.empty() ? "" : "\"");
    Bad += R.Outcome != Verdict::Yes;
  }
  return Bad ? 1 : 0;
}

} // namespace

int main(int Argc, char **Argv) {
  unsigned long long TracesPerFamily = 200;
  unsigned long long Seed = 0x5EED;
  bool SharePrefixes = false;
  for (int I = 1; I < Argc; I += 2) {
    bool HasValue = I + 1 < Argc;
    if (HasValue && !std::strcmp(Argv[I], "file"))
      return checkFiles(Argc - I - 1, Argv + I + 1);
    if (HasValue && !std::strcmp(Argv[I], "traces") &&
        parseUnsigned(Argv[I + 1], 1, 1000000, TracesPerFamily))
      continue;
    if (HasValue && !std::strcmp(Argv[I], "seed") &&
        parseUnsigned(Argv[I + 1], 0, ~0ULL, Seed))
      continue;
    if (!std::strcmp(Argv[I], "--share-prefixes")) {
      SharePrefixes = true;
      --I; // Flag takes no value.
      continue;
    }
    std::fprintf(stderr,
                 "usage: %s [traces <1..1000000>] [seed <n>] "
                 "[--share-prefixes] | file <t.txt>...\n",
                 Argv[0]);
    return 2;
  }

  CorpusOptions Drive;
  // Checks each corpus in sorted order through one resumable session
  // (engine/Incremental.h): a trace extending the previous one streams
  // only its delta. Verdicts are unchanged.
  Drive.SharePrefixes = SharePrefixes;

  Rng R(Seed);
  auto Start = std::chrono::steady_clock::now();
  SessionStats Total;

  // Consensus: linearizable-by-construction, mutated, and arbitrary
  // families run through one driver configuration. Each checkLin call
  // builds its own session, so session warmth spans one family's corpus.
  ConsensusAdt Cons;
  {
    CorpusDriver Driver(Cons, Drive);
    GenOptions G;
    G.NumClients = 4;
    G.NumOps = 10;
    G.Alphabet = {cons::propose(1), cons::propose(2), cons::propose(3)};
    G.Outputs = {cons::decide(1), cons::decide(2), cons::decide(3)};
    std::vector<Trace> Positive, Mutated, Arbitrary;
    for (unsigned long long I = 0; I != TracesPerFamily; ++I) {
      Positive.push_back(genLinearizableTrace(Cons, G, R));
      Trace M = Positive.back();
      mutateTrace(M, static_cast<MutationKind>(I % 4), G, R);
      Mutated.push_back(std::move(M));
      Arbitrary.push_back(genArbitraryTrace(G, R));
    }
    printReport(checkFamily("consensus/positive", Driver, Positive, Total));
    printReport(checkFamily("consensus/mutated", Driver, Mutated, Total));
    printReport(checkFamily("consensus/arbitrary", Driver, Arbitrary, Total));
  }

  QueueAdt Q;
  {
    CorpusDriver Driver(Q, Drive);
    GenOptions G;
    G.NumClients = 3;
    G.NumOps = 8;
    G.Alphabet = {queue::enq(1), queue::enq(2), queue::deq()};
    G.Outputs = {Output{1}, Output{2}, Output{NoValue}};
    std::vector<Trace> Positive, Arbitrary;
    for (unsigned long long I = 0; I != TracesPerFamily; ++I) {
      Positive.push_back(genLinearizableTrace(Q, G, R));
      Arbitrary.push_back(genArbitraryTrace(G, R));
    }
    printReport(checkFamily("queue/positive", Driver, Positive, Total));
    printReport(checkFamily("queue/arbitrary", Driver, Arbitrary, Total));
  }

  double TotalMs = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - Start)
                       .count();
  std::printf(
      "{\"summary\":{\"checks\":%llu,\"nodes\":%llu,"
      "\"memo_hits\":%llu,\"commit_moves\":%llu,\"filler_moves\":%llu,"
      "\"total_ms\":%.1f,\"traces_per_sec\":%.0f}}\n",
      static_cast<unsigned long long>(Total.Checks),
      static_cast<unsigned long long>(Total.Search.Nodes),
      static_cast<unsigned long long>(Total.Search.MemoHits),
      static_cast<unsigned long long>(Total.Search.CommitMoves),
      static_cast<unsigned long long>(Total.Search.FillerMoves), TotalMs,
      TotalMs > 0 ? Total.Checks * 1000.0 / TotalMs : 0);
  return 0;
}
