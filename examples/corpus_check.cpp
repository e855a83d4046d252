//===- examples/corpus_check.cpp - Batched corpus checking ----------------==//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//
//
// The batched-workload face of the chain-search engine: check whole corpora
// of traces through the CorpusDriver, which shards each corpus across
// worker threads, one warm CheckSession (interner + arena + transposition
// table) per thread.
//
// Usage:
//   corpus_check [traces <ops>] [seed <n>] [--threads <n>] [--share-prefixes]
//                                            generate + check a mixed corpus
//   corpus_check file <trace.txt>...         check textual traces (consensus)
//
// With no arguments a deterministic mixed corpus (linearizable-by-
// construction, arbitrary, and mutated traces over consensus and queue) is
// generated with trace/Gen and checked; the tool prints one JSON line per
// family and a final summary line with aggregated statistics — the same
// shape the benches emit, so corpus throughput can be tracked across PRs.
// Budget-limited Unknowns are retried one-shot; with the default budget
// (orders of magnitude above what these traces need) that makes verdict
// counts identical for every --threads value.
//
//===----------------------------------------------------------------------===//

#include "adt/Consensus.h"
#include "adt/Queue.h"
#include "engine/CorpusDriver.h"
#include "trace/Gen.h"
#include "trace/TraceIo.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace slin;

namespace {

struct FamilyReport {
  const char *Name;
  std::size_t Traces = 0;
  std::uint64_t Yes = 0, No = 0, Unknown = 0, BudgetLimited = 0;
  double Millis = 0;
};

FamilyReport checkFamily(const char *Name, CorpusDriver &Driver,
                         const std::vector<Trace> &Corpus,
                         SessionStats &Aggregate, unsigned &ThreadsUsed) {
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
  ThreadsUsed = std::max(ThreadsUsed, R.ThreadsUsed);
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
  unsigned TracesPerFamily = 200;
  std::uint64_t Seed = 0x5EED;
  unsigned Threads = 1;
  bool SharePrefixes = false;
  for (int I = 1; I < Argc; I += 2) {
    bool IsFile = !std::strcmp(Argv[I], "file");
    if (IsFile && I + 1 < Argc)
      return checkFiles(Argc - I - 1, Argv + I + 1);
    if (!IsFile && I + 1 < Argc && !std::strcmp(Argv[I], "traces")) {
      TracesPerFamily = static_cast<unsigned>(std::atoi(Argv[I + 1]));
      continue;
    }
    if (!IsFile && I + 1 < Argc && !std::strcmp(Argv[I], "seed")) {
      Seed = static_cast<std::uint64_t>(std::atoll(Argv[I + 1]));
      continue;
    }
    if (!IsFile && I + 1 < Argc &&
        (!std::strcmp(Argv[I], "--threads") ||
         !std::strcmp(Argv[I], "threads"))) {
      int V = std::atoi(Argv[I + 1]);
      if (V < 0 || V > 1024) {
        std::fprintf(stderr, "--threads must be in [0, 1024] (0 = auto)\n");
        return 2;
      }
      Threads = static_cast<unsigned>(V);
      continue;
    }
    if (!IsFile && !std::strcmp(Argv[I], "--share-prefixes")) {
      SharePrefixes = true;
      --I; // Flag takes no value.
      continue;
    }
    std::fprintf(stderr,
                 "usage: %s [traces <n>] [seed <n>] [--threads <n>] "
                 "[--share-prefixes] | file <t.txt>...\n",
                 Argv[0]);
    return 2;
  }

  CorpusOptions Drive;
  Drive.Threads = Threads;
  // Checks the corpus in sorted order through one resumable session per
  // worker (engine/Incremental.h): a trace extending the previous one
  // streams only its delta. Verdicts are unchanged; the driver's one-shot
  // retry of budget-limited Unknowns keeps verdict counts identical across
  // --threads values either way.
  Drive.SharePrefixes = SharePrefixes;

  Rng R(Seed);
  auto Start = std::chrono::steady_clock::now();
  SessionStats Total;
  unsigned ThreadsUsed = 1;

  // Consensus: linearizable-by-construction, mutated, and arbitrary
  // families run through one driver configuration. Note each checkLin call
  // spawns its own worker sessions, so session warmth spans one family's
  // corpus, not the whole program (unlike the pre-driver code, which
  // reused a single session across the consensus families).
  ConsensusAdt Cons;
  {
    CorpusDriver Driver(Cons, Drive);
    GenOptions G;
    G.NumClients = 4;
    G.NumOps = 10;
    G.Alphabet = {cons::propose(1), cons::propose(2), cons::propose(3)};
    G.Outputs = {cons::decide(1), cons::decide(2), cons::decide(3)};
    std::vector<Trace> Positive, Mutated, Arbitrary;
    for (unsigned I = 0; I != TracesPerFamily; ++I) {
      Positive.push_back(genLinearizableTrace(Cons, G, R));
      Trace M = Positive.back();
      mutateTrace(M, static_cast<MutationKind>(I % 4), G, R);
      Mutated.push_back(std::move(M));
      Arbitrary.push_back(genArbitraryTrace(G, R));
    }
    printReport(
        checkFamily("consensus/positive", Driver, Positive, Total,
                    ThreadsUsed));
    printReport(
        checkFamily("consensus/mutated", Driver, Mutated, Total,
                    ThreadsUsed));
    printReport(
        checkFamily("consensus/arbitrary", Driver, Arbitrary, Total,
                    ThreadsUsed));
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
    for (unsigned I = 0; I != TracesPerFamily; ++I) {
      Positive.push_back(genLinearizableTrace(Q, G, R));
      Arbitrary.push_back(genArbitraryTrace(G, R));
    }
    printReport(
        checkFamily("queue/positive", Driver, Positive, Total, ThreadsUsed));
    printReport(
        checkFamily("queue/arbitrary", Driver, Arbitrary, Total,
                    ThreadsUsed));
  }

  double TotalMs = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - Start)
                       .count();
  std::printf(
      "{\"summary\":{\"checks\":%llu,\"threads\":%u,\"nodes\":%llu,"
      "\"memo_hits\":%llu,\"commit_moves\":%llu,\"filler_moves\":%llu,"
      "\"total_ms\":%.1f,\"traces_per_sec\":%.0f}}\n",
      static_cast<unsigned long long>(Total.Checks), ThreadsUsed,
      static_cast<unsigned long long>(Total.Search.Nodes),
      static_cast<unsigned long long>(Total.Search.MemoHits),
      static_cast<unsigned long long>(Total.Search.CommitMoves),
      static_cast<unsigned long long>(Total.Search.FillerMoves), TotalMs,
      TotalMs > 0 ? Total.Checks * 1000.0 / TotalMs : 0);
  return 0;
}
