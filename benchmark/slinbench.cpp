//===- benchmark/slinbench.cpp - Seeded workload runner for the service ---==//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//
//
// The workload runner of the slinbench benchmark (see benchmark/README.md
// for the workloads, the metrics and why each exists). It generates a
// seeded multi-object wire stream on one thread and drives MonitorService
// through its public calls only. One invocation is one run and prints one
// JSON line on stdout:
//
//   slinbench <workload> [--seed N] [--seconds S] [--setup-reps N]
//       Untraced run: timed set-up (median of N, by default of at least
//       five), then S seconds of rounds, each a throughput slice and a
//       per-event latency slice. Every verdict is checked against the
//       ground truth the generator knows by construction.
//
//   slinbench <workload> --pass service [--seed N] [--seconds S]
//             [--untraced M] [--events N] [--trace-out FILE]
//       Traced pass 1: after warm-up, about M events one at a time without
//       spans (the untraced reference), then up to N events with spans
//       event > {wire.parse, service.ingest, service.poll}.
//
//   slinbench <workload> --pass shadow [--seed N] --untraced M --events N
//             [--trace-out FILE]
//       Traced pass 2, in a fresh process on the same seed, with the exact
//       counts pass 1 reported: the same parsed records go to shadow
//       per-object sessions and a shadow composed tracker, with spans
//       engine.append, engine.verdict.<path> and compose.update.
//
//   slinbench paper-checks
//       The paper-shape figures of experiments E1 and E5 through
//       StackHarness.
//
// Spans are timed from outside, around calls into each layer's public
// functions; nothing inside the library is instrumented.
//
//===----------------------------------------------------------------------===//

#include "adt/Register.h"
#include "service/Service.h"
#include "slin/Composition.h"
#include "slin/InitRelation.h"
#include "stack/Stack.h"
#include "support/Rng.h"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include <sched.h>

using namespace slin;

namespace {

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

//===----------------------------------------------------------------------===//
// Workloads and the stream generator.
//===----------------------------------------------------------------------===//

enum class Shape : std::uint8_t {
  Steady,  ///< Responses in invocation order.
  Reorder, ///< One write per round; responses shuffled within the round.
  Faults,  ///< Steady plus straggler excursions and one corrupted object.
};

struct Workload {
  const char *Name;
  ServiceMode Mode;
  unsigned Objects;
  std::size_t BatchWindow;
  Shape Kind;
};

constexpr Workload Workloads[] = {
    {"steady-64", ServiceMode::Lin, 64, 1, Shape::Steady},
    {"fleet-1024", ServiceMode::Lin, 1024, 64, Shape::Steady},
    {"reorder-slin-256", ServiceMode::Slin, 256, 1, Shape::Reorder},
    {"faults-64", ServiceMode::Lin, 64, 1, Shape::Faults},
};

constexpr unsigned ClientsPerObject = 4;
/// Warm-up rounds per object: 512 events per shard, past the point where
/// retirement folds stop growing shard storage.
constexpr unsigned WarmRounds = 64;
/// Set-up is repeated at least MinSetupReps times and until MinSetupNs of
/// set-up time, at most MaxSetupReps times; setup_s is the median.
constexpr unsigned MinSetupReps = 5;
constexpr unsigned MaxSetupReps = 25;
constexpr std::int64_t MinSetupNs = 500'000'000;
/// faults-64: objects == 2 (mod 8) run a straggler excursion every 16th
/// round, staggered so that at most one starts per block.
constexpr unsigned ExcursionPeriod = 16;
constexpr unsigned ExcursionCompletions = 70;
constexpr ObjectId CorruptObject = 1;
/// Any output no register write produces (written values are 1..3).
constexpr std::int64_t CorruptOutput = 777;
/// Rounds after which the corrupted object falls silent. Its No shard
/// keeps every later obligation live (~280 B/event), so an unbounded
/// stream would tie faults-64's peak memory to how fast the run went; a
/// fixed cap makes that growth the same on every run.
constexpr std::uint64_t CorruptObjectRounds = 4096;

/// The grade the ground truth allows a shard to hold right after an event.
enum class Expect : std::uint8_t {
  Yes,          ///< Linearizable shard outside an excursion.
  YesOrBounded, ///< Inside a straggler excursion.
  No,           ///< The corrupted object, from its corrupted response on.
};

struct EventNote {
  ObjectId Object = 0;
  Expect Grade = Expect::Yes;
};

/// The endless seeded wire stream of one workload. A block is one round
/// for every object, object after object; a round is all four clients
/// invoking, then all four responding, so every round boundary is a
/// quiescent cut. Outputs come from a reference register per object, so
/// the generator knows every verdict by construction.
class StreamGen {
public:
  StreamGen(const Workload &W, std::size_t Index, std::uint64_t Seed)
      : W(W), R(Seed * 0x9E3779B97F4A7C15ULL + Index) {
    Models.reserve(W.Objects);
    for (unsigned K = 0; K != W.Objects; ++K)
      Models.push_back(Reg.makeState());
  }

  /// Appends one block of wire lines to \p Out and one note per line to
  /// \p Notes.
  void appendBlock(std::string &Out, std::vector<EventNote> &Notes) {
    for (ObjectId Obj = 0; Obj != W.Objects; ++Obj) {
      if (W.Kind != Shape::Faults)
        appendRound(Out, Notes, Obj);
      else if (Obj % 8 == 2 &&
               (Round + Obj / 8) % ExcursionPeriod == ExcursionPeriod - 1)
        appendExcursion(Out, Notes, Obj);
      else if (Obj != CorruptObject || Round < CorruptObjectRounds)
        appendRound(Out, Notes, Obj);
    }
    ++Round;
  }

private:
  Input pick() {
    const Input Alphabet[4] = {reg::read(), reg::write(1), reg::write(2),
                               reg::write(3)};
    return Alphabet[R.nextBounded(4)];
  }

  ClientId client(ObjectId Obj, unsigned C) const {
    return static_cast<ClientId>(Obj * ClientsPerObject + C);
  }

  Expect steadyExpect(ObjectId Obj) const {
    return Obj == CorruptObject && Corrupted ? Expect::No : Expect::Yes;
  }

  void emit(std::string &Out, std::vector<EventNote> &Notes, ObjectId Obj,
            const Action &A, Expect E) {
    appendServiceLine(Out, Obj, A);
    Notes.push_back({Obj, E});
  }

  void appendRound(std::string &Out, std::vector<EventNote> &Notes,
                   ObjectId Obj) {
    Input Ins[ClientsPerObject];
    if (W.Kind == Shape::Reorder) {
      // Exactly one write per round: the register state at the round's
      // quiescent cut is then fixed by the round's own outputs, whichever
      // order retirement pins.
      std::uint64_t Writer = R.nextBounded(ClientsPerObject);
      for (unsigned C = 0; C != ClientsPerObject; ++C)
        Ins[C] = C == Writer ? reg::write(R.nextInRange(1, 3)) : reg::read();
    } else {
      for (Input &In : Ins)
        In = pick();
    }
    for (unsigned C = 0; C != ClientsPerObject; ++C)
      emit(Out, Notes, Obj, makeInvoke(client(Obj, C), 1, Ins[C]),
           steadyExpect(Obj));
    Output Outs[ClientsPerObject];
    for (unsigned C = 0; C != ClientsPerObject; ++C)
      Outs[C] = Models[Obj]->apply(Ins[C]);
    unsigned Order[ClientsPerObject] = {0, 1, 2, 3};
    if (W.Kind == Shape::Reorder)
      for (unsigned K = ClientsPerObject - 1; K != 0; --K)
        std::swap(Order[K], Order[R.nextBounded(K + 1)]);
    for (unsigned C : Order) {
      Output O = Outs[C];
      if (W.Kind == Shape::Faults && Obj == CorruptObject && !Corrupted) {
        O.Val = CorruptOutput;
        Corrupted = true;
      }
      emit(Out, Notes, Obj, makeRespond(client(Obj, C), 1, Ins[C], O),
           steadyExpect(Obj));
    }
  }

  /// A straggler write stays open while the other clients complete 70
  /// reads: the live window overflows its 64 slots, verdicts degrade to
  /// BoundedYes, and the straggler's response lets the session drain back
  /// to Yes.
  void appendExcursion(std::string &Out, std::vector<EventNote> &Notes,
                       ObjectId Obj) {
    Input Pinned = reg::write(R.nextInRange(1, 3));
    emit(Out, Notes, Obj, makeInvoke(client(Obj, 0), 1, Pinned), Expect::Yes);
    for (unsigned K = 0; K != ExcursionCompletions; ++K) {
      ClientId C = client(Obj, 1 + K % (ClientsPerObject - 1));
      Input In = reg::read();
      emit(Out, Notes, Obj, makeInvoke(C, 1, In), Expect::YesOrBounded);
      emit(Out, Notes, Obj, makeRespond(C, 1, In, Models[Obj]->apply(In)),
           Expect::YesOrBounded);
    }
    emit(Out, Notes, Obj,
         makeRespond(client(Obj, 0), 1, Pinned, Models[Obj]->apply(Pinned)),
         Expect::Yes);
  }

  const Workload &W;
  RegisterAdt Reg;
  std::vector<std::unique_ptr<AdtState>> Models;
  Rng R;
  std::uint64_t Round = 0;
  bool Corrupted = false;
};

/// One rendered block: its wire text and one note per line. Rendering is
/// timed apart, so it never falls inside a measured region.
struct Block {
  std::string Text;
  std::vector<EventNote> Notes;
  std::int64_t GenNs = 0; ///< Rendering time, summed over every block.

  void render(StreamGen &Gen) {
    Text.clear();
    Notes.clear();
    std::int64_t T0 = nowNs();
    Gen.appendBlock(Text, Notes);
    GenNs += nowNs() - T0;
  }

  std::size_t events() const { return Notes.size(); }

  template <typename Fn> void forEachLine(Fn &&F) const {
    std::size_t Pos = 0;
    for (const EventNote &N : Notes) {
      std::size_t Eol = Text.find('\n', Pos);
      F(std::string_view(Text.data() + Pos, Eol - Pos), N);
      Pos = Eol + 1;
    }
  }
};

/// What the ground truth expects of the session verdicts over a stretch of
/// events (one verdict per applied event).
struct ExpectCount {
  std::uint64_t Events = 0;
  std::uint64_t No = 0;
  std::uint64_t Bounded = 0; ///< Events where BoundedYes is allowed.

  void add(const Block &B) {
    for (const EventNote &N : B.Notes) {
      ++Events;
      No += N.Grade == Expect::No;
      Bounded += N.Grade == Expect::YesOrBounded;
    }
  }
};

std::uint64_t absDiff(std::uint64_t A, std::uint64_t B) {
  return A > B ? A - B : B - A;
}

/// Session verdicts since construction that differ from the ground truth
/// in count: a missing or extra verdict, a No too many or too few, a flat
/// Unknown, and a BoundedYes beyond the excursions.
std::uint64_t verdictFailures(const SessionStats &S, const ExpectCount &E) {
  return absDiff(S.Checks, E.Events) + absDiff(S.No, E.No) +
         (S.Unknown > S.BoundedYesVerdicts
              ? S.Unknown - S.BoundedYesVerdicts
              : 0) +
         (S.BoundedYesVerdicts > E.Bounded ? S.BoundedYesVerdicts - E.Bounded
                                           : 0);
}

// The service and the shadow sessions keep references to these.
const RegisterAdt Register;
const PhaseSignature SlinSig(1, 2);
UniversalInitRelation SlinRel;

ServiceConfig serviceConfig(const Workload &W) {
  ServiceConfig Config;
  Config.BatchWindow = W.BatchWindow;
  return Config;
}

std::unique_ptr<MonitorService> makeService(const Workload &W) {
  if (W.Mode == ServiceMode::Slin)
    return std::make_unique<MonitorService>(Register, SlinSig, SlinRel,
                                            serviceConfig(W));
  return std::make_unique<MonitorService>(Register, serviceConfig(W));
}

bool gradeAllowed(Expect E, VerdictGrade G) {
  switch (E) {
  case Expect::Yes:
    return G == VerdictGrade::Yes;
  case Expect::YesOrBounded:
    return G == VerdictGrade::Yes || G == VerdictGrade::BoundedYes;
  case Expect::No:
    return G == VerdictGrade::No;
  }
  return false;
}

/// The composed verdict the ground truth allows once the stream is past its
/// first block: No naming the corrupted object on faults-64, else Yes.
bool composedAllowed(const Workload &W, const MonitorService &S) {
  if (W.Kind == Shape::Faults)
    return S.composedVerdict() == Verdict::No &&
           S.culpritObject() == CorruptObject;
  return S.composedGrade() == VerdictGrade::Yes;
}

/// Shards whose grade differs from the ground truth at a block boundary,
/// where every excursion has closed: Yes everywhere but on the corrupted
/// object.
std::uint64_t shardFailures(const Workload &W, const MonitorService &S) {
  std::uint64_t Bad = 0;
  for (ObjectId Obj = 0; Obj != W.Objects; ++Obj) {
    Expect E = W.Kind == Shape::Faults && Obj == CorruptObject ? Expect::No
                                                               : Expect::Yes;
    Bad += !gradeAllowed(E, S.shardGrade(Obj));
  }
  return Bad;
}

//===----------------------------------------------------------------------===//
// Measurement helpers.
//===----------------------------------------------------------------------===//

/// Latency histogram in fixed storage: exact 1 ns buckets below 1024 ns,
/// then 256 buckets per power of two (under 0.4% relative width) up to
/// 2^40 ns. Quantiles interpolate within a bucket.
class Hist {
public:
  Hist() : Buckets(NumBuckets, 0) {}

  void add(std::int64_t Ns) {
    std::uint64_t V = Ns < 0 ? 0 : static_cast<std::uint64_t>(Ns);
    ++Buckets[bucketOf(V)];
    ++N;
    Sum += static_cast<double>(V);
  }

  void merge(const Hist &O) { mergeScaled(O, 1.0); }

  /// Adds \p O's samples multiplied by \p Factor (each bucket moves as a
  /// whole, by its midpoint).
  void mergeScaled(const Hist &O, double Factor) {
    for (std::size_t B = 0; B != NumBuckets; ++B) {
      if (!O.Buckets[B])
        continue;
      std::size_t To = B;
      if (Factor != 1.0) {
        auto [Lo, Width] = range(B);
        To = bucketOf(static_cast<std::uint64_t>((Lo + Width / 2) * Factor));
      }
      Buckets[To] += O.Buckets[B];
    }
    N += O.N;
    Sum += O.Sum * Factor;
  }

  std::uint64_t count() const { return N; }
  double sum() const { return Sum; }

  double quantile(double Q) const {
    if (!N)
      return 0.0;
    double Rank = Q * static_cast<double>(N - 1);
    double Cum = 0;
    for (std::size_t B = 0; B != NumBuckets; ++B) {
      double C = static_cast<double>(Buckets[B]);
      if (C != 0 && Rank < Cum + C) {
        auto [Lo, Width] = range(B);
        return Lo + (Rank - Cum + 0.5) / C * Width;
      }
      Cum += C;
    }
    return range(NumBuckets - 1).first;
  }

private:
  static constexpr unsigned LinearBits = 10;
  static constexpr unsigned SubBits = 8;
  static constexpr unsigned MaxBits = 40;
  static constexpr std::size_t NumBuckets =
      (std::size_t{1} << LinearBits) +
      (std::size_t{MaxBits - LinearBits} << SubBits);

  static std::size_t bucketOf(std::uint64_t V) {
    if (V < (1u << LinearBits))
      return static_cast<std::size_t>(V);
    V = std::min<std::uint64_t>(V, (std::uint64_t{1} << MaxBits) - 1);
    unsigned K = static_cast<unsigned>(std::bit_width(V)) - 1;
    std::size_t Sub = (V >> (K - SubBits)) & ((1u << SubBits) - 1);
    return (std::size_t{1} << LinearBits) +
           (std::size_t{K - LinearBits} << SubBits) + Sub;
  }

  /// Lower bound and width of bucket \p B, in ns.
  static std::pair<double, double> range(std::size_t B) {
    if (B < (1u << LinearBits))
      return {static_cast<double>(B), 1.0};
    std::size_t Off = B - (std::size_t{1} << LinearBits);
    unsigned K = LinearBits + static_cast<unsigned>(Off >> SubBits);
    double Width = static_cast<double>(std::uint64_t{1} << (K - SubBits));
    double Lo = static_cast<double>(std::uint64_t{1} << K) +
                static_cast<double>(Off & ((1u << SubBits) - 1)) * Width;
    return {Lo, Width};
  }

  std::vector<std::uint32_t> Buckets;
  std::uint64_t N = 0;
  double Sum = 0;
};

double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  std::size_t M = V.size() / 2;
  return V.size() % 2 ? V[M] : (V[M - 1] + V[M]) / 2;
}

/// Peak resident set of this process (VmHWM), in MB.
double peakRssMb() {
  std::ifstream Status("/proc/self/status");
  std::string Line;
  while (std::getline(Status, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

/// One flat JSON object on one line.
class JsonLine {
public:
  JsonLine &num(const std::string &Key, double V) {
    char B[64];
    std::snprintf(B, sizeof B, "%.17g", V);
    return raw(Key, B);
  }
  JsonLine &count(const std::string &Key, std::uint64_t V) {
    return raw(Key, std::to_string(V));
  }
  JsonLine &str(const std::string &Key, std::string_view V) {
    return raw(Key, "\"" + std::string(V) + "\"");
  }
  JsonLine &flag(const std::string &Key, bool V) {
    return raw(Key, V ? "true" : "false");
  }
  void print() const { std::printf("{%s}\n", Body.c_str()); }

private:
  JsonLine &raw(const std::string &Key, const std::string &V) {
    if (!Body.empty())
      Body += ", ";
    Body += "\"" + Key + "\": " + V;
    return *this;
  }
  std::string Body;
};

const char *gradeName(VerdictGrade G) {
  switch (G) {
  case VerdictGrade::Yes:
    return "yes";
  case VerdictGrade::BoundedYes:
    return "bounded_yes";
  case VerdictGrade::Unknown:
    return "unknown";
  case VerdictGrade::No:
    return "no";
  }
  return "?";
}

double perEvent(double Total, std::uint64_t Events) {
  return Total / static_cast<double>(std::max<std::uint64_t>(Events, 1));
}

/// Service counters, session counters and the final verdict, shared by the
/// untraced run and pass 1.
void reportService(JsonLine &J, const Workload &W, const MonitorService &S) {
  const ServiceStats &St = S.stats();
  SessionStats Ss = S.aggregateSessionStats();
  J.count("parse_errors", St.ParseErrors)
      .count("rejected", St.Rejected)
      .count("ring_overflows", St.RingOverflows)
      .count("stalls", St.BackpressureStalls)
      .count("shard_verdicts", St.ShardVerdicts)
      .count("shards", S.shardCount())
      .num("bytes_per_shard",
           perEvent(static_cast<double>(S.memoryFootprintBytes()),
                    S.shardCount()))
      .count("checks", Ss.Checks)
      .count("yes", Ss.Yes)
      .count("no", Ss.No)
      .count("unknown", Ss.Unknown)
      .count("fast_path", Ss.FastPathVerdicts)
      .count("nodes", Ss.Search.Nodes)
      .count("seed_replay", Ss.Search.SeedStepsReplayed)
      .count("window_hw", Ss.LiveWindowHighWater)
      .count("overflows", Ss.WindowOverflows)
      .count("bounded_yes", Ss.BoundedYesVerdicts)
      .str("final_verdict", gradeName(gradeFor(S.composedVerdict())))
      .str("final_grade", gradeName(S.composedGrade()))
      .count("culprit", S.composedVerdict() == Verdict::Yes
                            ? 0
                            : S.culpritObject())
      .flag("final_ok", composedAllowed(W, S));
}

/// Streams the warm-up blocks through \p S; returns the time spent in
/// service calls only.
std::int64_t warmUp(MonitorService &S, StreamGen &Gen, Block &B,
                    ExpectCount &Expected, std::uint64_t &Failed) {
  std::int64_t Timed = 0;
  for (unsigned I = 0; I != WarmRounds; ++I) {
    B.render(Gen);
    std::int64_t T0 = nowNs();
    bool Ok = S.ingestText(B.Text);
    S.poll();
    Timed += nowNs() - T0;
    if (!Ok)
      Failed += B.events();
    Expected.add(B);
  }
  return Timed;
}

//===----------------------------------------------------------------------===//
// The untraced run: set-up, then rounds of throughput and latency slices.
//===----------------------------------------------------------------------===//

/// Wall time of one slice. A run alternates a throughput slice and a
/// latency slice, so both metrics see the same machine conditions.
constexpr std::int64_t SliceNs = 100'000'000;

/// The reference op time the reported times are scaled to: about what one
/// ReferenceKernel op takes on the bench machine at its usual speed.
constexpr double ReferenceNominalNs = 30.0;

/// A fixed load independent of the library under test: format an integer
/// as text, parse it back and count it in a small table, the same kind of
/// throughput-bound integer work as the wire pipeline. Timed beside a
/// measurement, it gives the machine's speed at that moment. The table fits
/// in L1 so that the measurement just before it, which evicts the caches,
/// does not slow the kernel down.
class ReferenceKernel {
public:
  /// ns per op over a burst of about 0.7 ms.
  double measure() {
    constexpr int Ops = 20000;
    char Buf[24];
    std::int64_t T0 = nowNs();
    for (int I = 0; I != Ops; ++I) {
      X ^= X << 13;
      X ^= X >> 7;
      X ^= X << 17;
      char *P = std::end(Buf);
      for (std::uint64_t V = X >> 24;; V /= 10) {
        *--P = static_cast<char>('0' + V % 10);
        if (V < 10)
          break;
      }
      std::uint64_t Back = 0;
      for (; P != std::end(Buf); ++P)
        Back = Back * 10 + static_cast<std::uint64_t>(*P - '0');
      ++Table[(Back ^ Sum) & (Table.size() - 1)];
      Sum += Table[(Back >> 16) & (Table.size() - 1)];
    }
    return static_cast<double>(nowNs() - T0) / Ops;
  }

private:
  std::vector<std::uint32_t> Table = std::vector<std::uint32_t>(1u << 10);
  std::uint64_t X = 88172645463325252ull;
  std::uint64_t Sum = 0;
};

/// Moves the process to the least contended of the CPUs it may run on.
/// The bench machine's other tenants contend for one CPU's core at a time,
/// and which CPU changes within seconds; before each round every candidate
/// runs one block of the workload itself, and the round runs on the
/// fastest.
class CpuPicker {
public:
  CpuPicker() {
    cpu_set_t Set;
    CPU_ZERO(&Set);
    if (sched_getaffinity(0, sizeof Set, &Set) == 0)
      for (int C = 0; C != CPU_SETSIZE; ++C)
        if (CPU_ISSET(C, &Set))
          Cpus.push_back(C);
  }

  /// Runs \p Probe (which returns its own timed ns per event) once on each
  /// of up to MaxCandidates CPUs, taken in turn from the allowed set, and
  /// stays on the fastest. A no-op with one allowed CPU.
  template <typename Fn> void pick(Fn &&Probe) {
    if (Cpus.size() < 2)
      return;
    int Best = -1;
    double BestNs = 0;
    for (std::size_t I = 0; I != std::min(Cpus.size(), MaxCandidates); ++I) {
      int C = Cpus[Next++ % Cpus.size()];
      if (!pin(C))
        continue;
      double Ns = Probe();
      if (Best < 0 || Ns < BestNs) {
        Best = C;
        BestNs = Ns;
      }
    }
    if (Best >= 0)
      pin(Best);
  }

private:
  static bool pin(int C) {
    cpu_set_t One;
    CPU_ZERO(&One);
    CPU_SET(C, &One);
    return sched_setaffinity(0, sizeof One, &One) == 0;
  }

  static constexpr std::size_t MaxCandidates = 4;
  std::vector<int> Cpus;
  std::size_t Next = 0;
};

struct MeasuredRound {
  double RawEventsPerS = 0;
  /// Reference kernel ns per op around each slice: the faster of the
  /// bursts before and after it.
  double ThroughputRefNs = 0;
  double LatencyRefNs = 0;
  Hist Latency; ///< Unscaled.

  double eventsPerS() const {
    return RawEventsPerS * ThroughputRefNs / ReferenceNominalNs;
  }
};

struct RunArgs {
  double Seconds = 10;
  /// Set-ups in an untraced run; 0 repeats as MinSetupReps/MinSetupNs say.
  std::uint64_t SetupReps = 0;
  std::uint64_t Untraced = 200'000;
  std::uint64_t Events = 1'000'000;
  std::string TraceOut;
};

int runUntraced(const Workload &W, std::size_t Index, std::uint64_t Seed,
                const RunArgs &A) {
  std::unique_ptr<MonitorService> S;
  std::unique_ptr<StreamGen> Gen;
  Block B;
  ExpectCount Expected;
  std::uint64_t Failed = 0;
  ReferenceKernel Ref;
  std::vector<double> SetupSeconds, SetupRawSeconds;
  for (std::int64_t SetupNs = 0;
       A.SetupReps ? SetupSeconds.size() < A.SetupReps
                   : SetupSeconds.size() < MinSetupReps ||
                         (SetupNs < MinSetupNs &&
                          SetupSeconds.size() < MaxSetupReps);) {
    double RefNs = Ref.measure();
    S.reset();
    Gen = std::make_unique<StreamGen>(W, Index, Seed);
    B.GenNs = 0;
    Expected = ExpectCount();
    Failed = 0;
    std::int64_t T0 = nowNs();
    S = makeService(W);
    std::int64_t Timed = nowNs() - T0;
    Timed += warmUp(*S, *Gen, B, Expected, Failed);
    SetupNs += Timed;
    RefNs = std::min(RefNs, Ref.measure());
    SetupRawSeconds.push_back(static_cast<double>(Timed) * 1e-9);
    SetupSeconds.push_back(SetupRawSeconds.back() * ReferenceNominalNs / RefNs);
  }

  std::vector<MeasuredRound> Rounds;
  std::uint64_t ThroughputEvents = 0;
  std::uint64_t GradeFailures = 0, ShardFailures = 0, ComposedFailures = 0;
  // Throughput: render a block untimed, time ingestText + poll over it.
  auto ThroughputBlock = [&]() -> std::int64_t {
    B.render(*Gen);
    std::int64_t T0 = nowNs();
    bool Ok = S->ingestText(B.Text);
    S->poll();
    std::int64_t Timed = nowNs() - T0;
    if (!Ok)
      Failed += B.events();
    Expected.add(B);
    ShardFailures += shardFailures(W, *S);
    ComposedFailures += !composedAllowed(W, *S);
    return Timed;
  };
  CpuPicker Picker;
  const std::int64_t End =
      nowNs() + static_cast<std::int64_t>(A.Seconds * 1e9);
  while (nowNs() < End) {
    Picker.pick([&] {
      return static_cast<double>(ThroughputBlock()) /
             static_cast<double>(B.events());
    });
    MeasuredRound &R = Rounds.emplace_back();
    double RefBefore = Ref.measure();
    std::int64_t Timed = 0;
    std::uint64_t Events = 0;
    for (std::int64_t SliceEnd = nowNs() + SliceNs; nowNs() < SliceEnd;) {
      Timed += ThroughputBlock();
      Events += B.events();
    }
    R.RawEventsPerS = static_cast<double>(Events) * 1e9 /
                      static_cast<double>(std::max<std::int64_t>(Timed, 1));
    double RefBetween = Ref.measure();
    R.ThroughputRefNs = std::min(RefBefore, RefBetween);
    ThroughputEvents += Events;
    // Latency: one wire line through ingestLine + poll, closed loop, whole
    // blocks so that slices never split an object's round.
    for (std::int64_t SliceEnd = nowNs() + SliceNs; nowNs() < SliceEnd;) {
      B.render(*Gen);
      B.forEachLine([&](std::string_view Line, const EventNote &N) {
        std::int64_t T0 = nowNs();
        bool Ok = S->ingestLine(Line);
        S->poll();
        R.Latency.add(nowNs() - T0);
        GradeFailures += !Ok || !gradeAllowed(N.Grade, S->shardGrade(N.Object));
        ComposedFailures += !composedAllowed(W, *S);
      });
      Expected.add(B);
    }
    R.LatencyRefNs = std::min(RefBetween, Ref.measure());
  }
  S->flush();
  Failed += verdictFailures(S->aggregateSessionStats(), Expected) +
            GradeFailures + ShardFailures + ComposedFailures;

  // Every slice is scaled by the reference kernel's speed around it, which
  // takes out the machine's drift. Other tenants also slow whole seconds of
  // a run, by up to 2x, through the core and caches they share with it,
  // and the kernel does not feel all of that: rounds are ranked by their
  // scaled throughput and only the faster half is kept. Latency slices are
  // ranked by their neighbouring throughput slice, never by themselves.
  std::sort(Rounds.begin(), Rounds.end(),
            [](const MeasuredRound &A, const MeasuredRound &B) {
              return A.eventsPerS() > B.eventsPerS();
            });
  std::size_t Kept = (Rounds.size() + 1) / 2;
  std::vector<double> Rates, RawRates, RefNs;
  Hist Latency, RawLatency;
  for (std::size_t I = 0; I != Kept; ++I) {
    const MeasuredRound &R = Rounds[I];
    Rates.push_back(R.eventsPerS());
    RawRates.push_back(R.RawEventsPerS);
    RefNs.push_back(R.ThroughputRefNs);
    Latency.mergeScaled(R.Latency, ReferenceNominalNs / R.LatencyRefNs);
    RawLatency.merge(R.Latency);
  }

  const ServiceStats &St = S->stats();
  JsonLine J;
  J.str("workload", W.Name)
      .count("seed", Seed)
      .num("events_per_s", median(Rates))
      .num("event_p50_ns", Latency.quantile(0.50))
      .num("event_p99_ns", Latency.quantile(0.99))
      .num("setup_s", median(SetupSeconds))
      .num("events_per_s_raw", median(RawRates))
      .num("event_p50_ns_raw", RawLatency.quantile(0.50))
      .num("event_p99_ns_raw", RawLatency.quantile(0.99))
      .num("setup_s_raw", median(SetupRawSeconds))
      .num("reference_ns_per_op", median(RefNs))
      .count("throughput_events", ThroughputEvents)
      .count("rounds", Rounds.size())
      .count("rounds_kept", Kept)
      .count("latency_samples", Latency.count())
      .count("setup_reps", SetupSeconds.size())
      .num("gen_ns_per_event", perEvent(static_cast<double>(B.GenNs),
                                        Expected.Events))
      .count("attempted", St.Events + St.ParseErrors + St.Rejected +
                              St.RingOverflows)
      .count("failed", Failed)
      .count("grade_failures", GradeFailures)
      .count("shard_failures", ShardFailures)
      .count("composed_failures", ComposedFailures);
  reportService(J, W, *S);
  J.num("rss_peak_mb", peakRssMb());
  J.print();
  return 0;
}

//===----------------------------------------------------------------------===//
// Traced passes: spans recorded from outside, around public calls.
//===----------------------------------------------------------------------===//

enum SpanName : std::uint8_t {
  SpanEvent,
  SpanParse,
  SpanIngest,
  SpanPoll,
  SpanAppend,
  SpanFast,
  SpanSearch,
  SpanAbsorbed,
  SpanGraded,
  SpanCompose,
  NumSpanNames,
};

constexpr const char *SpanNames[NumSpanNames] = {
    "event",
    "wire.parse",
    "service.ingest",
    "service.poll",
    "engine.append",
    "engine.verdict.fast",
    "engine.verdict.search",
    "engine.verdict.absorbed",
    "engine.verdict.graded",
    "compose.update",
};

/// Spans (name, start, end, parent, event id) in a preallocated array.
/// When the array fills it is folded into per-name duration histograms and
/// self-time sums; the first array's worth is kept for the Chrome trace
/// written at exit.
class SpanRecorder {
public:
  struct Span {
    std::int64_t Start = 0;
    std::int64_t End = 0;
    std::uint32_t Event = 0;
    std::int32_t Parent = -1;
    std::uint8_t Name = 0;
  };

  /// A span's clock reads land partly inside its duration, so the median
  /// duration of an empty span is measured here and subtracted from every
  /// recorded duration.
  SpanRecorder() : Spans(Capacity) {
    std::vector<std::int64_t> Empty(4096);
    for (std::int64_t &E : Empty) {
      end(begin(0), SpanEvent);
      E = Spans[0].End - Spans[0].Start;
      Used = 0;
    }
    std::nth_element(Empty.begin(), Empty.begin() + 2048, Empty.end());
    Overhead = Empty[2048];
  }

  std::int64_t overheadNs() const { return Overhead; }

  /// Makes room for one event's spans; called between events only, so a
  /// parent and its children are always folded together.
  void reserve(std::size_t N) {
    if (Used + N > Capacity)
      fold();
  }

  std::int32_t begin(std::uint32_t Event, std::int32_t Parent = -1) {
    Span &S = Spans[Used];
    S.Event = Event;
    S.Parent = Parent;
    S.Start = nowNs();
    return static_cast<std::int32_t>(Used++);
  }

  void end(std::int32_t Idx, SpanName Name) {
    Span &S = Spans[static_cast<std::size_t>(Idx)];
    S.End = nowNs();
    S.Name = Name;
  }

  void rename(std::int32_t Idx, SpanName Name) {
    Spans[static_cast<std::size_t>(Idx)].Name = Name;
  }

  /// Folds what is left; the histograms are complete afterwards.
  void finish() { fold(); }

  const Hist &duration(SpanName N) const { return Dur[N]; }
  /// Summed self time (duration minus children) of the spans named \p N.
  double selfSum(SpanName N) const { return Self[N]; }

  bool writeChromeTrace(const std::string &Path, int Pid) const {
    std::ofstream Out(Path);
    std::int64_t T0 = Kept.empty() ? 0 : Kept.front().Start;
    Out << "{\"traceEvents\": [";
    char B[256];
    for (std::size_t I = 0; I != Kept.size(); ++I) {
      const Span &S = Kept[I];
      std::snprintf(B, sizeof B,
                    "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": %d, "
                    "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                    "{\"event\": %u, \"parent\": %d}}",
                    I ? "," : "", SpanNames[S.Name], Pid,
                    static_cast<double>(S.Start - T0) / 1e3,
                    static_cast<double>(corrected(S)) / 1e3, S.Event,
                    S.Parent);
      Out << B;
    }
    Out << "\n], \"displayTimeUnit\": \"ns\"}\n";
    return static_cast<bool>(Out);
  }

private:
  std::int64_t corrected(const Span &S) const {
    return std::max<std::int64_t>(S.End - S.Start - Overhead, 0);
  }

  void fold() {
    std::vector<std::int64_t> SelfNs(Used);
    for (std::size_t I = 0; I != Used; ++I)
      SelfNs[I] = corrected(Spans[I]);
    for (std::size_t I = 0; I != Used; ++I)
      if (Spans[I].Parent >= 0)
        SelfNs[static_cast<std::size_t>(Spans[I].Parent)] -=
            corrected(Spans[I]);
    for (std::size_t I = 0; I != Used; ++I) {
      Dur[Spans[I].Name].add(corrected(Spans[I]));
      Self[Spans[I].Name] += static_cast<double>(SelfNs[I]);
    }
    if (Kept.empty())
      Kept.assign(Spans.begin(), Spans.begin() + static_cast<long>(Used));
    Used = 0;
  }

  static constexpr std::size_t Capacity = 1u << 15;
  std::vector<Span> Spans;
  std::size_t Used = 0;
  std::vector<Span> Kept;
  Hist Dur[NumSpanNames];
  double Self[NumSpanNames] = {};
  std::int64_t Overhead = 0;
};

void reportSpan(JsonLine &J, const SpanRecorder &Rec, SpanName N,
                const std::string &Key) {
  const Hist &H = Rec.duration(N);
  J.num(Key + ".p50", H.quantile(0.50))
      .num(Key + ".p99", H.quantile(0.99))
      .num(Key + ".sum", H.sum())
      .count(Key + ".n", H.count());
}

/// Pass 1: the service, one event at a time, in whole blocks.
int runServicePass(const Workload &W, std::size_t Index, std::uint64_t Seed,
                   const RunArgs &A) {
  const std::int64_t Deadline =
      nowNs() + static_cast<std::int64_t>(A.Seconds * 1e9);
  StreamGen Gen(W, Index, Seed);
  std::unique_ptr<MonitorService> S = makeService(W);
  Block B;
  ExpectCount Expected;
  std::uint64_t Failed = 0;
  warmUp(*S, Gen, B, Expected, Failed);

  // Untraced reference: the same per-event loop without spans.
  std::uint64_t Untraced = 0;
  std::int64_t UntracedNs = 0;
  while (Untraced < A.Untraced) {
    B.render(Gen);
    std::int64_t T0 = nowNs();
    B.forEachLine([&](std::string_view Line, const EventNote &) {
      Failed += !S->ingestLine(Line);
      S->poll();
    });
    UntracedNs += nowNs() - T0;
    Untraced += B.events();
    Expected.add(B);
  }

  const ServiceStats Svc0 = S->stats();
  SpanRecorder Rec;
  ServiceRecord R;
  std::string Error;
  std::uint64_t BadLines = 0;
  std::uint64_t Traced = 0;
  std::int64_t TracedNs = 0;
  while (Traced < A.Events && (Traced == 0 || nowNs() < Deadline)) {
    B.render(Gen);
    auto Ev = static_cast<std::uint32_t>(Traced);
    std::int64_t T0 = nowNs();
    B.forEachLine([&](std::string_view Line, const EventNote &) {
      Rec.reserve(4);
      std::int32_t Root = Rec.begin(Ev);
      std::int32_t Sp = Rec.begin(Ev, Root);
      LineKind K = parseServiceLine(Line, R, Error);
      Rec.end(Sp, SpanParse);
      if (K == LineKind::Record) {
        Sp = Rec.begin(Ev, Root);
        S->ingest(R.Object, R.A);
        Rec.end(Sp, SpanIngest);
      } else {
        ++BadLines;
      }
      Sp = Rec.begin(Ev, Root);
      S->poll();
      Rec.end(Sp, SpanPoll);
      Rec.end(Root, SpanEvent);
      ++Ev;
    });
    TracedNs += nowNs() - T0;
    Traced += B.events();
    Expected.add(B);
  }
  Rec.finish();
  Failed += BadLines + verdictFailures(S->aggregateSessionStats(), Expected);
  const ServiceStats &Svc1 = S->stats();

  bool TraceWritten = A.TraceOut.empty() || Rec.writeChromeTrace(A.TraceOut, 1);
  JsonLine J;
  J.str("workload", W.Name)
      .count("seed", Seed)
      .str("pass", "service")
      .count("untraced_events", Untraced)
      .count("traced_events", Traced)
      .num("untraced_ns_per_event",
           perEvent(static_cast<double>(UntracedNs), Untraced))
      .num("traced_ns_per_event",
           perEvent(static_cast<double>(TracedNs), Traced))
      .num("gen_ns_per_event",
           perEvent(static_cast<double>(B.GenNs), Expected.Events))
      .count("bad_lines", BadLines + (Svc1.ParseErrors - Svc0.ParseErrors))
      .num("publish_per_event",
           perEvent(static_cast<double>(Svc1.ShardVerdicts -
                                        Svc0.ShardVerdicts),
                    Traced))
      .num("event_self_ns_mean", perEvent(Rec.selfSum(SpanEvent), Traced))
      .count("span_overhead_ns", static_cast<std::uint64_t>(Rec.overheadNs()));
  reportSpan(J, Rec, SpanEvent, "event_ns");
  reportSpan(J, Rec, SpanParse, "parse_ns");
  reportSpan(J, Rec, SpanIngest, "ingest_ns");
  reportSpan(J, Rec, SpanPoll, "poll_ns");
  J.count("attempted", Expected.Events)
      .count("failed", Failed)
      .flag("trace_written", TraceWritten);
  reportService(J, W, *S);
  J.print();
  return 0;
}

/// The shard options MonitorService gives every session (Service.cpp).
IncrementalOptions shardOptions(const ServiceConfig &Config) {
  IncrementalOptions Opts;
  Opts.TranspositionCapacity = Config.TranspositionCapacity;
  Opts.RetainTrace = false;
  Opts.RetainRetiredWitness = false;
  Opts.InterferenceBound = Config.InterferenceBound;
  Opts.Order = Config.Order;
  return Opts;
}

/// The service's shards rebuilt outside it, one layer call at a time: per
/// object the same session under the same options, fed through the same
/// first-seen client remap, with the same per-append verdict and batched
/// publication into a composed tracker.
class ShadowService {
public:
  /// Verdicts of the traced stretch, by the path they took.
  struct PathCounts {
    std::uint64_t Verdicts = 0;
    std::uint64_t Fast = 0;
    std::uint64_t Search = 0;
    std::uint64_t SearchNodes = 0;
    std::uint64_t SearchMemoHits = 0;
    std::uint64_t Absorbed = 0;
    std::uint64_t Graded = 0;
  };

  explicit ShadowService(const Workload &W)
      : W(W), Config(serviceConfig(W)), Opts(shardOptions(Config)),
        ShardOf(W.Objects, -1) {
    LinOpts.NodeBudget = Config.NodeBudget;
    LinOpts.WantWitness = false;
    SlinOpts.Search.NodeBudget = Config.NodeBudget;
    SlinOpts.Search.WantWitness = false;
    SlinOpts.WantWitness = false;
  }

  /// Feeds one record; records spans in \p Rec when it is non-null.
  void feed(const ServiceRecord &R, SpanRecorder *Rec, std::uint32_t Ev) {
    Shard &Sh = shardFor(R.Object);
    Action Local = R.A;
    Local.Client = Sh.localClient(R.A.Client);
    if (Rec)
      Rec->reserve(3);
    if (!Sh.Doomed) {
      std::int32_t Sp = Rec ? Rec->begin(Ev) : 0;
      WellFormedness Wf =
          Sh.Lin ? Sh.Lin->append(Local) : Sh.Slin->append(Local);
      if (Rec)
        Rec->end(Sp, SpanAppend);
      Sh.Doomed = !Wf.Ok;
    }
    const SessionStats Before = Sh.stats();
    Verdict V = Verdict::Yes;
    VerdictGrade G = VerdictGrade::Yes;
    std::int32_t Sp = Rec ? Rec->begin(Ev) : 0;
    auto Take = [&](const auto &Res) {
      if (Rec)
        Rec->end(Sp, SpanAbsorbed); // Named by classify() below.
      V = Res.Outcome;
      G = Res.Grade;
      if (V != Verdict::Yes && Sh.LastReason != Res.Reason)
        Sh.LastReason = Res.Reason;
    };
    if (Sh.Lin)
      Take(Sh.Lin->verdict(LinOpts));
    else
      Take(Sh.Slin->verdict(SlinOpts));
    if (Rec)
      Rec->rename(Sp, classify(Before, Sh.stats(), G));
    if (++Sh.SinceVerdict >= Config.BatchWindow) {
      Sh.SinceVerdict = 0;
      Sp = Rec ? Rec->begin(Ev) : 0;
      Tracker.update(Sh.Index, V, G,
                     G == VerdictGrade::Yes ? EmptyReason : Sh.LastReason);
      if (Rec)
        Rec->end(Sp, SpanCompose);
    }
  }

  SessionStats total() const {
    SessionStats T;
    for (const Shard &Sh : Shards)
      T.accumulate(Sh.stats());
    return T;
  }

  std::size_t shards() const { return Shards.size(); }
  std::size_t bytes() const {
    std::size_t B = 0;
    for (const Shard &Sh : Shards)
      B += Sh.bytes();
    return B;
  }
  std::size_t maxBytes() const {
    std::size_t M = 0;
    for (const Shard &Sh : Shards)
      M = std::max(M, Sh.bytes());
    return M;
  }
  const PathCounts &paths() const { return Paths; }
  const ComposedVerdictTracker &tracker() const { return Tracker; }

private:
  struct Shard {
    std::unique_ptr<IncrementalLinSession> Lin;
    std::unique_ptr<IncrementalSlinSession> Slin;
    std::vector<std::uint32_t> Clients;
    std::uint32_t Index = 0;
    std::size_t SinceVerdict = 0;
    bool Doomed = false;
    std::string LastReason;

    std::uint32_t localClient(std::uint32_t Global) {
      for (std::uint32_t L = 0; L != Clients.size(); ++L)
        if (Clients[L] == Global)
          return L;
      Clients.push_back(Global);
      return static_cast<std::uint32_t>(Clients.size() - 1);
    }
    const SessionStats &stats() const {
      return Lin ? Lin->stats() : Slin->stats();
    }
    std::size_t bytes() const {
      return Lin ? Lin->memoryFootprintBytes()
                 : Slin->memoryFootprintBytes();
    }
  };

  Shard &shardFor(ObjectId Object) {
    std::int32_t &Slot = ShardOf[Object];
    if (Slot < 0) {
      Slot = static_cast<std::int32_t>(Shards.size());
      Shard &Fresh = Shards.emplace_back();
      Fresh.Index = static_cast<std::uint32_t>(Slot);
      if (W.Mode == ServiceMode::Lin)
        Fresh.Lin = std::make_unique<IncrementalLinSession>(Register, Opts);
      else
        Fresh.Slin = std::make_unique<IncrementalSlinSession>(
            Register, SlinSig, SlinRel, Opts);
    }
    return Shards[static_cast<std::size_t>(Slot)];
  }

  /// The path a verdict took, read from the session counters it moved:
  /// graded inside an overflow excursion, fast when the in-session fast
  /// path served it, search when the engine expanded nodes, else absorbed
  /// (invokes and standing No verdicts).
  SpanName classify(const SessionStats &Before, const SessionStats &After,
                    VerdictGrade G) {
    ++Paths.Verdicts;
    if (After.WindowOverflows != Before.WindowOverflows ||
        After.BoundedYesVerdicts != Before.BoundedYesVerdicts ||
        G == VerdictGrade::BoundedYes || G == VerdictGrade::Unknown) {
      ++Paths.Graded;
      return SpanGraded;
    }
    if (After.FastPathVerdicts != Before.FastPathVerdicts) {
      ++Paths.Fast;
      return SpanFast;
    }
    if (After.Search.Nodes != Before.Search.Nodes) {
      ++Paths.Search;
      Paths.SearchNodes += After.Search.Nodes - Before.Search.Nodes;
      Paths.SearchMemoHits += After.Search.MemoHits - Before.Search.MemoHits;
      return SpanSearch;
    }
    ++Paths.Absorbed;
    return SpanAbsorbed;
  }

  const Workload &W;
  const ServiceConfig Config;
  const IncrementalOptions Opts;
  LinCheckOptions LinOpts;
  SlinCheckOptions SlinOpts;
  const std::string EmptyReason;
  std::vector<Shard> Shards;
  std::vector<std::int32_t> ShardOf;
  ComposedVerdictTracker Tracker;
  PathCounts Paths;
};

/// Pass 2: the same records through the shadow service.
int runShadowPass(const Workload &W, std::size_t Index, std::uint64_t Seed,
                  const RunArgs &A) {
  StreamGen Gen(W, Index, Seed);
  ShadowService Shadow(W);
  SpanRecorder Rec;
  Block B;
  ServiceRecord R;
  std::string Error;
  std::uint64_t BadLines = 0;
  std::uint64_t Fed = 0;
  std::uint64_t Start = 0; ///< First traced event; event ids count from it.
  // Feeds whole blocks until \p Count events; the block sequence is pass
  // 1's, so its block-aligned counts land on the same boundaries.
  auto FeedUntil = [&](std::uint64_t Count, SpanRecorder *Spans) {
    while (Fed < Count) {
      B.render(Gen);
      B.forEachLine([&](std::string_view Line, const EventNote &) {
        if (parseServiceLine(Line, R, Error) == LineKind::Record &&
            R.Object < W.Objects)
          Shadow.feed(R, Spans, static_cast<std::uint32_t>(Fed - Start));
        else
          ++BadLines;
        ++Fed;
      });
    }
  };
  for (unsigned I = 0; I != WarmRounds; ++I)
    FeedUntil(Fed + 1, nullptr);
  FeedUntil(Fed + A.Untraced, nullptr);
  const SessionStats Before = Shadow.total();
  Start = Fed;
  FeedUntil(Fed + A.Events, &Rec);
  const std::uint64_t Traced = Fed - Start;
  Rec.finish();
  const SessionStats After = Shadow.total();

  const ShadowService::PathCounts &P = Shadow.paths();
  const double Verdict =
      Rec.duration(SpanFast).sum() + Rec.duration(SpanSearch).sum() +
      Rec.duration(SpanAbsorbed).sum() + Rec.duration(SpanGraded).sum();
  bool TraceWritten = A.TraceOut.empty() || Rec.writeChromeTrace(A.TraceOut, 2);
  JsonLine J;
  J.str("workload", W.Name)
      .count("seed", Seed)
      .str("pass", "shadow")
      .count("traced_events", Traced)
      .count("verdicts", P.Verdicts)
      .count("fast", P.Fast)
      .count("search", P.Search)
      .count("absorbed", P.Absorbed)
      .count("graded", P.Graded)
      .num("nodes_per_search",
           perEvent(static_cast<double>(P.SearchNodes), P.Search))
      .num("memo_hits_per_search",
           perEvent(static_cast<double>(P.SearchMemoHits), P.Search))
      .num("retired_per_event",
           perEvent(static_cast<double>(After.RetiredObligations -
                                        Before.RetiredObligations),
                    Traced))
      .count("overflows_traced", After.WindowOverflows - Before.WindowOverflows)
      .count("bounded_yes_traced",
             After.BoundedYesVerdicts - Before.BoundedYesVerdicts)
      .num("bytes_per_session",
           perEvent(static_cast<double>(Shadow.bytes()), Shadow.shards()))
      .count("max_session_bytes", Shadow.maxBytes())
      .num("append_ns_per_event", perEvent(Rec.duration(SpanAppend).sum(),
                                           Traced))
      .num("verdict_ns_per_event", perEvent(Verdict, Traced))
      .num("compose_ns_per_event", perEvent(Rec.duration(SpanCompose).sum(),
                                            Traced))
      .count("bad_lines", BadLines)
      .count("span_overhead_ns", static_cast<std::uint64_t>(Rec.overheadNs()));
  reportSpan(J, Rec, SpanAppend, "append_ns");
  reportSpan(J, Rec, SpanFast, "fast_ns");
  reportSpan(J, Rec, SpanSearch, "search_ns");
  reportSpan(J, Rec, SpanAbsorbed, "absorbed_ns");
  reportSpan(J, Rec, SpanGraded, "graded_ns");
  reportSpan(J, Rec, SpanCompose, "compose_ns");
  J.count("checks", After.Checks)
      .count("yes", After.Yes)
      .count("no", After.No)
      .count("unknown", After.Unknown)
      .count("fast_path", After.FastPathVerdicts)
      .count("nodes", After.Search.Nodes)
      .count("seed_replay", After.Search.SeedStepsReplayed)
      .count("window_hw", After.LiveWindowHighWater)
      .str("final_verdict", gradeName(Shadow.tracker().composedGrade()))
      .flag("trace_written", TraceWritten);
  J.print();
  return 0;
}

//===----------------------------------------------------------------------===//
// Paper-shape checks (experiments E1 and E5) through StackHarness.
//===----------------------------------------------------------------------===//

/// Contention-free sequential proposals on distinct slots with unit network
/// delay: mean simulated latency in hops, and the fast-path fraction.
std::pair<double, double> contentionFree(unsigned Servers, unsigned Phases,
                                         unsigned Ops) {
  StackConfig Config;
  Config.NumServers = Servers;
  Config.NumPhases = Phases;
  Config.NumClients = 1;
  Config.Net.MinDelay = Config.Net.MaxDelay = 1;
  StackHarness H(Config);
  for (unsigned I = 0; I != Ops; ++I)
    H.submitAt(I * 100, 0, I, static_cast<std::int64_t>(I + 1));
  H.run();
  double Hops = 0;
  unsigned Fast = 0;
  for (const OpRecord &Op : H.ops()) {
    Hops += static_cast<double>(Op.End - Op.Start);
    Fast += Op.completed() && Op.ResponsePhase == 1;
  }
  return {perEvent(Hops, H.ops().size()), perEvent(Fast, H.ops().size())};
}

/// Two conflicting proposals per slot with jittered delays, so every fast
/// phase sees contention: mean switches per completed operation.
double cascadeSwitches(unsigned Phases, std::uint64_t Seed) {
  StackConfig Config;
  Config.NumServers = 3;
  Config.NumClients = 2;
  Config.NumPhases = Phases;
  Config.Seed = Seed;
  Config.Net.MinDelay = 1;
  Config.Net.MaxDelay = 4;
  Config.QuorumTimeout = 16;
  Config.PaxosTimeout = 80;
  StackHarness H(Config);
  for (unsigned Slot = 0; Slot != 16; ++Slot) {
    H.submitAt(Slot * 300, 0, Slot, static_cast<std::int64_t>(Slot) * 2 + 1);
    H.submitAt(Slot * 300, 1, Slot, static_cast<std::int64_t>(Slot) * 2 + 2);
  }
  H.run();
  double Switches = 0;
  std::uint64_t Done = 0;
  for (const OpRecord &Op : H.ops())
    if (Op.completed()) {
      ++Done;
      Switches += Op.Switches;
    }
  return perEvent(Switches, Done);
}

int paperChecks() {
  JsonLine J;
  J.str("pass", "paper-checks");
  for (unsigned Servers : {3u, 5u, 7u, 13u}) {
    auto [Hops, Fast] = contentionFree(Servers, 2, 64);
    std::string K = std::to_string(Servers);
    J.num("e1.hops." + K, Hops)
        .num("e1.fast_frac." + K, Fast)
        .num("e1_paxos.hops." + K, contentionFree(Servers, 1, 64).first);
  }
  for (unsigned K : {2u, 4u, 8u})
    J.num("e5_control.hops." + std::to_string(K),
          contentionFree(3, K, 16).first);
  for (unsigned K : {2u, 3u, 4u, 6u, 8u}) {
    double Sum = 0;
    for (std::uint64_t Seed = 1; Seed <= 8; ++Seed)
      Sum += cascadeSwitches(K, Seed);
    J.num("e5_cascade.mean_switches." + std::to_string(K), Sum / 8);
  }
  J.print();
  return 0;
}

//===----------------------------------------------------------------------===//
// Command line.
//===----------------------------------------------------------------------===//

int usage(const char *Msg) {
  std::fprintf(stderr,
               "slinbench: %s\n"
               "usage: slinbench <workload> [--seed N] [--seconds S] "
               "[--setup-reps N]\n"
               "       slinbench <workload> --pass service|shadow [--seed N] "
               "[--seconds S] [--untraced M] [--events N] [--trace-out F]\n"
               "       slinbench paper-checks\n"
               "workloads:",
               Msg);
  for (const Workload &W : Workloads)
    std::fprintf(stderr, " %s", W.Name);
  std::fprintf(stderr, "\n");
  return 2;
}

bool parseCount(const char *S, std::uint64_t &Out) {
  char *End = nullptr;
  errno = 0;
  unsigned long long V = std::strtoull(S, &End, 10);
  if (errno || End == S || *End || S[0] == '-' || V > (1ull << 40))
    return false;
  Out = V;
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage("missing workload");
  if (std::strcmp(Argv[1], "paper-checks") == 0)
    return Argc == 2 ? paperChecks() : usage("paper-checks takes no options");

  const Workload *W = nullptr;
  std::size_t Index = 0;
  for (std::size_t I = 0; I != std::size(Workloads); ++I)
    if (std::strcmp(Argv[1], Workloads[I].Name) == 0) {
      W = &Workloads[I];
      Index = I;
    }
  if (!W)
    return usage("unknown workload");

  std::uint64_t Seed = 1;
  std::string Pass = "untraced";
  RunArgs A;
  for (int I = 2; I < Argc; I += 2) {
    if (I + 1 >= Argc)
      return usage("option without a value");
    std::string_view Opt = Argv[I];
    const char *Val = Argv[I + 1];
    bool Ok = true;
    if (Opt == "--seed") {
      Ok = parseCount(Val, Seed);
    } else if (Opt == "--seconds") {
      char *End = nullptr;
      A.Seconds = std::strtod(Val, &End);
      Ok = End != Val && !*End && A.Seconds > 0 && A.Seconds <= 600;
    } else if (Opt == "--pass") {
      Pass = Val;
      Ok = Pass == "untraced" || Pass == "service" || Pass == "shadow";
    } else if (Opt == "--setup-reps") {
      Ok = parseCount(Val, A.SetupReps) && A.SetupReps <= MaxSetupReps;
    } else if (Opt == "--untraced") {
      Ok = parseCount(Val, A.Untraced);
    } else if (Opt == "--events") {
      Ok = parseCount(Val, A.Events) && A.Events < (1ull << 32);
    } else if (Opt == "--trace-out") {
      A.TraceOut = Val;
    } else {
      return usage("unknown option");
    }
    if (!Ok)
      return usage("bad option value");
  }

  if (Pass == "service")
    return runServicePass(*W, Index, Seed, A);
  if (Pass == "shadow")
    return runShadowPass(*W, Index, Seed, A);
  return runUntraced(*W, Index, Seed, A);
}
