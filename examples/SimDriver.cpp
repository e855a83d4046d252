//===- examples/SimDriver.cpp ---------------------------------------------==//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//

#include "SimDriver.h"

#include "adt/KvStore.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>

using namespace slin;
using namespace slin::simdrv;

void slin::simdrv::submitKvWorkload(SmrHarness &H, unsigned Clients,
                                    unsigned Ops) {
  const SimTime RoundPace = Clients > 4 ? 25 * Clients : 100;
  const SimTime ClientStagger = RoundPace / Clients;
  for (unsigned I = 0; I != Ops; ++I) {
    ClientId C = I % Clients;
    SimTime At = RoundPace * (I / Clients) + C * ClientStagger;
    std::int64_t Key = 1 + (I % 2);
    switch ((I / Clients) % 3) {
    case 0:
      H.submitAt(At, C, kv::put(Key, 10 * (1 + I % 64)));
      break;
    case 1:
      H.submitAt(At, C, kv::get(Key));
      break;
    default:
      H.submitAt(At, C, kv::del(Key));
      break;
    }
  }
}

static bool allDone(const SmrHarness &H) {
  for (const SmrOpRecord &Op : H.smrOps())
    if (!Op.Completed)
      return false;
  return !H.smrOps().empty();
}

MultiObjectSim::MultiObjectSim(const Adt &Type, std::size_t Objects,
                               const StackConfig &Base) {
  Harnesses.reserve(Objects);
  Fed.resize(Objects, 0);
  for (std::size_t K = 0; K != Objects; ++K) {
    StackConfig Config = Base;
    Config.Seed = Base.Seed + K;
    Harnesses.push_back(std::make_unique<SmrHarness>(Config, Type));
  }
}

MultiObjectSim::~MultiObjectSim() = default;

std::size_t MultiObjectSim::run(
    const std::function<void(std::uint32_t, SimTime, const Action &)>
        &OnEvent) {
  std::size_t Delivered = 0;
  auto DrainAll = [&](SimTime Now) {
    for (std::size_t K = 0; K != Harnesses.size(); ++K) {
      const Trace &T = Harnesses[K]->objectTrace();
      for (; Fed[K] != T.size(); ++Fed[K]) {
        OnEvent(static_cast<std::uint32_t>(K), Now, T[Fed[K]]);
        ++Delivered;
      }
    }
  };
  auto AllDone = [&] {
    for (const auto &H : Harnesses)
      if (!allDone(*H))
        return false;
    return true;
  };
  for (SimTime Slice = 50; Slice <= 1u << 20 && !AllDone(); Slice += 50) {
    for (const auto &H : Harnesses)
      H->run(Slice);
    DrainAll(Slice);
  }
  for (const auto &H : Harnesses)
    H->run(); // Quiesce stragglers per object.
  DrainAll(-1);
  return Delivered;
}

bool slin::simdrv::parseUnsigned(const char *Text, unsigned long long Lo,
                                 unsigned long long Hi,
                                 unsigned long long &Out) {
  if (!std::isdigit(static_cast<unsigned char>(*Text)))
    return false;
  errno = 0;
  char *End = nullptr;
  unsigned long long V = std::strtoull(Text, &End, 10);
  if (errno == ERANGE || *End != '\0' || V < Lo || V > Hi)
    return false;
  Out = V;
  return true;
}
