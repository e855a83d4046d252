//===- support/AllocGauge.h - Global heap-allocation counter ----*- C++ -*-==//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An opt-in process-wide operator-new interposer used to *prove* the
/// steady-state event path performs zero heap allocations, rather than
/// merely profiling it. A binary that places SLIN_DEFINE_ALLOC_GAUGE() at
/// global scope in exactly one translation unit replaces all global
/// operator new/delete forms with counting wrappers over malloc/free;
/// AllocGauge::count() then reads the running total, and a delta of zero
/// across a region means no code path in the region — library internals
/// included — touched the heap.
///
/// slin_core never instantiates the macro: libraries, fuzzers, and
/// sanitizer-instrumented targets are unaffected. Only the steady-state
/// allocation regression test and the service_monitor example define it.
/// Sanitizer builds provide their own operator new, so the macro compiles
/// to nothing under ASan and the gauge reads zero there — callers must
/// treat a zero *baseline* (no allocations observed at all, ever) as
/// "gauge inactive", not "zero-allocation program".
///
//===----------------------------------------------------------------------===//

#ifndef SLIN_SUPPORT_ALLOCGAUGE_H
#define SLIN_SUPPORT_ALLOCGAUGE_H

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#if defined(__GLIBC__)
#include <malloc.h> // malloc_usable_size: meter bytes, not just calls.
#endif

namespace slin {

/// Process-wide count of operator-new calls (all replaceable forms). Only
/// meaningful in binaries that instantiate SLIN_DEFINE_ALLOC_GAUGE(); reads
/// zero forever otherwise.
struct AllocGauge {
  static std::atomic<std::uint64_t> NewCalls;
  /// Cumulative usable bytes handed out / returned by the interposed
  /// allocation functions (malloc_usable_size of each block, so allocator
  /// rounding is included). Meaningful only when tracksBytes().
  static std::atomic<std::uint64_t> BytesAllocated;
  static std::atomic<std::uint64_t> BytesFreed;
  static std::uint64_t count() {
    return NewCalls.load(std::memory_order_relaxed);
  }
  /// Bytes currently live through the interposer (allocated minus freed).
  /// Deltas of this across a region measure the region's net heap growth —
  /// the ground truth memoryFootprintBytes estimates are audited against.
  static std::uint64_t liveBytes() {
    std::uint64_t A = BytesAllocated.load(std::memory_order_relaxed);
    std::uint64_t F = BytesFreed.load(std::memory_order_relaxed);
    return A > F ? A - F : 0;
  }
  /// True when the interposer is compiled in (i.e. a zero delta is
  /// evidence, not absence of instrumentation).
  static bool active();
  /// True when the interposer also meters usable bytes (glibc only;
  /// elsewhere the byte counters stay zero and liveBytes() is vacuous).
  static bool tracksBytes();
};

} // namespace slin

#if defined(__SANITIZE_ADDRESS__)
#define SLIN_ALLOC_GAUGE_DISABLED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SLIN_ALLOC_GAUGE_DISABLED 1
#endif
#endif

#if defined(__GLIBC__)
#define SLIN_ALLOC_GAUGE_HAS_USABLE_SIZE true
#define SLIN_ALLOC_GAUGE_USABLE_SIZE(P, Sz) (Sz) = ::malloc_usable_size(P)
#else
#define SLIN_ALLOC_GAUGE_HAS_USABLE_SIZE false
#define SLIN_ALLOC_GAUGE_USABLE_SIZE(P, Sz) (void)(Sz)
#endif

#ifndef SLIN_ALLOC_GAUGE_DISABLED

/// Defines the gauge storage plus every replaceable global allocation
/// function, each bumping AllocGauge::NewCalls (and, on glibc, the byte
/// meters) before delegating to malloc/free. Place at global scope in
/// exactly one .cpp of the binary.
#define SLIN_DEFINE_ALLOC_GAUGE()                                             \
  std::atomic<std::uint64_t> slin::AllocGauge::NewCalls{0};                   \
  std::atomic<std::uint64_t> slin::AllocGauge::BytesAllocated{0};             \
  std::atomic<std::uint64_t> slin::AllocGauge::BytesFreed{0};                 \
  bool slin::AllocGauge::active() { return true; }                           \
  bool slin::AllocGauge::tracksBytes() {                                      \
    return SLIN_ALLOC_GAUGE_HAS_USABLE_SIZE;                                  \
  }                                                                           \
  namespace {                                                                 \
  std::size_t slinGaugeUsableSize(void *P) noexcept {                         \
    (void)P;                                                                  \
    std::size_t Sz = 0;                                                       \
    SLIN_ALLOC_GAUGE_USABLE_SIZE(P, Sz);                                      \
    return Sz;                                                                \
  }                                                                           \
  void *slinGaugeAlloc(std::size_t Sz, std::size_t Al) noexcept {             \
    slin::AllocGauge::NewCalls.fetch_add(1, std::memory_order_relaxed);       \
    if (Sz == 0)                                                              \
      Sz = 1;                                                                 \
    void *P;                                                                  \
    if (Al > alignof(std::max_align_t)) {                                     \
      std::size_t Rounded = (Sz + Al - 1) / Al * Al;                          \
      P = std::aligned_alloc(Al, Rounded);                                    \
    } else {                                                                  \
      P = std::malloc(Sz);                                                    \
    }                                                                         \
    if (P)                                                                    \
      slin::AllocGauge::BytesAllocated.fetch_add(                             \
          slinGaugeUsableSize(P), std::memory_order_relaxed);                 \
    return P;                                                                 \
  }                                                                           \
  void *slinGaugeAllocOrThrow(std::size_t Sz, std::size_t Al) {               \
    void *P = slinGaugeAlloc(Sz, Al);                                         \
    if (!P)                                                                   \
      throw std::bad_alloc();                                                 \
    return P;                                                                 \
  }                                                                           \
  void slinGaugeFree(void *P) noexcept {                                      \
    if (P)                                                                    \
      slin::AllocGauge::BytesFreed.fetch_add(slinGaugeUsableSize(P),          \
                                             std::memory_order_relaxed);      \
    std::free(P);                                                             \
  }                                                                           \
  } /* namespace */                                                           \
  void *operator new(std::size_t Sz) {                                        \
    return slinGaugeAllocOrThrow(Sz, 0);                                      \
  }                                                                           \
  void *operator new[](std::size_t Sz) {                                      \
    return slinGaugeAllocOrThrow(Sz, 0);                                      \
  }                                                                           \
  void *operator new(std::size_t Sz, std::align_val_t Al) {                   \
    return slinGaugeAllocOrThrow(Sz, static_cast<std::size_t>(Al));           \
  }                                                                           \
  void *operator new[](std::size_t Sz, std::align_val_t Al) {                 \
    return slinGaugeAllocOrThrow(Sz, static_cast<std::size_t>(Al));           \
  }                                                                           \
  void *operator new(std::size_t Sz, const std::nothrow_t &) noexcept {       \
    return slinGaugeAlloc(Sz, 0);                                             \
  }                                                                           \
  void *operator new[](std::size_t Sz, const std::nothrow_t &) noexcept {     \
    return slinGaugeAlloc(Sz, 0);                                             \
  }                                                                           \
  void *operator new(std::size_t Sz, std::align_val_t Al,                     \
                     const std::nothrow_t &) noexcept {                       \
    return slinGaugeAlloc(Sz, static_cast<std::size_t>(Al));                  \
  }                                                                           \
  void *operator new[](std::size_t Sz, std::align_val_t Al,                   \
                       const std::nothrow_t &) noexcept {                     \
    return slinGaugeAlloc(Sz, static_cast<std::size_t>(Al));                  \
  }                                                                           \
  void operator delete(void *P) noexcept { slinGaugeFree(P); }                \
  void operator delete[](void *P) noexcept { slinGaugeFree(P); }              \
  void operator delete(void *P, std::size_t) noexcept { slinGaugeFree(P); }   \
  void operator delete[](void *P, std::size_t) noexcept { slinGaugeFree(P); } \
  void operator delete(void *P, std::align_val_t) noexcept {                  \
    slinGaugeFree(P);                                                         \
  }                                                                           \
  void operator delete[](void *P, std::align_val_t) noexcept {                \
    slinGaugeFree(P);                                                         \
  }                                                                           \
  void operator delete(void *P, std::size_t, std::align_val_t) noexcept {     \
    slinGaugeFree(P);                                                         \
  }                                                                           \
  void operator delete[](void *P, std::size_t, std::align_val_t) noexcept {   \
    slinGaugeFree(P);                                                         \
  }                                                                           \
  void operator delete(void *P, const std::nothrow_t &) noexcept {            \
    slinGaugeFree(P);                                                         \
  }                                                                           \
  void operator delete[](void *P, const std::nothrow_t &) noexcept {          \
    slinGaugeFree(P);                                                         \
  }

#else // SLIN_ALLOC_GAUGE_DISABLED

#define SLIN_DEFINE_ALLOC_GAUGE()                                             \
  std::atomic<std::uint64_t> slin::AllocGauge::NewCalls{0};                   \
  std::atomic<std::uint64_t> slin::AllocGauge::BytesAllocated{0};             \
  std::atomic<std::uint64_t> slin::AllocGauge::BytesFreed{0};                 \
  bool slin::AllocGauge::active() { return false; }                          \
  bool slin::AllocGauge::tracksBytes() { return false; }

#endif // SLIN_ALLOC_GAUGE_DISABLED

#endif // SLIN_SUPPORT_ALLOCGAUGE_H
