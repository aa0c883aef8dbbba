#pragma once

// Counting allocator probe: replaces the global `operator new` / `operator
// delete` family with thin wrappers that bump process-wide counters before
// delegating to malloc/free.
//
// Replacement allocation functions must be defined in exactly ONE
// translation unit of a binary ([new.delete.single]), so this header is NOT
// part of the astrostream library: include it from the single main TU of a
// bench or test binary that wants allocation accounting (micro_pca,
// fig6_scaling, tests/perf/alloc_count_test).  Every allocation made by any
// TU of that binary is then counted — which is exactly what the hot-path
// discipline needs to prove: a steady-state `observe()` performs zero heap
// allocations (see DESIGN.md "Hot path & memory discipline").
//
// The counters are relaxed atomics: the probe never synchronizes, it only
// tallies.  Overhead is one uncontended fetch_add per call — irrelevant for
// counting, and small enough that bench binaries can leave it on while
// timing.  Works unchanged under AddressSanitizer (ASan intercepts the
// malloc/free these wrappers call, so poisoning/quarantine still apply).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace astro::perf {

inline std::atomic<std::uint64_t> g_alloc_calls{0};
inline std::atomic<std::uint64_t> g_dealloc_calls{0};

/// Total `operator new` (scalar + array, aligned or not) calls so far.
inline std::uint64_t alloc_calls() noexcept {
  return g_alloc_calls.load(std::memory_order_relaxed);
}
inline std::uint64_t dealloc_calls() noexcept {
  return g_dealloc_calls.load(std::memory_order_relaxed);
}

/// RAII window: allocations() reports the operator-new calls made since
/// construction (or the last reset()).
class AllocWindow {
 public:
  AllocWindow() : start_(alloc_calls()) {}
  void reset() noexcept { start_ = alloc_calls(); }
  [[nodiscard]] std::uint64_t allocations() const noexcept {
    return alloc_calls() - start_;
  }

 private:
  std::uint64_t start_;
};

namespace detail {
inline void* counted_alloc(std::size_t size) {
  g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  return std::malloc(size);
}
inline void* counted_alloc(std::size_t size, std::align_val_t align) {
  g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  return std::aligned_alloc(static_cast<std::size_t>(align), size);
}
// Kept out of line: inlined into a call site of the replaced `operator
// delete`, the free() would sit next to the `operator new` that allocated
// the pointer, and GCC's -Wmismatched-new-delete flags that legal pairing
// (the replacement `operator new` above is malloc) once per call site.
[[gnu::noinline]] inline void counted_free(void* p) noexcept {
  g_dealloc_calls.fetch_add(1, std::memory_order_relaxed);
  std::free(p);
}
}  // namespace detail

}  // namespace astro::perf

// ---- Global replacement allocation functions (one TU per binary) ----

void* operator new(std::size_t size) {
  void* p = astro::perf::detail::counted_alloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) {
  void* p = astro::perf::detail::counted_alloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new(std::size_t size, std::align_val_t align) {
  void* p = astro::perf::detail::counted_alloc(size, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  void* p = astro::perf::detail::counted_alloc(size, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return astro::perf::detail::counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return astro::perf::detail::counted_alloc(size);
}

void operator delete(void* p) noexcept { astro::perf::detail::counted_free(p); }
void operator delete[](void* p) noexcept {
  astro::perf::detail::counted_free(p);
}
void operator delete(void* p, std::size_t) noexcept {
  astro::perf::detail::counted_free(p);
}
void operator delete[](void* p, std::size_t) noexcept {
  astro::perf::detail::counted_free(p);
}
void operator delete(void* p, std::align_val_t) noexcept {
  astro::perf::detail::counted_free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  astro::perf::detail::counted_free(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  astro::perf::detail::counted_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  astro::perf::detail::counted_free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  astro::perf::detail::counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  astro::perf::detail::counted_free(p);
}
