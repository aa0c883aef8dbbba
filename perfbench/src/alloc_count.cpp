#include "alloc_count.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace perfbench::alloc {
namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_count{0};
thread_local bool t_bench_thread = false;

void note() noexcept {
  if (g_counting.load(std::memory_order_relaxed) && !t_bench_thread) {
    g_count.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace

void set_counting(bool on) noexcept {
  g_counting.store(on, std::memory_order_relaxed);
}

std::uint64_t count() noexcept {
  return g_count.load(std::memory_order_relaxed);
}

BenchScope::BenchScope() noexcept : previous_(t_bench_thread) {
  t_bench_thread = true;
}

BenchScope::~BenchScope() { t_bench_thread = previous_; }

}  // namespace perfbench::alloc

// The full replaceable set, as in src/perf/alloc_probe.h: replacing only
// some forms would pair this file's free() with another allocator's new
// (a sanitizer's, for one).
namespace {

void* counted_alloc(std::size_t size) noexcept {
  perfbench::alloc::note();
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_alloc(std::size_t size, std::align_val_t align) noexcept {
  perfbench::alloc::note();
  const auto a = static_cast<std::size_t>(align);
  return std::aligned_alloc(a, size == 0 ? a : (size + a - 1) / a * a);
}

void* or_throw(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return or_throw(counted_alloc(n)); }
void* operator new[](std::size_t n) { return or_throw(counted_alloc(n)); }
void* operator new(std::size_t n, std::align_val_t a) {
  return or_throw(counted_alloc(n, a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return or_throw(counted_alloc(n, a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return counted_alloc(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return counted_alloc(n, a);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
