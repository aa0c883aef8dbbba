#pragma once

// Heap-allocation counter for traced runs (`app.allocs_per_tuple`).
//
// alloc_count.cpp replaces the global operator new, so it is linked into
// each benchmark binary exactly once.  It counts only while counting is
// on, and never on a thread inside a BenchScope: the benchmark's own
// threads (applied-count sampler, serve reader) and its generator callback
// allocate too, and those allocations are not the program's.

#include <cstdint>

namespace perfbench::alloc {

/// Turns counting on or off (relaxed; counts may lag by a few calls).
void set_counting(bool on) noexcept;
/// operator new calls counted so far.
[[nodiscard]] std::uint64_t count() noexcept;

/// Marks the current thread as benchmark-owned for the scope's lifetime.
class BenchScope {
 public:
  BenchScope() noexcept;
  ~BenchScope();
  BenchScope(const BenchScope&) = delete;
  BenchScope& operator=(const BenchScope&) = delete;

 private:
  bool previous_;
};

}  // namespace perfbench::alloc
