// Process-wide heap accounting from a replaced global operator new/delete.
//
// Every C++ allocation in the benchmark process -- the rewriter's included
// -- goes through these counters, so zbench can report peak live heap
// and allocation counts without touching the libraries. Counters are
// relaxed atomics: the farm workload allocates from worker threads.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

namespace zbench::heap {

/// Allocations made since process start.
std::uint64_t allocs();
/// Bytes currently live (requested sizes of the live blocks).
std::int64_t live();
/// Highest `live()` seen since the last reset_peak().
std::int64_t peak();
/// Restart peak tracking from the current live size; returns the peak that
/// was discarded, so nested measurements can restore it.
std::int64_t reset_peak();
/// Raise the tracked peak to at least `floor` (undoes a nested reset).
void raise_peak(std::int64_t floor);

/// malloc-backed allocator: storage the benchmark keeps for itself (latency
/// samples, spans) stays out of the counters above, so it cannot move the
/// peak heap a run reports as the number of operations changes.
template <class T>
struct RawAllocator {
  using value_type = T;
  RawAllocator() = default;
  template <class U>
  RawAllocator(const RawAllocator<U>&) {}
  T* allocate(std::size_t n) {
    if (void* p = std::malloc(n * sizeof(T))) return static_cast<T*>(p);
    throw std::bad_alloc();
  }
  void deallocate(T* p, std::size_t) { std::free(p); }
  friend bool operator==(const RawAllocator&, const RawAllocator&) { return true; }
};

}  // namespace zbench::heap

namespace zbench {
/// Timing samples, kept out of the heap accounting.
using Samples = std::vector<double, heap::RawAllocator<double>>;
}  // namespace zbench
