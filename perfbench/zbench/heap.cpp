#include "heap.h"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>

namespace zbench::heap {
namespace {

std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::int64_t> g_live{0};
std::atomic<std::int64_t> g_peak{0};

// Each block carries a header holding the requested size and the offset
// back to the start of the underlying malloc block, so live bytes count
// exactly what the program asked for, independent of how the allocator
// happened to split its free chunks.
struct Header {
  std::size_t size;
  std::size_t offset;
};
constexpr std::size_t kHeader = 16;
static_assert(sizeof(Header) <= kHeader);

void* track(void* base, std::size_t offset, std::size_t size) {
  void* p = static_cast<char*>(base) + offset;
  const Header h{size, offset};
  std::memcpy(static_cast<char*>(p) - kHeader, &h, sizeof h);
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto n = static_cast<std::int64_t>(size);
  raise_peak(g_live.fetch_add(n, std::memory_order_relaxed) + n);
  return p;
}

void* checked_alloc(std::size_t size) {
  void* base = std::malloc(size + kHeader);
  if (base == nullptr) throw std::bad_alloc();
  return track(base, kHeader, size);
}

void* checked_aligned_alloc(std::size_t size, std::align_val_t align) {
  std::size_t a = static_cast<std::size_t>(align);
  const std::size_t offset = a < kHeader ? kHeader : a;
  if (a < sizeof(void*)) a = sizeof(void*);
  void* base = nullptr;
  if (posix_memalign(&base, a, size + offset) != 0) throw std::bad_alloc();
  return track(base, offset, size);
}

void release(void* p) noexcept {
  if (p == nullptr) return;
  Header h;
  std::memcpy(&h, static_cast<char*>(p) - kHeader, sizeof h);
  g_live.fetch_sub(static_cast<std::int64_t>(h.size), std::memory_order_relaxed);
  std::free(static_cast<char*>(p) - h.offset);
}

}  // namespace

std::uint64_t allocs() { return g_allocs.load(std::memory_order_relaxed); }
std::int64_t live() { return g_live.load(std::memory_order_relaxed); }
std::int64_t peak() { return g_peak.load(std::memory_order_relaxed); }

std::int64_t reset_peak() {
  return g_peak.exchange(g_live.load(std::memory_order_relaxed), std::memory_order_relaxed);
}

void raise_peak(std::int64_t floor) {
  std::int64_t cur = g_peak.load(std::memory_order_relaxed);
  while (floor > cur &&
         !g_peak.compare_exchange_weak(cur, floor, std::memory_order_relaxed)) {
  }
}

}  // namespace zbench::heap


void* operator new(std::size_t n) { return zbench::heap::checked_alloc(n); }
void* operator new[](std::size_t n) { return zbench::heap::checked_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return zbench::heap::checked_alloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return zbench::heap::checked_alloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t n, std::align_val_t a) {
  return zbench::heap::checked_aligned_alloc(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return zbench::heap::checked_aligned_alloc(n, a);
}

void operator delete(void* p) noexcept { zbench::heap::release(p); }
void operator delete[](void* p) noexcept { zbench::heap::release(p); }
void operator delete(void* p, std::size_t) noexcept { zbench::heap::release(p); }
void operator delete[](void* p, std::size_t) noexcept { zbench::heap::release(p); }
void operator delete(void* p, std::align_val_t) noexcept { zbench::heap::release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { zbench::heap::release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  zbench::heap::release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  zbench::heap::release(p);
}
