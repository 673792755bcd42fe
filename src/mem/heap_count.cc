// Process-wide generic-heap accounting: replacement ::operator new/delete that tick
// mem::stats().generic_heap_allocs/generic_heap_frees around std::malloc/std::free.
//
// Why replace the global operators at all: the datapath counters in mem::Stats only see
// allocations that go THROUGH mem:: (IOBuf storage, slabs). Everything a std::string
// copy, a make_shared control block, or a container rehash allocates is invisible to them —
// which is exactly how the old item plane shipped 3–4 hidden mallocs per SET under gates
// that read 0.0. The counter here sees every generic-heap allocation in the process, so the
// fig13 `heap_allocs_per_op` column (and its CI gate) measures the whole binary, not a
// subsystem's view of itself.
//
// The hooks are deliberately dumb: one relaxed fetch_add and a malloc or free. No size
// histogram, no caller attribution — benches snapshot deltas around a measured phase. Allocs
// minus frees is the live block count teardown tests hold to zero across a world's life.
//
// Linkage: this file exports mem::internal::EnsureHeapCountLinked(), which mem::stats()
// calls, so any binary that reads the counters necessarily links the operators that feed
// them (a static-library archive member is only pulled in when referenced).
#include <cstddef>
#include <cstdlib>
#include <new>

#include "src/mem/gp_allocator.h"

namespace ebbrt {
namespace mem {
namespace internal {
void EnsureHeapCountLinked() {}
}  // namespace internal
}  // namespace mem
}  // namespace ebbrt

namespace {

// mem::stats() is a function-local static of atomics: safe to touch from the very first
// pre-main allocation (magic-static guard, no allocation in Stats construction), and
// trivially destructible, so a delete during static destruction still finds it intact.
void* CountedAlloc(std::size_t size) {
  ebbrt::mem::stats().generic_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size != 0 ? size : 1);
}

void* CountedAllocAligned(std::size_t size, std::size_t align) {
  ebbrt::mem::stats().generic_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (align < alignof(std::max_align_t)) {
    align = alignof(std::max_align_t);
  }
  std::size_t rounded = (size + align - 1) / align * align;
  return std::aligned_alloc(align, rounded != 0 ? rounded : align);
}

void CountedFree(void* p) {
  if (p != nullptr) {
    ebbrt::mem::stats().generic_heap_frees.fetch_add(1, std::memory_order_relaxed);
  }
  std::free(p);
}

}  // namespace

void* operator new(std::size_t size) {
  void* p = CountedAlloc(size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* operator new[](std::size_t size) {
  void* p = CountedAlloc(size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}

void* operator new(std::size_t size, std::align_val_t align) {
  void* p = CountedAllocAligned(size, static_cast<std::size_t>(align));
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* operator new[](std::size_t size, std::align_val_t align) {
  void* p = CountedAllocAligned(size, static_cast<std::size_t>(align));
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* operator new(std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  return CountedAllocAligned(size, static_cast<std::size_t>(align));
}

void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return CountedAllocAligned(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { CountedFree(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { CountedFree(p); }
void operator delete(void* p, std::align_val_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::align_val_t) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { CountedFree(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  CountedFree(p);
}
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  CountedFree(p);
}
