// PageAllocator — the lowest-level allocator: power-of-two pages from per-NUMA-node buddy
// allocators (§3.4: "Our default implementation uses per-numa-node buddy-allocators").
//
// Defined as an Ebb so it can be replaced wholesale: each core's EbbRef dereference resolves
// to its NUMA node's representative. Page allocation is the slow path under the slab caches,
// so a per-node spinlock is acceptable; the per-core fast paths above never reach it.
#ifndef EBBRT_SRC_MEM_PAGE_ALLOCATOR_H_
#define EBBRT_SRC_MEM_PAGE_ALLOCATOR_H_

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/ebb_id.h"
#include "src/core/ebb_ref.h"
#include "src/core/multicore_ebb.h"
#include "src/core/runtime.h"
#include "src/mem/phys_arena.h"
#include "src/platform/spinlock.h"

namespace ebbrt {

class PageAllocator;

class PageAllocatorRoot {
 public:
  // Builds one buddy representative per NUMA node over `arena`. `cores_per_node` maps a
  // machine core to its node (core / cores_per_node).
  PageAllocatorRoot(PhysArena& arena, std::size_t cores_per_node);

  // The representative of `machine_core`'s node (cores past the last node use the last).
  PageAllocator& RepFor(std::size_t machine_core);
  PageAllocator& RepForNode(std::size_t node);
  PhysArena& arena() { return arena_; }
  std::size_t nodes() const { return reps_.size(); }

 private:
  PhysArena& arena_;
  std::size_t cores_per_node_;
  PerCore<PageAllocator> reps_;  // indexed by node
};

// One representative per NUMA node: a binary-buddy allocator over the node's pfn range.
class PageAllocator : public RootedEbb<PageAllocator, PageAllocatorRoot> {
 public:
  static EbbRef<PageAllocator> Instance() { return EbbRef<PageAllocator>(kPageAllocatorId); }

  PageAllocator(PhysArena& arena, std::size_t node);

  // Allocates 2^order contiguous pages; nullptr when the node is exhausted.
  void* AllocPages(std::size_t order);
  // Frees a block previously returned by AllocPages (order recorded in the page info).
  void FreePages(void* addr);

  std::size_t node() const { return node_; }
  std::size_t free_pages() const { return free_pages_; }
  PhysArena& arena() { return arena_; }

 private:
  Pfn BuddyOf(Pfn pfn, std::size_t order) const {
    return first_pfn_ + ((pfn - first_pfn_) ^ (std::size_t{1} << order));
  }
  void PushFree(Pfn pfn, std::size_t order);
  void RemoveFree(Pfn pfn, std::size_t order);
  Pfn PopFree(std::size_t order);

  // Intrusive free list node embedded in the first page of each free block.
  struct FreeBlock {
    FreeBlock* next;
    FreeBlock* prev;
  };

  PhysArena& arena_;
  std::size_t node_;
  Pfn first_pfn_;
  std::size_t num_pages_;
  Spinlock mu_;
  std::array<FreeBlock*, kMaxOrder + 1> free_lists_ = {};
  std::size_t free_pages_ = 0;
};

}  // namespace ebbrt

#endif  // EBBRT_SRC_MEM_PAGE_ALLOCATOR_H_
