// PhysArena — the machine's simulated physical memory.
//
// EbbRT identity-maps all of physical memory and never pages it out, which is what makes
// zero-copy I/O with ordinary allocations possible (§3.4, §3.6): any allocated buffer is
// physically contiguous and pinned from the device's point of view. We model physical memory
// as one big mmap'd arena per machine; "physical addresses" are offsets into it, identity
// mapping is the arena's base address, and a side table holds per-page metadata (the analogue
// of Linux's struct page array) used by the allocators to classify any pointer.
//
// Like EbbRT's partitioned address space, an address names its owner: every arena is carved
// from one process-wide PROT_NONE reservation of kArenaSlots slots, kArenaStride bytes apart.
// An arena claims a free slot and maps its bytes there read-write (MAP_FIXED); teardown maps
// them back to PROT_NONE (returning the pages) before the slot is released. So the slot of
// any pointer is one subtract and one shift (ArenaOffsetOf), which is what makes routing a
// free home (mem::FindOwningRoot) a single table load.
#ifndef EBBRT_SRC_MEM_PHYS_ARENA_H_
#define EBBRT_SRC_MEM_PHYS_ARENA_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/platform/debug.h"

namespace ebbrt {

inline constexpr std::size_t kPageShift = 12;
inline constexpr std::size_t kPageSize = 1 << kPageShift;  // 4 KiB
inline constexpr std::size_t kMaxOrder = 10;               // largest buddy block: 4 MiB

using Pfn = std::size_t;

// The reservation's geometry: 64 slots of 1 GiB. The stride bounds one arena (the largest
// any bench installs is 512 MiB) and the slot count bounds the machines alive at once.
inline constexpr std::size_t kArenaStrideShift = 30;
inline constexpr std::size_t kArenaStride = std::size_t{1} << kArenaStrideShift;
inline constexpr std::size_t kArenaSlots = 64;

namespace arena_internal {
// Base address of the reservation; 0 until the first arena is built. Written once, before
// any arena address exists, so every reader that holds an arena pointer sees it set.
inline std::atomic<std::uintptr_t> reservation_base{0};
}  // namespace arena_internal

// Byte offset of `addr` from the reservation's base; at least kArenaSlots * kArenaStride for
// any address outside it (unsigned wrap covers addresses below the base). The slot is
// `offset >> kArenaStrideShift`, the place in the slot `offset & (kArenaStride - 1)`.
inline std::uintptr_t ArenaOffsetOf(const void* addr) {
  return reinterpret_cast<std::uintptr_t>(addr) -
         arena_internal::reservation_base.load(std::memory_order_relaxed);
}

enum class PageKind : std::uint8_t {
  kFree,            // in a buddy free list (first page of the block carries the order)
  kBuddyTail,       // interior page of a free or allocated block
  kBuddyAllocated,  // first page of a block handed out by the page allocator
  kSlab,            // backs a slab cache (owner = SlabCacheRoot*)
  kLarge,           // first page of a large GP allocation (order recorded)
};

struct PageInfo {
  PageKind kind = PageKind::kBuddyTail;
  std::uint8_t order = 0;
  std::uint16_t node = 0;
  std::uint8_t size_class = 0;  // PageKind::kSlab: the owner's GP size class index
  void* owner = nullptr;        // PageKind::kSlab: the owning SlabCacheRoot
};

class PhysArena {
 public:
  // Maps `bytes` (rounded down to a page multiple) of "physical" memory split evenly across
  // `numa_nodes` into a free reservation slot. Aborts when `bytes` exceeds kArenaStride or
  // every slot is taken.
  PhysArena(std::size_t bytes, std::size_t numa_nodes);
  // Maps the slot's pages back to PROT_NONE (their memory returns to the OS), then frees it.
  ~PhysArena();

  PhysArena(const PhysArena&) = delete;
  PhysArena& operator=(const PhysArena&) = delete;

  std::size_t pages() const { return pages_; }
  std::size_t bytes() const { return pages_ << kPageShift; }
  std::size_t nodes() const { return nodes_; }
  std::size_t slot() const { return slot_; }

  std::uint8_t* PfnToAddr(Pfn pfn) const {
    Kassert(pfn < pages_, "PhysArena: pfn out of range");
    return base_ + (pfn << kPageShift);
  }

  Pfn AddrToPfn(const void* addr) const {
    auto offset = static_cast<std::size_t>(static_cast<const std::uint8_t*>(addr) - base_);
    Kassert(offset < pages_ << kPageShift, "PhysArena: address outside arena");
    return offset >> kPageShift;
  }

  bool Contains(const void* addr) const {
    auto* p = static_cast<const std::uint8_t*>(addr);
    return p >= base_ && p < base_ + bytes();
  }

  PageInfo& InfoFor(Pfn pfn) {
    Kassert(pfn < pages_, "PhysArena: pfn out of range");
    return page_info_[pfn];
  }
  PageInfo& InfoForAddr(const void* addr) { return InfoFor(AddrToPfn(addr)); }

  // Node n owns pfns [NodeFirstPfn(n), NodeFirstPfn(n) + NodePages(n)).
  Pfn NodeFirstPfn(std::size_t node) const { return node * pages_per_node_; }
  std::size_t NodePages(std::size_t node) const {
    return node + 1 == nodes_ ? pages_ - node * pages_per_node_ : pages_per_node_;
  }

 private:
  std::uint8_t* base_;
  std::size_t slot_;
  std::size_t pages_;
  std::size_t nodes_;
  std::size_t pages_per_node_;
  std::vector<PageInfo> page_info_;
};

}  // namespace ebbrt

#endif  // EBBRT_SRC_MEM_PHYS_ARENA_H_
