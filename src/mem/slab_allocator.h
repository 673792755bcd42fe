// SlabAllocator — fixed-size object caches in the style of Linux's SLQB (§3.4).
//
// Per-core representatives hold object free lists; a per-NUMA-node shared depot balances
// objects between cores (a core flushes half its list when it exceeds the watermark and
// refills from the depot before carving fresh pages). The fast path — pop/push on the
// core-local list — uses no atomic operations at all: EbbRT events cannot be preempted or
// migrate, which is exactly the property the paper exploits ("most allocations can be serviced
// from a per-core cache without any synchronization"). The depot takes no lock either: it is
// an exchange list, as the interconnect's are (src/event/interconnect.h). Any thread CAS-pushes
// a chain it owns; a refilling core takes the whole chain with one exchange.
//
// Backing pages come from the node's buddy allocator and are tagged in the arena's page-info
// table so any pointer can be routed back to its cache (the general-purpose allocator's Free
// uses this).
#ifndef EBBRT_SRC_MEM_SLAB_ALLOCATOR_H_
#define EBBRT_SRC_MEM_SLAB_ALLOCATOR_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/ebb_id.h"
#include "src/core/ebb_ref.h"
#include "src/core/multicore_ebb.h"
#include "src/core/runtime.h"
#include "src/mem/page_allocator.h"

namespace ebbrt {

class SlabCache;

class SlabCacheRoot {
 public:
  // A cache of `object_size`-byte objects. `id` is the Ebb id reps are reached through.
  // `size_class` tags the cache's slab pages (PageInfo::size_class), so the general-purpose
  // allocator routes a free to its class without going through the root. Every core's
  // representative is built here, with the root.
  SlabCacheRoot(PageAllocatorRoot& pages, std::size_t object_size, EbbId id,
                std::size_t num_cores, std::uint8_t size_class = 0);

  SlabCache& RepFor(std::size_t machine_core) { return reps_[machine_core]; }

  std::size_t object_size() const { return object_size_; }
  std::uint8_t size_class() const { return size_class_; }
  EbbId id() const { return id_; }
  PageAllocatorRoot& pages() { return pages_; }

  // Per-node depot of surplus objects: an intrusive chain behind one atomic head. A push
  // CASes on a chain only it links, and a take is an unconditional exchange(nullptr), so no
  // ABA can arise.
  struct alignas(kCacheLineSize) Depot {
    std::atomic<void*> head{nullptr};
  };
  Depot& depot_for(std::size_t node) { return depots_[node]; }

  // Returns an object to node `node`'s depot directly — the remote-free path for callers
  // that are NOT running as a core of this machine (world actions, foreign machines, late
  // teardown). One CAS push; the next core to refill from the depot recycles it.
  void RemoteFree(void* p, std::size_t node);

  // Pages a slab of this size occupies (larger objects use multi-page slabs).
  std::size_t slab_order() const { return slab_order_; }
  std::size_t objects_per_slab() const { return objects_per_slab_; }

  std::size_t total_slabs() const { return total_slabs_.load(std::memory_order_relaxed); }
  void count_slab() { total_slabs_.fetch_add(1, std::memory_order_relaxed); }

 private:
  PageAllocatorRoot& pages_;
  std::size_t object_size_;
  EbbId id_;
  std::uint8_t size_class_;
  std::size_t slab_order_;
  std::size_t objects_per_slab_;
  std::vector<Depot> depots_;
  PerCore<SlabCache> reps_;
  std::atomic<std::size_t> total_slabs_{0};
};

// Cache-line aligned: representatives of adjacent cores are allocated back to back, and the
// freelist head is written on every alloc/free — sharing a line across cores would put
// coherence traffic on the very path whose point is to have none.
class alignas(kCacheLineSize) SlabCache : public RootedEbb<SlabCache, SlabCacheRoot> {
 public:
  SlabCache(SlabCacheRoot& root, std::size_t machine_core);

  // Fast path: pop the core-local free list (no atomics). Slow path: refill from the node
  // depot or carve a new slab from the buddy allocator.
  void* Alloc() {
    if (__builtin_expect(freelist_ != nullptr, true)) {
      void* obj = freelist_;
      freelist_ = *static_cast<void**>(obj);
      --free_count_;
      return obj;
    }
    return AllocSlow();
  }
  // Fast path: push onto the core-local free list; flushes half to the node depot past the
  // watermark so one core's frees feed another core's allocs.
  void Free(void* p) {
    *static_cast<void**>(p) = freelist_;
    freelist_ = p;
    if (__builtin_expect(++free_count_ > kWatermark, false)) {
      FlushHalfToDepot();
    }
  }

  std::size_t local_free() const { return free_count_; }
  SlabCacheRoot& root() { return root_; }

 private:
  static constexpr std::size_t kWatermark = 4096;  // objects kept core-local before flushing

  __attribute__((noinline, cold)) void* AllocSlow();
  bool Refill();
  __attribute__((noinline, cold)) void FlushHalfToDepot();
  bool RefillFromDepot();

  SlabCacheRoot& root_;
  std::size_t machine_core_;
  std::size_t node_;
  void* freelist_ = nullptr;  // next pointer embedded in the first word of each free object
  std::size_t free_count_ = 0;
  char padding_[kCacheLineSize];  // keep the next heap object off this rep's line
};

}  // namespace ebbrt

#endif  // EBBRT_SRC_MEM_SLAB_ALLOCATOR_H_
