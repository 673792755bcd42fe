// GeneralPurposeAllocator — the malloc-equivalent (§3.4).
//
// "The general purpose memory allocator ... is implemented using many slab allocators, each
// allocating objects of different sizes. To serve a request, the slab allocator with the
// closest size greater or equal to the requested size is invoked. Allocations larger than the
// largest slab allocator size instead allocate a virtual memory region and map in pages from
// the page allocator."
//
// Each size class is its own SlabCache Ebb, so any class can be replaced independently. The
// templated AllocFor<N>() mirrors the property the paper observed with compile-time-known
// malloc sizes: the class index folds to a constant and the call compiles down to the slab
// fast path directly.
#ifndef EBBRT_SRC_MEM_GP_ALLOCATOR_H_
#define EBBRT_SRC_MEM_GP_ALLOCATOR_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>

#include "src/core/ebb_id.h"
#include "src/core/ebb_ref.h"
#include "src/core/multicore_ebb.h"
#include "src/core/runtime.h"
#include "src/mem/slab_allocator.h"

namespace ebbrt {

namespace gp_internal {
inline constexpr std::array<std::size_t, 14> kSizeClasses = {
    8, 16, 32, 48, 64, 96, 128, 192, 256, 512, 1024, 2048, 3072, 4096};
inline constexpr std::size_t kMaxSlabSize = kSizeClasses.back();

constexpr std::size_t ClassFor(std::size_t size) {
  for (std::size_t i = 0; i < kSizeClasses.size(); ++i) {
    if (size <= kSizeClasses[i]) {
      return i;
    }
  }
  return kSizeClasses.size();  // large
}
}  // namespace gp_internal

class GeneralPurposeAllocator;

class GeneralPurposeAllocatorRoot {
 public:
  GeneralPurposeAllocatorRoot(PageAllocatorRoot& pages, std::size_t num_cores,
                              Runtime* runtime = nullptr);
  ~GeneralPurposeAllocatorRoot();

  GeneralPurposeAllocator& RepFor(std::size_t machine_core) { return reps_[machine_core]; }
  SlabCacheRoot& class_root(std::size_t idx) { return *class_roots_[idx]; }
  PageAllocatorRoot& pages() { return pages_; }

  // Frees `p` (which must belong to this machine's arena) from ANY execution context. When
  // the caller is running as a core of this machine, this is the normal per-core slab/page
  // fast path; otherwise slab objects are CAS-pushed onto the owning node's depot and large
  // blocks go to the node buddy under its spinlock, so a world action or a foreign machine
  // can safely release buffers it was handed (counted in mem::stats().remote_frees). Returns
  // whether the free took a lock: true only for a remote free of a large block (the buddy's
  // spinlock).
  bool FreeAnywhere(void* p);

 private:
  PageAllocatorRoot& pages_;
  Runtime* runtime_;  // machine this root is installed on (nullptr for bare test roots)
  std::array<std::unique_ptr<SlabCacheRoot>, gp_internal::kSizeClasses.size()> class_roots_;
  // Built with the root, so a free routed home from any core finds its rep without a lock.
  PerCore<GeneralPurposeAllocator> reps_;
};

class alignas(kCacheLineSize) GeneralPurposeAllocator
    : public RootedEbb<GeneralPurposeAllocator, GeneralPurposeAllocatorRoot> {
 public:
  static EbbRef<GeneralPurposeAllocator> Instance() {
    return EbbRef<GeneralPurposeAllocator>(kGeneralPurposeAllocatorId);
  }

  GeneralPurposeAllocator(GeneralPurposeAllocatorRoot& root, std::size_t machine_core);

  // malloc/free equivalents. Alloc returns nullptr on exhaustion. All returned memory lives
  // in the machine's identity-mapped arena (zero-copy DMA-safe per the paper's argument).
  void* Alloc(std::size_t size);
  void Free(void* p);

  // Compile-time-size fast path: the size-class computation constant-folds, leaving only the
  // per-core slab freelist pop (what the paper saw the compiler do to sized malloc calls).
  template <std::size_t N>
  void* AllocFor() {
    constexpr std::size_t cls = gp_internal::ClassFor(N);
    if constexpr (cls < gp_internal::kSizeClasses.size()) {
      return class_reps_[cls]->Alloc();
    } else {
      return AllocLarge(N);
    }
  }

 private:
  void* AllocLarge(std::size_t size);
  void FreeLarge(void* p, PageInfo& info);

  GeneralPurposeAllocatorRoot& root_;
  std::size_t machine_core_;
  // Direct per-class rep pointers: one EbbRef-equivalent dereference was already paid when the
  // GP rep was constructed; per-call class dispatch is a single indexed load.
  std::array<SlabCache*, gp_internal::kSizeClasses.size()> class_reps_;
};

namespace mem {
// Installs the memory subsystem (arena + page allocator + GP allocator Ebbs) on a machine.
// The installed objects are adopted by the runtime: they die with the machine, and the GP
// root clears its arena's slot in the global registry (see FindOwningRoot).
struct Config {
  std::size_t arena_bytes = 256ull << 20;  // 256 MiB
  std::size_t numa_nodes = 1;
  std::size_t cores_per_node = 0;  // 0 => cores / nodes
};
void Install(Runtime& runtime, std::size_t num_cores, Config config = {});

// Convenience facades over the current core's representative.
inline void* Alloc(std::size_t size) { return GeneralPurposeAllocator::Instance()->Alloc(size); }
inline void Free(void* p) { GeneralPurposeAllocator::Instance()->Free(p); }

namespace internal {
// The one context check of the routed carve: whether the current core has a GP allocator,
// i.e. a machine context is installed (not a bare unit test, a world action or a
// ThreadMachine caller's own thread) and its machine has the memory subsystem.
__attribute__((always_inline)) inline bool HaveLocalGpAllocator() {
  return HaveContext() && CurrentRuntime().TryGetSubsystem<GeneralPurposeAllocatorRoot>(
                              Subsystem::kGeneralPurposeAllocator) != nullptr;
}

// The one fallback of the routed carve: a counted std::malloc (stats().heap_fallback_allocs)
// that dies on a null return. Cold and out of line, so the inlined fast paths stay small.
__attribute__((cold, noinline)) void* HeapFallback(std::size_t size);
}  // namespace internal

// The one carve for blocks that outlive the allocating event and may be released off-core
// (IOBuf descriptors and storage, TakeOwnership control blocks, interconnect nodes, item
// blocks, RCU and table nodes): the current core's GP allocator (slab/large-page fast path,
// DMA-safe arena memory) when a machine context is installed, and otherwise, or when the
// arena is full, the heap fallback above. Never returns nullptr. No caller needs to know
// which path served a block: FindOwningRoot tells arena memory from heap memory, and
// FreeRouted releases both.
void* AllocRouted(std::size_t size);

// Compile-time-size twin of AllocRouted: the size-class computation constant-folds
// (GeneralPurposeAllocator::AllocFor<N>), leaving only the per-core slab freelist pop.
template <std::size_t N>
__attribute__((always_inline)) inline void* AllocRoutedFor() {
  if (internal::HaveLocalGpAllocator()) {
    if (void* p = GeneralPurposeAllocator::Instance()->AllocFor<N>()) {
      return p;
    }
  }
  return internal::HeapFallback(N);
}

// Release for AllocRouted blocks (and any other arena block), callable from ANY context:
// resolves the owning arena via FindOwningRoot and routes the block home (per-core fast path
// on the owning machine, depot push or buddy remote free otherwise — counted in
// stats().remote_frees), or std::free for heap-fallback blocks. This is the "allocate on
// the owner core, free wherever the last view dies" discipline in one call; every
// route-home free in the tree goes through it. Returns whether the free took a lock: only a
// remote free of a large block does (the buddy's spinlock; the depot push is lock-free).
bool FreeRouted(void* p);

// Resolves a pointer to the GP root whose arena contains it (nullptr for ordinary heap
// memory, and for a pointer into a free slot or past its arena's end). Every arena sits in
// its own slot of one process-wide reservation (PhysArena), so this is one subtract, one
// bounds compare and one load of the slot's registry entry: buffer release paths (IOBuf
// storage, interconnect nodes) route a block home from any context without a search.
GeneralPurposeAllocatorRoot* FindOwningRoot(const void* p);

// Datapath allocation counters (process-global; benches snapshot deltas around a run).
struct Stats {
  std::atomic<std::uint64_t> iobuf_allocs{0};      // IOBuf owned-storage blocks allocated
  std::atomic<std::uint64_t> iobuf_slab_allocs{0}; // ...served by the per-core GP/slab path
  // Heap fallbacks of the routed carve (AllocRouted/AllocRoutedFor), taken when no machine
  // context or GP allocator is in reach or the arena is full: one std::malloc, whoever the
  // caller (IOBuf descriptors and storage, item blocks, RCU and table nodes, and interconnect
  // nodes pushed from outside any core, e.g. by ThreadMachine::RunSync from the caller's
  // thread). Being malloc, these blocks never reach generic_heap_allocs below.
  std::atomic<std::uint64_t> heap_fallback_allocs{0};
  // Heap-fallback blocks released (FreeRouted's std::free branch, which only they reach);
  // allocs minus frees = live fallback blocks.
  std::atomic<std::uint64_t> heap_fallback_frees{0};
  // Network frames (IOBuf::CreateFrame: NIC RX descriptors and guest copies) carved from a
  // machine arena's slab, and those that took the heap fallback instead.
  std::atomic<std::uint64_t> pool_hits{0};
  std::atomic<std::uint64_t> pool_misses{0};
  // Frees from outside any core of the owning machine (world actions, another machine,
  // teardown), which go to the owning node's depot or buddy.
  std::atomic<std::uint64_t> remote_frees{0};

  // Every ::operator new in the process (counted by the replacement operators in
  // heap_count.cc). The IOBuf-path counters above only see the allocations the datapath
  // routes through mem::, which is exactly why the old bench gates missed the item plane's
  // make_shared/std::string churn — this counter sees EVERYTHING the generic heap serves,
  // so "zero-alloc" claims are measured against the whole process, not a subsystem.
  std::atomic<std::uint64_t> generic_heap_allocs{0};
  // Every ::operator delete of a non-null block; allocs minus frees = live blocks.
  std::atomic<std::uint64_t> generic_heap_frees{0};

  // Network frames with a live view (posted on an RX ring or in flight on a datapath). A
  // benchmark's teardown check expects it back at its idle value once every frame has been
  // released.
  std::atomic<std::uint64_t> pool_in_use{0};
};
Stats& stats();
}  // namespace mem

}  // namespace ebbrt

#endif  // EBBRT_SRC_MEM_GP_ALLOCATOR_H_
