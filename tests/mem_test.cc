// Memory subsystem tests: buddy page allocator invariants, slab caches (per-core fast path,
// depot balancing), general-purpose allocator routing, arena slots and owner routing, the
// routed carve and its one heap fallback, vmem fault handling.
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <random>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/event/interconnect.h"
#include "src/mem/gp_allocator.h"
#include "src/mem/page_allocator.h"
#include "src/mem/phys_arena.h"
#include "src/mem/slab_allocator.h"
#include "src/mem/vmem.h"

namespace ebbrt {
namespace {

class MemTest : public ::testing::Test {
 protected:
  void SetUp() override {
    runtime_ = std::make_unique<Runtime>(RuntimeKind::kNative, "memtest");
    first_core_ = runtime_->AddCores(4);
    mem::Config config;
    config.arena_bytes = 64ull << 20;  // 64 MiB
    config.numa_nodes = 2;
    mem::Install(*runtime_, 4, config);
  }

  PageAllocatorRoot& pages() {
    return runtime_->GetSubsystem<PageAllocatorRoot>(Subsystem::kPageAllocator);
  }

  std::unique_ptr<Runtime> runtime_;
  std::size_t first_core_;
};

TEST_F(MemTest, BuddyAllocAndFreeRestoresFreePages) {
  PageAllocator& node0 = pages().RepForNode(0);
  std::size_t before = node0.free_pages();
  void* a = node0.AllocPages(0);
  void* b = node0.AllocPages(3);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(node0.free_pages(), before - 1 - 8);
  node0.FreePages(a);
  node0.FreePages(b);
  EXPECT_EQ(node0.free_pages(), before);
}

TEST_F(MemTest, BuddyBlocksAreAlignedAndDisjoint) {
  PageAllocator& node0 = pages().RepForNode(0);
  std::vector<void*> blocks;
  for (std::size_t order = 0; order <= 5; ++order) {
    void* p = node0.AllocPages(order);
    ASSERT_NE(p, nullptr);
    // Natural alignment relative to the node base.
    auto off = static_cast<std::size_t>(static_cast<std::uint8_t*>(p) -
                                        pages().arena().PfnToAddr(0));
    EXPECT_EQ(off % (kPageSize << order), 0u) << "order " << order;
    blocks.push_back(p);
  }
  // Blocks must not overlap: write distinct patterns, verify.
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    std::memset(blocks[i], static_cast<int>(i + 1), kPageSize << i);
  }
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    EXPECT_EQ(*static_cast<std::uint8_t*>(blocks[i]), i + 1);
  }
  for (void* p : blocks) {
    node0.FreePages(p);
  }
}

TEST_F(MemTest, BuddyCoalescingReassemblesMaxBlocks) {
  PageAllocator& node0 = pages().RepForNode(0);
  std::size_t before = node0.free_pages();
  // Fragment: take many order-0 pages, then free them all; coalescing must restore the pool
  // to the point where a max-order allocation succeeds again.
  std::vector<void*> singles;
  for (int i = 0; i < 1024; ++i) {
    void* p = node0.AllocPages(0);
    ASSERT_NE(p, nullptr);
    singles.push_back(p);
  }
  for (void* p : singles) {
    node0.FreePages(p);
  }
  EXPECT_EQ(node0.free_pages(), before);
  void* big = node0.AllocPages(kMaxOrder);
  EXPECT_NE(big, nullptr);
  node0.FreePages(big);
}

TEST_F(MemTest, BuddyExhaustionReturnsNull) {
  PageAllocator& node0 = pages().RepForNode(0);
  std::vector<void*> blocks;
  for (;;) {
    void* p = node0.AllocPages(kMaxOrder);
    if (p == nullptr) {
      break;
    }
    blocks.push_back(p);
  }
  EXPECT_LT(node0.free_pages(), std::size_t{1} << kMaxOrder);
  for (void* p : blocks) {
    node0.FreePages(p);
  }
}

TEST_F(MemTest, NodesAreIndependent) {
  PageAllocator& node0 = pages().RepForNode(0);
  PageAllocator& node1 = pages().RepForNode(1);
  std::size_t n1_before = node1.free_pages();
  void* p = node0.AllocPages(4);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(node1.free_pages(), n1_before);  // node 1 untouched
  node0.FreePages(p);
}

TEST_F(MemTest, SlabAllocDistinctObjects) {
  ScopedContext ctx(*runtime_, first_core_, 0, false);
  SlabCacheRoot root(pages(), 64, kFirstStaticUserId + 20, 4);
  SlabCache& cache = root.RepFor(0);
  std::set<void*> objs;
  for (int i = 0; i < 1000; ++i) {
    void* p = cache.Alloc();
    ASSERT_NE(p, nullptr);
    EXPECT_TRUE(objs.insert(p).second) << "duplicate object";
  }
  for (void* p : objs) {
    cache.Free(p);
  }
}

TEST_F(MemTest, SlabReusesFreedObjects) {
  ScopedContext ctx(*runtime_, first_core_, 0, false);
  SlabCacheRoot root(pages(), 128, kFirstStaticUserId + 21, 4);
  SlabCache& cache = root.RepFor(0);
  void* a = cache.Alloc();
  cache.Free(a);
  void* b = cache.Alloc();
  EXPECT_EQ(a, b);  // LIFO freelist reuse
  cache.Free(b);
}

TEST_F(MemTest, SlabDepotBalancesAcrossCores) {
  // Core 0 allocates and frees many objects (overflowing its watermark into the node depot);
  // core 1 should then be able to allocate without carving new slabs.
  SlabCacheRoot root(pages(), 64, kFirstStaticUserId + 22, 4);
  std::vector<void*> objs;
  {
    ScopedContext ctx(*runtime_, first_core_, 0, false);
    SlabCache& c0 = root.RepFor(0);
    for (int i = 0; i < 6000; ++i) {
      objs.push_back(c0.Alloc());
    }
    std::size_t slabs_after_alloc = root.total_slabs();
    for (void* p : objs) {
      c0.Free(p);
    }
    EXPECT_EQ(root.total_slabs(), slabs_after_alloc);
  }
  std::size_t slabs_before_core1 = root.total_slabs();
  {
    ScopedContext ctx(*runtime_, first_core_ + 1, 1, false);
    SlabCache& c1 = root.RepFor(1);
    std::vector<void*> got;
    for (int i = 0; i < 2000; ++i) {
      got.push_back(c1.Alloc());
    }
    // Objects came from the depot (flushed by core 0), not fresh slabs.
    EXPECT_EQ(root.total_slabs(), slabs_before_core1);
    for (void* p : got) {
      c1.Free(p);
    }
  }
}

// Batches of blocks handed from one test thread to another (the handoff itself is locked;
// the allocator paths under test are not).
class Mailbox {
 public:
  void Put(std::vector<void*> batch) {
    std::lock_guard<std::mutex> lock(mu_);
    batches_.push_back(std::move(batch));
  }
  std::vector<void*> Take() {
    for (;;) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (!batches_.empty()) {
          std::vector<void*> batch = std::move(batches_.back());
          batches_.pop_back();
          return batch;
        }
      }
      std::this_thread::yield();
    }
  }

 private:
  std::mutex mu_;
  std::vector<std::vector<void*>> batches_;
};

TEST(Mem, SlabDepotConservesObjectsUnderConcurrentFlushRefillAndRemoteFree) {
  // One node, one cache. Three threads run as cores 0-2 and each round allocate a batch on
  // their own core, hand three quarters of it to the next core, which frees it there, and a
  // quarter to a fourth thread with no context, which RemoteFrees it. So every core's list
  // runs dry (depot refills) and passes the watermark (half flushed to the depot) while
  // other threads push onto the same depot. Afterwards every object of every carved slab
  // must be allocated back exactly once without carving another slab.
  constexpr std::size_t kCoreThreads = 3;
  constexpr int kRounds = 200;
  constexpr std::size_t kBatch = 6000;
  Runtime runtime(RuntimeKind::kNative, "depot");
  std::size_t first = runtime.AddCores(kCoreThreads + 1);
  mem::Config config;
  config.arena_bytes = 64ull << 20;
  mem::Install(runtime, kCoreThreads + 1, config);
  auto& pages = runtime.GetSubsystem<PageAllocatorRoot>(Subsystem::kPageAllocator);
  ASSERT_EQ(pages.nodes(), 1u);
  SlabCacheRoot root(pages, 64, kFirstStaticUserId + 23, kCoreThreads + 1);

  std::array<Mailbox, kCoreThreads> to_core;
  Mailbox to_remote;
  std::atomic<bool> start{false};
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (std::size_t core = 0; core < kCoreThreads; ++core) {
    threads.emplace_back([&, core] {
      ScopedContext ctx(runtime, first + core, core, false);
      SlabCache& cache = root.RepFor(core);
      while (!start.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      for (int round = 0; round < kRounds; ++round) {
        std::vector<void*> batch;
        for (std::size_t i = 0; i < kBatch; ++i) {
          void* p = cache.Alloc();
          if (p == nullptr) {
            failed = true;
            return;
          }
          *static_cast<std::size_t*>(p) = core;  // the link word, overwritten while live
          batch.push_back(p);
        }
        to_remote.Put(std::vector<void*>(batch.begin(), batch.begin() + kBatch / 4));
        to_core[(core + 1) % kCoreThreads].Put(
            std::vector<void*>(batch.begin() + kBatch / 4, batch.end()));
        for (void* p : to_core[core].Take()) {
          cache.Free(p);
        }
      }
    });
  }
  threads.emplace_back([&] {
    for (std::size_t i = 0; i < kCoreThreads * kRounds; ++i) {
      for (void* p : to_remote.Take()) {
        root.RemoteFree(p, 0);
      }
    }
  });
  start.store(true, std::memory_order_release);
  for (auto& t : threads) {
    t.join();
  }
  ASSERT_FALSE(failed.load());

  // Every object is free now: on a core's list or in the depot. Take each core's list, then
  // the depot's contents through core 0.
  const std::size_t slabs = root.total_slabs();
  const std::size_t objects = slabs * root.objects_per_slab();
  EXPECT_LT(objects, kCoreThreads * kRounds * kBatch / 2) << "blocks were not recycled";
  std::set<void*> back;
  std::size_t taken = 0;
  auto take = [&](SlabCache& cache, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      void* p = cache.Alloc();
      ASSERT_NE(p, nullptr);
      ASSERT_EQ(pages.arena().InfoForAddr(p).owner, &root);
      EXPECT_TRUE(back.insert(p).second) << "object " << p << " allocated twice";
      ++taken;
    }
  };
  for (std::size_t core = 0; core < kCoreThreads; ++core) {
    ScopedContext ctx(runtime, first + core, core, false);
    take(root.RepFor(core), root.RepFor(core).local_free());
  }
  {
    ScopedContext ctx(runtime, first, 0, false);
    take(root.RepFor(0), objects - taken);
  }
  EXPECT_EQ(back.size(), objects);
  EXPECT_EQ(root.total_slabs(), slabs) << "an object was lost: a slab was carved to replace it";
  EXPECT_EQ(root.RepFor(0).local_free(), 0u);
  EXPECT_EQ(root.depot_for(0).head.load(), nullptr) << "objects left over in the depot";
}

TEST_F(MemTest, GpAllocatorRoutesToSizeClasses) {
  ScopedContext ctx(*runtime_, first_core_, 0, false);
  for (std::size_t size : {1u, 8u, 9u, 100u, 1000u, 4096u}) {
    void* p = mem::Alloc(size);
    ASSERT_NE(p, nullptr) << size;
    std::memset(p, 0xAB, size);
    mem::Free(p);
  }
}

TEST_F(MemTest, GpAllocatorLargeAllocations) {
  ScopedContext ctx(*runtime_, first_core_, 0, false);
  void* p = mem::Alloc(1 << 20);  // 1 MiB
  ASSERT_NE(p, nullptr);
  std::memset(p, 0x5A, 1 << 20);
  PageInfo& info = pages().arena().InfoForAddr(p);
  EXPECT_EQ(info.kind, PageKind::kLarge);
  mem::Free(p);
  EXPECT_EQ(pages().arena().InfoForAddr(p).kind, PageKind::kFree);
}

TEST_F(MemTest, GpAllocatorCompileTimeSizePath) {
  ScopedContext ctx(*runtime_, first_core_, 0, false);
  auto gp = GeneralPurposeAllocator::Instance();
  void* a = gp->AllocFor<16>();
  void* b = gp->AllocFor<16>();
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a, b);
  gp->Free(a);
  gp->Free(b);
}

TEST_F(MemTest, GpAllocatorMixedSizeStress) {
  ScopedContext ctx(*runtime_, first_core_, 0, false);
  std::mt19937 rng(42);
  std::vector<std::pair<void*, std::size_t>> live;
  for (int i = 0; i < 20000; ++i) {
    if (live.empty() || rng() % 2 == 0) {
      std::size_t size = 1 + rng() % 6000;
      void* p = mem::Alloc(size);
      ASSERT_NE(p, nullptr);
      std::memset(p, static_cast<int>(size & 0xff), std::min<std::size_t>(size, 64));
      live.emplace_back(p, size);
    } else {
      std::size_t idx = rng() % live.size();
      // Verify the sentinel survived (no overlap between allocations).
      auto [p, size] = live[idx];
      EXPECT_EQ(*static_cast<std::uint8_t*>(p), static_cast<std::uint8_t>(size & 0xff));
      mem::Free(p);
      live[idx] = live.back();
      live.pop_back();
    }
  }
  for (auto [p, size] : live) {
    mem::Free(p);
  }
}

TEST_F(MemTest, ParallelCoresAllocateIndependently) {
  std::vector<std::thread> threads;
  std::atomic<bool> failed{false};
  for (int core = 0; core < 4; ++core) {
    threads.emplace_back([&, core] {
      ScopedContext ctx(*runtime_, first_core_ + core, core, false);
      std::vector<void*> ptrs;
      for (int i = 0; i < 5000; ++i) {
        void* p = mem::Alloc(64);
        if (p == nullptr) {
          failed = true;
          return;
        }
        *static_cast<int*>(p) = core;
        ptrs.push_back(p);
      }
      for (void* p : ptrs) {
        if (*static_cast<int*>(p) != core) {
          failed = true;  // another core scribbled on our object
        }
        mem::Free(p);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_FALSE(failed.load());
}

// --- Arena slots and owner routing ---------------------------------------------------------------

// A one-core machine with only the memory subsystem installed.
struct MemMachine {
  explicit MemMachine(std::size_t arena_bytes)
      : runtime(std::make_unique<Runtime>(RuntimeKind::kNative, "slots")) {
    runtime->AddCores(1);
    mem::Config config;
    config.arena_bytes = arena_bytes;
    mem::Install(*runtime, 1, config);
  }
  GeneralPurposeAllocatorRoot& root() {
    return runtime->GetSubsystem<GeneralPurposeAllocatorRoot>(
        Subsystem::kGeneralPurposeAllocator);
  }
  PhysArena& arena() { return root().pages().arena(); }
  // The address `offset` bytes past the arena's base (which may lie past its end).
  const void* At(std::size_t offset) {
    return reinterpret_cast<const void*>(reinterpret_cast<std::uintptr_t>(arena().PfnToAddr(0)) +
                                         offset);
  }
  std::unique_ptr<Runtime> runtime;
};

TEST(Mem, OwnerRoutingIsOneSlotLoad) {
  std::vector<std::unique_ptr<MemMachine>> machines;
  for (std::size_t mib : {16, 32, 64}) {
    machines.push_back(std::make_unique<MemMachine>(mib << 20));
  }
  for (auto& m : machines) {
    std::size_t bytes = m->arena().bytes();
    EXPECT_EQ(ArenaOffsetOf(m->At(0)), m->arena().slot() * kArenaStride);  // the slot's base
    EXPECT_EQ(mem::FindOwningRoot(m->At(0)), &m->root());
    EXPECT_EQ(mem::FindOwningRoot(m->At(bytes - 1)), &m->root());
    // Past the arena's end, still inside its slot: no arena memory there.
    EXPECT_EQ(mem::FindOwningRoot(m->At(bytes)), nullptr);
    EXPECT_EQ(mem::FindOwningRoot(m->At(kArenaStride - 1)), nullptr);
  }
  auto heap = std::make_unique<int>(1);
  int on_stack = 0;
  EXPECT_EQ(mem::FindOwningRoot(heap.get()), nullptr);
  EXPECT_EQ(mem::FindOwningRoot(&on_stack), nullptr);
  EXPECT_EQ(mem::FindOwningRoot(nullptr), nullptr);

  // Tear the middle machine down: its slot routes nowhere, and the next machine built takes
  // it (the lowest free slot), starting at the same address.
  std::size_t slot = machines[1]->arena().slot();
  const void* base = machines[1]->At(0);
  machines[1].reset();
  EXPECT_EQ(mem::FindOwningRoot(base), nullptr);
  MemMachine reuse(8ull << 20);
  ASSERT_EQ(reuse.arena().slot(), slot);
  EXPECT_EQ(reuse.At(0), base);
  EXPECT_EQ(mem::FindOwningRoot(base), &reuse.root());
  EXPECT_EQ(mem::FindOwningRoot(reuse.At((8ull << 20) - 1)), &reuse.root());
  // The old, larger arena's tail is past the new arena's end.
  EXPECT_EQ(mem::FindOwningRoot(reuse.At(16ull << 20)), nullptr);
  EXPECT_EQ(mem::FindOwningRoot(machines[0]->At(0)), &machines[0]->root());
  EXPECT_EQ(mem::FindOwningRoot(machines[2]->At(0)), &machines[2]->root());
}

// Resident set size of this process now, in KiB (/proc/self/statm's second field).
long ResidentKib() {
  long pages = 0;
  long resident = 0;
  std::FILE* statm = std::fopen("/proc/self/statm", "r");
  if (statm == nullptr) {
    return -1;
  }
  int fields = std::fscanf(statm, "%ld %ld", &pages, &resident);
  std::fclose(statm);
  return fields == 2 ? resident * (sysconf(_SC_PAGESIZE) / 1024) : -1;
}

TEST(Mem, ArenaSlotsRecycleAcrossMoreMachinesThanSlots) {
  // Twice as many machines as slots, built and torn down one after another: every teardown
  // frees its slot for the next machine, and each one's blocks route to its own root.
  constexpr std::size_t kMachines = 2 * kArenaSlots + 8;
  for (std::size_t i = 0; i < kMachines; ++i) {
    MemMachine m(8ull << 20);
    ScopedContext ctx(*m.runtime, m.runtime->global_core(0), 0, false);
    void* block = mem::AllocRouted(64 << 10);
    ASSERT_EQ(mem::FindOwningRoot(block), &m.root()) << "machine " << i;
    EXPECT_FALSE(mem::FreeRouted(block));  // this machine's own core: no locked path
  }
}

TEST(Mem, RemoteFreeReportsALockOnlyOnTheBuddyPath) {
  // FreeRouted's result is what EventManager::Stats::control_locks counts. From outside the
  // machine, a slab block goes home by a lock-free depot push; only a block past the largest
  // slab class takes a lock, the buddy's.
  MemMachine m(8ull << 20);
  void* slab = nullptr;
  void* large = nullptr;
  {
    ScopedContext ctx(*m.runtime, m.runtime->global_core(0), 0, false);
    slab = mem::AllocRouted(64);
    large = mem::AllocRouted(gp_internal::kMaxSlabSize + 1);
  }
  ASSERT_EQ(mem::FindOwningRoot(slab), &m.root());
  ASSERT_EQ(mem::FindOwningRoot(large), &m.root());
  std::uint64_t remote = mem::stats().remote_frees.load();
  EXPECT_FALSE(mem::FreeRouted(slab));
  EXPECT_TRUE(mem::FreeRouted(large));
  EXPECT_EQ(mem::stats().remote_frees.load(), remote + 2);
}

TEST(Mem, ArenaTeardownReturnsItsPages) {
  // A torn-down arena's slot goes back to PROT_NONE at once, not when a later machine
  // happens to reuse it: its dirty pages leave the resident set with the machine.
  constexpr std::size_t kBlock = 4ull << 20;  // one max-order buddy block
  long before = ResidentKib();
  ASSERT_GT(before, 0);
  {
    MemMachine m(32ull << 20);
    ScopedContext ctx(*m.runtime, m.runtime->global_core(0), 0, false);
    std::vector<void*> blocks;
    for (int i = 0; i < 4; ++i) {
      blocks.push_back(mem::AllocRouted(kBlock));
      ASSERT_EQ(mem::FindOwningRoot(blocks.back()), &m.root());
      std::memset(blocks.back(), 0x5a, kBlock);
    }
    EXPECT_GE(ResidentKib() - before, 14 * 1024);  // the 16 MiB just dirtied
    for (void* block : blocks) {
      mem::FreeRouted(block);
    }
  }
  EXPECT_LT(ResidentKib() - before, 4 * 1024);
}

// --- The routed carve --------------------------------------------------------------------------

// An interconnect node that carries nothing: only its storage is under test.
struct InertNode final : InterconnectNode {
  void Fire(EventManager&) override {}
  void Discard() override {}
};

TEST(Mem, RoutedCarveHasOneFallback) {
  constexpr std::size_t kSlab = 48;
  constexpr std::size_t kLarge = 64 << 10;
  std::atomic<std::uint64_t>& fallbacks = mem::stats().heap_fallback_allocs;
  // Both carves, runtime and compile-time size, at a slab size and a large size.
  auto carve_all = [] {
    return std::vector<void*>{mem::AllocRouted(kSlab), mem::AllocRouted(kLarge),
                              mem::AllocRoutedFor<kSlab>(), mem::AllocRoutedFor<kLarge>()};
  };
  MemMachine m(8ull << 20);

  // On a core: every block lies in this machine's arena and no fallback is taken.
  {
    ScopedContext ctx(*m.runtime, m.runtime->global_core(0), 0, false);
    std::uint64_t before = fallbacks.load();
    for (void* block : carve_all()) {
      EXPECT_EQ(mem::FindOwningRoot(block), &m.root());
      EXPECT_FALSE(mem::FreeRouted(block));
    }
    EXPECT_EQ(fallbacks.load(), before);
  }

  // No context: every block is heap memory, one fallback per call.
  {
    std::uint64_t before = fallbacks.load();
    for (void* block : carve_all()) {
      EXPECT_EQ(mem::FindOwningRoot(block), nullptr);
      EXPECT_FALSE(mem::FreeRouted(block));
    }
    EXPECT_EQ(fallbacks.load(), before + 4);
  }

  // A full arena: the carve that finds no room falls back, exactly once per call.
  {
    ScopedContext ctx(*m.runtime, m.runtime->global_core(0), 0, false);
    std::vector<void*> held;
    std::vector<void*> heap;
    auto fill = [&](auto carve) {
      for (;;) {
        std::uint64_t before = fallbacks.load();
        void* block = carve();
        if (mem::FindOwningRoot(block) == nullptr) {
          EXPECT_EQ(fallbacks.load(), before + 1);
          heap.push_back(block);
          return;
        }
        EXPECT_EQ(fallbacks.load(), before);
        held.push_back(block);
      }
    };
    fill([] { return mem::AllocRouted(kLarge); });
    fill([] { return mem::AllocRoutedFor<kLarge>(); });
    fill([] { return mem::AllocRouted(kSlab); });
    fill([] { return mem::AllocRoutedFor<kSlab>(); });
    ASSERT_EQ(heap.size(), 4u);
    EXPECT_GT(held.size(), (8u << 20) / kLarge / 2);
    for (void* block : heap) {
      EXPECT_FALSE(mem::FreeRouted(block));
    }
    for (void* block : held) {
      EXPECT_FALSE(mem::FreeRouted(block));
    }
  }

  // Interconnect nodes take the same carve: one carved with no context, one on a core, both
  // released by Interconnect::Delete. Only the off-core node is a fallback, and neither
  // touches the generic heap.
  mem::Stats& stats = mem::stats();
  std::uint64_t allocs = stats.generic_heap_allocs.load();
  std::uint64_t frees = stats.generic_heap_frees.load();
  std::uint64_t before = fallbacks.load();
  auto* off_core = Interconnect::New<InertNode>();
  EXPECT_EQ(mem::FindOwningRoot(off_core), nullptr);
  {
    ScopedContext ctx(*m.runtime, m.runtime->global_core(0), 0, false);
    auto* on_core = Interconnect::New<InertNode>();
    EXPECT_EQ(mem::FindOwningRoot(on_core), &m.root());
    EXPECT_FALSE(Interconnect::Delete(on_core));
  }
  EXPECT_FALSE(Interconnect::Delete(off_core));
  EXPECT_EQ(fallbacks.load(), before + 1);
  EXPECT_EQ(stats.generic_heap_allocs.load() - allocs, stats.generic_heap_frees.load() - frees);
}

TEST(VMem, DemandPagingDefaultHandler) {
  // The default handler fault-arounds in 16-page clusters (as a general-purpose kernel
  // does), so touches within one cluster fault once and the next cluster faults again.
  VMemRegion& region = vmem::Allocate(64 * kPageSize);
  auto* p = static_cast<std::uint8_t*>(region.base());
  p[0] = 1;                   // fault -> maps pages 0..15
  p[5 * kPageSize] = 2;       // same cluster: no new fault
  EXPECT_EQ(region.fault_count(), 1u);
  p[20 * kPageSize] = 3;      // next cluster: one more fault
  EXPECT_EQ(region.fault_count(), 2u);
  EXPECT_EQ(p[0], 1);
  EXPECT_EQ(p[5 * kPageSize], 2);
  EXPECT_EQ(p[20 * kPageSize], 3);
  vmem::Release(region);
}

TEST(VMem, CustomHandlerObservesAddress) {
  void* seen = nullptr;
  VMemRegion& region = vmem::Allocate(4 * kPageSize, [&seen](VMemRegion& r, void* addr) {
    seen = addr;
    r.MapPage(addr);
  });
  auto* p = static_cast<std::uint8_t*>(region.base()) + 2 * kPageSize + 17;
  *p = 9;
  EXPECT_EQ(seen, p);
  vmem::Release(region);
}

TEST(VMem, MapAllPreventsAllFaults) {
  VMemRegion& region = vmem::Allocate(64 * kPageSize);
  region.MapAll(/*touch=*/true);
  auto* p = static_cast<std::uint8_t*>(region.base());
  for (std::size_t i = 0; i < 64; ++i) {
    p[i * kPageSize] = static_cast<std::uint8_t>(i);
  }
  EXPECT_EQ(region.fault_count(), 0u);  // the paper's "aggressive mapping" effect
  vmem::Release(region);
}

}  // namespace
}  // namespace ebbrt
