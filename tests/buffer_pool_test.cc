// BufferPool + slab-backed IOBuf tests: the zero-malloc datapath's allocation layer.
//
//   * one-slab-allocation IOBuf layout (embedded SharedStorage, arena-backed bytes),
//   * pool recycle-reuse round trip,
//   * cross-core free routed home over the lock-free interconnect and recycled at the event
//     boundary,
//   * pool exhaustion at the fixed per-core cap falling back to the slab path (pool_misses
//     tick, no failure), and occupancy telemetry that counts only pooled blocks,
//   * pool-only events queueing no end-of-event work,
//   * refcounted Clone keeping a recycled buffer alive past the originating event.
//
// Everything runs on a deterministic SimWorld machine (mem + pool are installed by
// AddMachine), so per-core semantics are exercised for real.
#include "src/mem/buffer_pool.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/event/sim_world.h"
#include "src/mem/gp_allocator.h"

namespace ebbrt {
namespace {

struct MemDelta {
  std::uint64_t iobuf = 0, slab = 0, heap = 0, hits = 0, misses = 0, remote = 0;
  static MemDelta Snap() {
    MemDelta d;
    const mem::Stats& s = mem::stats();
    d.iobuf = s.iobuf_allocs.load();
    d.slab = s.iobuf_slab_allocs.load();
    d.heap = s.heap_fallback_allocs.load();
    d.hits = s.pool_hits.load();
    d.misses = s.pool_misses.load();
    d.remote = s.remote_frees.load();
    return d;
  }
};

TEST(BufferPool, SlabBackedIOBufIsOneEmbeddedAllocation) {
  SimWorld world;
  Runtime& rt = world.AddMachine("layout", 1);
  bool checked = false;
  SimWorld::SpawnOn(rt, 0, [&] {
    MemDelta before = MemDelta::Snap();
    auto buf = IOBuf::Create(200);
    MemDelta after = MemDelta::Snap();
    // Exactly ONE storage allocation, served by the slab (no heap fallback), with the
    // control block embedded in front of the bytes — the one-slab-allocation layout.
    EXPECT_EQ(after.iobuf - before.iobuf, 1u);
    EXPECT_EQ(after.slab - before.slab, 1u);
    EXPECT_EQ(after.heap - before.heap, 0u);
    EXPECT_TRUE(buf->StorageEmbedded());
    EXPECT_NE(mem::FindOwningRoot(buf->Data()), nullptr);
    // The compile-time path behaves identically.
    auto sized = IOBuf::CreateReserveFor<96>(16);
    EXPECT_TRUE(sized->StorageEmbedded());
    EXPECT_EQ(sized->Headroom(), 16u);
    EXPECT_NE(mem::FindOwningRoot(sized->Data()), nullptr);
    checked = true;
  });
  world.Run();
  EXPECT_TRUE(checked);
}

TEST(BufferPool, RecycleReuseRoundTrip) {
  SimWorld world;
  Runtime& rt = world.AddMachine("recycle", 1);
  bool checked = false;
  SimWorld::SpawnOn(rt, 0, [&] {
    BufferPool* pool = BufferPool::Local();
    ASSERT_NE(pool, nullptr);
    auto a = pool->Alloc();
    const std::uint8_t* block = a->Data();
    EXPECT_GT(a->Headroom(), 0u);   // headroom pre-reserved
    EXPECT_EQ(a->Length(), 0u);     // empty view (CreateReserve semantics)
    a.reset();                      // same-core free: lock-free recycle
    MemDelta before = MemDelta::Snap();
    auto b = pool->Alloc();
    MemDelta after = MemDelta::Snap();
    EXPECT_EQ(b->Data(), block);    // the very same block came back
    EXPECT_EQ(after.hits - before.hits, 1u);
    EXPECT_EQ(after.misses - before.misses, 0u);
    checked = true;
  });
  world.Run();
  EXPECT_TRUE(checked);
}

TEST(BufferPool, CrossCoreFreeRidesTheInterconnectHome) {
  SimWorld world;
  Runtime& rt = world.AddMachine("xcore", 2);
  auto stash = std::make_shared<std::unique_ptr<IOBuf>>();
  auto block = std::make_shared<const std::uint8_t*>(nullptr);
  bool verified = false;
  SimWorld::SpawnOn(rt, 0, [&, stash, block] {
    BufferPool* pool = BufferPool::Local();
    ASSERT_NE(pool, nullptr);
    *stash = pool->Alloc();
    *block = (*stash)->Data();
    // Hand the frame to core 1, which releases it there (a response retained by another
    // core's connection, in miniature).
    event::Local().SpawnRemote(
        [&, stash, block] {
          MemDelta before = MemDelta::Snap();
          // Frees on core 1; owner is core 0: the dead block becomes an interconnect node
          // and is CAS-published onto core 0's exchange list (remote_frees keeps the exact
          // meaning it had under the old magazine — a free routed home cross-core).
          stash->reset();
          MemDelta after = MemDelta::Snap();
          EXPECT_EQ(after.remote - before.remote, 1u);
          // Back on the owner core: this spawn and the block ride the same sender's list,
          // so FIFO-per-sender delivers the block BEFORE this event runs — the next alloc
          // reuses it.
          event::Local().SpawnRemote(
              [&, block] {
                BufferPool* owner_pool = BufferPool::Local();
                MemDelta b2 = MemDelta::Snap();
                auto buf = owner_pool->Alloc();
                MemDelta a2 = MemDelta::Snap();
                EXPECT_EQ(buf->Data(), *block);
                EXPECT_EQ(a2.hits - b2.hits, 1u);
                verified = true;
              },
              0);
        },
        1);
  });
  world.Run();
  EXPECT_TRUE(verified);
}

TEST(BufferPool, ExhaustionFallsBackToSlabWithoutFailure) {
  SimWorld world;
  Runtime& rt = world.AddMachine("exhaust", 1);
  bool checked = false;
  SimWorld::SpawnOn(rt, 0, [&] {
    BufferPool* pool = BufferPool::Local();
    ASSERT_NE(pool, nullptr);
    // Check out every block the core may carve: each one a cold miss, each one pooled.
    std::vector<std::unique_ptr<IOBuf>> held;
    std::vector<const std::uint8_t*> blocks;
    std::uint64_t in_use_base = mem::stats().pool_in_use.load();
    for (std::size_t i = 0; i < BufferPool::kPerCoreCap; ++i) {
      held.push_back(pool->Alloc());
      blocks.push_back(held.back()->Data());
    }
    EXPECT_EQ(mem::stats().pool_in_use.load(), in_use_base + BufferPool::kPerCoreCap);
    MemDelta before = MemDelta::Snap();
    auto extra = pool->Alloc();  // beyond the cap: ordinary slab-backed buffer, not a failure
    MemDelta after = MemDelta::Snap();
    ASSERT_NE(extra, nullptr);
    EXPECT_GT(extra->Tailroom(), 1500u);  // still MTU-class and usable
    EXPECT_EQ(after.misses - before.misses, 1u);
    EXPECT_EQ(after.hits - before.hits, 0u);
    EXPECT_EQ(after.slab - before.slab, 1u);  // served by the slab...
    EXPECT_EQ(after.heap - before.heap, 0u);  // ...without touching malloc
    // Everything releases cleanly; the pooled blocks recycle LIFO.
    extra.reset();
    for (auto& buf : held) {
      buf.reset();
    }
    MemDelta b2 = MemDelta::Snap();
    auto first = pool->Alloc();
    auto second = pool->Alloc();
    MemDelta a2 = MemDelta::Snap();
    EXPECT_EQ(a2.hits - b2.hits, 2u);
    EXPECT_EQ(a2.misses - b2.misses, 0u);
    EXPECT_EQ(first->Data(), blocks[BufferPool::kPerCoreCap - 1]);
    EXPECT_EQ(second->Data(), blocks[BufferPool::kPerCoreCap - 2]);
    checked = true;
  });
  world.Run();
  EXPECT_TRUE(checked);
}

TEST(BufferPool, OccupancyTelemetryTracksCheckedOutBlocks) {
  SimWorld world;
  Runtime& rt = world.AddMachine("occupancy", 1);
  bool checked = false;
  SimWorld::SpawnOn(rt, 0, [&] {
    BufferPool* pool = BufferPool::Local();
    ASSERT_NE(pool, nullptr);
    const mem::Stats& stats = mem::stats();
    std::uint64_t base = stats.pool_in_use.load();
    auto a = pool->Alloc();
    auto b = pool->Alloc();
    auto c = pool->Alloc();
    EXPECT_EQ(stats.pool_in_use.load(), base + 3);
    EXPECT_GE(stats.pool_in_use_hwm.load(), base + 3);
    std::uint64_t hwm = stats.pool_in_use_hwm.load();
    // Releases bring occupancy down; the high-water mark stays at the burst's peak.
    a.reset();
    b.reset();
    EXPECT_EQ(stats.pool_in_use.load(), base + 1);
    EXPECT_EQ(stats.pool_in_use_hwm.load(), hwm);
    // A recycled re-alloc counts as checked out again but does not move the peak.
    auto d = pool->Alloc();
    EXPECT_EQ(stats.pool_in_use.load(), base + 2);
    EXPECT_EQ(stats.pool_in_use_hwm.load(), hwm);
    c.reset();
    d.reset();
    EXPECT_EQ(stats.pool_in_use.load(), base);
    // The at-cap slab fallback is NOT a pooled block and must not count as occupancy.
    std::vector<std::unique_ptr<IOBuf>> held;
    for (std::size_t i = 0; i < BufferPool::kPerCoreCap; ++i) {
      held.push_back(pool->Alloc());
    }
    EXPECT_EQ(stats.pool_in_use.load(), base + BufferPool::kPerCoreCap);
    auto fallback = pool->Alloc();
    EXPECT_EQ(stats.pool_in_use.load(), base + BufferPool::kPerCoreCap);
    fallback.reset();
    held.clear();
    EXPECT_EQ(stats.pool_in_use.load(), base);
    checked = true;
  });
  world.Run();
  EXPECT_TRUE(checked);
}

TEST(BufferPool, PoolOnlyEventQueuesNoBoundaryHook) {
  // The pool is a freelist pop and push with no policy behind it: an event that only
  // carves, recycles and releases pool blocks leaves no work for its event boundary.
  SimWorld world;
  Runtime& rt = world.AddMachine("nohook", 1);
  EventManager& em = rt.GetSubsystem<EventManagerRoot>(Subsystem::kEventManager).RepFor(0);
  std::uint64_t hooks_before = em.stats().end_of_event;
  bool ran = false;
  SimWorld::SpawnOn(rt, 0, [&] {
    BufferPool* pool = BufferPool::Local();
    ASSERT_NE(pool, nullptr);
    auto carved = pool->Alloc();
    carved.reset();
    auto recycled = pool->Alloc();
    recycled.reset();
    ran = true;
  });
  world.Run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(em.stats().end_of_event, hooks_before);
}

TEST(BufferPool, CloneKeepsRecycledBufferAlivePastOriginatingEvent) {
  SimWorld world;
  Runtime& rt = world.AddMachine("clone", 1);
  auto clone = std::make_shared<std::unique_ptr<IOBuf>>();
  auto block = std::make_shared<const std::uint8_t*>(nullptr);
  bool verified = false;
  SimWorld::SpawnOn(rt, 0, [&, clone, block] {
    BufferPool* pool = BufferPool::Local();
    ASSERT_NE(pool, nullptr);
    auto frame = pool->Alloc();
    std::memcpy(frame->WritableTail(), "pooled-payload", 14);
    frame->Append(14);
    *block = frame->Data();
    *clone = frame->Clone();  // second view, refcounted
    frame.reset();            // original dies with the event — block must NOT recycle yet
    event::Local().Spawn([&, clone, block] {
      // A later event still reads the clone's bytes intact.
      EXPECT_EQ((*clone)->AsStringView(), "pooled-payload");
      BufferPool* p = BufferPool::Local();
      auto other = p->Alloc();
      EXPECT_NE(other->Data(), *block);  // the shared block was not handed out
      other.reset();
      clone->reset();  // last view: NOW it returns to the pool
      event::Local().Spawn([&, block] {
        auto reused = BufferPool::Local()->Alloc();
        EXPECT_EQ(reused->Data(), *block);
        verified = true;
      });
    });
  });
  world.Run();
  EXPECT_TRUE(verified);
}

}  // namespace
}  // namespace ebbrt
