// Datapath buffer tests: slab-backed IOBufs and network frames (IOBuf::CreateFrame), the
// zero-malloc datapath's allocation layer.
//
//   * one-slab-allocation IOBuf layout (embedded SharedStorage, arena-backed bytes),
//   * a frame's shape (headroom reserved, empty view) and its recycle through the slab's
//     per-core freelist, counted as a hit; a frame outside any machine is a heap miss,
//   * a frame freed on another core of its machine stays on that core's freelist: no remote
//     free, no interconnect push, and that core's next frame is the same block,
//   * a frame released by a world action goes to the node depot, one remote free,
//   * pool_in_use follows live frames through a clone and its release,
//   * frame-only events queueing no end-of-event work,
//   * refcounted Clone keeping a frame alive past the originating event.
//
// Everything runs on a deterministic SimWorld machine (AddMachine installs the memory
// subsystem), so per-core semantics are exercised for real.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "src/event/sim_world.h"
#include "src/iobuf/iobuf.h"
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

std::uint64_t InterconnectPushes(Runtime& rt) {
  Interconnect& mesh = rt.GetSubsystem<EventManagerRoot>(Subsystem::kEventManager).interconnect();
  std::uint64_t total = 0;
  for (std::size_t core = 0; core < mesh.num_cores(); ++core) {
    total += mesh.pushes(core);
  }
  return total;
}

TEST(NetFrame, SlabBackedIOBufIsOneEmbeddedAllocation) {
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

TEST(NetFrame, RecycleReuseRoundTrip) {
  SimWorld world;
  Runtime& rt = world.AddMachine("recycle", 1);
  bool checked = false;
  SimWorld::SpawnOn(rt, 0, [&] {
    auto a = IOBuf::CreateFrame();
    const std::uint8_t* block = a->Data();
    EXPECT_EQ(a->Headroom(), IOBuf::kFrameHeadroom);  // headroom pre-reserved
    EXPECT_EQ(a->Length(), 0u);                       // empty view (CreateReserve semantics)
    EXPECT_EQ(a->Capacity(), IOBuf::kFrameBlockBytes - IOBuf::kStorageHeaderBytes);
    EXPECT_TRUE(a->StorageEmbedded());
    a.reset();  // same-core free: a push onto this core's slab freelist
    MemDelta before = MemDelta::Snap();
    auto b = IOBuf::CreateFrame();
    MemDelta after = MemDelta::Snap();
    EXPECT_EQ(b->Data(), block);  // the very same block came back
    EXPECT_EQ(after.hits - before.hits, 1u);
    EXPECT_EQ(after.misses - before.misses, 0u);
    EXPECT_EQ(after.slab - before.slab, 1u);
    EXPECT_EQ(after.heap - before.heap, 0u);
    checked = true;
  });
  world.Run();
  EXPECT_TRUE(checked);
}

TEST(NetFrame, OutsideAnyMachineAFrameIsAHeapMiss) {
  const mem::Stats& stats = mem::stats();
  std::uint64_t in_use_base = stats.pool_in_use.load();
  MemDelta before = MemDelta::Snap();
  auto frame = IOBuf::CreateFrame();
  MemDelta after = MemDelta::Snap();
  EXPECT_EQ(mem::FindOwningRoot(frame->Data()), nullptr);
  EXPECT_EQ(after.misses - before.misses, 1u);
  EXPECT_EQ(after.hits - before.hits, 0u);
  EXPECT_EQ(frame->Headroom(), IOBuf::kFrameHeadroom);
  EXPECT_EQ(stats.pool_in_use.load(), in_use_base + 1);
  frame.reset();
  EXPECT_EQ(stats.pool_in_use.load(), in_use_base);
}

TEST(NetFrame, FreeOnAnotherCoreStaysOnThatCoresFreelist) {
  SimWorld world;
  Runtime& rt = world.AddMachine("xcore", 2);
  auto stash = std::make_shared<std::unique_ptr<IOBuf>>();
  bool verified = false;
  SimWorld::SpawnOn(rt, 0, [&, stash] {
    *stash = IOBuf::CreateFrame();
    // Hand the frame to core 1, which releases it there (a response retained by another
    // core's connection, in miniature).
    event::Local().SpawnRemote(
        [&, stash] {
          const std::uint8_t* block = (*stash)->Data();
          MemDelta before = MemDelta::Snap();
          std::uint64_t pushes_before = InterconnectPushes(rt);
          stash->reset();
          MemDelta after = MemDelta::Snap();
          // Same machine: the block joins core 1's slab freelist — no depot, no mesh ride.
          EXPECT_EQ(after.remote - before.remote, 0u);
          EXPECT_EQ(InterconnectPushes(rt), pushes_before);
          auto next = IOBuf::CreateFrame();
          EXPECT_EQ(next->Data(), block);
          verified = true;
        },
        1);
  });
  world.Run();
  EXPECT_TRUE(verified);
}

TEST(NetFrame, WorldActionReleaseTicksOneRemoteFree) {
  SimWorld world;
  Runtime& rt = world.AddMachine("world", 1);
  const mem::Stats& stats = mem::stats();
  const std::uint64_t in_use_base = stats.pool_in_use.load();
  std::unique_ptr<IOBuf> frame;
  std::unique_ptr<IOBuf> view;
  bool released = false;
  SimWorld::SpawnOn(rt, 0, [&] {
    frame = IOBuf::CreateFrame();
    EXPECT_EQ(stats.pool_in_use.load(), in_use_base + 1);
    world.After(1000, [&] {
      // A world action takes a view. Its descriptor is carved outside any core (the heap
      // fallback), so the frame's block is the one arena block the release below routes.
      view = frame->CloneOne();
      SimWorld::SpawnOn(rt, 0, [&] {
        frame.reset();  // core 0 drops its view; the world action's view keeps the frame
        EXPECT_EQ(stats.pool_in_use.load(), in_use_base + 1);
        world.After(1000, [&] {
          MemDelta before = MemDelta::Snap();
          view.reset();
          MemDelta after = MemDelta::Snap();
          // Outside any core of the machine: the block goes to its node's depot.
          EXPECT_EQ(after.remote - before.remote, 1u);
          EXPECT_EQ(stats.pool_in_use.load(), in_use_base);
          released = true;
        });
      });
    });
  });
  world.Run();
  EXPECT_TRUE(released);
}

TEST(NetFrame, PoolInUseFollowsLiveFramesThroughCloneAndRelease) {
  SimWorld world;
  Runtime& rt = world.AddMachine("occupancy", 1);
  bool checked = false;
  SimWorld::SpawnOn(rt, 0, [&] {
    const mem::Stats& stats = mem::stats();
    const std::uint64_t base = stats.pool_in_use.load();
    auto a = IOBuf::CreateFrame();
    EXPECT_EQ(stats.pool_in_use.load(), base + 1);
    auto clone = a->Clone();  // a second view of the same frame is not a second frame
    EXPECT_EQ(stats.pool_in_use.load(), base + 1);
    auto b = IOBuf::CreateFrame();
    EXPECT_EQ(stats.pool_in_use.load(), base + 2);
    // An ordinary buffer of the same size is not a frame.
    auto plain = IOBuf::CreateReserve(IOBuf::kFrameBlockBytes - IOBuf::kStorageHeaderBytes,
                                      IOBuf::kFrameHeadroom);
    EXPECT_EQ(stats.pool_in_use.load(), base + 2);
    a.reset();  // the clone still holds the frame
    EXPECT_EQ(stats.pool_in_use.load(), base + 2);
    clone.reset();
    EXPECT_EQ(stats.pool_in_use.load(), base + 1);
    b.reset();
    plain.reset();
    EXPECT_EQ(stats.pool_in_use.load(), base);
    checked = true;
  });
  world.Run();
  EXPECT_TRUE(checked);
}

TEST(NetFrame, FrameOnlyEventQueuesNoBoundaryHook) {
  // A frame is a slab freelist pop and push with no policy behind it: an event that only
  // carves, recycles and releases frames leaves no work for its event boundary.
  SimWorld world;
  Runtime& rt = world.AddMachine("nohook", 1);
  EventManager& em = rt.GetSubsystem<EventManagerRoot>(Subsystem::kEventManager).RepFor(0);
  std::uint64_t hooks_before = em.stats().end_of_event;
  bool ran = false;
  SimWorld::SpawnOn(rt, 0, [&] {
    auto carved = IOBuf::CreateFrame();
    carved.reset();
    auto recycled = IOBuf::CreateFrame();
    recycled.reset();
    ran = true;
  });
  world.Run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(em.stats().end_of_event, hooks_before);
}

TEST(NetFrame, CloneKeepsFrameAlivePastOriginatingEvent) {
  SimWorld world;
  Runtime& rt = world.AddMachine("clone", 1);
  auto clone = std::make_shared<std::unique_ptr<IOBuf>>();
  auto block = std::make_shared<const std::uint8_t*>(nullptr);
  bool verified = false;
  SimWorld::SpawnOn(rt, 0, [&, clone, block] {
    auto frame = IOBuf::CreateFrame();
    std::memcpy(frame->WritableTail(), "frame-payload", 13);
    frame->Append(13);
    *block = frame->Data();
    *clone = frame->Clone();  // second view, refcounted
    frame.reset();            // original dies with the event — block must NOT recycle yet
    event::Local().Spawn([&, clone, block] {
      // A later event still reads the clone's bytes intact.
      EXPECT_EQ((*clone)->AsStringView(), "frame-payload");
      auto other = IOBuf::CreateFrame();
      EXPECT_NE(other->Data(), *block);  // the shared block was not handed out
      other.reset();
      clone->reset();  // last view: NOW it returns to the slab freelist
      event::Local().Spawn([&, block] {
        auto reused = IOBuf::CreateFrame();
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
