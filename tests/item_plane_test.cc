// Item-plane lifetime tests: the slab-carved item block, its intrusive refcount, and the
// zero-copy response views that pin it.
//
// The contract under test (kvstore.h): an item is ONE block [header | key | value] carved
// from the per-core allocator; GET hands out a reference whose IOBuf deleter drops it
// directly; replacement/deletion via RCU never frees a block a response still points at;
// the final Unref returns the block to its carving core's allocator from wherever it runs.
#include <atomic>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "bench/item_plane_common.h"
#include "src/apps/memcached/kvstore.h"
#include "src/event/thread_machine.h"
#include "src/mem/gp_allocator.h"
#include "src/rcu/rcu.h"

namespace ebbrt {
namespace {

using memcached::Item;
using memcached::ItemPtr;
using memcached::KvStore;
using memcached::MakeValueBuffer;

class ItemPlaneTest : public ::testing::Test {
 protected:
  ItemPlaneTest() : machine_(2) {
    mem::Config config;
    config.arena_bytes = 32ull << 20;
    mem::Install(machine_.runtime(), 2, config);
    machine_.Start();
  }
  ~ItemPlaneTest() override { machine_.Shutdown(); }

  // Drives event boundaries on both cores until pending RCU reclamations have run.
  void DrainGracePeriods() {
    for (int i = 0; i < 50; ++i) {
      machine_.RunSync(0, [] {});
      machine_.RunSync(1, [] {});
    }
  }

  ThreadMachine machine_;
};

TEST_F(ItemPlaneTest, BlockLayoutAndAccessors) {
  machine_.RunSync(0, [] {
    std::uint64_t live_before = Item::live_count();
    ItemPtr item{Item::New("key-1", "value-bytes", 42, 7)};
    EXPECT_EQ(item->key(), "key-1");
    EXPECT_EQ(item->value(), "value-bytes");
    EXPECT_EQ(item->flags(), 42u);
    EXPECT_EQ(item->cas(), 7u);
    // Key and value bytes trail the header in the SAME allocation, contiguously.
    EXPECT_EQ(item->value().data(), item->key().data() + item->key().size());
    EXPECT_EQ(reinterpret_cast<const char*>(item.get()) + sizeof(Item), item->key().data());
    EXPECT_EQ(Item::live_count(), live_before + 1);
    item = ItemPtr();  // last reference: block freed exactly once
    EXPECT_EQ(Item::live_count(), live_before);
  });
}

TEST_F(ItemPlaneTest, RefcountDropsToZeroExactlyOnce) {
  machine_.RunSync(0, [] {
    std::uint64_t live_before = Item::live_count();
    ItemPtr a{Item::New("k", "v", 0, 1)};
    ItemPtr b = a;             // copy bumps
    ItemPtr c = std::move(a);  // move transfers, no bump
    EXPECT_EQ(c->refs(), 2u);
    b = ItemPtr();
    EXPECT_EQ(Item::live_count(), live_before + 1);  // c still holds it
    c = ItemPtr();
    EXPECT_EQ(Item::live_count(), live_before);
  });
}

TEST_F(ItemPlaneTest, GetViewSurvivesConcurrentReplacement) {
  auto store = std::make_shared<KvStore>(RcuManagerRoot::For(machine_.runtime()));
  std::string observed;
  machine_.RunSync(0, [&] {
    store->Set("key", "original-value", 0);
    ItemPtr item = store->Get("key");
    ASSERT_NE(item, nullptr);
    auto view = MakeValueBuffer(std::move(item));
    // Replace the item while the view is outstanding — the old block must stay intact.
    store->Set("key", "replacement!!!", 0);
    ItemPtr fresh = store->Get("key");
    ASSERT_NE(fresh, nullptr);
    EXPECT_EQ(fresh->value(), "replacement!!!");
    observed.assign(reinterpret_cast<const char*>(view->Data()), view->Length());
  });
  EXPECT_EQ(observed, "original-value");
  DrainGracePeriods();
}

TEST_F(ItemPlaneTest, ResponseViewOutlivesDeleteLikeARetransmission) {
  // A TCP retransmission can need a response's bytes long after the item was deleted and
  // its grace period elapsed: the view's embedded reference — not the table — keeps the
  // block alive until the buffer itself is released.
  auto store = std::make_shared<KvStore>(RcuManagerRoot::For(machine_.runtime()));
  std::uint64_t live_before = Item::live_count();
  std::unique_ptr<IOBuf> view;
  machine_.RunSync(0, [&] {
    store->Set("key", "retransmit-me", 0);
    ItemPtr item = store->Get("key");
    ASSERT_NE(item, nullptr);
    view = MakeValueBuffer(std::move(item));
    EXPECT_TRUE(store->Delete("key"));
  });
  DrainGracePeriods();  // the table's reference is long gone; only the view pins the block
  EXPECT_EQ(Item::live_count(), live_before + 1);
  std::string_view bytes{reinterpret_cast<const char*>(view->Data()), view->Length()};
  EXPECT_EQ(bytes, "retransmit-me");
  machine_.RunSync(0, [&] { view.reset(); });  // the "retransmission" completes
  EXPECT_EQ(Item::live_count(), live_before);
}

TEST_F(ItemPlaneTest, RemoteDropRoutesBlockHome) {
  // Carve on core 0, drop the last reference on core 1: the same-machine cross-core free
  // goes through core 1's slab rep (magazine return) — no crash, block accounted exactly
  // once. Then carve again and drop from OUTSIDE any machine context (the teardown-thread /
  // foreign-machine case): that must take the FreeAnywhere depot route, ticking
  // mem::stats().remote_frees — the discipline GET responses rely on when a connection's
  // buffers release somewhere other than the core that carved the item.
  ItemPtr item;
  machine_.RunSync(0, [&] { item = ItemPtr{Item::New("k", std::string(512, 'x'), 0, 1)}; });
  std::uint64_t live_before = Item::live_count();
  machine_.RunSync(1, [&] { item = ItemPtr(); });
  EXPECT_EQ(Item::live_count(), live_before - 1);

  machine_.RunSync(0, [&] { item = ItemPtr{Item::New("k2", std::string(512, 'y'), 0, 2)}; });
  std::uint64_t remote_before = mem::stats().remote_frees.load();
  item = ItemPtr();  // dropped from the bare test thread: no event context
  EXPECT_EQ(Item::live_count(), live_before - 1);
  EXPECT_GT(mem::stats().remote_frees.load(), remote_before);
}

TEST_F(ItemPlaneTest, StoreOperationsDoNotTouchTheGenericHeap) {
  // The item plane's claim at unit scale (MixSweepNeverTouchesTheGenericHeap holds it at
  // bench scale): steady state GET — including the full response-pinning path — and SET
  // perform zero generic heap allocations.
  auto store = std::make_shared<KvStore>(RcuManagerRoot::For(machine_.runtime()));
  std::uint64_t get_allocs = 0;
  std::uint64_t set_allocs = 0;
  machine_.RunSync(0, [&] {
    std::string big(1024, 'v');
    for (int i = 0; i < 64; ++i) {
      store->Set("warm", big, 0);  // fault slabs, table node, CAS block
      auto warm = store->Get("warm");
    }
    auto& counter = mem::stats().generic_heap_allocs;
    std::uint64_t before = counter.load();
    for (int i = 0; i < 256; ++i) {
      store->Set("warm", big, 0);
    }
    set_allocs = counter.load() - before;
    before = counter.load();
    for (int i = 0; i < 256; ++i) {
      ItemPtr item = store->Get("warm");
      ASSERT_NE(item, nullptr);
      auto view = MakeValueBuffer(std::move(item));
      ASSERT_EQ(view->Length(), big.size());
    }
    get_allocs = counter.load() - before;
  });
  EXPECT_EQ(set_allocs, 0u);
  EXPECT_EQ(get_allocs, 0u);
  DrainGracePeriods();
}

// Figure 13's full schedule (bench/item_plane_common.h): GET/SET mix {100/0, 90/10, 50/50}
// x value size {64, 1024, 8192}, 200000 ops per point. Every op of every point runs, and
// none of them allocates on the generic heap or takes a dispatch-path control lock.
TEST(ItemPlaneSweep, MixSweepNeverTouchesTheGenericHeap) {
  std::vector<bench::MixPoint> points = bench::RunMixSweep();
  ASSERT_EQ(points.size(), std::size(bench::kItemMixes) * std::size(bench::kItemValueSizes));
  for (const bench::MixPoint& p : points) {
    SCOPED_TRACE(::testing::Message() << "mix " << p.get_pct << "/" << 100 - p.get_pct
                                      << " value " << p.value_size);
    EXPECT_EQ(p.ops, bench::kItemOpsPerPoint);
    EXPECT_EQ(p.get_heap_allocs_per_op, 0.0);
    EXPECT_EQ(p.set_heap_allocs_per_op, 0.0);
    EXPECT_EQ(p.heap_allocs_per_op, 0.0);
    EXPECT_EQ(p.control_locks, 0u);
  }
}

}  // namespace
}  // namespace ebbrt
