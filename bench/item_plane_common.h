// The item-plane mix sweep behind Figure 13: GET/SET mix {100/0, 90/10, 50/50} x value size
// {64, 1024, 8192}, driven against KvStore directly — no sockets, no simulated NIC — so the
// numbers isolate the item plane itself: hash/lookup, item-block carve, refcounted response
// pinning (MakeValueBuffer), RCU-deferred replacement.
//
// Heap allocations are measured by the counting ::operator new hook
// (mem::stats().generic_heap_allocs — see src/mem/heap_count.cc), snapshotted around EVERY
// op and attributed to the op that paid it, so GET and SET each carry their own rate.
//
// fig13_item_plane prints and records the sweep; item_plane_test runs the same schedule and
// holds every point to zero heap allocations and zero control locks.
#ifndef EBBRT_BENCH_ITEM_PLANE_COMMON_H_
#define EBBRT_BENCH_ITEM_PLANE_COMMON_H_

#include <algorithm>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "src/apps/memcached/kvstore.h"
#include "src/event/event_manager.h"
#include "src/event/thread_machine.h"
#include "src/mem/gp_allocator.h"
#include "src/obs/histogram.h"
#include "src/platform/clock.h"

namespace ebbrt {
namespace bench {

inline constexpr std::size_t kItemKeys = 2048;
// Ops per event: RCU reclamation drains between events.
inline constexpr std::size_t kItemBatchOps = 2048;
inline constexpr int kItemMixes[] = {100, 90, 50};  // GET share of each mix
inline constexpr std::size_t kItemValueSizes[] = {64, 1024, 8192};
inline constexpr std::uint64_t kItemOpsPerPoint = 200000;

struct MixPoint {
  int get_pct = 0;            // GET share of the mix (SET share = 100 - get_pct)
  std::size_t value_size = 0;
  std::uint64_t ops = 0;
  std::uint64_t gets = 0;
  std::uint64_t sets = 0;
  double ns_per_op = 0;
  obs::Histogram::Snapshot latency;
  double get_heap_allocs_per_op = 0;  // generic-heap allocs attributed to GET ops
  double set_heap_allocs_per_op = 0;  // ...and to SET ops
  double heap_allocs_per_op = 0;      // attributed total / ops
  std::uint64_t control_locks = 0;    // dispatch-path spinlock acquisitions, measured window
};

// Deterministic xorshift64* — every run draws the same op/key schedule, so two runs' ns/op
// compare the item plane, not the schedule.
struct Rng {
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  std::uint64_t Next() {
    state ^= state >> 12;
    state ^= state << 25;
    state ^= state >> 27;
    return state * 0x2545f4914f6cdd1dull;
  }
};

inline MixPoint RunMixPoint(int get_pct, std::size_t value_size, std::uint64_t total_ops) {
  ThreadMachine machine(1);
  mem::Config config;
  config.arena_bytes = 256ull << 20;
  mem::Install(machine.runtime(), 1, config);
  machine.Start();

  memcached::KvStore store(RcuManagerRoot::For(machine.runtime()));
  std::vector<std::string> keys;
  keys.reserve(kItemKeys);
  for (std::size_t i = 0; i < kItemKeys; ++i) {
    keys.push_back("item:" + std::to_string(100000 + i));
  }
  std::string value_backing(value_size, 'v');
  std::string_view value{value_backing};

  // Preload every key (inside an event: the slab path needs the machine context), then
  // warm up with the measured loop body so slabs, table nodes, and histograms are faulted
  // before the first sample.
  machine.RunSync(0, [&] {
    for (const std::string& key : keys) {
      store.Set(key, value, 0);
    }
  });

  obs::Histogram latency_hist;
  Rng rng;
  std::uint64_t gets = 0;
  std::uint64_t sets = 0;
  std::uint64_t get_allocs = 0;
  std::uint64_t set_allocs = 0;
  std::uint64_t sink = 0;
  auto& heap_count = mem::stats().generic_heap_allocs;

  auto run_ops = [&](std::uint64_t count, bool measured) {
    for (std::uint64_t done = 0; done < count;) {
      std::uint64_t batch = std::min<std::uint64_t>(kItemBatchOps, count - done);
      machine.RunSync(0, [&] {
        std::uint64_t prev_ns = WallNowNs();
        for (std::uint64_t i = 0; i < batch; ++i) {
          std::uint64_t roll = rng.Next();
          const std::string& key = keys[roll % kItemKeys];
          bool is_get = static_cast<int>((roll >> 32) % 100) < get_pct;
          std::uint64_t allocs_before = heap_count.load(std::memory_order_relaxed);
          if (is_get) {
            auto item = store.Get(key);
            if (item != nullptr) {
              // The full response-pinning path: the value rides as a refcounted zero-copy
              // view whose IOBuf release drops the item reference.
              auto buf = memcached::MakeValueBuffer(std::move(item));
              sink += buf->Length();
            }
          } else {
            store.Set(key, value, 0);
          }
          std::uint64_t allocs =
              heap_count.load(std::memory_order_relaxed) - allocs_before;
          std::uint64_t now_ns = WallNowNs();
          if (measured) {
            latency_hist.Record(now_ns - prev_ns);
            if (is_get) {
              ++gets;
              get_allocs += allocs;
            } else {
              ++sets;
              set_allocs += allocs;
            }
          }
          prev_ns = now_ns;
        }
      });
      done += batch;
    }
  };

  run_ops(2 * kItemBatchOps, /*measured=*/false);  // warmup

  auto& em_root =
      machine.runtime().GetSubsystem<EventManagerRoot>(Subsystem::kEventManager);
  std::uint64_t locks_mark = em_root.RepFor(0).stats().control_locks;
  std::uint64_t t0 = WallNowNs();
  run_ops(total_ops, /*measured=*/true);
  std::uint64_t elapsed = WallNowNs() - t0;
  std::uint64_t locks_end = em_root.RepFor(0).stats().control_locks;

  MixPoint point;
  point.get_pct = get_pct;
  point.value_size = value_size;
  point.ops = gets + sets;
  point.gets = gets;
  point.sets = sets;
  point.ns_per_op = point.ops != 0 ? static_cast<double>(elapsed) / point.ops : 0.0;
  point.latency = latency_hist.TakeSnapshot();
  point.get_heap_allocs_per_op =
      gets != 0 ? static_cast<double>(get_allocs) / gets : 0.0;
  point.set_heap_allocs_per_op =
      sets != 0 ? static_cast<double>(set_allocs) / sets : 0.0;
  point.heap_allocs_per_op =
      point.ops != 0 ? static_cast<double>(get_allocs + set_allocs) / point.ops : 0.0;
  point.control_locks = locks_end - locks_mark;
  if (sink == 0 && get_pct > 0) {
    std::fprintf(stderr, "WARN: GET path never produced a value view\n");
  }
  machine.Shutdown();
  return point;
}

// Fig 13's full schedule: every mix x value size, kItemOpsPerPoint measured ops each.
inline std::vector<MixPoint> RunMixSweep() {
  std::vector<MixPoint> points;
  for (int mix : kItemMixes) {
    for (std::size_t value_size : kItemValueSizes) {
      points.push_back(RunMixPoint(mix, value_size, kItemOpsPerPoint));
    }
  }
  return points;
}

}  // namespace bench
}  // namespace ebbrt

#endif  // EBBRT_BENCH_ITEM_PLANE_COMMON_H_
