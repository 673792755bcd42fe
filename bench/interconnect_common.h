// The cross-core spawn burst behind Table 3's xcore_spawn row: EventManager::SpawnRemote end
// to end under real threads — slab-carved node, push, wake-if-idle, drain, closure run.
// tab3_interconnect times it; event_thread_test holds its heap fallbacks and control locks
// to zero.
#ifndef EBBRT_BENCH_INTERCONNECT_COMMON_H_
#define EBBRT_BENCH_INTERCONNECT_COMMON_H_

#include <algorithm>
#include <atomic>

#include "src/event/event_manager.h"
#include "src/event/thread_machine.h"
#include "src/mem/gp_allocator.h"
#include "src/platform/clock.h"

namespace ebbrt {
namespace bench {

struct SpawnResult {
  double ns_per_spawn = 0;
  // Heap fallbacks counted inside the spawning events, where every SpawnRemote carves its
  // node: slab carving makes this 0. RunSync's own node, pushed from the bench thread with
  // no allocator in reach, falls back once per round and is deliberately not counted.
  std::uint64_t heap_fallbacks = 0;
  double allocs_per_op = 0;        // heap_fallbacks per spawn
  std::uint64_t xcore_pushes = 0;  // receiver-core interconnect telemetry for the burst
  std::uint64_t xcore_wakeups = 0;
  std::uint64_t xcore_batched = 0;
  std::uint64_t control_locks = 0;
};

// A 2-core ThreadMachine; each round core 0 spawns `burst` closures onto core 1 in one
// event and the bench thread waits until all have run. One warmup round, then `rounds`
// measured ones; ns_per_spawn is the best round's cost per spawn.
inline SpawnResult XcoreSpawn(std::size_t burst, int rounds) {
  ThreadMachine machine(2);
  mem::Config config;
  config.arena_bytes = 256ull << 20;
  mem::Install(machine.runtime(), 2, config);
  machine.Start();
  auto& em_root =
      machine.runtime().GetSubsystem<EventManagerRoot>(Subsystem::kEventManager);
  std::atomic<std::uint64_t> done{0};
  std::uint64_t heap_fallbacks = 0;
  auto one_round = [&] {
    done.store(0, std::memory_order_relaxed);
    machine.RunSync(0, [&] {
      auto& em = event::Local();
      std::uint64_t heap_before = mem::stats().heap_fallback_allocs.load();
      for (std::size_t i = 0; i < burst; ++i) {
        em.SpawnRemote([&done] { done.fetch_add(1, std::memory_order_relaxed); }, 1);
      }
      heap_fallbacks += mem::stats().heap_fallback_allocs.load() - heap_before;
    });
    while (done.load(std::memory_order_relaxed) < burst) {
    }
  };
  one_round();  // warmup: fault in slabs, fault in both loops
  heap_fallbacks = 0;

  EventManager::Stats stats_before = em_root.RepFor(1).stats();
  std::uint64_t best = ~0ull;
  for (int r = 0; r < rounds; ++r) {
    std::uint64_t start = ReadCyclesSerialized();
    one_round();
    best = std::min(best, ReadCyclesSerialized() - start);
  }
  EventManager::Stats stats_after = em_root.RepFor(1).stats();
  machine.Shutdown();

  SpawnResult result;
  result.ns_per_spawn =
      static_cast<double>(CyclesToNs(best)) / static_cast<double>(burst);
  result.heap_fallbacks = heap_fallbacks;
  result.allocs_per_op = static_cast<double>(heap_fallbacks) /
                         static_cast<double>(burst * static_cast<std::size_t>(rounds));
  result.xcore_pushes = stats_after.xcore_pushes - stats_before.xcore_pushes;
  result.xcore_wakeups = stats_after.xcore_wakeups - stats_before.xcore_wakeups;
  result.xcore_batched = stats_after.xcore_batches - stats_before.xcore_batches;
  result.control_locks = stats_after.control_locks;
  return result;
}

}  // namespace bench
}  // namespace ebbrt

#endif  // EBBRT_BENCH_INTERCONNECT_COMMON_H_
