// EventManager tests.
//
// The thread-per-core executor (ThreadMachine) keeps only a minimal real-threads smoke
// section: cross-thread spawn targeting and the remote mailbox — the properties that
// genuinely require threads. Everything that used to spin against wall-clock deadlines
// (interrupt dispatch, dispatch priority, timers, SaveContext blocking, mass cross-core
// spawns) runs on the discrete-event SimWorld instead, where the same EventManager code
// executes under virtual time and every assertion is deterministic (ROADMAP flaky-test
// item).
#include <atomic>
#include <chrono>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "bench/interconnect_common.h"
#include "src/event/block_on.h"
#include "src/event/event_manager.h"
#include "src/event/sim_world.h"
#include "src/event/thread_machine.h"
#include "src/event/timer.h"

namespace ebbrt {
namespace {

// --- Real-threads smoke (the executor's reason to exist) --------------------------------------

TEST(ThreadMachine, SpawnRunsOnTargetCore) {
  ThreadMachine machine(2);
  machine.Start();
  std::atomic<int> core0{-1};
  std::atomic<int> core1{-1};
  machine.RunSync(0, [&] { core0 = static_cast<int>(CurrentContext().machine_core); });
  machine.RunSync(1, [&] { core1 = static_cast<int>(CurrentContext().machine_core); });
  EXPECT_EQ(core0.load(), 0);
  EXPECT_EQ(core1.load(), 1);
  machine.Shutdown();
}

TEST(ThreadMachine, SpawnedEventsRunExactlyOnce) {
  ThreadMachine machine(1);
  machine.Start();
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    machine.Spawn(0, [&count] { count.fetch_add(1); });
  }
  machine.RunSync(0, [] {});  // barrier: FIFO queue drains earlier spawns first
  EXPECT_EQ(count.load(), 100);
  machine.Shutdown();
}

TEST(ThreadMachine, SpawnRemoteCrossCore) {
  ThreadMachine machine(2);
  machine.Start();
  std::atomic<int> where{-1};
  machine.RunSync(0, [&] {
    event::Local().SpawnRemote(
        [&where] { where = static_cast<int>(CurrentContext().machine_core); }, 1);
  });
  machine.RunSync(1, [] {});  // barrier on core 1
  EXPECT_EQ(where.load(), 1);
  machine.Shutdown();
}

TEST(ThreadMachine, BlockOnReadyFutureFastPath) {
  ThreadMachine machine(1);
  machine.Start();
  int result = 0;
  machine.RunSync(0, [&] { result = event::BlockOn(MakeReadyFuture<int>(5)); });
  EXPECT_EQ(result, 5);
  machine.Shutdown();
}

// Table 3's xcore_spawn shape at its --smoke size (bench/interconnect_common.h): bursts of
// 20000 SpawnRemote from core 0 to core 1 on a 2-core machine. Each spawn carves its node
// from the per-core slab, so the spawning events never fall back to the heap, every spawn
// rides core 1's interconnect list, and the dispatch path takes no lock.
TEST(ThreadMachine, CrossCoreSpawnBurstsCarveEveryNodeAndTakeNoLock) {
  constexpr std::size_t kBurst = 20000;
  constexpr int kRounds = 3;
  bench::SpawnResult spawn = bench::XcoreSpawn(kBurst, kRounds);
  EXPECT_EQ(spawn.heap_fallbacks, 0u);
  EXPECT_EQ(spawn.xcore_pushes, kBurst * kRounds);
  EXPECT_EQ(spawn.control_locks, 0u);
}

// Every core's Timer is built with the machine, so cores that touch theirs for the first time
// in the same instant each find their own, already hooked into their loop.
TEST(ThreadMachine, EveryCoreStartsItsFirstTimerAtOnce) {
  constexpr std::size_t kCores = 4;
  ThreadMachine machine(kCores);
  machine.Start();
  std::atomic<std::size_t> arrived{0};
  std::atomic<std::size_t> fired{0};
  std::vector<std::atomic<Timer*>> reps(kCores);
  for (std::size_t core = 0; core < kCores; ++core) {
    machine.Spawn(core, [&, core] {
      arrived.fetch_add(1);
      while (arrived.load() < kCores) {
        std::this_thread::yield();
      }
      reps[core] = &Timer::Instance().GetRep();
      Timer::Instance()->Start(1000, [&fired] { fired.fetch_add(1); });
    });
  }
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (fired.load() < kCores && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  machine.Shutdown();
  EXPECT_EQ(fired.load(), kCores);
  std::set<Timer*> distinct;
  for (auto& rep : reps) {
    distinct.insert(rep.load());
  }
  EXPECT_EQ(distinct.size(), kCores);
  EXPECT_EQ(distinct.count(nullptr), 0u);
}

// --- Deterministic ports (discrete-event SimWorld, virtual time) ------------------------------

TEST(SimEvents, InterruptVectorDispatch) {
  SimWorld world;
  Runtime& rt = world.AddMachine("irq", 1);
  int fired = 0;
  std::uint32_t vector = 0;
  EventManager& em = rt.GetSubsystem<EventManagerRoot>(Subsystem::kEventManager).RepFor(0);
  SimWorld::SpawnOn(rt, 0, [&] {
    vector = event::Local().AllocateVector([&fired] { ++fired; });
  });
  // Devices raise vectors from device/world context (the NIC does exactly this).
  world.After(1000, [&] { em.RaiseVector(vector); });
  world.After(2000, [&] { em.RaiseVector(vector); });
  world.Run();
  EXPECT_EQ(fired, 2);
}

TEST(SimEvents, SyntheticEventsHavePriorityOverIdle) {
  SimWorld world;
  Runtime& rt = world.AddMachine("prio", 1);
  int idle_runs_during_events = -1;
  int events_run = 0;
  auto idle_runs = std::make_shared<int>(0);
  auto cb_holder = std::make_shared<std::unique_ptr<EventManager::IdleCallback>>();
  SimWorld::SpawnOn(rt, 0, [&, idle_runs, cb_holder] {
    auto& em = event::Local();
    *cb_holder = std::make_unique<EventManager::IdleCallback>(em, [idle_runs, cb_holder] {
      if (++*idle_runs >= 3) {
        (*cb_holder)->Stop();  // self-stopping poller, so the world can quiesce
      }
    });
    (*cb_holder)->Start();
    // Each dispatch pass runs ONE synthetic event and only reaches idle callbacks when no
    // synthetic work ran: when the last event executes, the idle callback must not have
    // run at all.
    for (int i = 0; i < 10; ++i) {
      em.Spawn([&, idle_runs] {
        ++events_run;
        if (events_run == 10) {
          idle_runs_during_events = *idle_runs;
        }
      });
    }
  });
  world.Run();
  EXPECT_EQ(events_run, 10);
  EXPECT_EQ(idle_runs_during_events, 0);  // idle never preempted pending synthetic events
  cb_holder->reset();  // break the callback<->holder reference cycle
}

TEST(SimEvents, SaveAndActivateContext) {
  SimWorld world;
  Runtime& rt = world.AddMachine("ctx", 1);
  bool resumed = false;
  int progress = 0;
  SimWorld::SpawnOn(rt, 0, [&] {
    auto& em = event::Local();
    em.Spawn([&] {
      progress = 1;
      EventContext ctx;
      // A sibling event re-activates the frozen context on this core.
      em.Spawn([&em, &ctx] { em.ActivateContext(std::move(ctx)); });
      em.SaveContext(ctx);
      progress = 2;
      resumed = true;
    });
  });
  world.Run();
  EXPECT_TRUE(resumed);
  EXPECT_EQ(progress, 2);
}

TEST(SimEvents, EventsContinueWhileContextBlocked) {
  // A blocked event must not block the core: later events run while it is frozen, and the
  // exact interleaving is deterministic under the DES.
  SimWorld world;
  Runtime& rt = world.AddMachine("blocked", 1);
  int side_events = 0;
  int side_events_at_resume = -1;
  bool resumed = false;
  SimWorld::SpawnOn(rt, 0, [&] {
    auto& em = event::Local();
    auto ctx = std::make_shared<EventContext>();
    em.Spawn([&, ctx] {
      em.SaveContext(*ctx);  // freeze immediately
      side_events_at_resume = side_events;
      resumed = true;
    });
    for (int i = 0; i < 5; ++i) {
      em.Spawn([&side_events] { ++side_events; });
    }
    em.Spawn([ctx, &em] { em.ActivateContext(std::move(*ctx)); });
  });
  world.Run();
  EXPECT_TRUE(resumed);
  EXPECT_EQ(side_events_at_resume, 5);  // every earlier event ran before the resume
}

TEST(SimEvents, BlockOnFutureCrossCore) {
  SimWorld world;
  Runtime& rt = world.AddMachine("blockon", 2);
  int result = 0;
  SimWorld::SpawnOn(rt, 0, [&] {
    auto& em = event::Local();
    Promise<int> p;
    auto f = p.GetFuture();
    // Fulfill from core 1 while core 0's event blocks.
    em.SpawnRemote([p]() mutable { p.SetValue(77); }, 1);
    result = event::BlockOn(std::move(f));
  });
  world.Run();
  EXPECT_EQ(result, 77);
}

TEST(SimEvents, StoppedTimerNeverFires) {
  SimWorld world;
  Runtime& rt = world.AddMachine("timer", 1);
  bool fired = false;
  SimWorld::SpawnOn(rt, 0, [&] {
    auto handle = Timer::Instance()->Start(500'000, [&fired] { fired = true; });
    Timer::Instance()->Stop(handle);
  });
  world.Run();  // quiesces past the would-be deadline
  EXPECT_FALSE(fired);
}

TEST(SimEvents, PeriodicTimerStopsAfterStop) {
  SimWorld world;
  Runtime& rt = world.AddMachine("periodic", 1);
  int ticks = 0;
  std::uint64_t handle = 0;
  SimWorld::SpawnOn(rt, 0, [&] {
    handle = Timer::Instance()->Start(
        200'000, [&ticks] { ++ticks; }, /*periodic=*/true);
    // Stop deterministically after the third tick's deadline has passed.
    Timer::Instance()->Start(650'000, [&] { Timer::Instance()->Stop(handle); });
  });
  world.Run();
  EXPECT_EQ(ticks, 3);  // exactly three periods fit before the stop — no slack needed
}

TEST(SimEvents, IdleCallbackStopFromTheMiddleIsExact) {
  // Regression for the O(n) Stop erase: with many registered callbacks, stopping one from
  // the MIDDLE swap-and-pops the tail into its slot. The displaced tail must keep running
  // and the stopped callback must never run again — in any later pass.
  SimWorld world;
  Runtime& rt = world.AddMachine("idlestop", 1);
  constexpr int kCallbacks = 32;
  auto runs = std::make_shared<std::array<int, kCallbacks>>();
  runs->fill(0);
  auto passes = std::make_shared<int>(0);
  auto cbs =
      std::make_shared<std::vector<std::unique_ptr<EventManager::IdleCallback>>>();
  SimWorld::SpawnOn(rt, 0, [runs, passes, cbs] {
    auto& em = event::Local();
    // Callback 0 is the controller: it counts whole idle passes and drives the stops.
    cbs->push_back(std::make_unique<EventManager::IdleCallback>(em, [runs, passes, cbs] {
      ++(*runs)[0];
      int pass = ++*passes;
      if (pass == 1) {
        // Stop every even-indexed callback (except the controller) — all interior slots,
        // so each Stop displaces whatever currently sits at the tail.
        for (int i = 2; i < kCallbacks; i += 2) {
          (*cbs)[static_cast<std::size_t>(i)]->Stop();
        }
      } else if (pass == 3) {
        for (auto& cb : *cbs) {
          cb->Stop();  // quiesce the world
        }
      }
    }));
    for (int i = 1; i < kCallbacks; ++i) {
      cbs->push_back(std::make_unique<EventManager::IdleCallback>(
          em, [runs, i] { ++(*runs)[static_cast<std::size_t>(i)]; }));
    }
    for (auto& cb : *cbs) {
      cb->Start();
    }
  });
  world.Run();
  EXPECT_EQ(*passes, 3);
  for (int i = 1; i < kCallbacks; ++i) {
    // The controller sits at snapshot position 0 and runs first each pass, so a Stop takes
    // effect within the same pass (DispatchIdle skips anything no longer started). Evens
    // are stopped before their very first turn and never run; odds run in passes 1 and 2
    // and are skipped in pass 3 after the controller stops everyone.
    int expected = (i % 2 == 0) ? 0 : 2;
    EXPECT_EQ((*runs)[static_cast<std::size_t>(i)], expected) << "callback " << i;
  }
  EXPECT_EQ((*runs)[0], 3);
  cbs->clear();  // break the callback<->holder reference cycle
}

TEST(SimEvents, ManyCrossCoreSpawnsAllArrive) {
  SimWorld world;
  Runtime& rt = world.AddMachine("mass", 2);
  constexpr int kCount = 5000;
  int received = 0;
  SimWorld::SpawnOn(rt, 0, [&] {
    auto& em = event::Local();
    for (int i = 0; i < kCount; ++i) {
      em.SpawnRemote([&received] { ++received; }, 1);
    }
  });
  world.Run();
  EXPECT_EQ(received, kCount);
}

}  // namespace
}  // namespace ebbrt
