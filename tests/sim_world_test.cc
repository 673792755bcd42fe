// SimWorld (discrete-event executor) tests: virtual time, determinism, multi-machine
// interleaving, timers in virtual time, device actions, charges.
#include "src/event/sim_world.h"

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/event/block_on.h"
#include "src/event/timer.h"

namespace ebbrt {
namespace {

TEST(SimWorld, RunsSpawnedEvents) {
  SimWorld world;
  Runtime& m = world.AddMachine("m", 1);
  int ran = 0;
  SimWorld::SpawnOn(m, 0, [&ran] { ++ran; });
  world.Run();
  EXPECT_EQ(ran, 1);
}

TEST(SimWorld, FixedCostModeAdvancesVirtualTime) {
  SimWorld world(500);
  Runtime& m = world.AddMachine("m", 1);
  std::uint64_t t_after = 0;
  SimWorld::SpawnOn(m, 0, [&] { t_after = world.Now(); });
  world.Run();
  // The handler observes time during its own slice; charges land on completion, so the
  // in-handler observation is the slice start. What matters: world time advanced afterwards.
  SimWorld::SpawnOn(m, 0, [&] { t_after = world.Now(); });
  world.Run();
  EXPECT_GE(t_after, 500u);  // at least one fixed event charge accumulated
}

TEST(SimWorld, WorldActionsRunAtScheduledTime) {
  SimWorld world;
  std::vector<std::uint64_t> times;
  world.At(1000, [&] { times.push_back(world.Now()); });
  world.At(500, [&] { times.push_back(world.Now()); });
  world.At(1500, [&] { times.push_back(world.Now()); });
  world.Run();
  ASSERT_EQ(times.size(), 3u);
  EXPECT_EQ(times[0], 500u);
  EXPECT_EQ(times[1], 1000u);
  EXPECT_EQ(times[2], 1500u);
}

TEST(SimWorld, TimerFiresInVirtualTime) {
  SimWorld world;
  Runtime& m = world.AddMachine("m", 1);
  std::uint64_t fired_at = 0;
  SimWorld::SpawnOn(m, 0, [&] {
    Timer::Instance()->Start(1'000'000, [&] { fired_at = world.Now(); });
  });
  world.Run();
  EXPECT_GE(fired_at, 1'000'000u);
  EXPECT_LT(fired_at, 1'100'000u);  // fixed-cost mode: tight bound, no real-time noise
}

TEST(SimWorld, PeriodicTimerDeterministicTicks) {
  SimWorld world;
  Runtime& m = world.AddMachine("m", 1);
  int ticks = 0;
  SimWorld::SpawnOn(m, 0, [&] {
    std::uint64_t handle = Timer::Instance()->Start(
        100'000, [&ticks] { ++ticks; }, /*periodic=*/true);
    Timer::Instance()->Start(1'050'000, [handle] { Timer::Instance()->Stop(handle); });
  });
  world.Run();
  EXPECT_EQ(ticks, 10);  // fires at 100k..1000k, stopped at 1050k
}

TEST(SimWorld, TimerStopOnStaleHandleIsNoOpAfterSlotReuse) {
  SimWorld world;
  Runtime& m = world.AddMachine("m", 1);
  bool stale_fired = false;
  bool fresh_fired = false;
  SimWorld::SpawnOn(m, 0, [&] {
    Timer& timer = *Timer::Instance();
    std::uint64_t stale = timer.Start(1'000, [&stale_fired] { stale_fired = true; });
    timer.Stop(stale);
    // The freed slot is reused; the old handle must not reach the new timer.
    std::uint64_t fresh = timer.Start(2'000, [&fresh_fired] { fresh_fired = true; });
    EXPECT_NE(fresh, stale);
    timer.Stop(stale);
    EXPECT_EQ(timer.pending(), 1u);
  });
  world.Run();
  EXPECT_FALSE(stale_fired);
  EXPECT_TRUE(fresh_fired);
}

TEST(SimWorld, PeriodicTimerStopsItselfFromItsCallback) {
  SimWorld world;
  Runtime& m = world.AddMachine("m", 1);
  int ticks = 0;
  std::uint64_t handle = 0;
  std::size_t pending_after = ~std::size_t{0};
  SimWorld::SpawnOn(m, 0, [&] {
    handle = Timer::Instance()->Start(
        10'000,
        [&] {
          if (++ticks == 3) {
            Timer::Instance()->Stop(handle);
            pending_after = Timer::Instance()->pending();
          }
        },
        /*periodic=*/true);
  });
  world.Run();  // returns only once no timer is left armed
  EXPECT_EQ(ticks, 3);
  EXPECT_EQ(pending_after, 0u);
}

TEST(SimWorld, PeriodicCallbackStartingTimersRunsInPlace) {
  // Each tick starts enough one-shots to grow the slot table. The running callable (small
  // enough to live inline in its slot) must stay where it is and be intact after the Start
  // calls return.
  SimWorld world;
  Runtime& m = world.AddMachine("m", 1);
  constexpr int kPerTick = 40;
  constexpr int kTicks = 5;
  struct Ticker {
    const Ticker** home;
    int* ticks;
    int* fired;
    std::uint64_t* handle;
    std::uint64_t canary;
    void operator()() {
      if (*home == nullptr) {
        *home = this;
      }
      EXPECT_EQ(*home, this);
      for (int i = 0; i < kPerTick; ++i) {
        Timer::Instance()->Start(1'000 + i, [f = fired] { ++*f; });
      }
      EXPECT_EQ(canary, 0x5eed5eed5eed5eedu);
      if (++*ticks == kTicks) {
        Timer::Instance()->Stop(*handle);
      }
    }
  };
  const Ticker* home = nullptr;
  int ticks = 0;
  int fired = 0;
  std::uint64_t handle = 0;
  SimWorld::SpawnOn(m, 0, [&] {
    handle = Timer::Instance()->Start(
        10'000, Ticker{&home, &ticks, &fired, &handle, 0x5eed5eed5eed5eedu},
        /*periodic=*/true);
  });
  world.Run();
  EXPECT_EQ(ticks, kTicks);
  EXPECT_EQ(fired, kTicks * kPerTick);
}

TEST(SimWorld, TimersWithEqualDeadlinesFireInStartOrder) {
  SimWorld world;
  Runtime& m = world.AddMachine("m", 1);
  std::vector<int> order;
  SimWorld::SpawnOn(m, 0, [&] {
    Timer& timer = *Timer::Instance();
    std::vector<std::uint64_t> handles;
    for (int i = 0; i < 20; ++i) {
      handles.push_back(timer.Start(5'000, [&order, i] { order.push_back(i); }));
    }
    // Unlinking entries from the middle of the heap must not disturb the survivors' order.
    for (int i = 1; i < 20; i += 3) {
      timer.Stop(handles[i]);
    }
  });
  world.Run();
  std::vector<int> want;
  for (int i = 0; i < 20; ++i) {
    if (i % 3 != 1) {
      want.push_back(i);
    }
  }
  EXPECT_EQ(order, want);
}

TEST(SimWorld, TimerPendingDropsToZeroRightAfterStop) {
  SimWorld world;
  Runtime& m = world.AddMachine("m", 1);
  SimWorld::SpawnOn(m, 0, [] {
    Timer& timer = *Timer::Instance();
    std::uint64_t a = timer.Start(1'000'000, [] {});
    std::uint64_t b = timer.Start(2'000'000, [] {}, /*periodic=*/true);
    EXPECT_EQ(timer.pending(), 2u);
    timer.Stop(a);
    EXPECT_EQ(timer.pending(), 1u);
    timer.Stop(b);
    EXPECT_EQ(timer.pending(), 0u);
  });
  world.Run();
}

TEST(SimWorld, StoppedTimerDoesNotWakeHaltedCore) {
  // A Start+Stop'd timer leaves no deadline behind: the core halts with no wake-up at all,
  // exactly as if the timer had never been started.
  auto slices_for = [](bool start_and_stop) {
    SimWorld world;
    Runtime& m = world.AddMachine("m", 1);
    SimWorld::SpawnOn(m, 0, [start_and_stop] {
      if (start_and_stop) {
        Timer::Instance()->Stop(Timer::Instance()->Start(1'000'000, [] {}));
      }
    });
    world.Run();
    EXPECT_LT(world.Now(), 1'000'000u);
    return world.world_stats().slices;
  };
  EXPECT_EQ(slices_for(true), slices_for(false));
}

TEST(SimWorld, CrossMachineSpawnOrdering) {
  SimWorld world;
  Runtime& a = world.AddMachine("a", 1);
  Runtime& b = world.AddMachine("b", 1);
  std::vector<int> order;
  SimWorld::SpawnOn(a, 0, [&] { order.push_back(1); });
  SimWorld::SpawnOn(b, 0, [&] { order.push_back(2); });
  SimWorld::SpawnOn(a, 0, [&] { order.push_back(3); });
  world.Run();
  // Same-time wakes dispatch in schedule order (seq tiebreak); machine a drains both its
  // events in its first slice.
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 3);
  EXPECT_EQ(order[2], 2);
}

TEST(SimWorld, SpawnRemoteAcrossSimCores) {
  SimWorld world;
  Runtime& m = world.AddMachine("m", 4);
  std::vector<std::size_t> cores_seen;
  SimWorld::SpawnOn(m, 0, [&] {
    auto& em = event::Local();
    for (std::size_t c = 1; c < 4; ++c) {
      em.SpawnRemote([&cores_seen] { cores_seen.push_back(CurrentContext().machine_core); },
                     c);
    }
  });
  world.Run();
  ASSERT_EQ(cores_seen.size(), 3u);
  EXPECT_EQ(cores_seen[0], 1u);
  EXPECT_EQ(cores_seen[1], 2u);
  EXPECT_EQ(cores_seen[2], 3u);
}

TEST(SimWorld, ChargeAddsModeledCost) {
  SimWorld world;
  Runtime& m = world.AddMachine("m", 1);
  std::uint64_t t0 = 0;
  std::uint64_t t1 = 0;
  SimWorld::SpawnOn(m, 0, [&] {
    t0 = world.Now();
    world.Charge(12'345);
    t1 = world.Now();
  });
  world.Run();
  EXPECT_EQ(t1 - t0, 12'345u);
}

TEST(SimWorld, DeterministicRepeatRuns) {
  // Two identical fixed-cost runs produce identical event timestamps.
  auto run_once = [] {
    SimWorld world(700);
    Runtime& m = world.AddMachine("m", 2);
    std::vector<std::uint64_t> stamps;
    SimWorld::SpawnOn(m, 0, [&world, &stamps] {
      auto& em = event::Local();
      for (int i = 0; i < 5; ++i) {
        em.SpawnRemote([&world, &stamps] { stamps.push_back(world.Now()); }, 1);
      }
      Timer::Instance()->Start(50'000, [&world, &stamps] { stamps.push_back(world.Now()); });
    });
    world.Run();
    return stamps;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(SimWorld, BlockOnAcrossSimCores) {
  SimWorld world;
  Runtime& m = world.AddMachine("m", 2);
  int result = 0;
  SimWorld::SpawnOn(m, 0, [&result] {
    Promise<int> p;
    auto f = p.GetFuture();
    event::Local().SpawnRemote([p]() mutable { p.SetValue(99); }, 1);
    result = event::BlockOn(std::move(f));
  });
  world.Run();
  EXPECT_EQ(result, 99);
}

TEST(SimWorld, RunUntilStopsAtBoundary) {
  SimWorld world;
  bool early = false;
  bool late = false;
  world.At(1'000, [&early] { early = true; });
  world.At(10'000, [&late] { late = true; });
  bool quiescent = world.RunUntil(5'000);
  EXPECT_TRUE(early);
  EXPECT_FALSE(late);
  EXPECT_FALSE(quiescent);
  world.Run();
  EXPECT_TRUE(late);
}

TEST(SimWorld, IdleCallbackPollsUntilStopped) {
  SimWorld world;
  Runtime& m = world.AddMachine("m", 1);
  int polls = 0;
  SimWorld::SpawnOn(m, 0, [&polls] {
    auto& em = event::Local();
    struct Holder {
      std::unique_ptr<EventManager::IdleCallback> cb;
      int count = 0;
    };
    auto* h = new Holder();  // leaked intentionally; outlives the spawning event
    h->cb = std::make_unique<EventManager::IdleCallback>(em, [h, &polls] {
      ++polls;
      if (++h->count >= 5) {
        h->cb->Stop();
      }
    });
    h->cb->Start();
  });
  world.Run();
  EXPECT_EQ(polls, 5);
}

TEST(SimWorld, ShutdownUnwindsParkedCores) {
  auto world = std::make_unique<SimWorld>();
  Runtime& m = world->AddMachine("m", 2);
  SimWorld::SpawnOn(m, 0, [] {});
  world->Run();
  world->Shutdown();
  world.reset();  // no crash, no leaked running fibers
  SUCCEED();
}

TEST(SimWorld, ActionsAndCoreWakesAtOneTimeDispatchInSchedulingOrder) {
  SimWorld world(100);
  Runtime& a = world.AddMachine("a", 1);
  Runtime& b = world.AddMachine("b", 1);
  std::vector<std::string> log;
  std::uint64_t t = 0;
  // Core a halts with a far deadline; core b halts with its wake due at `t`, queued before
  // any action at `t`.
  SimWorld::SpawnOn(a, 0, [&] { Timer::Instance()->Start(50'000, [] {}); });
  SimWorld::SpawnOn(b, 0, [&] {
    t = world.Now() + 1'000;
    Timer::Instance()->Start(1'000, [&] { log.push_back("b-timer"); });
  });
  world.RunUntil(500);
  ASSERT_GT(t, 500u);
  world.At(t, [&] {
    log.push_back("x1");
    // Tightens core a's queued wake from its far deadline to `t`, behind x2 (already
    // queued at `t`) and ahead of x3 (queued after the tightening).
    SimWorld::SpawnOn(a, 0, [&] { log.push_back("a-spawn"); });
    world.At(t, [&] { log.push_back("x3"); });
  });
  world.At(t, [&] { log.push_back("x2"); });
  world.Run();
  EXPECT_EQ(log, (std::vector<std::string>{"b-timer", "x1", "x2", "a-spawn", "x3"}));
}

TEST(SimWorld, CalendarHoldsOneWakePerCore) {
  // The core halts 10,000 times with a far timer deadline pending, each time woken early by
  // a chain of actions (at most one queued at a time). Tightening re-keys the core's one
  // wake entry instead of adding another, so the calendar never holds more than the core's
  // wake plus the next action.
  SimWorld world;
  Runtime& m = world.AddMachine("m", 1);
  constexpr int kWakes = 10'000;
  int woken = 0;
  SimWorld::SpawnOn(m, 0, [] { Timer::Instance()->Start(1'000'000'000, [] {}); });
  std::function<void(int)> chain = [&](int left) {
    SimWorld::SpawnOn(m, 0, [&woken] { ++woken; });
    if (left > 1) {
      world.After(1'000, [&chain, left] { chain(left - 1); });
    }
  };
  world.At(1'000, [&chain] { chain(kWakes); });
  world.Run();
  EXPECT_EQ(woken, kWakes);
  EXPECT_LE(world.world_stats().calendar_peak, 2u);
}

TEST(SimWorld, ActionMayScheduleActionsAndThenShutDown) {
  SimWorld world;
  Runtime& m = world.AddMachine("m", 2);
  SimWorld::SpawnOn(m, 0, [] {});
  SimWorld::SpawnOn(m, 1, [] { Timer::Instance()->Start(1'000'000, [] {}); });
  auto alive = std::make_shared<int>(0);
  bool finished = false;
  bool queued_ran = false;
  world.At(1'000, [&] {
    // Enough actions to grow the slot table by several chunks while this one runs in place.
    for (int i = 0; i < 200; ++i) {
      world.After(100 + i, [&queued_ran, alive] { queued_ran = true; });
    }
    world.Shutdown();
    finished = true;
  });
  world.Run();
  EXPECT_TRUE(finished);
  EXPECT_FALSE(queued_ran);
  EXPECT_TRUE(world.stopped());
  EXPECT_EQ(alive.use_count(), 1);  // every queued action was destroyed by the shutdown
}

}  // namespace
}  // namespace ebbrt
