// Interconnect tests — the lock-free exchange-list mesh under deterministic SimWorld time.
//
// These pin the four properties the cross-core ports rely on:
//   * delivery: an all-to-all fan-in race loses nothing and lands every node on its target
//     core (the CAS publish path, contended from every other core at once);
//   * ordering: FIFO per sender — the LIFO push + drain-time reversal must never reorder two
//     nodes from the same sender (RCU markers depend on this);
//   * wake elision: a burst at a halted core pays exactly one WakeCore — the push that
//     displaces the idle sentinel — and every other push rides for free;
//   * teardown: undelivered nodes are Discarded (not leaked, not Fired) when the machine
//     dies with work still in flight.
#include <array>
#include <atomic>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/event/event_manager.h"
#include "src/event/interconnect.h"
#include "src/event/sim_world.h"

namespace ebbrt {
namespace {

EventManagerRoot& EmRoot(Runtime& rt) {
  return rt.GetSubsystem<EventManagerRoot>(Subsystem::kEventManager);
}

TEST(Interconnect, FanInAllToAllDeliversEverything) {
  SimWorld world;
  Runtime& rt = world.AddMachine("mesh", 4);
  constexpr int kCores = 4;
  constexpr int kEach = 50;  // per (sender, target) pair
  auto arrived = std::make_shared<std::array<int, kCores>>();
  arrived->fill(0);
  auto wrong_core = std::make_shared<int>(0);
  for (int c = 0; c < kCores; ++c) {
    SimWorld::SpawnOn(rt, static_cast<std::size_t>(c), [&rt, arrived, wrong_core, c] {
      (void)rt;
      for (int t = 0; t < kCores; ++t) {
        if (t == c) {
          continue;
        }
        for (int i = 0; i < kEach; ++i) {
          event::Local().SpawnRemote(
              [arrived, wrong_core, t] {
                if (static_cast<int>(CurrentContext().machine_core) != t) {
                  ++*wrong_core;
                }
                ++(*arrived)[static_cast<std::size_t>(t)];
              },
              static_cast<std::size_t>(t));
        }
      }
    });
  }
  world.Run();
  EXPECT_EQ(*wrong_core, 0);
  for (int t = 0; t < kCores; ++t) {
    EXPECT_EQ((*arrived)[static_cast<std::size_t>(t)], (kCores - 1) * kEach)
        << "target core " << t;
  }
}

TEST(Interconnect, FifoPerSenderSurvivesConcurrentSenders) {
  SimWorld world;
  Runtime& rt = world.AddMachine("fifo", 4);
  constexpr int kMsgs = 100;
  // seqs[s] = the order in which core 0 observed sender s's messages.
  auto seqs = std::make_shared<std::array<std::vector<int>, 4>>();
  for (int s = 1; s <= 3; ++s) {
    SimWorld::SpawnOn(rt, static_cast<std::size_t>(s), [seqs, s] {
      for (int i = 0; i < kMsgs; ++i) {
        event::Local().SpawnRemote(
            [seqs, s, i] { (*seqs)[static_cast<std::size_t>(s)].push_back(i); }, 0);
      }
    });
  }
  world.Run();
  for (int s = 1; s <= 3; ++s) {
    auto& seq = (*seqs)[static_cast<std::size_t>(s)];
    ASSERT_EQ(seq.size(), static_cast<std::size_t>(kMsgs)) << "sender " << s;
    for (int i = 0; i < kMsgs; ++i) {
      ASSERT_EQ(seq[static_cast<std::size_t>(i)], i)
          << "sender " << s << " reordered at position " << i;
    }
  }
}

TEST(Interconnect, BurstAtHaltedCorePaysExactlyOneWakeup) {
  SimWorld world;
  Runtime& rt = world.AddMachine("burst", 1);
  EventManager& em = EmRoot(rt).RepFor(0);
  int ran = 0;
  // The world action runs with no machine context while core 0 has never been scheduled —
  // the mesh-level equivalent of a device bursting at a halted core. Only the push that
  // displaces the idle sentinel may pay for a wake.
  world.After(100, [&rt, &ran] {
    for (int i = 0; i < 100; ++i) {
      SimWorld::SpawnOn(rt, 0, [&ran] { ++ran; });
    }
  });
  world.Run();
  EXPECT_EQ(ran, 100);
  EventManager::Stats s = em.stats();
  EXPECT_EQ(s.xcore_pushes, 100u);
  EXPECT_EQ(s.xcore_spawns, 100u);
  EXPECT_EQ(s.xcore_wakeups, 1u);          // the sentinel-displacing push
  EXPECT_EQ(s.xcore_wakeups_elided, 99u);  // everyone else rode for free
  EXPECT_EQ(s.xcore_batches, 1u);          // one exchange drained the whole burst
  EXPECT_EQ(s.control_locks, 0u);          // heap-carved nodes free without a lock
}

// A node whose whole job is to record which disposal verb ran. Storage is the caller's —
// both verbs are storage no-ops, like every embedded node (VectorEntry, RCU Marker).
struct CountingNode final : InterconnectNode {
  void Fire(EventManager&) override { ++*fired; }
  void Discard() override { ++*discarded; }
  int* fired = nullptr;
  int* discarded = nullptr;
};

TEST(Interconnect, TeardownDiscardsUndeliveredNodes) {
  int fired = 0;
  int discarded = 0;
  std::array<CountingNode, 8> nodes;
  {
    SimWorld world;
    Runtime& rt = world.AddMachine("drain", 2);
    Interconnect& ic = EmRoot(rt).interconnect();
    for (CountingNode& node : nodes) {
      node.fired = &fired;
      node.discarded = &discarded;
      ic.Push(1, &node);
    }
    // No world.Run(): the machine tears down with every node still in flight.
  }
  EXPECT_EQ(fired, 0);      // teardown must not execute undelivered work...
  EXPECT_EQ(discarded, 8);  // ...but must dispose of every node exactly once
}

TEST(Interconnect, SecondBurstAfterQuiescencePaysItsOwnWakeup) {
  SimWorld world;
  Runtime& rt = world.AddMachine("requiesce", 1);
  EventManager& em = EmRoot(rt).RepFor(0);
  int ran = 0;
  // Two bursts separated by enough virtual time that the core drains, finds nothing, and
  // re-marks itself idle in between (well past the first burst's ~500ns-per-event slice —
  // a near gap would catch the core yielded-with-wake-in-flight, which rightly elides).
  // Each burst must pay exactly one wake.
  for (std::uint64_t at : {100u, 1'000'000u}) {
    world.At(at, [&rt, &ran] {
      for (int i = 0; i < 10; ++i) {
        SimWorld::SpawnOn(rt, 0, [&ran] { ++ran; });
      }
    });
  }
  world.Run();
  EXPECT_EQ(ran, 20);
  EventManager::Stats s = em.stats();
  EXPECT_EQ(s.xcore_pushes, 20u);
  EXPECT_EQ(s.xcore_wakeups, 2u);  // one sentinel displacement per burst
  EXPECT_EQ(s.xcore_wakeups_elided, 18u);
}

}  // namespace
}  // namespace ebbrt
