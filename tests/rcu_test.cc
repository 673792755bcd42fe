// RCU tests: grace-period semantics on both executors, hash table correctness under
// concurrent readers/writers, deferred reclamation safety.
#include <atomic>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "src/event/sim_world.h"
#include "src/event/thread_machine.h"
#include "src/rcu/rcu.h"
#include "src/rcu/rcu_hash_table.h"

namespace ebbrt {
namespace {

TEST(Rcu, CallbackRunsAfterAllCoresQuiesce) {
  SimWorld world;
  Runtime& m = world.AddMachine("m", 4);
  std::atomic<bool> reclaimed{false};
  std::atomic<int> readers_done{0};
  SimWorld::SpawnOn(m, 0, [&] {
    // Queue "reader" events on every core, then CallRcu: the callback must run only after
    // every core has dispatched past its pending events' boundaries.
    auto& em = event::Local();
    for (std::size_t c = 0; c < 4; ++c) {
      em.SpawnRemote([&readers_done] { readers_done.fetch_add(1); }, c);
    }
    rcu::Call([&] {
      reclaimed = true;
      // Every core already passed at least one boundary; pre-existing events are finished.
      EXPECT_EQ(readers_done.load(), 4);
    });
  });
  world.Run();
  EXPECT_TRUE(reclaimed.load());
}

TEST(Rcu, CallbacksIssuedInOneEventShareOneEpoch) {
  // Coalescing (interconnect PR): K CallRcu's inside one event must flush as ONE epoch —
  // one marker broadcast per (core, event boundary), not per callback — and every callback
  // still runs after the grace period, in FIFO order.
  SimWorld world;
  Runtime& m = world.AddMachine("coalesce", 4);
  constexpr int kCallbacks = 16;
  std::atomic<int> ran{0};
  std::vector<int> order;
  SimWorld::SpawnOn(m, 0, [&] {
    auto& rcu_root = RcuManagerRoot::For(CurrentRuntime());
    std::uint64_t epochs_before = rcu_root.epochs_started();
    std::uint64_t coalesced_before = rcu_root.callbacks_coalesced();
    for (int i = 0; i < kCallbacks; ++i) {
      rcu::Call([&, i] {
        ran.fetch_add(1);
        order.push_back(i);
      });
    }
    // Nothing flushed mid-event: the batch waits for this event's boundary.
    EXPECT_EQ(rcu_root.epochs_started(), epochs_before);
    EXPECT_EQ(rcu_root.callbacks_coalesced(), coalesced_before + kCallbacks - 1);
    event::Local().QueueEndOfEvent([&, epochs_before] {
      // Runs at the same boundary, after the RCU flush hook (FIFO hook order): exactly one
      // epoch was opened for the whole batch.
      EXPECT_EQ(RcuManagerRoot::For(CurrentRuntime()).epochs_started(),
                epochs_before + 1);
    });
  });
  world.Run();
  EXPECT_EQ(ran.load(), kCallbacks);
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kCallbacks));
  for (int i = 0; i < kCallbacks; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);  // batch preserves issue order
  }
}

TEST(Rcu, CallbacksRunInThreadMachineToo) {
  ThreadMachine machine(2);
  machine.Start();
  std::atomic<bool> ran{false};
  machine.RunSync(0, [&] { rcu::Call([&ran] { ran = true; }); });
  for (int i = 0; i < 200 && !ran.load(); ++i) {
    machine.RunSync(1, [] {});
  }
  EXPECT_TRUE(ran.load());
  machine.Shutdown();
}

TEST(Rcu, ImmediateWhenNoEventLoops) {
  Runtime rt(RuntimeKind::kNative, "bare");
  rt.AddCores(1);
  bool ran = false;
  RcuManagerRoot::For(rt).CallRcu([&ran] { ran = true; });
  EXPECT_TRUE(ran);
}

class RcuTableTest : public ::testing::Test {
 protected:
  RcuTableTest() : machine_(4) { machine_.Start(); }
  ~RcuTableTest() override { machine_.Shutdown(); }
  ThreadMachine machine_;
};

TEST_F(RcuTableTest, InsertFindErase) {
  machine_.RunSync(0, [&] {
    RcuHashTable<int, std::string> table(RcuManagerRoot::For(machine_.runtime()), 4);
    EXPECT_TRUE(table.Insert(1, "one"));
    EXPECT_TRUE(table.Insert(2, "two"));
    EXPECT_FALSE(table.Insert(1, "uno"));  // duplicate
    ASSERT_NE(table.Find(1), nullptr);
    EXPECT_EQ(*table.Find(1), "one");
    EXPECT_EQ(table.Find(3), nullptr);
    EXPECT_EQ(table.size(), 2u);
    EXPECT_TRUE(table.Erase(1));
    EXPECT_FALSE(table.Erase(1));
    EXPECT_EQ(table.Find(1), nullptr);
    EXPECT_EQ(table.size(), 1u);
  });
}

TEST_F(RcuTableTest, InsertOrReplaceSwapsValue) {
  machine_.RunSync(0, [&] {
    RcuHashTable<int, int> table(RcuManagerRoot::For(machine_.runtime()), 4);
    table.InsertOrReplace(7, 70);
    EXPECT_EQ(*table.Find(7), 70);
    table.InsertOrReplace(7, 71);
    EXPECT_EQ(*table.Find(7), 71);
    EXPECT_EQ(table.size(), 1u);
  });
}

TEST_F(RcuTableTest, ReplaceIfPresentRequiresTheKey) {
  machine_.RunSync(0, [&] {
    RcuHashTable<int, int> table(RcuManagerRoot::For(machine_.runtime()), 4);
    // Absent key: REPLACE must fail and must not insert.
    EXPECT_FALSE(table.ReplaceIfPresent(7, 70));
    EXPECT_EQ(table.Find(7), nullptr);
    EXPECT_EQ(table.size(), 0u);
    // Present key: swaps the value in place, size unchanged.
    EXPECT_TRUE(table.Insert(7, 70));
    EXPECT_TRUE(table.ReplaceIfPresent(7, 71));
    ASSERT_NE(table.Find(7), nullptr);
    EXPECT_EQ(*table.Find(7), 71);
    EXPECT_EQ(table.size(), 1u);
    // Deleted key stays deleted: REPLACE after Erase must not resurrect it.
    EXPECT_TRUE(table.Erase(7));
    EXPECT_FALSE(table.ReplaceIfPresent(7, 72));
    EXPECT_EQ(table.Find(7), nullptr);
  });
}

TEST_F(RcuTableTest, ReplaceIfPresentNeverResurrectsUnderChurn) {
  // The TOCTOU this API closes: the old store implemented REPLACE as Get-then-Set, so a
  // Delete between the two resurrected the key. Here cores race Delete against
  // ReplaceIfPresent on one key; after every round settles, the key must exist iff some
  // replace legitimately beat the delete — and once a round ends with the key deleted and
  // no writer in flight, a late ReplaceIfPresent must keep failing.
  auto table = std::make_shared<RcuHashTable<int, int>>(
      RcuManagerRoot::For(machine_.runtime()), 2);
  for (int round = 0; round < 200; ++round) {
    machine_.RunSync(0, [table] { table->InsertOrReplace(1, 10); });
    std::atomic<bool> replaced{false};
    std::atomic<bool> erased{false};
    machine_.Spawn(1, [table, &replaced] { replaced = table->ReplaceIfPresent(1, 11); });
    machine_.Spawn(2, [table, &erased] { erased = table->Erase(1); });
    machine_.RunSync(1, [] {});
    machine_.RunSync(2, [] {});
    EXPECT_TRUE(erased.load());  // the key existed at round start; exactly one erase wins
    machine_.RunSync(0, [table, &replaced] {
      if (replaced.load()) {
        // Replace won the race, then the erase removed the replacement: key gone either way.
      }
      EXPECT_EQ(table->Find(1), nullptr);
      // The key is now deleted with no writer in flight: replace must not resurrect it.
      EXPECT_FALSE(table->ReplaceIfPresent(1, 12));
      EXPECT_EQ(table->Find(1), nullptr);
    });
  }
  EXPECT_EQ(table->size(), 0u);
}

// Heterogeneous lookup needs is_transparent; at namespace scope, gcc no longer reports it
// as an unused local typedef.
struct TransparentHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const {
    return std::hash<std::string_view>{}(s);
  }
};

TEST_F(RcuTableTest, HeterogeneousFindNeedsNoKeyMaterialization) {
  machine_.RunSync(0, [&] {
    // string-keyed table probed with a string_view: the transparent Hash/Eq pair resolves
    // the lookup without constructing a std::string.
    RcuHashTable<std::string, int, TransparentHash> table(
        RcuManagerRoot::For(machine_.runtime()), 4);
    EXPECT_TRUE(table.Insert("alpha", 1));
    EXPECT_TRUE(table.Insert("beta", 2));
    std::string_view probe{"alpha"};
    ASSERT_NE(table.Find(probe), nullptr);
    EXPECT_EQ(*table.Find(probe), 1);
    EXPECT_EQ(table.Find(std::string_view{"gamma"}), nullptr);
  });
}

TEST_F(RcuTableTest, CollidingKeysShareBucket) {
  machine_.RunSync(0, [&] {
    // 2^0 = 1 bucket: every key collides; chain traversal must still be correct.
    RcuHashTable<int, int> table(RcuManagerRoot::For(machine_.runtime()), 0);
    for (int i = 0; i < 100; ++i) {
      EXPECT_TRUE(table.Insert(i, i * 10));
    }
    for (int i = 0; i < 100; ++i) {
      ASSERT_NE(table.Find(i), nullptr);
      EXPECT_EQ(*table.Find(i), i * 10);
    }
    for (int i = 0; i < 100; i += 2) {
      EXPECT_TRUE(table.Erase(i));
    }
    for (int i = 0; i < 100; ++i) {
      if (i % 2 == 0) {
        EXPECT_EQ(table.Find(i), nullptr);
      } else {
        ASSERT_NE(table.Find(i), nullptr);
      }
    }
  });
}

TEST_F(RcuTableTest, ForEachVisitsAll) {
  machine_.RunSync(0, [&] {
    RcuHashTable<int, int> table(RcuManagerRoot::For(machine_.runtime()), 3);
    for (int i = 0; i < 50; ++i) {
      table.Insert(i, i);
    }
    int sum = 0;
    table.ForEach([&sum](const int& /*key*/, const int& v) { sum += v; });
    EXPECT_EQ(sum, 49 * 50 / 2);
  });
}

TEST_F(RcuTableTest, ExtractClaimsValueExactlyOnce) {
  machine_.RunSync(0, [&] {
    RcuHashTable<int, std::shared_ptr<int>> table(RcuManagerRoot::For(machine_.runtime()),
                                                  4);
    table.Insert(5, std::make_shared<int>(50));
    std::shared_ptr<int> claimed;
    EXPECT_TRUE(table.Extract(5, &claimed));
    ASSERT_NE(claimed, nullptr);
    EXPECT_EQ(*claimed, 50);
    EXPECT_EQ(table.Find(5), nullptr);
    EXPECT_EQ(table.size(), 0u);
    // Second extract (a duplicate response, in RPC terms) finds nothing.
    std::shared_ptr<int> second;
    EXPECT_FALSE(table.Extract(5, &second));
    EXPECT_EQ(second, nullptr);
  });
}

TEST(RcuSim, EraseDefersReclamationPastTheReadersEvent) {
  // The epoch-reclamation ordering contract: a pointer obtained by Find stays valid for the
  // remainder of the observing event even when the node is erased underneath it, and the
  // node's storage is reclaimed only after every core passes an event boundary.
  SimWorld world;
  Runtime& m = world.AddMachine("epoch", 4);
  auto sentinel = std::make_shared<int>(7);
  std::weak_ptr<int> alive = sentinel;
  auto table = std::make_shared<RcuHashTable<int, std::shared_ptr<int>>>(
      RcuManagerRoot::For(m), 4);
  table->Insert(1, std::move(sentinel));
  bool checked_in_event = false;
  bool checked_after_grace = false;
  SimWorld::SpawnOn(m, 0, [&] {
    std::shared_ptr<int>* p = table->Find(1);
    ASSERT_NE(p, nullptr);
    EXPECT_TRUE(table->Erase(1));
    // Still inside the read-side section (this event): the erased node — and the value the
    // earlier Find returned — must be intact. The table no longer serves the key, but the
    // in-hand pointer does.
    EXPECT_EQ(table->Find(1), nullptr);
    EXPECT_FALSE(alive.expired());
    EXPECT_EQ(**p, 7);
    checked_in_event = true;
    // Order the post-grace check behind the erase's own reclamation: a second CallRcu's
    // markers queue behind the first's on every core, so by the time this callback runs,
    // the erased node has been deleted.
    rcu::Call([&] {
      EXPECT_TRUE(alive.expired());
      checked_after_grace = true;
    });
  });
  world.Run();
  EXPECT_TRUE(checked_in_event);
  EXPECT_TRUE(checked_after_grace);
}

TEST(RcuSim, StressReadersOnEveryCoreRaceInsertErase) {
  // Deterministic SimWorld stress: reader events on cores 1..3 scan the whole key range and
  // re-spawn themselves; core 0 churns erase/insert (and InsertOrReplace) between their
  // events. Invariants: a found value always matches its key (no torn node is ever visible),
  // and every deferred reclamation eventually runs (tracked via shared_ptr use counts).
  SimWorld world;
  Runtime& m = world.AddMachine("stress", 4);
  auto table = std::make_shared<RcuHashTable<int, std::shared_ptr<int>>>(
      RcuManagerRoot::For(m), 3);  // 8 buckets for 48 keys: heavy chains on purpose
  constexpr int kKeys = 48;
  constexpr int kWriterRounds = 40;
  auto live_values = std::make_shared<std::vector<std::weak_ptr<int>>>();
  for (int i = 0; i < kKeys; ++i) {
    auto value = std::make_shared<int>(i);
    live_values->push_back(value);
    table->Insert(i, std::move(value));
  }
  auto bad = std::make_shared<std::atomic<int>>(0);
  auto reads = std::make_shared<std::atomic<int>>(0);
  auto writer_done = std::make_shared<bool>(false);

  struct Reader {
    static void Run(std::shared_ptr<RcuHashTable<int, std::shared_ptr<int>>> t,
                    std::shared_ptr<std::atomic<int>> bad,
                    std::shared_ptr<std::atomic<int>> reads,
                    std::shared_ptr<bool> writer_done) {
      for (int i = 0; i < kKeys; ++i) {
        std::shared_ptr<int>* v = t->Find(i);
        if (v != nullptr && **v % kKeys != i) {
          bad->fetch_add(1);
        }
      }
      reads->fetch_add(1);
      if (!*writer_done) {
        event::Local().Spawn([t, bad, reads, writer_done] {
          Run(t, bad, reads, writer_done);
        });
      }
    }
  };
  for (std::size_t core = 1; core < 4; ++core) {
    SimWorld::SpawnOn(m, core, [table, bad, reads, writer_done] {
      Reader::Run(table, bad, reads, writer_done);
    });
  }

  struct Writer {
    static void Run(int round, std::shared_ptr<RcuHashTable<int, std::shared_ptr<int>>> t,
                    std::shared_ptr<std::vector<std::weak_ptr<int>>> live,
                    std::shared_ptr<bool> done) {
      if (round == kWriterRounds) {
        *done = true;
        return;
      }
      for (int i = round % 3; i < kKeys; i += 3) {
        t->Erase(i);
        auto value = std::make_shared<int>(i + kKeys * (round + 1));  // % kKeys == i
        live->push_back(value);
        t->Insert(i, std::move(value));
      }
      for (int i = (round + 1) % 5; i < kKeys; i += 5) {
        auto value = std::make_shared<int>(i + kKeys * (round + 7));
        live->push_back(value);
        t->InsertOrReplace(i, std::move(value));
      }
      event::Local().Spawn([round, t, live, done] { Run(round + 1, t, live, done); });
    }
  };
  SimWorld::SpawnOn(m, 0, [table, live_values, writer_done] {
    Writer::Run(0, table, live_values, writer_done);
  });

  world.Run();
  EXPECT_EQ(bad->load(), 0);
  EXPECT_GT(reads->load(), kWriterRounds);  // readers genuinely interleaved with the churn
  EXPECT_EQ(table->size(), static_cast<std::size_t>(kKeys));
  // Epoch-reclamation accounting: when the world quiesces, every value ever displaced by
  // Erase/InsertOrReplace has been reclaimed (its node deleted after a grace period); only
  // the final table contents survive.
  std::size_t alive = 0;
  for (const std::weak_ptr<int>& w : *live_values) {
    if (!w.expired()) {
      ++alive;
    }
  }
  EXPECT_EQ(alive, static_cast<std::size_t>(kKeys));
}

TEST_F(RcuTableTest, ConcurrentReadersDuringWrites) {
  // Readers on three cores hammer Find while core 0 churns insert/erase. RCU must keep every
  // observed pointer valid (we copy the value immediately — validity within the event).
  auto table = std::make_shared<RcuHashTable<int, int>>(
      RcuManagerRoot::For(machine_.runtime()), 6);
  constexpr int kKeys = 64;
  for (int i = 0; i < kKeys; ++i) {
    table->Insert(i, i);
  }
  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  std::atomic<int> reads{0};

  // Reader events re-spawn themselves until stopped.
  for (std::size_t core = 1; core < 4; ++core) {
    machine_.Spawn(core, [table, &stop, &bad, &reads] {
      struct Reader {
        static void Run(std::shared_ptr<RcuHashTable<int, int>> t, std::atomic<bool>* stop,
                        std::atomic<int>* bad, std::atomic<int>* reads) {
          for (int i = 0; i < kKeys; ++i) {
            int* v = t->Find(i);
            if (v != nullptr && *v != i) {
              bad->fetch_add(1);
            }
          }
          reads->fetch_add(1);
          if (!stop->load(std::memory_order_relaxed)) {
            event::Local().Spawn(
                [t, stop, bad, reads] { Run(t, stop, bad, reads); });
          }
        }
      };
      Reader::Run(table, &stop, &bad, &reads);
    });
  }
  // Writer: churn on core 0.
  for (int round = 0; round < 200; ++round) {
    machine_.RunSync(0, [table] {
      for (int i = 0; i < kKeys; i += 3) {
        table->Erase(i);
        table->Insert(i, i);
      }
    });
  }
  stop = true;
  for (int i = 0; i < 100 && reads.load() == 0; ++i) {
    machine_.RunSync(1, [] {});
  }
  EXPECT_EQ(bad.load(), 0);
  EXPECT_GT(reads.load(), 0);
}

}  // namespace
}  // namespace ebbrt
