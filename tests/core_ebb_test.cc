// Tests for the Ebb model: translation, per-core representatives, roots, hosted mode.
#include <array>
#include <atomic>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/ebb_allocator.h"
#include "src/core/ebb_ref.h"
#include "src/core/multicore_ebb.h"
#include "src/core/runtime.h"
#include "src/event/event_manager.h"
#include "src/event/thread_machine.h"

namespace ebbrt {
namespace {

// Counts constructions and destructions of T, so a test can prove a runtime frees what its
// fault handlers built.
template <typename T>
struct Census {
  Census() { constructed.fetch_add(1); }
  ~Census() { destroyed.fetch_add(1); }
  static inline std::atomic<int> constructed{0};
  static inline std::atomic<int> destroyed{0};
};

// A per-core counter Ebb with no root.
class Counter : public MulticoreEbb<Counter, void>, Census<Counter> {
 public:
  void Add(int n) { count_ += n; }
  int Get() const { return count_; }

 private:
  int count_ = 0;
};

// Per-core rep sharing a per-machine root that tallies rep constructions.
struct TallyRoot : Census<TallyRoot> {
  std::atomic<int> reps_created{0};
};

class Tally : public MulticoreEbb<Tally, TallyRoot>, Census<Tally> {
 public:
  explicit Tally(TallyRoot& root) : root_(root) { root.reps_created.fetch_add(1); }
  TallyRoot& root() { return root_; }

 private:
  TallyRoot& root_;
};

// Machine-wide shared Ebb.
class Registry : public SharedEbb<Registry>, Census<Registry> {
 public:
  void Put(int v) { values_.insert(v); }
  std::size_t Size() const { return values_.size(); }

 private:
  std::set<int> values_;
};

// A PerCore table's rep that logs the order the table builds reps in.
struct Slot : Census<Slot> {
  Slot(std::vector<std::size_t>& log, std::size_t index) : index(index) { log.push_back(index); }
  std::size_t index;
};

// A per-core Ebb whose reps a caller-installed root holds in a PerCore table. The root
// counts RepFor calls: the fault path's resolve step, which a cached rep skips.
struct LaneRoot;
class Lane : public RootedEbb<Lane, LaneRoot> {
 public:
  explicit Lane(std::size_t core) : core(core) {}
  std::size_t core;
};
struct LaneRoot {
  explicit LaneRoot(std::size_t cores)
      : reps(cores, [](std::size_t i) { return std::make_unique<Lane>(i); }) {}
  Lane& RepFor(std::size_t machine_core) {
    resolves.fetch_add(1);
    return reps[machine_core];
  }
  PerCore<Lane> reps;
  std::atomic<int> resolves{0};
};

// Machine-wide shared Ebb that every core calls at once: its one instance counts the calls.
class Hits : public SharedEbb<Hits> {
 public:
  void Add() { count_.fetch_add(1, std::memory_order_relaxed); }
  int Get() const { return count_.load(); }

 private:
  std::atomic<int> count_{0};
};

class EbbTest : public ::testing::Test {
 protected:
  void SetUp() override {
    runtime_ = std::make_unique<Runtime>(RuntimeKind::kNative, "test");
    first_core_ = runtime_->AddCores(4);
  }

  std::unique_ptr<Runtime> runtime_;
  std::size_t first_core_;
};

TEST_F(EbbTest, RepIsPerCore) {
  EbbRef<Counter> counter(kFirstStaticUserId);
  {
    ScopedContext ctx(*runtime_, first_core_, 0, false);
    counter->Add(5);
    EXPECT_EQ(counter->Get(), 5);
  }
  {
    ScopedContext ctx(*runtime_, first_core_ + 1, 1, false);
    EXPECT_EQ(counter->Get(), 0);  // fresh rep on another core
    counter->Add(7);
    EXPECT_EQ(counter->Get(), 7);
  }
  {
    ScopedContext ctx(*runtime_, first_core_, 0, false);
    EXPECT_EQ(counter->Get(), 5);  // first core's rep persisted
  }
}

TEST_F(EbbTest, FastPathReturnsSameRep) {
  EbbRef<Counter> counter(kFirstStaticUserId + 1);
  ScopedContext ctx(*runtime_, first_core_, 0, false);
  Counter* a = &counter.GetRep();
  Counter* b = &counter.GetRep();
  EXPECT_EQ(a, b);
}

TEST_F(EbbTest, RootSharedAcrossCores) {
  EbbRef<Tally> tally(kFirstStaticUserId + 2);
  TallyRoot* root = nullptr;
  for (int core = 0; core < 4; ++core) {
    ScopedContext ctx(*runtime_, first_core_ + core, core, false);
    TallyRoot& r = tally->root();
    if (root == nullptr) {
      root = &r;
    } else {
      EXPECT_EQ(root, &r);  // every rep sees the same machine root
    }
  }
  EXPECT_EQ(root->reps_created.load(), 4);
}

TEST_F(EbbTest, ExplicitRootInstall) {
  TallyRoot root;
  EbbRef<Tally> tally;
  {
    ScopedContext ctx(*runtime_, first_core_, 0, false);
    tally = Tally::Create(&root, kFirstStaticUserId + 3);
    tally->root();
  }
  EXPECT_EQ(root.reps_created.load(), 1);
}

TEST_F(EbbTest, SharedEbbSingleInstance) {
  EbbRef<Registry> reg(kFirstStaticUserId + 4);
  {
    ScopedContext ctx(*runtime_, first_core_, 0, false);
    reg->Put(1);
  }
  {
    ScopedContext ctx(*runtime_, first_core_ + 2, 2, false);
    reg->Put(2);
    EXPECT_EQ(reg->Size(), 2u);  // same instance seen from another core
  }
}

TEST_F(EbbTest, DistinctIdsDistinctReps) {
  EbbRef<Counter> a(kFirstStaticUserId + 5);
  EbbRef<Counter> b(kFirstStaticUserId + 6);
  ScopedContext ctx(*runtime_, first_core_, 0, false);
  a->Add(1);
  b->Add(2);
  EXPECT_EQ(a->Get(), 1);
  EXPECT_EQ(b->Get(), 2);
}

TEST_F(EbbTest, SeparateMachinesSeparateRoots) {
  Runtime other(RuntimeKind::kNative, "other");
  std::size_t other_core = other.AddCores(1);
  EbbRef<Tally> tally(kFirstStaticUserId + 7);
  TallyRoot* root_a;
  TallyRoot* root_b;
  {
    ScopedContext ctx(*runtime_, first_core_, 0, false);
    root_a = &tally->root();
  }
  {
    ScopedContext ctx(other, other_core, 0, false);
    root_b = &tally->root();
  }
  EXPECT_NE(root_a, root_b);  // per-machine roots, same EbbId (paper's shared namespace)
}

TEST_F(EbbTest, HostedModeTranslates) {
  Runtime hosted(RuntimeKind::kHosted, "frontend");
  std::size_t hcore = hosted.AddCores(2);
  EbbRef<Counter> counter(kFirstStaticUserId + 8);
  {
    ScopedContext ctx(hosted, hcore, 0, true);
    counter->Add(3);
    EXPECT_EQ(counter->Get(), 3);  // hash-cache hit returns the same rep
  }
  {
    ScopedContext ctx(hosted, hcore + 1, 1, true);
    EXPECT_EQ(counter->Get(), 0);  // still per-core reps in hosted mode
  }
}

TEST_F(EbbTest, EbbAllocatorUniqueIds) {
  ScopedContext ctx(*runtime_, first_core_, 0, false);
  auto allocator = EbbAllocator::Instance();
  std::set<EbbId> ids;
  for (int i = 0; i < 100; ++i) {
    ids.insert(allocator->AllocateLocal());
  }
  EXPECT_EQ(ids.size(), 100u);
  EXPECT_GE(*ids.begin(), kFirstFreeId);
}

TEST_F(EbbTest, EbbAllocatorGlobalBlock) {
  ScopedContext ctx(*runtime_, first_core_, 0, false);
  auto allocator = EbbAllocator::Instance();
  allocator->SetGlobalBlock(0x1000, 4);
  EXPECT_EQ(allocator->Allocate(), 0x1000u);
  EXPECT_EQ(allocator->Allocate(), 0x1001u);
  EXPECT_EQ(allocator->Allocate(), 0x1002u);
  EXPECT_EQ(allocator->Allocate(), 0x1003u);
  // Block exhausted: falls back to machine-local ids.
  EXPECT_GE(allocator->Allocate(), kFirstFreeId);
}

TEST_F(EbbTest, GlobalBlockDoubleInstallRejectedWhileLive) {
  ScopedContext ctx(*runtime_, first_core_, 0, false);
  auto allocator = EbbAllocator::Instance();
  EXPECT_TRUE(allocator->SetGlobalBlock(0x1000, 4));
  EXPECT_EQ(allocator->Allocate(), 0x1000u);
  EXPECT_EQ(allocator->Allocate(), 0x1001u);
  // Re-installing the SAME block is an idempotent no-op: the cursor does not rewind, so
  // already-issued ids are never handed out twice.
  EXPECT_TRUE(allocator->SetGlobalBlock(0x1000, 4));
  EXPECT_EQ(allocator->Allocate(), 0x1002u);
  // A DIFFERENT block while this one still has ids: rejected, allocation unaffected.
  EXPECT_FALSE(allocator->SetGlobalBlock(0x2000, 64));
  EXPECT_EQ(allocator->Allocate(), 0x1003u);
  // Drained, but overlapping the issued range: rejected — those ids are out in the world.
  EXPECT_FALSE(allocator->SetGlobalBlock(0x1000, 64));
  EXPECT_FALSE(allocator->SetGlobalBlock(0x0fff, 2));
  // Block drained: a disjoint new install is accepted and allocation continues from it.
  EXPECT_TRUE(allocator->SetGlobalBlock(0x2000, 64));
  EXPECT_EQ(allocator->Allocate(), 0x2000u);
  // The overlap check covers ALL previously installed blocks, not just the latest: after
  // draining 0x2000's block too, re-installing over the FIRST block is still rejected.
  for (int i = 0; i < 63; ++i) {
    allocator->Allocate();
  }
  EXPECT_FALSE(allocator->SetGlobalBlock(0x1000, 4));
  EXPECT_TRUE(allocator->SetGlobalBlock(0x4000 - 8, 8));
}

TEST_F(EbbTest, GlobalBlockExhaustionFallsBackToLocalIds) {
  ScopedContext ctx(*runtime_, first_core_, 0, false);
  auto allocator = EbbAllocator::Instance();
  EXPECT_TRUE(allocator->SetGlobalBlock(0x1800, 2));
  EXPECT_EQ(allocator->Allocate(), 0x1800u);
  EXPECT_EQ(allocator->Allocate(), 0x1801u);
  // Exhausted: machine-local ids take over; the machine keeps working standalone.
  EbbId local = allocator->Allocate();
  EXPECT_GE(local, kFirstFreeId);
  EXPECT_LT(local, 0x1800u);
}

TEST_F(EbbTest, IdsFromInstalledBlockResolve) {
  ScopedContext ctx(*runtime_, first_core_, 0, false);
  auto allocator = EbbAllocator::Instance();
  ASSERT_TRUE(allocator->SetGlobalBlock(0x3000, 8));
  // An id from the installed global block behaves exactly like any other EbbId: reps are
  // constructed per core through the ordinary fault path and cached for the fast path.
  EbbId id = allocator->Allocate();
  ASSERT_EQ(id, 0x3000u);
  EbbRef<Counter> counter(id);
  counter->Add(11);
  EXPECT_EQ(counter->Get(), 11);
  Counter* rep = &counter.GetRep();
  EXPECT_EQ(rep, &counter.GetRep());  // cached: the fast path resolves it now
  {
    ScopedContext other(*runtime_, first_core_ + 1, 1, false);
    EXPECT_EQ(counter->Get(), 0);  // still a per-core Ebb on its new id
  }
}

TEST_F(EbbTest, ConcurrentFaultsOneRootManyReps) {
  EbbRef<Tally> tally(kFirstStaticUserId + 9);
  std::vector<std::thread> threads;
  std::atomic<TallyRoot*> seen_root{nullptr};
  std::atomic<bool> mismatch{false};
  for (int core = 0; core < 4; ++core) {
    threads.emplace_back([&, core] {
      ScopedContext ctx(*runtime_, first_core_ + core, core, false);
      TallyRoot& r = tally->root();
      TallyRoot* expected = nullptr;
      if (!seen_root.compare_exchange_strong(expected, &r)) {
        if (expected != &r) {
          mismatch = true;
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_FALSE(mismatch.load());
  EXPECT_EQ(seen_root.load()->reps_created.load(), 4);
}

TEST(PerCoreTable, BuildsEveryRepOnceInIndexOrderWithTheTable) {
  const int built_before = Census<Slot>::constructed;
  const int live_before = built_before - Census<Slot>::destroyed;
  std::vector<std::size_t> log;
  {
    PerCore<Slot> table(4, [&](std::size_t i) { return std::make_unique<Slot>(log, i); });
    EXPECT_EQ(log, (std::vector<std::size_t>{0, 1, 2, 3}));
    ASSERT_EQ(table.size(), 4u);
    for (std::size_t i = 0; i < table.size(); ++i) {
      EXPECT_EQ(table[i].index, i);
      EXPECT_EQ(&table[i], &table[i]);
    }
    EXPECT_NE(&table[0], &table[1]);
    EXPECT_EQ(Census<Slot>::constructed - built_before, 4);  // lookups build nothing
  }
  EXPECT_EQ(Census<Slot>::constructed - Census<Slot>::destroyed, live_before);
}

TEST(RootedEbbTest, OneRepPerCoreResolvedOnceOnNativeAndHosted) {
  // Repeated calls on a core return the same rep, each core gets its own, and the root is
  // asked once per core: a native core caches the rep in its translation table, a hosted
  // core in its runtime's per-core hash map, and later calls read it from there.
  constexpr EbbId kLane = kFirstStaticUserId + 30;
  for (RuntimeKind kind : {RuntimeKind::kNative, RuntimeKind::kHosted}) {
    Runtime runtime(kind, "rooted");
    std::size_t first = runtime.AddCores(3);
    LaneRoot root(3);
    runtime.InstallRoot(kLane, &root);
    EbbRef<Lane> lane(kLane);
    std::set<Lane*> reps;
    for (std::size_t core = 0; core < 3; ++core) {
      ScopedContext ctx(runtime, first + core, core, runtime.hosted());
      Lane* rep = &lane.GetRep();
      EXPECT_EQ(rep, &lane.GetRep());
      EXPECT_EQ(rep, &lane.GetRep());
      EXPECT_EQ(rep->core, core);
      reps.insert(rep);
    }
    EXPECT_EQ(reps.size(), 3u);
    EXPECT_EQ(root.resolves.load(), 3);
  }
}

TEST(HostedEbbTest, FourCoresFaultInAndCallEveryShapeAtOnce) {
  // A hosted core translates through its own hash map and takes no lock. Four threads, each
  // running as one core of a hosted machine, are released together and fault in and call a
  // MulticoreEbb, a SharedEbb and a RootedEbb many times: each per-core shape ends with one
  // rep per core, the shared Ebb with one instance, and the root is asked once per core.
  constexpr std::size_t kCores = 4;
  constexpr int kCalls = 20000;
  constexpr EbbId kLane = kFirstStaticUserId + 40;
  Runtime hosted(RuntimeKind::kHosted, "hosted4");
  std::size_t first = hosted.AddCores(kCores);
  LaneRoot lanes(kCores);
  hosted.InstallRoot(kLane, &lanes);
  EbbRef<Counter> counter(kFirstStaticUserId + 41);
  EbbRef<Tally> tally(kFirstStaticUserId + 42);
  EbbRef<Hits> hits(kFirstStaticUserId + 43);
  EbbRef<Lane> lane(kLane);

  // What each core saw; written only by its own thread, read after the join.
  struct Seen {
    Counter* counter = nullptr;
    Tally* tally = nullptr;
    Hits* hits = nullptr;
    Lane* lane = nullptr;
    int count = 0;
    bool stable = true;  // every call on the core returned the rep its first call did
  };
  std::array<Seen, kCores> seen;
  std::atomic<bool> start{false};
  std::vector<std::thread> threads;
  for (std::size_t core = 0; core < kCores; ++core) {
    threads.emplace_back([&, core] {
      ScopedContext ctx(hosted, first + core, core, true);
      while (!start.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      Seen& s = seen[core];
      s.counter = &counter.GetRep();
      s.tally = &tally.GetRep();
      s.hits = &hits.GetRep();
      s.lane = &lane.GetRep();
      for (int i = 0; i < kCalls; ++i) {
        counter->Add(1);
        hits->Add();
        s.stable &= &counter.GetRep() == s.counter && &tally.GetRep() == s.tally &&
                    &hits.GetRep() == s.hits && &lane.GetRep() == s.lane;
      }
      s.count = counter->Get();
    });
  }
  start.store(true, std::memory_order_release);
  for (auto& t : threads) {
    t.join();
  }

  std::set<Counter*> counters;
  std::set<Tally*> tallies;
  std::set<Lane*> lane_reps;
  for (std::size_t core = 0; core < kCores; ++core) {
    const Seen& s = seen[core];
    EXPECT_TRUE(s.stable) << "core " << core;
    EXPECT_EQ(s.count, kCalls) << "core " << core;
    EXPECT_EQ(s.hits, seen[0].hits) << "core " << core;
    EXPECT_EQ(&s.tally->root(), &seen[0].tally->root()) << "core " << core;
    EXPECT_EQ(s.lane->core, core);
    counters.insert(s.counter);
    tallies.insert(s.tally);
    lane_reps.insert(s.lane);
  }
  EXPECT_EQ(counters.size(), kCores);
  EXPECT_EQ(tallies.size(), kCores);
  EXPECT_EQ(lane_reps.size(), kCores);
  EXPECT_EQ(seen[0].tally->root().reps_created.load(), static_cast<int>(kCores));
  EXPECT_EQ(seen[0].hits->Get(), static_cast<int>(kCores) * kCalls);
  EXPECT_EQ(lanes.resolves.load(), static_cast<int>(kCores));
}

// Live objects of each Ebb type: constructions minus destructions.
struct Live {
  int counter = Census<Counter>::constructed - Census<Counter>::destroyed;
  int tally = Census<Tally>::constructed - Census<Tally>::destroyed;
  int tally_root = Census<TallyRoot>::constructed - Census<TallyRoot>::destroyed;
  int registry = Census<Registry>::constructed - Census<Registry>::destroyed;
};

TEST(EbbTeardown, RuntimeFreesWhatFaultHandlersBuilt) {
  // Every rep and root a fault handler builds belongs to the runtime it was built on: a
  // native and a hosted machine each fault in two cores' worth of every Ebb shape, and once
  // both runtimes are gone every one of those objects has been destroyed.
  const Live before;
  {
    Runtime native(RuntimeKind::kNative, "native");
    Runtime hosted(RuntimeKind::kHosted, "hosted");
    for (Runtime* runtime : {&native, &hosted}) {
      std::size_t first = runtime->AddCores(2);
      for (std::size_t core = 0; core < 2; ++core) {
        ScopedContext ctx(*runtime, first + core, core, runtime->hosted());
        EbbRef<Counter>(kFirstStaticUserId + 20)->Add(1);
        EbbRef<Tally>(kFirstStaticUserId + 21)->root();
        EbbRef<Registry>(kFirstStaticUserId + 22)->Put(static_cast<int>(core));
      }
    }
    const Live during;
    EXPECT_EQ(during.counter - before.counter, 4);  // one rep per core per machine
    EXPECT_EQ(during.tally - before.tally, 4);
    EXPECT_EQ(during.tally_root - before.tally_root, 2);  // one root per machine
    EXPECT_EQ(during.registry - before.registry, 2);
  }
  const Live after;
  EXPECT_EQ(after.counter, before.counter);
  EXPECT_EQ(after.tally, before.tally);
  EXPECT_EQ(after.tally_root, before.tally_root);
  EXPECT_EQ(after.registry, before.registry);
}

TEST(EbbTeardown, CallerInstalledRootOutlivesTheRuntime) {
  // A root installed with Create stays its caller's: the runtime frees the reps it built
  // over that root and leaves the root alone.
  const Live before;
  TallyRoot root;
  {
    Runtime runtime(RuntimeKind::kNative, "owner");
    std::size_t core = runtime.AddCores(1);
    ScopedContext ctx(runtime, core, 0, false);
    EbbRef<Tally> tally = Tally::Create(&root, kFirstStaticUserId + 23);
    EXPECT_EQ(&tally->root(), &root);
  }
  const Live after;
  EXPECT_EQ(after.tally, before.tally);             // the rep was freed
  EXPECT_EQ(after.tally_root, before.tally_root + 1);  // the caller's root still lives
  EXPECT_EQ(root.reps_created.load(), 1);
}

// A subsystem that logs its id when destroyed.
struct Logged : Census<Logged> {
  Logged(std::vector<int>& log, int id) : log(log), id(id) {}
  ~Logged() { log.push_back(id); }
  std::vector<int>& log;
  int id;
};

TEST(EbbTeardown, GetOrCreateSubsystemBuildsOnce) {
  std::vector<int> log;  // outlives the runtime, which destroys the subsystem into it
  Runtime runtime(RuntimeKind::kNative, "owner");
  int built = 0;
  auto factory = [&] {
    ++built;
    return std::make_shared<Logged>(log, 1);
  };
  Logged& first = runtime.GetOrCreateSubsystem<Logged>(Subsystem::kRcuManager, factory);
  Logged& second = runtime.GetOrCreateSubsystem<Logged>(Subsystem::kRcuManager, factory);
  EXPECT_EQ(&first, &second);
  EXPECT_EQ(built, 1);
  EXPECT_EQ(runtime.TryGetSubsystem<Logged>(Subsystem::kRcuManager), &first);
}

TEST(EbbTeardown, RuntimeDestroysSubsystemsInReverseCreationOrder) {
  // A subsystem a factory builds on the way (as the Messenger builds the network stack)
  // is created first, so it outlives the one that depends on it.
  const int live_before = Census<Logged>::constructed - Census<Logged>::destroyed;
  std::vector<int> log;
  {
    Runtime runtime(RuntimeKind::kNative, "owner");
    runtime.GetOrCreateSubsystem<Logged>(Subsystem::kRcuManager,
                                         [&] { return std::make_shared<Logged>(log, 1); });
    runtime.GetOrCreateSubsystem<Logged>(Subsystem::kMessenger, [&] {
      runtime.GetOrCreateSubsystem<Logged>(Subsystem::kNetworkManager,
                                           [&] { return std::make_shared<Logged>(log, 2); });
      return std::make_shared<Logged>(log, 3);
    });
    EXPECT_EQ(Census<Logged>::constructed - Census<Logged>::destroyed, live_before + 3);
    EXPECT_TRUE(log.empty());
  }
  EXPECT_EQ(log, (std::vector<int>{3, 2, 1}));
  EXPECT_EQ(Census<Logged>::constructed - Census<Logged>::destroyed, live_before);
}

TEST(EbbTeardown, ThreadMachineClearsTheEventManagerSlotBeforeSubsystemsDie) {
  // A ThreadMachine's event-manager root dies before its runtime, and so before every
  // subsystem the runtime adopted: their destructors must find the slot empty (no event
  // loops), not pointing at the freed root. The probe reads the pointer and nothing more.
  struct Probe {
    Probe(Runtime& runtime, bool& cleared) : runtime(runtime), cleared(cleared) {}
    ~Probe() {
      cleared = runtime.TryGetSubsystem<EventManagerRoot>(Subsystem::kEventManager) == nullptr;
    }
    Runtime& runtime;
    bool& cleared;
  };
  bool cleared = false;
  {
    ThreadMachine machine(1);
    Runtime& runtime = machine.runtime();
    EXPECT_NE(runtime.TryGetSubsystem<EventManagerRoot>(Subsystem::kEventManager), nullptr);
    runtime.GetOrCreateSubsystem<Probe>(
        Subsystem::kRcuManager, [&] { return std::make_shared<Probe>(runtime, cleared); });
    machine.Start();
  }
  EXPECT_TRUE(cleared);
}

}  // namespace
}  // namespace ebbrt
