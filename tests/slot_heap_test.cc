// SlotHeap tests: a seeded random sequence of push, re-key up and down, remove and pop
// checked against an ordered-set oracle, payload address stability while the table grows,
// and no allocation once the table and heap are warm.
#include "src/platform/slot_heap.h"

#include <cstdint>
#include <random>
#include <set>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "src/mem/gp_allocator.h"

namespace ebbrt {
namespace {

using Heap = SlotHeap<std::uint64_t>;
using OracleKey = std::tuple<std::uint64_t, std::uint64_t, std::uint32_t>;  // time, seq, slot

// Every queued slot's recorded position must lead back to its own key; every other slot
// must read as not queued; the top must be the oracle's least key.
void CheckAgainst(const Heap& heap, const std::set<OracleKey>& oracle,
                  const std::vector<bool>& acquired) {
  ASSERT_EQ(heap.size(), oracle.size());
  std::vector<const OracleKey*> by_slot(heap.slots(), nullptr);
  for (const OracleKey& key : oracle) {
    by_slot[std::get<2>(key)] = &key;
  }
  for (std::uint32_t slot = 0; slot < heap.slots(); ++slot) {
    const Heap::Key* found = heap.Find(slot);
    if (by_slot[slot] == nullptr) {
      EXPECT_EQ(found, nullptr) << "slot " << slot;
      continue;
    }
    ASSERT_NE(found, nullptr) << "slot " << slot;
    EXPECT_TRUE(acquired[slot]);
    EXPECT_EQ(OracleKey(found->time, found->seq, found->slot), *by_slot[slot]);
  }
  if (!oracle.empty()) {
    const Heap::Key& top = heap.top();
    EXPECT_EQ(OracleKey(top.time, top.seq, top.slot), *oracle.begin());
  }
}

TEST(SlotHeap, RandomOperationsMatchAnOrderedSet) {
  std::mt19937_64 rng(20161102);
  Heap heap;
  std::set<OracleKey> oracle;
  std::vector<bool> acquired;
  std::vector<std::uint32_t> held;  // acquired slots, queued or not
  std::uint64_t seq = 0;
  // Few distinct times so that ties (broken by seq) are common.
  auto time = [&rng] { return rng() % 64; };
  auto key_of = [&](std::uint32_t slot) {
    const Heap::Key* k = heap.Find(slot);
    return OracleKey(k->time, k->seq, k->slot);
  };
  for (int step = 0; step < 20'000; ++step) {
    int op = static_cast<int>(rng() % 6);
    if (op == 0 || held.empty()) {  // push a fresh slot
      std::uint32_t slot = heap.Acquire();
      heap[slot] = slot;
      if (slot >= acquired.size()) {
        acquired.resize(slot + 1);
      }
      ASSERT_FALSE(acquired[slot]);
      acquired[slot] = true;
      held.push_back(slot);
      std::uint64_t t = time();
      heap.Set(slot, t, seq);
      oracle.emplace(t, seq++, slot);
    } else {
      std::size_t i = rng() % held.size();
      std::uint32_t slot = held[i];
      bool queued = heap.Find(slot) != nullptr;
      if (op == 1 || op == 2) {  // re-key: down (later) or up (earlier), or re-queue
        std::uint64_t t = time();
        std::uint64_t s = seq++;
        if (queued) {
          auto [old_t, old_s, old_slot] = key_of(slot);
          oracle.erase(key_of(slot));
          t = op == 1 ? old_t + t : old_t - std::min(old_t, t);
          s = op == 1 ? s : old_s;  // an update may keep its seq (a periodic re-arm)
        }
        heap.Set(slot, t, s);
        oracle.emplace(t, s, slot);
      } else if (op == 3 && queued) {  // remove from the middle
        oracle.erase(key_of(slot));
        heap.Remove(slot);
      } else if (op == 4 && !heap.empty()) {  // pop the least
        OracleKey least = *oracle.begin();
        oracle.erase(oracle.begin());
        ASSERT_EQ(heap.Pop(), std::get<2>(least));
      } else if (op == 5 && !queued) {  // release an unqueued slot
        EXPECT_EQ(heap[slot], slot);
        acquired[slot] = false;
        held[i] = held.back();
        held.pop_back();
        heap.Release(slot);
      }
    }
    CheckAgainst(heap, oracle, acquired);
    if (HasFailure()) {
      FAIL() << "diverged at step " << step;
    }
  }
  // Drain: pops come out in exactly the oracle's (time, seq) order.
  while (!oracle.empty()) {
    ASSERT_EQ(heap.Pop(), std::get<2>(*oracle.begin()));
    oracle.erase(oracle.begin());
  }
  EXPECT_TRUE(heap.empty());
}

TEST(SlotHeap, PayloadsStayPutWhileTheTableGrows) {
  Heap heap;
  std::vector<std::uint64_t*> addresses;
  for (std::uint32_t i = 0; i < 1'000; ++i) {
    std::uint32_t slot = heap.Acquire();
    ASSERT_EQ(slot, i);
    heap[slot] = 0xc0ffee00u + i;
    heap.Set(slot, 1'000 - i, i);
    addresses.push_back(&heap[slot]);
    for (std::uint32_t j = 0; j <= i; j += 97) {
      ASSERT_EQ(&heap[j], addresses[j]);
      ASSERT_EQ(heap[j], 0xc0ffee00u + j);
    }
  }
  for (std::uint32_t i = 0; i < 1'000; ++i) {
    EXPECT_EQ(&heap[i], addresses[i]);
    EXPECT_EQ(heap[i], 0xc0ffee00u + i);
  }
}

TEST(SlotHeap, WarmTableAndHeapDoNotAllocate) {
  Heap heap;
  auto churn = [&heap] {
    std::vector<std::uint32_t> slots;
    slots.reserve(512);
    for (std::uint32_t i = 0; i < 512; ++i) {
      slots.push_back(heap.Acquire());
      heap.Set(slots.back(), (i * 7919u) % 1'000, i);
    }
    for (std::uint32_t i = 0; i < 512; i += 2) {
      heap.Set(slots[i], 5, i);  // re-key up
    }
    for (std::uint32_t i = 1; i < 512; i += 4) {
      heap.Remove(slots[i]);
      heap.Release(slots[i]);
    }
    while (!heap.empty()) {
      heap.Release(heap.Pop());
    }
  };
  churn();  // warm-up: the chunks, positions, free list and heap reach their depth
  auto& counter = mem::stats().generic_heap_allocs;
  std::uint64_t before = counter.load();
  churn();
  churn();
  // Only the test's own `slots` vector allocates (once per churn).
  EXPECT_EQ(counter.load() - before, 2u);
}

}  // namespace
}  // namespace ebbrt
