#include "src/mem/phys_arena.h"

#include <sys/mman.h>

#include <mutex>

namespace ebbrt {

namespace {

// Slot bookkeeping for the process-wide reservation. Claims and releases are machine
// bring-up and teardown, never the datapath, so one mutex guards both the lazy reservation
// and the taken[] table.
std::mutex g_slots_mu;
bool g_slot_taken[kArenaSlots] = {};

// Maps [addr, addr + bytes) fresh: `prot` pages with no backing yet (MAP_NORESERVE), over
// whatever mapping was there (MAP_FIXED) when `addr` is non-null.
void* MapAnonymous(void* addr, std::size_t bytes, int prot) {
  int flags = MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | (addr != nullptr ? MAP_FIXED : 0);
  return mmap(addr, bytes, prot, flags, -1, 0);
}

std::size_t ClaimSlot() {
  std::lock_guard<std::mutex> lock(g_slots_mu);
  if (arena_internal::reservation_base.load(std::memory_order_relaxed) == 0) {
    void* base = MapAnonymous(nullptr, kArenaSlots * kArenaStride, PROT_NONE);
    Kbugon(base == MAP_FAILED, "PhysArena: reserving %zu arena slots failed", kArenaSlots);
    arena_internal::reservation_base.store(reinterpret_cast<std::uintptr_t>(base),
                                           std::memory_order_relaxed);
  }
  for (std::size_t slot = 0; slot < kArenaSlots; ++slot) {
    if (!g_slot_taken[slot]) {
      g_slot_taken[slot] = true;
      return slot;
    }
  }
  Kabort("PhysArena: more than %zu live machine arenas", kArenaSlots);
}

}  // namespace

PhysArena::PhysArena(std::size_t bytes, std::size_t numa_nodes) : nodes_(numa_nodes) {
  Kassert(numa_nodes >= 1, "PhysArena: need at least one node");
  pages_ = bytes >> kPageShift;
  Kassert(pages_ >= numa_nodes * (1u << kMaxOrder),
          "PhysArena: arena too small for one max-order block per node");
  Kbugon(this->bytes() > kArenaStride, "PhysArena: %zu bytes exceed the %zu-byte slot stride",
         this->bytes(), kArenaStride);
  slot_ = ClaimSlot();
  auto* slot_base = reinterpret_cast<std::uint8_t*>(
      arena_internal::reservation_base.load(std::memory_order_relaxed) +
      slot_ * kArenaStride);
  void* mapping = MapAnonymous(slot_base, this->bytes(), PROT_READ | PROT_WRITE);
  Kbugon(mapping == MAP_FAILED, "PhysArena: mmap of %zu pages failed", pages_);
  base_ = static_cast<std::uint8_t*>(mapping);
  pages_per_node_ = pages_ / nodes_;
  page_info_.resize(pages_);
}

PhysArena::~PhysArena() {
  // Back to PROT_NONE first, so the pages are returned and nothing can reach them, then
  // release the slot for the next machine.
  Kbugon(MapAnonymous(base_, bytes(), PROT_NONE) == MAP_FAILED,
         "PhysArena: unmapping slot %zu failed", slot_);
  std::lock_guard<std::mutex> lock(g_slots_mu);
  g_slot_taken[slot_] = false;
}

}  // namespace ebbrt
