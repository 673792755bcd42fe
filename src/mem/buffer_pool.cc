#include "src/mem/buffer_pool.h"

#include <new>

#include "src/event/event_manager.h"
#include "src/event/interconnect.h"
#include "src/mem/gp_allocator.h"

namespace ebbrt {

// A remotely-freed block riding the interconnect home. The node is placement-newed into the
// dead SharedStorage header (sizeof(BlockNode) << IOBuf::kStorageHeaderBytes), so the block
// itself is the message: zero allocations, no lock.
// Fire runs on the owner core's loop — exactly where FreeLocal is legal.
struct BufferPool::BlockNode final : InterconnectNode {
  explicit BlockNode(BufferPool* p) : pool(p) {}
  void Fire(EventManager&) override {
    BufferPool* p = pool;
    void* block = this;
    this->~BlockNode();
    p->FreeLocal(block);
  }
  void Discard() override {
    // Machine teardown with the block still in flight: no loops left to deliver it, so hand
    // it straight back to the slab (FreeRouted works from any context).
    BufferPool* p = pool;
    void* block = this;
    this->~BlockNode();
    p->ReturnToSlab(block);
  }
  BufferPool* pool;
};

// Storage dispose hook for pooled blocks: the last view died — snap the block back to its
// owner core instead of the slab. free_arg carries the root, origin_core the owner.
void BufferPool::PoolDispose(IOBuf::SharedStorage* storage) {
  static_cast<BufferPoolRoot*>(storage->free_arg)->Release(storage);
}

static_assert(BufferPool::kBlockBytes > IOBuf::kStorageHeaderBytes + BufferPool::kHeadroom,
              "BufferPool: block too small for header + headroom");

BufferPoolRoot::BufferPoolRoot(Runtime& runtime, std::size_t num_cores)
    : runtime_(runtime), reps_(num_cores, [this](std::size_t i) {
        return std::make_unique<BufferPool>(*this, i);
      }) {}

void BufferPoolRoot::Install(Runtime& runtime, std::size_t num_cores) {
  Kassert(runtime.TryGetSubsystem<GeneralPurposeAllocatorRoot>(
              Subsystem::kGeneralPurposeAllocator) != nullptr,
          "BufferPoolRoot::Install: memory subsystem must be installed first");
  runtime.InstallSubsystem(Subsystem::kBufferPool,
                          std::make_shared<BufferPoolRoot>(runtime, num_cores));
}

void BufferPoolRoot::Release(IOBuf::SharedStorage* storage) {
  BufferPool& rep = RepFor(storage->origin_core);
  // The block leaves the datapath here, whichever route it takes home.
  mem::stats().pool_in_use.fetch_sub(1, std::memory_order_relaxed);
  if (HaveContext() && &CurrentRuntime() == &runtime_ &&
      CurrentContext().machine_core == storage->origin_core) {
    rep.FreeLocal(storage);
    return;
  }
  // A free routed home from another core/context.
  mem::stats().remote_frees.fetch_add(1, std::memory_order_relaxed);
  rep.FreeRemote(storage);
}

BufferPool* BufferPool::Local() {
  if (!HaveContext()) {
    return nullptr;
  }
  auto* root = CurrentRuntime().TryGetSubsystem<BufferPoolRoot>(Subsystem::kBufferPool);
  if (root == nullptr) {
    return nullptr;
  }
  return &root->RepFor(CurrentContext().machine_core);
}

BufferPool::BufferPool(BufferPoolRoot& root, std::size_t machine_core)
    : root_(root), machine_core_(machine_core) {}

std::unique_ptr<IOBuf> BufferPool::Alloc() {
  Kassert(HaveContext() && &CurrentRuntime() == &root_.runtime() &&
              CurrentContext().machine_core == machine_core_,
          "BufferPool::Alloc: wrong core");
  constexpr std::size_t kDataBytes = kBlockBytes - IOBuf::kStorageHeaderBytes;
  mem::Stats& stats = mem::stats();
  void* block = nullptr;
  if (freelist_ != nullptr) {
    block = freelist_;
    freelist_ = freelist_->next;
    stats.pool_hits.fetch_add(1, std::memory_order_relaxed);
  } else {
    // Remote frees arrive through the interconnect between events, so a dry freelist here
    // genuinely means no block is home yet — carve (or fall back), never lock.
    stats.pool_misses.fetch_add(1, std::memory_order_relaxed);
    if (outstanding_.load(std::memory_order_relaxed) < kPerCoreCap) {
      block = GeneralPurposeAllocator::Instance()->AllocFor<kBlockBytes>();
      if (block != nullptr) {
        outstanding_.fetch_add(1, std::memory_order_relaxed);
        // A carve is an IOBuf storage block taken from the slab — count it like every
        // other owned-storage allocation (the at-cap fallback below counts through
        // CreateReserve), so iobuf_allocs stays consistent across both miss paths.
        stats.iobuf_allocs.fetch_add(1, std::memory_order_relaxed);
        stats.iobuf_slab_allocs.fetch_add(1, std::memory_order_relaxed);
      }
    }
    if (block == nullptr) {
      // Pool at cap (or arena exhausted): an ordinary slab-backed buffer — it returns to
      // the slab, not the pool, when released. No failure surface.
      return IOBuf::CreateReserve(kDataBytes, kHeadroom);
    }
  }
  // Occupancy: one relaxed RMW beside the pool_hits/misses tick on this same stats line;
  // the hwm CAS only runs while a new process-wide peak is being set (ramp/burst).
  std::uint64_t in_use = stats.pool_in_use.fetch_add(1, std::memory_order_relaxed) + 1;
  std::uint64_t hwm = stats.pool_in_use_hwm.load(std::memory_order_relaxed);
  while (in_use > hwm &&
         !stats.pool_in_use_hwm.compare_exchange_weak(hwm, in_use, std::memory_order_relaxed)) {
  }
  auto* storage = new (block) IOBuf::SharedStorage;
  storage->buffer = static_cast<std::uint8_t*>(block) + IOBuf::kStorageHeaderBytes;
  storage->dispose = &PoolDispose;
  storage->free_fn = nullptr;
  storage->free_arg = &root_;
  storage->origin_core = static_cast<std::uint32_t>(machine_core_);
  return std::unique_ptr<IOBuf>(
      new IOBuf(storage->buffer, kDataBytes, storage->buffer + kHeadroom, 0, storage));
}

void BufferPool::FreeLocal(void* block) {
  // No bound check: only blocks carved under kPerCoreCap come home, so the freelist can
  // never outgrow the cap.
  auto* link = static_cast<FreeLink*>(block);
  link->next = freelist_;
  freelist_ = link;
}

void BufferPool::FreeRemote(void* block) {
  auto* em_root =
      root_.runtime().TryGetSubsystem<EventManagerRoot>(Subsystem::kEventManager);
  if (em_root == nullptr || machine_core_ >= em_root->interconnect().num_cores()) {
    // No event plane to deliver through (bare-root tests, late teardown): retire the block
    // to the slab instead of recycling it.
    ReturnToSlab(block);
    return;
  }
  // The dead block becomes its own message: one CAS publishes it onto the owner core's
  // exchange list; the owner's loop fires it back onto the freelist between events.
  static_assert(sizeof(BlockNode) <= IOBuf::kStorageHeaderBytes,
                "BlockNode must fit in the dead storage header");
  em_root->interconnect().Push(machine_core_, new (block) BlockNode(this));
}

void BufferPool::ReturnToSlab(void* block) {
  outstanding_.fetch_sub(1, std::memory_order_relaxed);
  Kassert(mem::FindOwningRoot(block) != nullptr, "BufferPool: pooled block outside any arena");
  mem::FreeRouted(block);
}

}  // namespace ebbrt
