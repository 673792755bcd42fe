// BufferPool — per-core recycling pool of fixed MTU-class network buffers (§3.4 applied to
// the datapath).
//
// The slab allocator already makes a short-lived buffer cheap (a per-core freelist pop); the
// pool makes the *hottest* buffers — RX frames posted to the NIC ring and TX segment
// head buffers — cost literally nothing in steady state: a frame is allocated once, rides
// the datapath as a refcounted IOBuf, and when its last view dies it snaps back onto the
// freelist of the core that owns it, headroom re-reserved, ready to be posted or filled
// again. No size-class lookup and no slab bookkeeping.
//
// Cross-core lifecycle: a frame is normally freed on the core that allocated it (RSS pins a
// connection's processing to one core), so the common path is lock-free. When a view does
// die elsewhere — a response retained by a connection on another core, a world action, late
// teardown — the dead block BECOMES an interconnect node: a BlockNode is placement-newed
// into the (dead) storage header and CAS-published onto the owner core's exchange list, so
// the return ride is the same lock-free mesh every other cross-core message takes. The
// owner's dispatch loop fires the node between events and the block snaps back onto its
// freelist — remote frees are recycled within one event boundary without any spinlock.
//
// Fixed cap: each core carves at most kPerCoreCap pooled blocks (256 blocks of 3 KiB, 64 B of
// headroom each) and recycles them from then on. The cap is a constant, not a policy: no
// Alloc on the repository benchmark's workloads reaches it (docs/ARCHITECTURE.md "Buffer
// lifecycle" has the numbers). Exhaustion is not an error either way: when a core holds no
// recycled block and has carved its cap, Alloc falls back to an ordinary slab-backed IOBuf
// (mem::stats().pool_misses ticks and that buffer simply returns to the slab when released).
#ifndef EBBRT_SRC_MEM_BUFFER_POOL_H_
#define EBBRT_SRC_MEM_BUFFER_POOL_H_

#include <atomic>
#include <cstdint>
#include <memory>

#include "src/core/multicore_ebb.h"
#include "src/core/runtime.h"
#include "src/iobuf/iobuf.h"
#include "src/platform/spinlock.h"

namespace ebbrt {

class BufferPool;

class BufferPoolRoot {
 public:
  BufferPoolRoot(Runtime& runtime, std::size_t num_cores);

  BufferPool& RepFor(std::size_t machine_core) { return reps_[machine_core]; }
  Runtime& runtime() { return runtime_; }

  // Installs a pool on `runtime` (requires mem::Install to have run) and adopts its
  // lifetime. The pool becomes reachable as Subsystem::kBufferPool.
  static void Install(Runtime& runtime, std::size_t num_cores);

  // Routes a released block back to its owner core — called by the IOBuf storage dispose
  // hook from ANY context. Same-core frees take the lock-free local path; everything else
  // rides the interconnect home as a BlockNode carved from the dead block itself.
  void Release(IOBuf::SharedStorage* storage);

 private:
  Runtime& runtime_;
  PerCore<BufferPool> reps_;
};

class alignas(kCacheLineSize) BufferPool {
 public:
  // Whole-block size, chosen to land exactly on a GP size class: the data area is
  // kBlockBytes - IOBuf::kStorageHeaderBytes (3008 B — an MTU frame plus headroom).
  static constexpr std::size_t kBlockBytes = 3072;
  static constexpr std::size_t kHeadroom = 64;  // pre-reserved for Ethernet/IP/TCP headers
  static constexpr std::size_t kPerCoreCap = 256;  // pooled blocks a core may carve

  BufferPool(BufferPoolRoot& root, std::size_t machine_core);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  // A recycled (or freshly carved) buffer with kHeadroom pre-reserved and an empty view —
  // CreateReserve semantics. Never fails: pool exhaustion falls back to the ordinary
  // slab-backed IOBuf path (pool_misses). Must run on this rep's core.
  std::unique_ptr<IOBuf> Alloc();

  // The current core's pool rep (nullptr when no pool subsystem is installed).
  static BufferPool* Local();

 private:
  friend class BufferPoolRoot;

  // A released block, linked through the first word of its (dead) SharedStorage header.
  struct FreeLink {
    FreeLink* next;
  };
  // A remotely-freed block in flight home: an interconnect node placement-newed into the
  // dead storage header (the block IS the message — no allocation, no lock).
  // Defined in the .cc.
  struct BlockNode;

  static void PoolDispose(IOBuf::SharedStorage* storage);

  void FreeLocal(void* block);    // owner core only: lock-free push
  void FreeRemote(void* block);   // any context: publish a BlockNode on the interconnect
  void ReturnToSlab(void* block); // any context: give the block back to the GP allocator

  BufferPoolRoot& root_;
  std::size_t machine_core_;
  FreeLink* freelist_ = nullptr;
  // Pooled blocks carved and not yet returned to the slab (bounds carving at kPerCoreCap).
  // Atomic because the no-event-plane fallback of FreeRemote retires a block from a foreign
  // context; every other access is owner-core-only, so relaxed ops cost nothing.
  std::atomic<std::size_t> outstanding_{0};
};

}  // namespace ebbrt

#endif  // EBBRT_SRC_MEM_BUFFER_POOL_H_
