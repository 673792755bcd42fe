// Interconnect — lock-free per-core exchange-list mesh for cross-core dispatch.
//
// tab3 of the paper argues a library OS only beats a general-purpose stack if moving work
// between cores costs about as much as a virtual call. Every cross-core path (remote spawns,
// interrupt vectors, resumed contexts, RCU markers) rides one primitive, modeled on rabid's
// exchange-list interconnect:
//
//   * Messages are intrusive, directly-executable continuation nodes: `Fire(em)` runs the
//     work AND disposes the node, so delivery is one virtual call — no queue entry, no
//     closure copy, no second allocation.
//   * Each core owns one cache-line-aligned MPSC list head. Senders CAS-publish the node onto
//     the head (Treiber push); the receiver detaches the entire pending batch with a single
//     unconditional `exchange(nullptr)` and reverses it so delivery is FIFO per sender.
//   * A pointer-tagged sentinel (`kIdleTag`) encodes "receiver halted": the receiver
//     CAS-installs it just before Executor::Halt, and only the sender whose push displaces
//     the tag pays for a WakeCore. Every other push rides for free — the receiver is either
//     awake or already has a wake in flight. The receiver's next drain clears the tag as a
//     side effect of the exchange, so a spurious wake self-heals.
//
// Node memory comes from the routed carve, mem::AllocRoutedFor: the per-core
// GeneralPurposeAllocator when the caller has a machine context (a compile-time size-class
// pop — 0 heap allocs on the steady-state path), its counted std::malloc fallback otherwise
// (world actions, bring-up). Nodes embedded in long-lived objects (interrupt-vector
// entries, RCU epoch markers) bypass the allocator entirely: the message IS the object.
#ifndef EBBRT_SRC_EVENT_INTERCONNECT_H_
#define EBBRT_SRC_EVENT_INTERCONNECT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "src/core/runtime.h"
#include "src/event/executor.h"
#include "src/mem/gp_allocator.h"
#include "src/platform/debug.h"
#include "src/platform/spinlock.h"

namespace ebbrt {

class EventManager;
class Interconnect;

// One cross-core message: an intrusive list link plus two delivery verbs. Subclasses decide
// their own storage discipline — `Fire` executes on the target core and must dispose the
// node before (or as) it runs user work; `Discard` disposes without executing (teardown of a
// machine with undelivered nodes). Nodes allocated through Interconnect::New are returned to
// their arena or the heap by Interconnect::Delete; embedded nodes make both verbs no-op on
// storage.
class InterconnectNode {
 public:
  virtual void Fire(EventManager& em) = 0;
  virtual void Discard() = 0;

  InterconnectNode* next() const { return next_; }

 protected:
  InterconnectNode() = default;
  ~InterconnectNode() = default;  // non-virtual: disposal is each subclass's job

 private:
  friend class Interconnect;
  InterconnectNode* next_ = nullptr;
};

class Interconnect {
 public:
  Interconnect(Executor& executor, std::size_t num_cores);
  ~Interconnect();  // discards any undelivered nodes (repeatedly — a Discard may re-push)

  Interconnect(const Interconnect&) = delete;
  Interconnect& operator=(const Interconnect&) = delete;

  std::size_t num_cores() const { return lists_.size(); }

  // Publishes `node` onto `target_core`'s list. Callable from any thread/context. Wakes the
  // target only when the push displaced the idle sentinel; otherwise the receiver is awake
  // (or a wake is already in flight) and the node just joins the pending batch.
  void Push(std::size_t target_core, InterconnectNode* node);

  // Owner core only: detaches the whole pending batch in FIFO order (oldest first), or
  // nullptr when empty. Clears a leftover idle sentinel as a side effect, so it must run at
  // least once per dispatch pass before MarkIdle is attempted again.
  InterconnectNode* TakeBatch(std::size_t core);

  // Owner core only, immediately before Executor::Halt: declares the core idle. Returns
  // false when work arrived since the last TakeBatch — the caller must run another dispatch
  // pass instead of halting.
  bool MarkIdle(std::size_t core);

  // Per-core telemetry (relaxed counters; exact under SimWorld, monotonic under threads).
  std::uint64_t pushes(std::size_t core) const {
    return lists_[core].pushes.load(std::memory_order_relaxed);
  }
  // Pushes that displaced the idle sentinel and paid for a WakeCore.
  std::uint64_t wakeups(std::size_t core) const {
    return lists_[core].wakeups.load(std::memory_order_relaxed);
  }
  // Pushes that landed behind an already-pending node (the batch grew; wake elided).
  std::uint64_t batched(std::size_t core) const {
    return lists_[core].batched.load(std::memory_order_relaxed);
  }

  // Owner core only, after TakeBatch returned a batch: the push timestamp of the batch's
  // OLDEST node (the push that found the list empty), consumed on read (0 when unset). The
  // EventManager turns `drain time - this` into the queue-residency histogram.
  std::uint64_t TakeOldestPushNs(std::size_t core) {
    return lists_[core].oldest_push_ns.exchange(0, std::memory_order_relaxed);
  }

  // Allocates a node of concrete type T through the routed carve: a per-core slab pop when
  // the calling context has a GP allocator installed (the steady-state path: 0 heap allocs),
  // its std::malloc fallback otherwise, counted in mem::stats().heap_fallback_allocs.
  template <typename T, typename... Args>
  static T* New(Args&&... args) {
    return new (mem::AllocRoutedFor<sizeof(T)>()) T(std::forward<Args>(args)...);
  }

  // Destroys and frees a node obtained from New. Safe from any context: mem::FreeRouted
  // routes the block home (per-core fast path when the caller is a core of the owning
  // machine) or back to the heap. Returns whether the free took a lock (a large block's
  // remote free under the buddy's spinlock), which the dispatching core counts as a control
  // lock.
  template <typename T>
  static bool Delete(T* node) {
    node->~T();
    return mem::FreeRouted(node);
  }

 private:
  // The tag is an address no node can have (misaligned, page 0).
  static InterconnectNode* IdleTag() { return reinterpret_cast<InterconnectNode*>(1); }

  // Head states: IdleTag() = receiver halted, nothing pending (a push must wake);
  // nullptr = receiver active, nothing pending; anything else = pending LIFO chain.
  // The ctor stores IdleTag() into every head — cores are born halted (see interconnect.cc).
  struct alignas(kCacheLineSize) ExchangeList {
    std::atomic<InterconnectNode*> head{nullptr};
    std::atomic<std::uint64_t> pushes{0};
    std::atomic<std::uint64_t> wakeups{0};
    std::atomic<std::uint64_t> batched{0};
    // Executor timestamp of the push that started the current pending batch (found the
    // list empty/idle); cleared by the receiver via TakeOldestPushNs. Best-effort under
    // real threads, exact under SimWorld.
    std::atomic<std::uint64_t> oldest_push_ns{0};
  };

  Executor& executor_;
  std::vector<ExchangeList> lists_;
};

}  // namespace ebbrt

#endif  // EBBRT_SRC_EVENT_INTERCONNECT_H_
