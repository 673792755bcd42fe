// RCU for a non-preemptive event system (§3.6).
//
// "Due to the event-driven execution model of EbbRT, RCU is a natural primitive to provide.
// Because we lack preemption, entering and exiting RCU critical sections have no cost."
//
// A read-side critical section is any stretch of code within one event handler: handlers are
// never preempted and never migrate, so a reader observed "in" a structure is guaranteed out
// of it once its core dispatches the next event. A grace period therefore elapses once every
// core of the machine has passed an event boundary. CallRcu arranges exactly that — but
// instead of broadcasting one marker event per callback (N cores × M callbacks for an event
// that erases M entries), callbacks issued during one event COALESCE into a per-core batch
// that is flushed at the event's end-of-event hook as a single *epoch*: one heap object
// carrying the whole callback batch plus one embedded interconnect marker node per core.
// Each marker fires on its core's dispatch loop — by definition at an event boundary — and
// the last one to fire runs the batch and frees the epoch.
//
// Marker delivery: remote cores get the embedded node pushed onto the lock-free
// interconnect; the issuing core's own marker is queued as a local synthetic event, so it
// runs behind everything that core spawned before the epoch started (the ordering the
// deferred-reclamation tests pin).
//
// Readers: zero instructions. Updaters: one epoch per (core, event boundary) regardless of
// how many callbacks the event issued.
#ifndef EBBRT_SRC_RCU_RCU_H_
#define EBBRT_SRC_RCU_RCU_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

#include "src/core/runtime.h"
#include "src/platform/move_function.h"

namespace ebbrt {

class EventManagerRoot;

class RcuManagerRoot {
 public:
  explicit RcuManagerRoot(Runtime& runtime) : runtime_(runtime) {}

  // Runs `fn` after a grace period: once every core of this machine has passed an event
  // boundary. `fn` executes on whichever core completes the grace period (on its loop
  // stack — callbacks must not block). Callbacks issued during one event share one epoch,
  // flushed at the event's boundary. When the machine has no event loops (unit-test
  // contexts), `fn` runs immediately — there are no concurrent event-borne readers to wait
  // for.
  void CallRcu(MoveFunction<void()> fn);

  // The machine's RCU root, created on first use (Subsystem::kRcuManager).
  static RcuManagerRoot& For(Runtime& runtime);

  // Telemetry (pinned by tests): grace-period epochs started, callbacks accepted, and
  // callbacks that joined an already-open per-core batch instead of paying for their own
  // broadcast.
  std::uint64_t epochs_started() const {
    return epochs_.load(std::memory_order_relaxed);
  }
  std::uint64_t callbacks_queued() const {
    return callbacks_.load(std::memory_order_relaxed);
  }
  std::uint64_t callbacks_coalesced() const {
    return coalesced_.load(std::memory_order_relaxed);
  }
  // Epochs started on any machine and not yet completed: zero once every machine drained.
  static std::uint64_t epochs_in_flight() { return live_epochs_.load(std::memory_order_relaxed); }

 private:
  struct Epoch;         // defined in rcu.cc: callback batch + embedded per-core marker nodes
  struct CallbackNode;  // one queued callback, slab-carved (mem::AllocRouted), intrusively
                        // linked — a CallRcu on the datapath costs zero generic-heap allocs

  // Per-core pending batch, filled only by its own core between an event's first CallRcu
  // and the end-of-event flush. Fixed-size array so a hook can hold a stable pointer. The
  // batch is an intrusive FIFO of CallbackNodes (head/tail), not a vector: a vector's
  // storage is moved away at every flush, so each event's first callback would re-allocate
  // it — a steady per-op heap rate on write-heavy workloads that the item-plane gates
  // (fig13) now measure.
  struct alignas(64) CoreBatch {
    CallbackNode* head = nullptr;
    CallbackNode* tail = nullptr;
    bool hook_armed = false;
  };

  void StartEpoch(CallbackNode* head, EventManagerRoot& em_root);

  Runtime& runtime_;
  std::array<CoreBatch, kMaxCores> batches_;
  std::atomic<std::uint64_t> epochs_{0};
  std::atomic<std::uint64_t> callbacks_{0};
  std::atomic<std::uint64_t> coalesced_{0};
  static inline std::atomic<std::uint64_t> live_epochs_{0};
};

namespace rcu {
// Defers `fn` past a grace period on the current machine.
inline void Call(MoveFunction<void()> fn) {
  RcuManagerRoot::For(CurrentRuntime()).CallRcu(std::move(fn));
}
}  // namespace rcu

}  // namespace ebbrt

#endif  // EBBRT_SRC_RCU_RCU_H_
