// EventManager — per-core, non-preemptive event dispatch (paper §2.3 / §3.2).
//
// One representative per core. A core's loop dispatches, in priority order:
//
//   1. due timer callbacks (the "enable then disable interrupts" window of the paper's
//      protocol),
//   2. the cross-core interconnect batch — pending interrupt vectors, remote spawns, and
//      resumed contexts, in per-sender FIFO order (our stand-in for IPIs),
//   3. exactly ONE synthetic event,
//   4. all registered IdleCallbacks,
//
// and restarts from the top whenever any step ran a handler, so interrupts and synthetic
// events always take priority over repeatedly-invoked idle handlers; only when a full pass
// runs nothing does the core "enable interrupts and halt" (Executor::Halt) — after
// CAS-publishing the interconnect's idle sentinel, so a sender racing the halt either gets
// observed in one more pass or sees the sentinel and wakes the core.
//
// Every handler runs on a pooled event stack (fiber). A handler that must wait for
// asynchronous work calls SaveContext(ctx) — its stack and callee-saved registers freeze
// inside ctx and the loop continues with other events on a fresh activation. ActivateContext
// re-queues the frozen context; the loop switches back into it as if the save had just
// returned. This is the paper's hybrid stack-ripping escape hatch, used to give ported
// software familiar blocking semantics.
//
// Because handlers are never preempted and never migrate, all per-core state in this class is
// plain (non-atomic). Cross-core traffic arrives exclusively through the lock-free
// Interconnect — no spinlock is taken anywhere on the steady-state dispatch path.
#ifndef EBBRT_SRC_EVENT_EVENT_MANAGER_H_
#define EBBRT_SRC_EVENT_EVENT_MANAGER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/ebb_id.h"
#include "src/core/ebb_ref.h"
#include "src/core/multicore_ebb.h"
#include "src/core/runtime.h"
#include "src/event/executor.h"
#include "src/event/interconnect.h"
#include "src/obs/histogram.h"
#include "src/platform/fiber.h"
#include "src/platform/move_function.h"
#include "src/platform/ring_queue.h"
#include "src/platform/spinlock.h"

namespace ebbrt {

class EventManager;

// Frozen state of a blocked event (opaque to users; see SaveContext/ActivateContext).
class EventContext {
 public:
  EventContext() = default;
  EventContext(EventContext&& other) noexcept { *this = std::move(other); }
  EventContext& operator=(EventContext&& other) noexcept {
    sp_ = other.sp_;
    stack_ = std::move(other.stack_);
    other.sp_ = nullptr;
    return *this;
  }
  bool valid() const { return sp_ != nullptr; }

 private:
  friend class EventManager;
  void* sp_ = nullptr;
  std::unique_ptr<FiberStack> stack_;
};

class EventManagerRoot {
 public:
  EventManagerRoot(Executor& executor, std::size_t num_cores);

  EventManager& RepFor(std::size_t machine_core) { return reps_[machine_core]; }
  Executor& executor() { return executor_; }
  std::size_t num_cores() const { return reps_.size(); }
  // The machine's cross-core mesh. Subsystems with their own node types (RCU epoch markers)
  // push here directly.
  Interconnect& interconnect() { return interconnect_; }

 private:
  Executor& executor_;
  PerCore<EventManager> reps_;
  // Declared last => destroyed first: the teardown drain Discards undelivered nodes while
  // the reps (whose vector entries are embedded nodes) are still alive.
  Interconnect interconnect_;
};

// Every core's representative is built with the root at machine bring-up.
class EventManager : public RootedEbb<EventManager, EventManagerRoot> {
 public:
  static EbbRef<EventManager> Instance() { return EbbRef<EventManager>(kEventManagerId); }

  EventManager(EventManagerRoot& root, Executor& executor, std::size_t machine_core);
  ~EventManager();

  // --- Spawning ---------------------------------------------------------------------------
  // Queues `fn` as a synthetic event on this core. Spawned events run exactly once.
  void Spawn(MoveFunction<void()> fn);
  // Queues `fn` on another core of this machine (cross-core safe).
  void SpawnRemote(MoveFunction<void()> fn, std::size_t machine_core);

  // --- Interrupt vectors --------------------------------------------------------------------
  // Devices allocate a vector and bind a persistent handler (paper: "Devices can allocate a
  // hardware interrupt from the EventManager and then bind a handler to that interrupt").
  std::uint32_t AllocateVector(MoveFunction<void()> handler);
  // Fires a vector on this core. Safe from any thread: the raiser bumps the entry's pending
  // count and only the 0->1 transition publishes the (embedded) node — no lock, no
  // allocation, coalesced redelivery. The handler is invoked from the event loop with
  // interrupts (conceptually) disabled.
  void RaiseVector(std::uint32_t vector);

  // x86-flavored fixed table: vectors 0-31 reserved, 32-255 allocatable.
  static constexpr std::uint32_t kNumVectors = 256;

  // --- Idle callbacks -----------------------------------------------------------------------
  // Recurring handler invoked on every idle pass (adaptive polling builds on this).
  class IdleCallback {
   public:
    IdleCallback(EventManager& em, MoveFunction<void()> fn)
        : em_(em), fn_(std::move(fn)) {}
    ~IdleCallback();
    void Start();
    void Stop();
    bool started() const { return started_; }

   private:
    friend class EventManager;
    EventManager& em_;
    MoveFunction<void()> fn_;
    bool started_ = false;
    std::size_t index_ = 0;  // position in em_.idle_callbacks_ while started (O(1) Stop)
  };

  // --- End-of-event hooks -------------------------------------------------------------------
  // Queues `fn` to run once, when the currently-dispatching event hands control back to this
  // core's loop (on completion or on SaveContext suspension) — after the handler, before the
  // next event and before any IdleCallback gets a turn. This is the event-boundary flush
  // point the TX batcher and the RCU epoch coalescer build on: work accumulated during one
  // event dispatch is emitted exactly once, at its edge. Hooks run on the loop stack, not on
  // an event stack, so they must run to completion (no SaveContext). A hook queued by
  // another hook runs in the same boundary drain. Call from within an event on this core.
  void QueueEndOfEvent(MoveFunction<void()> fn);

  // True while an event handler is running on this core's event stack (false on the loop
  // stack: end-of-event hooks, interconnect drains, bring-up). The RCU manager keys its
  // boundary batching off this.
  bool dispatching_event() const { return active_stack_ != nullptr; }

  // --- Blocking support ---------------------------------------------------------------------
  // Freezes the current event into `ctx` and resumes the loop. Must be called from within an
  // event handler on this core. Returns when ActivateContext(ctx) runs.
  void SaveContext(EventContext& ctx);
  // Re-queues a frozen event; it resumes with interrupt priority. Cross-core safe.
  void ActivateContext(EventContext&& ctx);

  // --- Loop control ------------------------------------------------------------------------
  // Runs the dispatch protocol until Stop() (or executor shutdown). Called by the executor on
  // the core's base stack.
  void Loop();
  void Stop() { stopped_ = true; }

  std::size_t machine_core() const { return machine_core_; }
  Executor& executor() { return executor_; }

  // Timer integration (Timer rep registers its due-dispatch here; see timer.h). The poll
  // callback dispatches all due timer callbacks and reports the next pending deadline.
  struct TimerPollResult {
    std::uint64_t dispatched = 0;          // callbacks run during this poll
    std::uint64_t next_deadline = kNoWakeup;  // ns, kNoWakeup when no timer pending
  };
  void SetTimerPoll(MoveFunction<TimerPollResult(std::uint64_t)> poll) {
    timer_poll_ = std::move(poll);
  }
  // Lets the Timer rep tighten the halt deadline when a new timer is started mid-pass.
  void SetTimerDeadline(std::uint64_t deadline) { timer_deadline_ = deadline; }
  // Runs a due timer callback on an event stack (callable only from the timer poll, which
  // executes on this core's loop). Timer callbacks thereby get full event semantics,
  // including SaveContext blocking. One-shot callbacks (persistent=false) are moved onto the
  // fiber stack and survive suspension.
  void RunTimerHandler(MoveFunction<void()>* fn, bool persistent) {
    RunOnEventStack(fn, persistent);
  }

  // Snapshot of this core's dispatch counters, including the interconnect's view of its
  // inbound cross-core traffic.
  struct Stats {
    std::uint64_t interrupts = 0;      // vector handler activations
    std::uint64_t synthetic = 0;       // spawned events run (local + cross-core)
    std::uint64_t idle_passes = 0;
    std::uint64_t timers = 0;
    std::uint64_t end_of_event = 0;
    std::uint64_t xcore_spawns = 0;    // spawn/activate nodes that arrived via the mesh
    std::uint64_t xcore_batches = 0;   // non-empty TakeBatch drains (one exchange each)
    std::uint64_t xcore_pushes = 0;    // nodes other cores/threads pushed at this core
    std::uint64_t xcore_wakeups = 0;   // pushes that displaced the idle sentinel (paid wake)
    std::uint64_t xcore_wakeups_elided = 0;  // pushes that needed no wake (core awake/pending)
    // Spawn/activate nodes carved on another machine that this core freed: such a node goes
    // home through its arena's depot or buddy (mem::FreeRouted). A node carved on this
    // machine returns to the local slab cache and takes no lock.
    std::uint64_t control_locks = 0;
  };
  Stats stats() const;

  // --- Observability (obs::ObsRoot attaches at plane creation) -------------------------------
  // The obs plane's per-machine level switch. While it reads >= kMetrics, the loop records
  // per-event handler latency, end-of-event hook duration, interconnect batch size, and
  // queue residency into the inline histograms below — one Executor::Now() pair and a few
  // relaxed stores per event, no locks, no heap. Detached (nullptr) = everything off.
  void SetObsLevel(const std::atomic<std::uint8_t>* level) {
    obs_level_.store(level, std::memory_order_relaxed);
  }
  const obs::Histogram& handler_latency_hist() const { return handler_latency_hist_; }
  const obs::Histogram& end_of_event_hook_hist() const { return hook_duration_hist_; }
  const obs::Histogram& xcore_batch_size_hist() const { return xcore_batch_size_hist_; }
  const obs::Histogram& xcore_residency_hist() const { return xcore_residency_hist_; }
  // Local run-queue depth, refreshed once per dispatch pass (the autoscaler's queue signal).
  std::uint64_t run_queue_depth() const {
    return run_queue_depth_.load(std::memory_order_relaxed);
  }

 private:
  friend class EventManagerRoot;

  struct QueueEntry {
    MoveFunction<void()> fn;  // synthetic event, or
    void* resume_sp = nullptr;  // frozen context to resume
    std::unique_ptr<FiberStack> resume_stack;
  };

  // Cross-core message types (definitions in the .cc; nested so Fire can use privates).
  struct SpawnNode;     // a remote Spawn: carries the closure, runs as a synthetic event
  struct ActivateNode;  // a remote ActivateContext: carries the frozen fiber

  // One interrupt vector. The node is EMBEDDED: raising a vector never allocates, and a
  // vector raised N times before the owner drains runs its handler N times off one node
  // (pending counts the coalesced raises). Fire/Discard do not free — the entry is owned by
  // the vector table and lives until the rep dies.
  struct VectorEntry final : InterconnectNode {
    explicit VectorEntry(MoveFunction<void()> h) : handler(std::move(h)) {}
    void Fire(EventManager& em) override;
    void Discard() override { pending.store(0, std::memory_order_relaxed); }
    MoveFunction<void()> handler;       // invoked on the owner core only
    std::atomic<std::uint32_t> pending{0};  // raises since the last Fire
  };

  static void FiberTrampoline(void* arg);
  void FiberMain();
  // Dispatches one callable on an event stack; handles completion vs. suspension. One-shot
  // (non-persistent) callables are moved onto the fiber stack so they survive suspension.
  void RunOnEventStack(MoveFunction<void()>* fn, bool persistent = false);
  void ResumeContext(QueueEntry entry);
  // Drains end-of-event hooks on the loop stack after a handler completes or suspends.
  void RunEndOfEventHooks();
  // Halts via the executor after publishing the interconnect idle sentinel; a failed publish
  // means work arrived and the caller must run another pass.
  void IdleHalt();

  bool DispatchPass();  // one pass of the §3.2 protocol; true if any handler ran
  bool DispatchTimers();
  // Drains and fires this core's interconnect batch: interrupt vectors, remote spawns,
  // resumed contexts, RCU markers — whatever other cores sent.
  bool DispatchInterconnect();
  bool DispatchOneSynthetic();
  bool DispatchIdle();

  EventManagerRoot& root_;
  Executor& executor_;
  std::size_t machine_core_;

  // Core-local synthetic event queue (paper: Spawn). Single writer/reader. A RingQueue, not
  // a deque: once grown to the working depth, cycling spawns through it never allocates.
  RingQueue<QueueEntry> local_queue_;

  // Vector table: fixed array of release-published entries, so a device thread can raise
  // concurrently with this core allocating new vectors (no map rehash to race with).
  // Entries are created on this core and live until the rep dies.
  std::array<std::atomic<VectorEntry*>, kNumVectors> vector_table_{};
  std::uint32_t next_vector_ = 32;  // skip "reserved" vectors, flavor of x86

  std::vector<IdleCallback*> idle_callbacks_;

  // One-shot event-boundary hooks (see QueueEndOfEvent). Core-local: single writer/reader.
  // A vector drained by index and clear()ed, NOT a deque: clear keeps the capacity, so the
  // steady state (one RCU-epoch hook per event, forever) re-queues into memory that was
  // allocated once — a deque's chunk map migrates forward and re-allocates every few
  // events, which shows up as a per-op generic-heap rate on write-heavy item-plane mixes.
  std::vector<MoveFunction<void()>> end_of_event_queue_;

  MoveFunction<TimerPollResult(std::uint64_t)> timer_poll_;
  std::uint64_t timer_deadline_ = kNoWakeup;

  // Fiber dispatch state.
  StackPool stack_pool_;
  void* loop_sp_ = nullptr;               // loop context while a fiber runs
  MoveFunction<void()>* active_fn_ = nullptr;  // invocation for a fresh fiber
  bool active_persistent_ = false;             // invoke in place vs. move onto fiber stack
  std::unique_ptr<FiberStack> active_stack_;   // stack of the currently-running fiber
  bool fiber_suspended_ = false;          // current fiber called SaveContext
  EventContext* suspend_target_ = nullptr;
  void* fiber_sp_ = nullptr;              // save slot for the running fiber on switch-out

  bool stopped_ = false;
  bool in_loop_ = false;

  // Observability plane hookup (see SetObsLevel). The pointer itself is atomic so the obs
  // root can attach/detach from a control-plane core while this core's loop runs.
  bool ObsMetricsOn() const {
    const std::atomic<std::uint8_t>* level = obs_level_.load(std::memory_order_relaxed);
    return level != nullptr && level->load(std::memory_order_relaxed) != 0;
  }
  std::atomic<const std::atomic<std::uint8_t>*> obs_level_{nullptr};
  obs::Histogram handler_latency_hist_;
  obs::Histogram hook_duration_hist_;
  obs::Histogram xcore_batch_size_hist_;
  obs::Histogram xcore_residency_hist_;
  std::atomic<std::uint64_t> run_queue_depth_{0};

  struct {
    std::uint64_t interrupts = 0;
    std::uint64_t synthetic = 0;
    std::uint64_t idle_passes = 0;
    std::uint64_t timers = 0;
    std::uint64_t end_of_event = 0;
    std::uint64_t xcore_spawns = 0;
    std::uint64_t xcore_batches = 0;
    std::uint64_t control_locks = 0;
  } stats_;
};

namespace event {
// The current core's EventManager representative.
inline EventManager& Local() { return *EventManager::Instance(); }
}  // namespace event

}  // namespace ebbrt

#endif  // EBBRT_SRC_EVENT_EVENT_MANAGER_H_
