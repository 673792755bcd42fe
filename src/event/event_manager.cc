#include "src/event/event_manager.h"

#include <utility>

namespace ebbrt {

// --- Root -----------------------------------------------------------------------------------

EventManagerRoot::EventManagerRoot(Executor& executor, std::size_t num_cores)
    : executor_(executor),
      reps_(num_cores,
            [&](std::size_t i) { return std::make_unique<EventManager>(*this, executor, i); }),
      interconnect_(executor, num_cores) {}

// --- Cross-core message nodes ----------------------------------------------------------------

// A remote Spawn. Fire moves the closure out, frees the node (the slab slot is available
// again before the handler even runs), then dispatches a normal synthetic event.
struct EventManager::SpawnNode final : InterconnectNode {
  explicit SpawnNode(MoveFunction<void()> f) : fn(std::move(f)) {}
  void Fire(EventManager& em) override {
    MoveFunction<void()> f = std::move(fn);
    em.stats_.control_locks += Interconnect::Delete(this);
    ++em.stats_.xcore_spawns;
    ++em.stats_.synthetic;
    // Safe: RunOnEventStack moves one-shot closures onto the fiber stack before any
    // suspension, and this loop-stack frame outlives the dispatch either way.
    em.RunOnEventStack(&f);
  }
  void Discard() override { Interconnect::Delete(this); }  // closure dropped unrun
  MoveFunction<void()> fn;
};

// A remote ActivateContext: re-adopts the frozen fiber on its home core.
struct EventManager::ActivateNode final : InterconnectNode {
  ActivateNode(void* sp, std::unique_ptr<FiberStack> s) : resume_sp(sp), stack(std::move(s)) {}
  void Fire(EventManager& em) override {
    QueueEntry entry;
    entry.resume_sp = resume_sp;
    entry.resume_stack = std::move(stack);
    em.stats_.control_locks += Interconnect::Delete(this);
    ++em.stats_.xcore_spawns;
    em.ResumeContext(std::move(entry));
  }
  void Discard() override {
    // The frozen event never resumes; its stack unwinds with the pool. (Teardown only.)
    Interconnect::Delete(this);
  }
  void* resume_sp;
  std::unique_ptr<FiberStack> stack;
};

void EventManager::VectorEntry::Fire(EventManager& em) {
  // Coalesced redelivery: every raise since the last Fire runs the handler once. The
  // exchange closes the race with a concurrent raiser — a raise that lands after it sees
  // pending==0 and re-publishes this node for the next pass.
  std::uint32_t raises = pending.exchange(0, std::memory_order_acq_rel);
  for (std::uint32_t i = 0; i < raises; ++i) {
    ++em.stats_.interrupts;
    em.RunOnEventStack(&handler, /*persistent=*/true);
  }
}

// --- Rep ------------------------------------------------------------------------------------

EventManager::EventManager(EventManagerRoot& root, Executor& executor,
                           std::size_t machine_core)
    : root_(root), executor_(executor), machine_core_(machine_core) {}

EventManager::~EventManager() {
  // The root's interconnect (destroyed before the reps) has already discarded any pending
  // nodes, so the embedded vector entries are no longer reachable from any list.
  for (auto& slot : vector_table_) {
    delete slot.load(std::memory_order_relaxed);
  }
}

void EventManager::Spawn(MoveFunction<void()> fn) {
  if (HaveContext() && CurrentContext().machine_core == machine_core_ && in_loop_) {
    QueueEntry entry;
    entry.fn = std::move(fn);
    local_queue_.push_back(std::move(entry));
    return;
  }
  // Not on this core's loop (bring-up, another core, or a device thread): publish a
  // continuation node on the interconnect. Lock-free; wakes the core only if it halted.
  root_.interconnect().Push(machine_core_, Interconnect::New<SpawnNode>(std::move(fn)));
}

void EventManager::SpawnRemote(MoveFunction<void()> fn, std::size_t machine_core) {
  root_.RepFor(machine_core).Spawn(std::move(fn));
}

std::uint32_t EventManager::AllocateVector(MoveFunction<void()> handler) {
  std::uint32_t vector = next_vector_++;
  Kbugon(vector >= kNumVectors, "EventManager: interrupt vectors exhausted");
  // Release-publish so a device thread that learns the vector number afterward reads a
  // fully-constructed entry.
  vector_table_[vector].store(new VectorEntry(std::move(handler)),
                              std::memory_order_release);
  return vector;
}

void EventManager::RaiseVector(std::uint32_t vector) {
  Kbugon(vector >= kNumVectors, "EventManager: bad vector %u", vector);
  VectorEntry* entry = vector_table_[vector].load(std::memory_order_acquire);
  Kbugon(entry == nullptr, "EventManager: spurious vector %u", vector);
  // Only the 0->1 transition publishes the embedded node; further raises before the owner
  // drains just bump the count (coalesced, allocation-free, lock-free).
  if (entry->pending.fetch_add(1, std::memory_order_acq_rel) == 0) {
    root_.interconnect().Push(machine_core_, entry);
  }
}

// --- Idle callbacks --------------------------------------------------------------------------

EventManager::IdleCallback::~IdleCallback() {
  if (started_) {
    Stop();
  }
}

void EventManager::IdleCallback::Start() {
  if (started_) {
    return;
  }
  started_ = true;
  index_ = em_.idle_callbacks_.size();
  em_.idle_callbacks_.push_back(this);
  em_.executor_.WakeCore(em_.machine_core_);
}

void EventManager::IdleCallback::Stop() {
  if (!started_) {
    return;
  }
  started_ = false;
  // O(1) swap-and-pop: each callback remembers its slot, the displaced tail is re-indexed.
  auto& cbs = em_.idle_callbacks_;
  Kassert(index_ < cbs.size() && cbs[index_] == this, "IdleCallback: index out of sync");
  IdleCallback* tail = cbs.back();
  cbs[index_] = tail;
  tail->index_ = index_;
  cbs.pop_back();
}

// --- End-of-event hooks ----------------------------------------------------------------------

void EventManager::QueueEndOfEvent(MoveFunction<void()> fn) {
  Kassert(HaveContext() && CurrentContext().machine_core == machine_core_,
          "QueueEndOfEvent: wrong core");
  end_of_event_queue_.push_back(std::move(fn));
}

void EventManager::RunEndOfEventHooks() {
  if (end_of_event_queue_.empty()) {
    return;
  }
  // Boundary-work duration: how long the TX flush / RCU epoch machinery holds
  // the loop at each event edge. Only non-empty drains record, so the histogram measures
  // actual boundary work rather than a spike of zeros.
  bool measure = ObsMetricsOn();
  std::uint64_t t0 = measure ? executor_.Now() : 0;
  // Hooks queued by a running hook drain in the same boundary (the index re-checks size();
  // the callable is moved out before invocation, so a push_back-triggered reallocation
  // during fn() invalidates nothing we still hold).
  for (std::size_t i = 0; i < end_of_event_queue_.size(); ++i) {
    MoveFunction<void()> fn = std::move(end_of_event_queue_[i]);
    ++stats_.end_of_event;
    fn();
  }
  end_of_event_queue_.clear();  // keeps capacity: the steady state never re-allocates
  if (measure) {
    hook_duration_hist_.Record(executor_.Now() - t0);
  }
}

// --- Fiber dispatch --------------------------------------------------------------------------

void EventManager::FiberTrampoline(void* arg) {
  auto* self = static_cast<EventManager*>(arg);
  self->FiberMain();
  // FiberMain switches away and never returns here.
  Kabort("EventManager: fiber fell through");
}

void EventManager::FiberMain() {
  // One-shot events MOVE their closure onto this fiber's stack before invocation: if the
  // handler suspends (SaveContext), the loop-frame QueueEntry that carried the closure dies
  // while the fiber is frozen, so the closure must live here. Persistent handlers (interrupt
  // vectors, idle callbacks) are invoked in place — they are re-fired repeatedly and their
  // storage (the vector table / callback object) outlives any single activation.
  if (active_persistent_) {
    MoveFunction<void()>* fn = active_fn_;
    active_fn_ = nullptr;
    (*fn)();
  } else {
    MoveFunction<void()> fn = std::move(*active_fn_);
    active_fn_ = nullptr;
    fn();
  }
  // Completed: mark done (not suspended) and return to the loop. Our stack is recycled by the
  // loop after the switch completes.
  fiber_suspended_ = false;
  ebbrt_context_switch(&fiber_sp_, loop_sp_);
}

void EventManager::RunOnEventStack(MoveFunction<void()>* fn, bool persistent) {
  // Handler latency brackets exactly the fiber's occupancy of this core (the switch in to
  // the switch out — completion or suspension), in executor time: virtual ns under SimWorld
  // (so the distribution is deterministic), wall ns on real threads. Reading the clock has
  // no side effects, so measurement cannot perturb the simulated schedule.
  bool measure = ObsMetricsOn();
  std::uint64_t t0 = measure ? executor_.Now() : 0;
  active_fn_ = fn;
  active_persistent_ = persistent;
  active_stack_ = stack_pool_.Get();
  fiber_suspended_ = false;
  void* sp = active_stack_->InitialSp(&FiberTrampoline, this);
  ebbrt_context_switch(&loop_sp_, sp);
  // Back on the loop stack: the fiber either completed or suspended into suspend_target_.
  if (fiber_suspended_) {
    Kassert(suspend_target_ != nullptr, "EventManager: suspended without target");
    suspend_target_->sp_ = fiber_sp_;
    suspend_target_->stack_ = std::move(active_stack_);
    suspend_target_ = nullptr;
  } else {
    stack_pool_.Put(std::move(active_stack_));
  }
  if (measure) {
    handler_latency_hist_.Record(executor_.Now() - t0);
  }
  RunEndOfEventHooks();
  executor_.OnHandlerComplete();
}

void EventManager::ResumeContext(QueueEntry entry) {
  bool measure = ObsMetricsOn();
  std::uint64_t t0 = measure ? executor_.Now() : 0;
  // Adopt the frozen stack as the active fiber and switch into it.
  active_stack_ = std::move(entry.resume_stack);
  fiber_suspended_ = false;
  ebbrt_context_switch(&loop_sp_, entry.resume_sp);
  if (fiber_suspended_) {
    Kassert(suspend_target_ != nullptr, "EventManager: suspended without target");
    suspend_target_->sp_ = fiber_sp_;
    suspend_target_->stack_ = std::move(active_stack_);
    suspend_target_ = nullptr;
  } else {
    stack_pool_.Put(std::move(active_stack_));
  }
  if (measure) {
    handler_latency_hist_.Record(executor_.Now() - t0);
  }
  RunEndOfEventHooks();
  executor_.OnHandlerComplete();
}

void EventManager::SaveContext(EventContext& ctx) {
  Kassert(active_stack_ != nullptr, "SaveContext: not inside an event handler");
  Kassert(CurrentContext().machine_core == machine_core_, "SaveContext: wrong core");
  fiber_suspended_ = true;
  suspend_target_ = &ctx;
  ebbrt_context_switch(&fiber_sp_, loop_sp_);
  // Resumed via ActivateContext: execution continues here, back inside the original event.
}

void EventManager::ActivateContext(EventContext&& ctx) {
  Kassert(ctx.valid(), "ActivateContext: invalid context");
  void* sp = ctx.sp_;
  std::unique_ptr<FiberStack> stack = std::move(ctx.stack_);
  ctx.sp_ = nullptr;
  if (HaveContext() && CurrentContext().machine_core == machine_core_ && in_loop_) {
    QueueEntry entry;
    entry.resume_sp = sp;
    entry.resume_stack = std::move(stack);
    local_queue_.push_back(std::move(entry));
    return;
  }
  root_.interconnect().Push(machine_core_,
                            Interconnect::New<ActivateNode>(sp, std::move(stack)));
}

// --- Dispatch protocol (§3.2) ----------------------------------------------------------------

bool EventManager::DispatchTimers() {
  if (!timer_poll_) {
    return false;
  }
  // The poll runs due timer callbacks (each on an event stack, via this EventManager) and
  // returns the next pending deadline for the halt decision.
  TimerPollResult result = timer_poll_(executor_.Now());
  stats_.timers += result.dispatched;
  timer_deadline_ = result.next_deadline;
  return result.dispatched != 0;
}

bool EventManager::DispatchInterconnect() {
  InterconnectNode* node = root_.interconnect().TakeBatch(machine_core_);
  if (node == nullptr) {
    return false;
  }
  ++stats_.xcore_batches;
  // Queue residency: time the OLDEST node of this batch waited between its push (to an
  // empty list) and this drain. Always consumed, so a stale timestamp from a measurement-off
  // window cannot leak into a later record.
  std::uint64_t oldest = root_.interconnect().TakeOldestPushNs(machine_core_);
  bool measure = ObsMetricsOn();
  if (measure && oldest != 0) {
    std::uint64_t now = executor_.Now();
    if (now >= oldest) {
      xcore_residency_hist_.Record(now - oldest);
    }
  }
  std::uint64_t batch = 0;
  while (node != nullptr) {
    // Read the link BEFORE firing: Fire disposes the node (and an embedded node may be
    // re-published by a concurrent raiser the moment its pending count is consumed).
    InterconnectNode* next = node->next();
    node->Fire(*this);
    node = next;
    ++batch;
  }
  if (measure) {
    xcore_batch_size_hist_.Record(batch);
  }
  return true;
}

bool EventManager::DispatchOneSynthetic() {
  if (local_queue_.empty()) {
    return false;
  }
  QueueEntry entry = std::move(local_queue_.front());
  local_queue_.pop_front();
  if (entry.resume_sp != nullptr) {
    ResumeContext(std::move(entry));
  } else {
    ++stats_.synthetic;
    RunOnEventStack(&entry.fn);
  }
  return true;
}

bool EventManager::DispatchIdle() {
  if (idle_callbacks_.empty()) {
    return false;
  }
  ++stats_.idle_passes;
  // Callbacks may Start/Stop callbacks while running; iterate over a snapshot.
  std::vector<IdleCallback*> snapshot = idle_callbacks_;
  bool any = false;
  for (IdleCallback* cb : snapshot) {
    if (!cb->started_) {
      continue;  // stopped by an earlier callback this pass
    }
    any = true;
    RunOnEventStack(&cb->fn_, /*persistent=*/true);
  }
  return any;
}

bool EventManager::DispatchPass() {
  // Refresh the run-queue depth gauge once per pass: a cross-core-readable signal without
  // putting a store on every queue mutation.
  run_queue_depth_.store(local_queue_.size(), std::memory_order_relaxed);
  bool did = false;
  did |= DispatchTimers();
  did |= DispatchInterconnect();
  did |= DispatchOneSynthetic();
  if (did) {
    // Hardware interrupts and synthetic events take priority: restart the protocol before
    // giving idle handlers another turn only if nothing else ran.
    return true;
  }
  return DispatchIdle();
}

void EventManager::IdleHalt() {
  // Publish "I am halting" on the interconnect before actually halting. If the CAS loses —
  // a node landed since this pass's TakeBatch — skip the halt and dispatch again; the next
  // TakeBatch clears a sentinel left behind by a timer/shutdown (non-push) wake.
  if (root_.interconnect().MarkIdle(machine_core_)) {
    executor_.Halt(machine_core_, timer_deadline_);
  }
}

void EventManager::Loop() {
  Kassert(CurrentContext().machine_core == machine_core_, "Loop: wrong core");
  in_loop_ = true;
  while (!stopped_ && !executor_.Stopped()) {
    if (!DispatchPass()) {
      // Nothing ran: enable interrupts and halt until a wake or the next timer deadline.
      IdleHalt();
    } else {
      executor_.MaybeYield(machine_core_);
    }
  }
  in_loop_ = false;
}

EventManager::Stats EventManager::stats() const {
  Stats s;
  s.interrupts = stats_.interrupts;
  s.synthetic = stats_.synthetic;
  s.idle_passes = stats_.idle_passes;
  s.timers = stats_.timers;
  s.end_of_event = stats_.end_of_event;
  s.xcore_spawns = stats_.xcore_spawns;
  s.xcore_batches = stats_.xcore_batches;
  const Interconnect& ic = root_.interconnect();
  s.xcore_pushes = ic.pushes(machine_core_);
  s.xcore_wakeups = ic.wakeups(machine_core_);
  s.xcore_wakeups_elided = s.xcore_pushes - s.xcore_wakeups;
  s.control_locks = stats_.control_locks;
  return s;
}

}  // namespace ebbrt
