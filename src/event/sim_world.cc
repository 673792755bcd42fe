#include "src/event/sim_world.h"

#include "src/mem/gp_allocator.h"

namespace ebbrt {

SimWorld::SimWorld(std::uint64_t fixed_event_cost_ns)
    : fixed_event_cost_ns_(fixed_event_cost_ns) {}

SimWorld::~SimWorld() { Shutdown(); }

Runtime& SimWorld::AddMachine(std::string name, std::size_t cores, RuntimeKind kind) {
  auto runtime = std::make_unique<Runtime>(kind, std::move(name));
  Runtime& rt = *runtime;
  rt.AddCores(cores);

  auto executor = std::make_unique<MachineExecutor>(*this);
  auto em_root = std::make_unique<EventManagerRoot>(*executor, cores);
  rt.InstallRoot(kEventManagerId, em_root.get());
  rt.SetSubsystem(Subsystem::kEventManager, em_root.get());
  auto timer_root = std::make_unique<TimerRoot>(*executor, *em_root, cores);
  rt.InstallRoot(kTimerId, timer_root.get());
  rt.SetSubsystem(Subsystem::kMachine, executor.get());

  // Every simulated machine runs the full memory subsystem: per-NUMA buddy pages, per-core
  // slab caches and the GP allocator. This is what makes IOBuf storage (and the NIC RX ring
  // and TCP TX segments) slab-backed and malloc-free in steady state — the paper's
  // per-application-LibOS memory story, on by default.
  mem::Config mem_config;
  mem_config.arena_bytes = 128ull << 20;
  mem::Install(rt, cores, mem_config);

  for (std::size_t i = 0; i < cores; ++i) {
    auto core = std::make_unique<SimCore>();
    core->runtime = &rt;
    core->executor = executor.get();
    core->machine_core = i;
    core->global_core = rt.global_core(i);
    core->wake_slot = calendar_.Acquire();
    calendar_[core->wake_slot].core = core.get();
    executor->cores_.push_back(core.get());
    cores_.push_back(std::move(core));
  }

  runtimes_.push_back(std::move(runtime));
  executors_.push_back(std::move(executor));
  em_roots_.push_back(std::move(em_root));
  timer_roots_.push_back(std::move(timer_root));
  return rt;
}

void SimWorld::SpawnOn(Runtime& runtime, std::size_t core, MoveFunction<void()> fn) {
  runtime.GetSubsystem<EventManagerRoot>(Subsystem::kEventManager)
      .RepFor(core)
      .Spawn(std::move(fn));
}

void SimWorld::At(std::uint64_t t, MoveFunction<void()> fn) {
  std::uint32_t slot = calendar_.Acquire();
  calendar_[slot].action = std::move(fn);
  calendar_.Set(slot, std::max(t, Now()), next_seq_++);
  NoteCalendarDepth();
}

void SimWorld::After(std::uint64_t dt, MoveFunction<void()> fn) {
  At(Now() + dt, std::move(fn));
}

std::uint64_t SimWorld::Now() const {
  if (current_ != nullptr) {
    return SliceNow();
  }
  return now_;
}

std::uint64_t SimWorld::SliceNow() const { return slice_start_clock_ + slice_charge_; }

void SimWorld::Charge(std::uint64_t ns) { slice_charge_ += ns; }

void SimWorld::OnHandlerComplete() {
  if (current_ != nullptr) {
    slice_charge_ += fixed_event_cost_ns_;
  }
}

void SimWorld::PushWake(SimCore* core, std::uint64_t t) {
  const auto* queued = calendar_.Find(core->wake_slot);
  if (queued != nullptr && queued->time <= t) {
    return;  // the core's wake at or before `t` already covers this request
  }
  // The seq a fresh entry would get: ties order exactly as if the wake were pushed anew.
  calendar_.Set(core->wake_slot, t, next_seq_++);
  NoteCalendarDepth();
}

void SimWorld::WakeSimCore(SimCore* core) {
  if (core == current_) {
    // A handler on this very core produced more local work; the loop will find it.
    core->wake_pending = true;
    return;
  }
  PushWake(core, Now());
}

void SimWorld::HaltCore(SimCore* core, std::uint64_t wake_at) {
  Kassert(core == current_, "HaltCore: not the running core");
  if (core->wake_pending) {
    core->wake_pending = false;
    return;  // work arrived during this slice; don't park
  }
  // Finalize this slice's virtual time, schedule the timer wake, park the fiber.
  core->clock = SliceNow();
  if (wake_at != kNoWakeup) {
    PushWake(core, std::max(wake_at, core->clock));
  }
  ebbrt_context_switch(&core->fiber_sp, calendar_sp_);
  // Woken by RunSlice: slice state has been re-armed; resume the loop.
}

void SimWorld::YieldCore(SimCore* core) {
  if (core != current_ || stopped_ || calendar_.empty()) {
    return;
  }
  std::uint64_t slice_now = SliceNow();
  if (calendar_.top().time >= slice_now) {
    return;  // nothing the core's progress would miss
  }
  // Park with an immediate self-wake at the core's clock: earlier calendar entries (packet
  // deliveries, other cores) run first, then this core resumes exactly where it yielded.
  ++stats_.yields;
  core->clock = slice_now;
  PushWake(core, slice_now);
  ebbrt_context_switch(&core->fiber_sp, calendar_sp_);
}

void SimWorld::CoreFiberEntry(void* arg) {
  auto* core = static_cast<SimCore*>(arg);
  core->runtime->GetSubsystem<EventManagerRoot>(Subsystem::kEventManager)
      .RepFor(core->machine_core)
      .Loop();
  // Loop exited (world shutdown): park permanently.
  core->loop_exited = true;
  void* dummy;
  ebbrt_context_switch(&dummy, core->executor->world_.calendar_sp_);
  Kabort("SimWorld: exited core resumed");
}

void SimWorld::RunSlice(SimCore* core, std::uint64_t t) {
  if (core->loop_exited) {
    return;
  }
  ++stats_.slices;
  core->clock = std::max(core->clock, t);
  current_ = core;
  slice_start_clock_ = core->clock;
  slice_charge_ = 0;

  Context cctx;
  cctx.runtime = core->runtime;
  cctx.core = core->global_core;
  cctx.machine_core = core->machine_core;
  InstallContext(cctx, core->runtime->hosted());

  if (!core->fiber_started) {
    core->fiber_started = true;
    core->stack = std::make_unique<FiberStack>();
    void* sp = core->stack->InitialSp(&CoreFiberEntry, core);
    ebbrt_context_switch(&calendar_sp_, sp);
  } else {
    ebbrt_context_switch(&calendar_sp_, core->fiber_sp);
  }

  // Core parked again (or exited).
  Context none;
  InstallContext(none, false);
  current_ = nullptr;
}

void SimWorld::DispatchNext() {
  auto [time, seq, slot] = calendar_.top();
  calendar_.Pop();
  now_ = std::max(now_, time);
  ++stats_.entries_dispatched;
  CalendarSlot& entry = calendar_[slot];
  if (entry.core == nullptr) {
    // Run in place (slots never move, so At() from the action is safe), free after.
    ++stats_.actions;
    entry.action();
    entry.action = nullptr;
    calendar_.Release(slot);
    return;
  }
  SimCore* core = entry.core;
  if (core->executor->killed_) {
    // Killed machine: the wake is consumed and discarded. Work (timers, interconnect
    // nodes) stays queued in the machine's own state; ReviveMachine re-wakes the core so
    // it drains everything it missed.
    ++stats_.entries_dropped_killed;
    return;
  }
  // A core whose virtual clock is ahead of the calendar is logically still busy: defer the
  // wake to its clock so work arriving "while busy" queues up behind it. This is what makes
  // interrupt coalescing, adaptive polling, and queueing delay emerge correctly in the DES.
  if (core->clock > time && !stopped_) {
    ++stats_.entries_deferred;
    PushWake(core, core->clock);
    return;
  }
  RunSlice(core, now_);
}

void SimWorld::Run() {
  Kassert(!in_run_, "SimWorld: reentrant Run");
  in_run_ = true;
  while (!stopped_ && !calendar_.empty()) {
    DispatchNext();
  }
  in_run_ = false;
}

bool SimWorld::RunUntil(std::uint64_t t) {
  Kassert(!in_run_, "SimWorld: reentrant Run");
  in_run_ = true;
  bool quiescent = true;
  while (!stopped_) {
    if (calendar_.empty()) {
      break;
    }
    if (calendar_.top().time > t) {
      quiescent = false;
      break;
    }
    DispatchNext();
  }
  now_ = std::max(now_, t);
  in_run_ = false;
  return quiescent;
}

void SimWorld::KillMachine(Runtime& runtime) {
  Kassert(current_ == nullptr || current_->runtime != &runtime,
          "KillMachine: a machine cannot kill itself from its own core slice");
  auto& machine = runtime.GetSubsystem<MachineExecutor>(Subsystem::kMachine);
  if (std::exchange(machine.killed_, true)) {
    return;  // already dead
  }
  ++stats_.kills;
  for (SimCore* core : machine.cores_) {
    core->wake_pending = false;
  }
}

void SimWorld::ReviveMachine(Runtime& runtime) {
  Kassert(current_ == nullptr || current_->runtime != &runtime,
          "ReviveMachine: not from the machine's own core slice");
  auto& machine = runtime.GetSubsystem<MachineExecutor>(Subsystem::kMachine);
  if (!std::exchange(machine.killed_, false)) {
    return;  // not dead
  }
  ++stats_.revives;
  for (SimCore* core : machine.cores_) {
    // Unconditional wake: anything that queued during the outage (overdue timers,
    // interconnect pushes whose WakeCore was elided or dropped, posted frames) gets
    // drained now. A core with nothing to do just parks again.
    PushWake(core, Now());
  }
}

void SimWorld::Shutdown() {
  if (stopped_) {
    return;
  }
  stopped_ = true;
  // Resume every started core once so its loop observes Stopped() and exits, unwinding the
  // parked fiber to a terminal park (loop_exited).
  for (auto& core : cores_) {
    if (core->fiber_started && !core->loop_exited) {
      RunSlice(core.get(), now_);
    }
  }
  // Drop every queued action (the stopped world recycles no slots); one running now, the
  // caller of Shutdown, is not queued.
  while (!calendar_.empty()) {
    MoveFunction<void()> action = std::move(calendar_[calendar_.Pop()].action);
  }
  // The event loops are gone, but the EventManagerRoots die BEFORE the runtimes (member
  // order), so each runtime's kEventManager slot is about to dangle. Clear it now: teardown
  // paths that consult it — RCU grace periods issued from adopted destructors, e.g. an
  // RpcClient unregistering its Messenger receiver — then take CallRcu's no-event-loops
  // immediate path instead of spawning onto a freed root.
  for (auto& runtime : runtimes_) {
    runtime->SetSubsystem(Subsystem::kEventManager,
                          static_cast<EventManagerRoot*>(nullptr));
  }
}

}  // namespace ebbrt
