// SimWorld — deterministic discrete-event substrate for the benchmark testbed.
//
// The paper's evaluation ran on a 24-core Xeon server wired to a 20-core client over 10GbE,
// with EbbRT instances booted inside KVM. None of that hardware exists here, so SimWorld
// substitutes *time and hardware* while the framework and protocol code execute for real:
//
//   * Machines are Runtimes whose cores run the genuine EventManager loop, one core at a time
//     on a single host thread, each inside its own fiber.
//   * A calendar orders wakeups (interrupt deliveries, timer deadlines, device completions)
//     by virtual time; cores advance their own virtual clocks while they run. The calendar
//     is a SlotHeap keyed by (time, seq) holding one wake slot per core plus world actions.
//   * Virtual time during a handler is a fixed per-handler cost plus whatever the handler
//     Charge()s, so runs are bitwise deterministic. Host cycles are not the handler cost:
//     host stalls would turn into virtual queueing.
//   * Device models (sim::Nic, sim::Wire) schedule calendar actions and Charge() explicit
//     costs (VM exits, wire transit, copies) that we cannot execute natively.
//
// Single-threaded by construction: no locks are needed anywhere in the world, and runs are
// reproducible.
#ifndef EBBRT_SRC_EVENT_SIM_WORLD_H_
#define EBBRT_SRC_EVENT_SIM_WORLD_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/runtime.h"
#include "src/event/event_manager.h"
#include "src/event/executor.h"
#include "src/event/timer.h"
#include "src/platform/fiber.h"
#include "src/platform/slot_heap.h"

namespace ebbrt {

class SimWorld {
 public:
  // Every handler advances its core's virtual clock by `fixed_event_cost_ns`.
  explicit SimWorld(std::uint64_t fixed_event_cost_ns = 500);
  ~SimWorld();

  SimWorld(const SimWorld&) = delete;
  SimWorld& operator=(const SimWorld&) = delete;

  // Creates a machine with `cores` simulated cores. Event manager and timer roots are
  // installed; the runtime is owned by the world.
  Runtime& AddMachine(std::string name, std::size_t cores,
                      RuntimeKind kind = RuntimeKind::kNative);

  // Queues `fn` on (runtime, machine core); it runs when the world does.
  static void SpawnOn(Runtime& runtime, std::size_t core, MoveFunction<void()> fn);

  // Schedules a world action (device model callback) at absolute virtual time `t` / after
  // `dt` from Now(). Actions run on the calendar context, not on any core.
  void At(std::uint64_t t, MoveFunction<void()> fn);
  void After(std::uint64_t dt, MoveFunction<void()> fn);

  // Current virtual time: slice-relative while a core runs, calendar time otherwise.
  std::uint64_t Now() const;

  // Adds `ns` of modeled cost to the running core's clock (device models: VM exit, copy,
  // interrupt delivery). Must be called during a core slice or world action.
  void Charge(std::uint64_t ns);

  // Runs until the calendar drains (all cores halted, no pending actions).
  void Run();
  // Runs until virtual time `t` (or quiescence). Returns true if quiescent.
  bool RunUntil(std::uint64_t t);

  // Requests shutdown: all core loops exit, parked fibers unwind. Idempotent; also invoked by
  // the destructor.
  void Shutdown();

  // --- Fault injection ------------------------------------------------------------------------
  // Kills a machine: its cores stop being scheduled (their calendar wakes are dropped on
  // pop) and the sim NICs drop deliveries to it. This models a PAUSE/partition, not state
  // destruction — memory, timer wheels, and TCP state survive, so ReviveMachine resumes the
  // machine exactly where it stopped (overdue timers fire late, retransmits heal
  // connections). Crash-with-amnesia semantics would need state migration on top; the
  // failover machinery built on this (suspect marking, replica reads) is agnostic to the
  // difference while the machine is down. Callable from tests, world actions, or another
  // machine's core slice — never from a core of the machine being killed.
  void KillMachine(Runtime& runtime);
  void ReviveMachine(Runtime& runtime);
  static bool MachineKilled(const Runtime& runtime) {
    return runtime.GetSubsystem<MachineExecutor>(Subsystem::kMachine).killed_;
  }

  bool stopped() const { return stopped_; }

  // Diagnostics: calendar pressure and scheduling behaviour (used to validate bench setups).
  struct WorldStats {
    std::uint64_t entries_dispatched = 0;
    std::uint64_t entries_deferred = 0;
    std::uint64_t slices = 0;
    std::uint64_t yields = 0;
    std::uint64_t actions = 0;
    std::uint64_t kills = 0;
    std::uint64_t revives = 0;
    std::uint64_t entries_dropped_killed = 0;  // core wakes discarded while killed
    std::uint64_t calendar_peak = 0;           // high-water mark of queued entries
  };
  const WorldStats& world_stats() const { return stats_; }

 private:
  struct SimCore;

  // Executor facade handed to one machine's EventManager/Timer roots.
  class MachineExecutor : public Executor {
   public:
    MachineExecutor(SimWorld& world) : world_(world) {}
    std::uint64_t Now() override { return world_.Now(); }
    void WakeCore(std::size_t machine_core) override {
      world_.WakeSimCore(cores_[machine_core]);
    }
    void Halt(std::size_t machine_core, std::uint64_t wake_at) override {
      world_.HaltCore(cores_[machine_core], wake_at);
    }
    bool Stopped() const override { return world_.stopped_; }
    void OnHandlerComplete() override { world_.OnHandlerComplete(); }
    void MaybeYield(std::size_t machine_core) override {
      world_.YieldCore(cores_[machine_core]);
    }

   private:
    friend class SimWorld;
    SimWorld& world_;
    std::vector<SimCore*> cores_;
    bool killed_ = false;  // machine kill: core wakes and frame deliveries are dropped
  };

  struct SimCore {
    Runtime* runtime = nullptr;
    MachineExecutor* executor = nullptr;
    std::size_t machine_core = 0;
    std::size_t global_core = 0;
    std::uint64_t clock = 0;  // core-local virtual time
    bool fiber_started = false;
    bool loop_exited = false;
    bool wake_pending = false;
    std::uint32_t wake_slot = 0;  // this core's calendar slot, queued while a wake is due
    std::unique_ptr<FiberStack> stack;
    void* fiber_sp = nullptr;
  };

  // A calendar slot: a core's wake (core set) or a world action.
  struct CalendarSlot {
    SimCore* core = nullptr;
    MoveFunction<void()> action;
  };

  static void CoreFiberEntry(void* arg);
  // Pops and dispatches the earliest calendar entry.
  void DispatchNext();
  void RunSlice(SimCore* core, std::uint64_t t);
  void WakeSimCore(SimCore* core);
  void HaltCore(SimCore* core, std::uint64_t wake_at);
  void YieldCore(SimCore* core);
  // Schedules (or tightens) the core's single outstanding wake to time `t`.
  void PushWake(SimCore* core, std::uint64_t t);
  void OnHandlerComplete();
  void NoteCalendarDepth() {
    stats_.calendar_peak = std::max<std::uint64_t>(stats_.calendar_peak, calendar_.size());
  }
  std::uint64_t SliceNow() const;

  std::uint64_t fixed_event_cost_ns_;
  WorldStats stats_;

  SlotHeap<CalendarSlot> calendar_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t now_ = 0;
  bool stopped_ = false;
  bool in_run_ = false;

  // Slice state (valid while current_ != nullptr).
  SimCore* current_ = nullptr;
  std::uint64_t slice_start_clock_ = 0;
  std::uint64_t slice_charge_ = 0;
  void* calendar_sp_ = nullptr;

  std::vector<std::unique_ptr<Runtime>> runtimes_;
  std::vector<std::unique_ptr<MachineExecutor>> executors_;
  std::vector<std::unique_ptr<EventManagerRoot>> em_roots_;
  std::vector<std::unique_ptr<TimerRoot>> timer_roots_;
  std::vector<std::unique_ptr<SimCore>> cores_;
};

}  // namespace ebbrt

#endif  // EBBRT_SRC_EVENT_SIM_WORLD_H_
