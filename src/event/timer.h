// Timer — per-core timeout dispatch Ebb.
//
// Timeouts are core-local (started, fired, and stopped on one core), so the wheel needs no
// synchronization. The representative registers a poll hook with its core's EventManager; the
// event loop invokes it at the top of each dispatch pass ("timer completions" are interrupt
// sources in the paper's model), and uses the reported next deadline to bound Halt.
//
// Storage is a slot table plus an indexed min-heap over the armed slots. A handle names a
// slot and the slot's generation, so Stop on a fired or stopped timer (even after its slot
// was reused) is a no-op. Stop unlinks the heap entry eagerly in O(log n): the heap holds
// only live timers, and the core's halt deadline never points at a cancelled one. Ties on
// the deadline fire in Start order. Slots never move (std::deque grows at the back without
// relocating), so a periodic callback, invoked in place, survives the Start calls it makes;
// if it Stops itself, its slot is released only after it returns. A periodic callback must
// not suspend (SaveContext): its slot is reused once it is stopped.
#ifndef EBBRT_SRC_EVENT_TIMER_H_
#define EBBRT_SRC_EVENT_TIMER_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "src/core/ebb_id.h"
#include "src/core/ebb_ref.h"
#include "src/core/runtime.h"
#include "src/event/event_manager.h"
#include "src/platform/move_function.h"

namespace ebbrt {

class Timer;

class TimerRoot {
 public:
  TimerRoot(Executor& executor, EventManagerRoot& em_root, std::size_t num_cores);
  Timer& RepFor(std::size_t machine_core);
  Executor& executor() { return executor_; }
  EventManagerRoot& em_root() { return em_root_; }

 private:
  Executor& executor_;
  EventManagerRoot& em_root_;
  std::vector<std::unique_ptr<Timer>> reps_;
  Spinlock mu_;  // guards lazy rep construction (first touch can race across cores)
};

class Timer {
 public:
  static EbbRef<Timer> Instance() { return EbbRef<Timer>(kTimerId); }
  static Timer& HandleFault(EbbId id);

  Timer(TimerRoot& root, std::size_t machine_core);

  // Arms a timeout `delay_ns` from now on the current core; returns a handle for Stop().
  // Periodic timers re-arm with the same period until stopped.
  std::uint64_t Start(std::uint64_t delay_ns, MoveFunction<void()> fn, bool periodic = false);
  void Stop(std::uint64_t handle);

  std::size_t pending() const { return heap_.size(); }

  // Invoked by the event loop: runs all due callbacks, returns count + next deadline.
  EventManager::TimerPollResult Poll(std::uint64_t now);

 private:
  static constexpr std::uint32_t kNotQueued = UINT32_MAX;

  struct Slot {
    MoveFunction<void()> fn;
    std::uint64_t period_ns = 0;          // 0 => one-shot
    std::uint32_t generation = 0;         // bumped when a one-shot fires or a timer stops
    std::uint32_t heap_pos = kNotQueued;  // index into heap_ while armed
  };
  struct HeapItem {
    std::uint64_t deadline;
    std::uint64_t seq;  // Start order: ties fire first-started first
    std::uint32_t slot;
    friend bool operator<(const HeapItem& a, const HeapItem& b) {
      return a.deadline != b.deadline ? a.deadline < b.deadline : a.seq < b.seq;
    }
  };

  // Resolves a handle to its armed (or running) slot index; kNotQueued when stale.
  std::uint32_t Lookup(std::uint64_t handle) const;
  void Release(std::uint32_t slot);
  void HeapPush(HeapItem item);
  void HeapRemove(std::uint32_t pos);
  void SiftUp(std::uint32_t pos);
  void SiftDown(std::uint32_t pos);
  void Place(std::uint32_t pos, HeapItem item);
  // Points the core's halt deadline at the earliest live timer.
  void PublishDeadline();

  TimerRoot& root_;
  std::size_t machine_core_;
  EventManager& em_;  // this core's loop: runs the callbacks, bounds its halt by our deadline
  std::uint64_t next_seq_ = 0;
  std::deque<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<HeapItem> heap_;
  std::uint32_t running_ = kNotQueued;  // periodic slot whose callback is on the stack
  bool running_stopped_ = false;        // ...and was stopped from inside it
};

}  // namespace ebbrt

#endif  // EBBRT_SRC_EVENT_TIMER_H_
