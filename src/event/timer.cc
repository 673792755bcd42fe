#include "src/event/timer.h"

namespace ebbrt {

TimerRoot::TimerRoot(Executor& executor, EventManagerRoot& em_root, std::size_t num_cores)
    : executor_(executor), em_root_(em_root) {
  reps_.resize(num_cores);
}

Timer& TimerRoot::RepFor(std::size_t machine_core) {
  Kassert(machine_core < reps_.size(), "TimerRoot: bad core");
  std::lock_guard<Spinlock> lock(mu_);
  if (reps_[machine_core] == nullptr) {
    reps_[machine_core] = std::make_unique<Timer>(*this, machine_core);
  }
  return *reps_[machine_core];
}

Timer& Timer::HandleFault(EbbId id) {
  Context& ctx = CurrentContext();
  auto* root = static_cast<TimerRoot*>(ctx.runtime->FindRoot(id));
  Kbugon(root == nullptr, "Timer: no root installed for machine '%s'",
         ctx.runtime->name().c_str());
  Timer& rep = root->RepFor(ctx.machine_core);
  Runtime::CacheRep(id, &rep);
  return rep;
}

Timer::Timer(TimerRoot& root, std::size_t machine_core)
    : root_(root), machine_core_(machine_core), em_(root.em_root().RepFor(machine_core)) {
  // Hook this rep into its core's event loop. The loop polls due timers each pass and uses
  // the returned deadline to bound its halt.
  em_.SetTimerPoll(
      [this](std::uint64_t now) { return Poll(now); });
}

std::uint64_t Timer::Start(std::uint64_t delay_ns, MoveFunction<void()> fn, bool periodic) {
  Kassert(CurrentContext().machine_core == machine_core_, "Timer::Start: wrong core");
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.period_ns = periodic ? delay_ns : 0;
  HeapPush({root_.executor().Now() + delay_ns, next_seq_++, slot});
  // Tighten the loop's halt deadline in case no further dispatch pass polls before halting.
  PublishDeadline();
  return (std::uint64_t{s.generation} << 32) | (slot + 1);
}

void Timer::Stop(std::uint64_t handle) {
  std::uint32_t slot = Lookup(handle);
  if (slot == kNotQueued) {
    return;  // already fired, already stopped, or never issued
  }
  Slot& s = slots_[slot];
  ++s.generation;  // the handle is dead from here on
  if (s.heap_pos != kNotQueued) {
    HeapRemove(s.heap_pos);
  }
  if (slot == running_) {
    running_stopped_ = true;  // the callback is on the stack: Poll frees the slot after it
  } else {
    Release(slot);
  }
  PublishDeadline();
}

std::uint32_t Timer::Lookup(std::uint64_t handle) const {
  std::uint64_t index = handle & 0xffffffffu;
  if (index == 0 || index > slots_.size()) {
    return kNotQueued;
  }
  auto slot = static_cast<std::uint32_t>(index - 1);
  return slots_[slot].generation == static_cast<std::uint32_t>(handle >> 32) ? slot
                                                                              : kNotQueued;
}

void Timer::Release(std::uint32_t slot) {
  // Move the callable out first: its destructor may re-enter Start/Stop, which must see a
  // consistent table.
  MoveFunction<void()> fn = std::move(slots_[slot].fn);
  free_slots_.push_back(slot);
}

void Timer::PublishDeadline() {
  em_.SetTimerDeadline(heap_.empty() ? kNoWakeup : heap_.front().deadline);
}

EventManager::TimerPollResult Timer::Poll(std::uint64_t now) {
  EventManager::TimerPollResult result;
  while (!heap_.empty() && heap_.front().deadline <= now) {
    HeapItem item = heap_.front();
    Slot& s = slots_[item.slot];
    ++result.dispatched;
    if (s.period_ns != 0) {
      // Re-arm (keeping the Start order for ties) before running so the callback can Stop
      // its own handle. Periodic callbacks are persistent: invoked in place, never moved.
      item.deadline += s.period_ns;
      Place(0, item);
      SiftDown(0);
      running_ = item.slot;
      running_stopped_ = false;
      em_.RunTimerHandler(&s.fn, /*persistent=*/true);
      running_ = kNotQueued;
      if (running_stopped_) {
        Release(item.slot);
      }
    } else {
      // One-shot: retire the handle and free the slot before running, so the callback may
      // start timers into it. The event stack takes ownership of the callable.
      HeapRemove(0);
      ++s.generation;
      MoveFunction<void()> fn = std::move(s.fn);
      free_slots_.push_back(item.slot);
      em_.RunTimerHandler(&fn, /*persistent=*/false);
    }
  }
  result.next_deadline = heap_.empty() ? kNoWakeup : heap_.front().deadline;
  return result;
}

// --- Indexed binary min-heap: every move records the item's position in its slot ----------

void Timer::Place(std::uint32_t pos, HeapItem item) {
  slots_[item.slot].heap_pos = pos;
  heap_[pos] = item;
}

void Timer::HeapPush(HeapItem item) {
  heap_.push_back(item);
  SiftUp(static_cast<std::uint32_t>(heap_.size() - 1));
}

void Timer::HeapRemove(std::uint32_t pos) {
  slots_[heap_[pos].slot].heap_pos = kNotQueued;
  HeapItem last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) {
    return;
  }
  Place(pos, last);
  if (pos > 0 && last < heap_[(pos - 1) / 2]) {
    SiftUp(pos);
  } else {
    SiftDown(pos);
  }
}

void Timer::SiftUp(std::uint32_t pos) {
  HeapItem item = heap_[pos];
  while (pos > 0) {
    std::uint32_t parent = (pos - 1) / 2;
    if (!(item < heap_[parent])) {
      break;
    }
    Place(pos, heap_[parent]);
    pos = parent;
  }
  Place(pos, item);
}

void Timer::SiftDown(std::uint32_t pos) {
  HeapItem item = heap_[pos];
  auto n = static_cast<std::uint32_t>(heap_.size());
  for (;;) {
    std::uint32_t child = 2 * pos + 1;
    if (child >= n) {
      break;
    }
    if (child + 1 < n && heap_[child + 1] < heap_[child]) {
      ++child;
    }
    if (!(heap_[child] < item)) {
      break;
    }
    Place(pos, heap_[child]);
    pos = child;
  }
  Place(pos, item);
}

}  // namespace ebbrt
