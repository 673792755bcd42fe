#include "src/event/timer.h"

namespace ebbrt {

TimerRoot::TimerRoot(Executor& executor, EventManagerRoot& em_root, std::size_t num_cores)
    : executor_(executor), em_root_(em_root),
      reps_(num_cores, [this](std::size_t i) { return std::make_unique<Timer>(*this, i); }) {}

Timer::Timer(TimerRoot& root, std::size_t machine_core)
    : root_(root), machine_core_(machine_core), em_(root.em_root().RepFor(machine_core)) {
  // Hook this rep into its core's event loop. The loop polls due timers each pass and uses
  // the returned deadline to bound its halt.
  em_.SetTimerPoll(
      [this](std::uint64_t now) { return Poll(now); });
}

std::uint64_t Timer::Start(std::uint64_t delay_ns, MoveFunction<void()> fn, bool periodic) {
  Kassert(CurrentContext().machine_core == machine_core_, "Timer::Start: wrong core");
  std::uint32_t slot = timers_.Acquire();
  Slot& s = timers_[slot];
  s.fn = std::move(fn);
  s.period_ns = periodic ? delay_ns : 0;
  timers_.Set(slot, root_.executor().Now() + delay_ns, next_seq_++);
  // Tighten the loop's halt deadline in case no further dispatch pass polls before halting.
  PublishDeadline();
  return (std::uint64_t{s.generation} << 32) | (slot + 1);
}

void Timer::Stop(std::uint64_t handle) {
  std::uint32_t slot = Lookup(handle);
  if (slot == kNotQueued) {
    return;  // already fired, already stopped, or never issued
  }
  ++timers_[slot].generation;  // the handle is dead from here on
  timers_.Remove(slot);          // a live handle's slot is always armed
  if (slot != running_) {        // else the callback is on the stack: Poll frees the slot
    Release(slot);
  }
  PublishDeadline();
}

std::uint32_t Timer::Lookup(std::uint64_t handle) {
  std::uint64_t index = handle & 0xffffffffu;
  if (index == 0 || index > timers_.slots()) {
    return kNotQueued;
  }
  auto slot = static_cast<std::uint32_t>(index - 1);
  return timers_[slot].generation == static_cast<std::uint32_t>(handle >> 32) ? slot
                                                                              : kNotQueued;
}

void Timer::Release(std::uint32_t slot) {
  // Move the callable out first: its destructor may re-enter Start/Stop, which must see a
  // consistent table.
  MoveFunction<void()> fn = std::move(timers_[slot].fn);
  timers_.Release(slot);
}

void Timer::PublishDeadline() {
  em_.SetTimerDeadline(timers_.empty() ? kNoWakeup : timers_.top().time);
}

EventManager::TimerPollResult Timer::Poll(std::uint64_t now) {
  EventManager::TimerPollResult result;
  while (!timers_.empty() && timers_.top().time <= now) {
    auto [deadline, seq, slot] = timers_.top();
    Slot& s = timers_[slot];
    ++result.dispatched;
    if (s.period_ns != 0) {
      // Re-arm (keeping the Start order for ties) before running so the callback can Stop
      // its own handle. Periodic callbacks are persistent: invoked in place, never moved.
      timers_.Set(slot, deadline + s.period_ns, seq);
      running_ = slot;
      std::uint32_t generation = s.generation;
      em_.RunTimerHandler(&s.fn, /*persistent=*/true);
      running_ = kNotQueued;
      if (s.generation != generation) {
        Release(slot);  // it stopped itself
      }
    } else {
      // One-shot: retire the handle and free the slot before running, so the callback may
      // start timers into it. The event stack takes ownership of the callable.
      timers_.Pop();
      ++s.generation;
      MoveFunction<void()> fn = std::move(s.fn);
      timers_.Release(slot);
      em_.RunTimerHandler(&fn, /*persistent=*/false);
    }
  }
  result.next_deadline = timers_.empty() ? kNoWakeup : timers_.top().time;
  return result;
}

}  // namespace ebbrt
