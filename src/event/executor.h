// Executor — the substrate a machine's cores run on.
//
// The paper's native environment boots one event loop per physical core; ours runs the same
// loop either on real threads (ThreadExecutor) or on a discrete-event calendar with virtual
// time (SimExecutor, used by the benchmark testbed). The EventManager only needs three things
// from its substrate: the clock, a way to wake a halted core, and a halt primitive that
// returns when there is (or may be) work.
#ifndef EBBRT_SRC_EVENT_EXECUTOR_H_
#define EBBRT_SRC_EVENT_EXECUTOR_H_

#include <cstddef>
#include <cstdint>
#include <limits>

namespace ebbrt {

inline constexpr std::uint64_t kNoWakeup = std::numeric_limits<std::uint64_t>::max();

class Executor {
 public:
  virtual ~Executor() = default;

  // Nanoseconds since executor start (virtual time under simulation).
  virtual std::uint64_t Now() = 0;

  // Ensures `machine_core`'s loop runs soon. Safe to call from any thread / any core
  // (device interrupt delivery, remote spawns, cross-core future fulfillment).
  virtual void WakeCore(std::size_t machine_core) = 0;

  // Called by a core's own loop when it has no work: "enables interrupts and halts". Returns
  // when the core is woken or `wake_at` (ns, kNoWakeup for none — e.g. a pending timer)
  // arrives. Must only be called from the loop of `machine_core`.
  virtual void Halt(std::size_t machine_core, std::uint64_t wake_at) = 0;

  // True once shutdown has been requested; loops exit at the next boundary.
  virtual bool Stopped() const = 0;

  // Notified by the event loop after each handler completes. The simulated executor uses this
  // to advance virtual time in fixed-cost mode; real executors ignore it.
  virtual void OnHandlerComplete() {}

  // Called by the loop between dispatch passes. The simulated executor parks the core here
  // when world events (e.g. packet deliveries) are scheduled earlier than the core's virtual
  // clock, so device activity interleaves with polling loops exactly as on real hardware.
  // Real executors (true concurrency) need nothing.
  virtual void MaybeYield(std::size_t /*machine_core*/) {}
};

}  // namespace ebbrt

#endif  // EBBRT_SRC_EVENT_EXECUTOR_H_
