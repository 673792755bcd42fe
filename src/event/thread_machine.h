// ThreadMachine — a machine whose cores are real OS threads (the "run on real parallel
// hardware" substrate).
//
// Each core is a pthread running the EventManager dispatch loop; halting parks the thread on
// a condition variable until a wake (interrupt/remote spawn) or timer deadline. Used by the
// allocator scalability experiments (Figure 3 needs genuine parallel cores), framework tests,
// and the examples. Networked experiments use SimWorld instead (virtual time).
#ifndef EBBRT_SRC_EVENT_THREAD_MACHINE_H_
#define EBBRT_SRC_EVENT_THREAD_MACHINE_H_

#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/core/runtime.h"
#include "src/event/event_manager.h"
#include "src/event/executor.h"
#include "src/event/timer.h"
#include "src/platform/clock.h"

namespace ebbrt {

class ThreadMachine : public Executor {
 public:
  explicit ThreadMachine(std::size_t num_cores, RuntimeKind kind = RuntimeKind::kNative,
                         std::string name = "machine");
  ~ThreadMachine() override;

  ThreadMachine(const ThreadMachine&) = delete;
  ThreadMachine& operator=(const ThreadMachine&) = delete;

  Runtime& runtime() { return *runtime_; }
  std::size_t num_cores() const { return cores_.size(); }

  // Launches the per-core loop threads. Idempotent.
  void Start();
  // Stops all loops and joins the threads. Called by the destructor if needed.
  void Shutdown();

  // Queues `fn` on machine core `core` (callable from any thread).
  void Spawn(std::size_t core, MoveFunction<void()> fn);
  // Queues `fn` and blocks the calling (external) thread until it completes.
  void RunSync(std::size_t core, MoveFunction<void()> fn);

  // --- Executor -----------------------------------------------------------------------------
  std::uint64_t Now() override { return WallNowNs() - epoch_ns_; }
  void WakeCore(std::size_t machine_core) override;
  void Halt(std::size_t machine_core, std::uint64_t wake_at) override;
  bool Stopped() const override { return stopped_.load(std::memory_order_acquire); }

 private:
  struct CoreState {
    std::mutex mu;
    std::condition_variable cv;
    bool wake_pending = false;
    std::thread thread;
  };

  void CoreMain(std::size_t machine_core);

  std::unique_ptr<Runtime> runtime_;
  // Caller-owned roots (InstallRoot): declared after runtime_, so they die before it.
  std::unique_ptr<EventManagerRoot> em_root_;
  std::unique_ptr<TimerRoot> timer_root_;
  std::vector<std::unique_ptr<CoreState>> cores_;
  std::uint64_t epoch_ns_;
  std::atomic<bool> stopped_{false};
  bool started_ = false;
};

}  // namespace ebbrt

#endif  // EBBRT_SRC_EVENT_THREAD_MACHINE_H_
