#include "src/event/thread_machine.h"

#include <chrono>

namespace ebbrt {

ThreadMachine::ThreadMachine(std::size_t num_cores, RuntimeKind kind, std::string name)
    : runtime_(std::make_unique<Runtime>(kind, std::move(name))), epoch_ns_(WallNowNs()) {
  runtime_->AddCores(num_cores);
  em_root_ = std::make_unique<EventManagerRoot>(*this, num_cores);
  runtime_->InstallRoot(kEventManagerId, em_root_.get());
  runtime_->SetSubsystem(Subsystem::kEventManager, em_root_.get());
  timer_root_ = std::make_unique<TimerRoot>(*this, *em_root_, num_cores);
  runtime_->InstallRoot(kTimerId, timer_root_.get());
  for (std::size_t i = 0; i < num_cores; ++i) {
    cores_.push_back(std::make_unique<CoreState>());
  }
}

ThreadMachine::~ThreadMachine() {
  Shutdown();
  // em_root_ dies before the runtime (member order), and so before the subsystems the
  // runtime adopted: clear the slot now, as SimWorld::Shutdown does, so their destructors
  // find no event loops instead of a freed root.
  runtime_->SetSubsystem(Subsystem::kEventManager, static_cast<EventManagerRoot*>(nullptr));
}

void ThreadMachine::Start() {
  if (started_) {
    return;
  }
  started_ = true;
  for (std::size_t i = 0; i < cores_.size(); ++i) {
    cores_[i]->thread = std::thread([this, i] { CoreMain(i); });
  }
}

void ThreadMachine::Shutdown() {
  if (!started_ || stopped_.load()) {
    if (started_) {
      for (auto& core : cores_) {
        if (core->thread.joinable()) {
          core->thread.join();
        }
      }
    }
    return;
  }
  stopped_.store(true, std::memory_order_release);
  for (std::size_t i = 0; i < cores_.size(); ++i) {
    WakeCore(i);
  }
  for (auto& core : cores_) {
    if (core->thread.joinable()) {
      core->thread.join();
    }
  }
}

void ThreadMachine::CoreMain(std::size_t machine_core) {
  ScopedContext ctx(*runtime_, runtime_->global_core(machine_core), machine_core,
                    runtime_->hosted());
  em_root_->RepFor(machine_core).Loop();
}

void ThreadMachine::Spawn(std::size_t core, MoveFunction<void()> fn) {
  em_root_->RepFor(core).Spawn(std::move(fn));
}

void ThreadMachine::RunSync(std::size_t core, MoveFunction<void()> fn) {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  Spawn(core, [&] {
    fn();
    {
      std::lock_guard<std::mutex> lock(mu);
      done = true;
    }
    cv.notify_one();
  });
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return done; });
}

void ThreadMachine::WakeCore(std::size_t machine_core) {
  CoreState& core = *cores_[machine_core];
  {
    std::lock_guard<std::mutex> lock(core.mu);
    core.wake_pending = true;
  }
  core.cv.notify_one();
}

void ThreadMachine::Halt(std::size_t machine_core, std::uint64_t wake_at) {
  CoreState& core = *cores_[machine_core];
  std::unique_lock<std::mutex> lock(core.mu);
  if (core.wake_pending || stopped_.load(std::memory_order_acquire)) {
    core.wake_pending = false;
    return;
  }
  if (wake_at == kNoWakeup) {
    core.cv.wait(lock, [&] {
      return core.wake_pending || stopped_.load(std::memory_order_acquire);
    });
  } else {
    std::uint64_t now = Now();
    auto delay = std::chrono::nanoseconds(wake_at > now ? wake_at - now : 0);
    core.cv.wait_for(lock, delay, [&] {
      return core.wake_pending || stopped_.load(std::memory_order_acquire);
    });
  }
  core.wake_pending = false;
}

}  // namespace ebbrt
