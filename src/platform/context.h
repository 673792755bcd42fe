// Per-core execution context.
//
// EbbRT's native environment numbers cores and gives each one a translation region for Ebb
// representatives plus non-preemptive event execution. We model a *core* as a global slot
// (0..kMaxCores). Executors (thread-per-core or discrete-event) install the current core's
// context into TLS before running a handler; all per-core fast paths (Ebb translation, RCU,
// slab caches) read it without atomics, which is safe because a core's state is only ever
// touched by the one thread currently acting as that core.
#ifndef EBBRT_SRC_PLATFORM_CONTEXT_H_
#define EBBRT_SRC_PLATFORM_CONTEXT_H_

#include <cstddef>
#include <cstdint>

#include "src/platform/debug.h"

namespace ebbrt {

class Runtime;

inline constexpr std::size_t kMaxCores = 64;

// Fast-path Ebb translation covers ids below this bound (the "per-core virtual memory
// region" of the paper, modeled as a flat per-core array).
inline constexpr std::size_t kMaxFastEbbIds = 1 << 14;

struct Context {
  Runtime* runtime = nullptr;    // machine this core belongs to
  std::size_t core = SIZE_MAX;   // global core slot
  std::size_t machine_core = 0;  // index of this core within its machine
  bool in_event = false;         // true while an event handler runs (interrupts masked)
};

namespace context_internal {
// TLS fast-path pointer to the current core's Ebb translation table. For hosted runtimes this
// points at a shared always-null table so every dereference takes the miss path (which does a
// hash-table lookup, as the paper's Linux userspace implementation must).
// constinit: both are constant-initialized, so an access needs no TLS init-function guard.
extern constinit thread_local void** local_ebb_table;
extern constinit thread_local Context current;
extern void* const all_null_table[kMaxFastEbbIds];

// Per-core translation table storage, allocated on first install.
void** CoreEbbTable(std::size_t core);
}  // namespace context_internal

inline Context& CurrentContext() { return context_internal::current; }

inline std::size_t CurrentCore() {
  Kassert(context_internal::current.runtime != nullptr, "CurrentCore: no context installed");
  return context_internal::current.core;
}

inline Runtime& CurrentRuntime() {
  Kassert(context_internal::current.runtime != nullptr,
          "CurrentRuntime: no context installed");
  return *context_internal::current.runtime;
}

inline bool HaveContext() { return context_internal::current.runtime != nullptr; }

// Installs `ctx` as this thread's current core context. `hosted` selects the always-null
// translation table (hash-lookup slow path on every Ebb call).
void InstallContext(const Context& ctx, bool hosted);

// RAII installer used by executors and tests; restores the previous context on destruction.
class ScopedContext {
 public:
  ScopedContext(Runtime& runtime, std::size_t core, std::size_t machine_core, bool hosted);
  ~ScopedContext();

  ScopedContext(const ScopedContext&) = delete;
  ScopedContext& operator=(const ScopedContext&) = delete;

 private:
  Context saved_;
  void** saved_table_;
};

}  // namespace ebbrt

#endif  // EBBRT_SRC_PLATFORM_CONTEXT_H_
