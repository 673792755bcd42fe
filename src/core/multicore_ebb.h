// Representative-management base classes for common Ebb shapes.
//
// Paper §3.3: representatives are constructed on demand by a per-type fault handler; a root
// object (shared per machine) coordinates them. These CRTP bases implement the three shapes
// used throughout the runtime and applications:
//
//   * MulticoreEbb<Rep, Root>  — per-core representatives created from a per-machine root.
//   * MulticoreEbb<Rep, void>  — per-core representatives with no shared root.
//   * SharedEbb<T>             — one representative per machine, cached on every core.
//
// All fault handlers first consult the hosted per-core hash cache when running in a hosted
// runtime, then construct-and-cache. Construction is serialized through the runtime's root
// registry lock; per-core caching is non-atomic by the non-preemption argument.
#ifndef EBBRT_SRC_CORE_MULTICORE_EBB_H_
#define EBBRT_SRC_CORE_MULTICORE_EBB_H_

#include <mutex>
#include <unordered_map>
#include <utility>

#include "src/core/ebb_id.h"
#include "src/core/ebb_ref.h"
#include "src/core/runtime.h"
#include "src/platform/context.h"

namespace ebbrt {

namespace ebb_internal {
// Looks up a hosted-cached rep for (current core, id); returns nullptr when absent or native.
// gcc 12 miscompiles this TLS null check (`je` after a flag-less `lea`); noinline keeps the
// no_sanitize in force, as gcc drops it once the body is inlined into a sanitized caller.
__attribute__((noinline, no_sanitize("null"))) inline void* HostedLookup(EbbId id) {
  Context& ctx = CurrentContext();
  if (!ctx.runtime->hosted()) {
    return nullptr;
  }
  return ctx.runtime->HostedCacheLookup(ctx.machine_core, id);
}
}  // namespace ebb_internal

// --- Per-core representatives sharing a per-machine Root -----------------------------------
//
// Rep must be constructible as Rep(Root&). Root must be default-constructible unless a root
// is installed explicitly with Create(root, id) before first use.
template <typename Rep, typename Root = void>
class MulticoreEbb {
 public:
  static EbbRef<Rep> Create(Root* root, EbbId id) {
    CurrentRuntime().InstallRoot(id, root);
    return EbbRef<Rep>(id);
  }

  static Rep& HandleFault(EbbId id) {
    if (void* cached = ebb_internal::HostedLookup(id)) {
      return *static_cast<Rep*>(cached);
    }
    Runtime& rt = CurrentRuntime();
    Root* root = rt.GetOrCreateRoot<Root>(id, [] { return new Root(); });
    // The per-machine root tracks reps so cross-rep protocols (e.g. cache rebalance) can
    // reach them; here we only need construct-and-cache.
    auto* rep = new Rep(*root);
    rt.AdoptRep(rep);
    Runtime::CacheRep(id, rep);
    return *rep;
  }
};

// --- Per-core representatives with no shared root -------------------------------------------
template <typename Rep>
class MulticoreEbb<Rep, void> {
 public:
  static Rep& HandleFault(EbbId id) {
    if (void* cached = ebb_internal::HostedLookup(id)) {
      return *static_cast<Rep*>(cached);
    }
    auto* rep = new Rep();
    CurrentRuntime().AdoptRep(rep);
    Runtime::CacheRep(id, rep);
    return *rep;
  }
};

// --- One representative per machine ----------------------------------------------------------
//
// The single rep is created under the root-registry lock on first touch from any core and then
// cached into each core's translation table. T must be default-constructible, or installed
// explicitly via Create(instance, id).
template <typename T>
class SharedEbb {
 public:
  static EbbRef<T> Create(T* instance, EbbId id) {
    CurrentRuntime().InstallRoot(id, instance);
    return EbbRef<T>(id);
  }

  static T& HandleFault(EbbId id) {
    if (void* cached = ebb_internal::HostedLookup(id)) {
      return *static_cast<T*>(cached);
    }
    Runtime& rt = CurrentRuntime();
    T* instance = rt.GetOrCreateRoot<T>(id, []() -> T* {
      if constexpr (std::is_default_constructible_v<T>) {
        return new T();
      } else {
        Kabort("SharedEbb: no instance installed and T is not default-constructible");
        return nullptr;
      }
    });
    Runtime::CacheRep(id, instance);
    return *instance;
  }
};

}  // namespace ebbrt

#endif  // EBBRT_SRC_CORE_MULTICORE_EBB_H_
