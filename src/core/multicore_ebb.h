// Representative management: the one per-core table and the one fault path every Ebb uses.
//
// Paper §3.3: representatives are resolved on demand by a per-type fault handler; a root
// object (shared per machine) coordinates them. This header holds the shapes used
// throughout the runtime and applications:
//
//   * PerCore<Rep>             — (runtime.h) a root's table of reps, one per core (or NUMA
//                                node), each built in index order with the table and never
//                                after. A hosted runtime keeps its translation maps in one.
//   * RootedEbb<Rep, Root>     — reps held by a root the machine installed under the Ebb's
//                                id (Root::RepFor(machine_core)): the runtime's own event
//                                loops, timers and allocators.
//   * MulticoreEbb<Rep, Root>  — per-core reps built on first touch from a per-machine root.
//   * MulticoreEbb<Rep, void>  — per-core reps built on first touch, with no shared root.
//   * SharedEbb<T>             — one representative per machine, cached on every core.
//
// Every fault handler runs ebb_internal::FaultIn: a hosted runtime's per-core hash cache
// first, then the shape's resolve step, then Runtime::CacheRep. Construction on first touch
// is serialized through the runtime's root registry lock; per-core caching is non-atomic by
// the non-preemption argument.
#ifndef EBBRT_SRC_CORE_MULTICORE_EBB_H_
#define EBBRT_SRC_CORE_MULTICORE_EBB_H_

#include <type_traits>

#include "src/core/ebb_id.h"
#include "src/core/ebb_ref.h"
#include "src/core/runtime.h"
#include "src/platform/context.h"
#include "src/platform/debug.h"

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

// The one miss skeleton: a hosted runtime's cached rep, else `resolve()` (which returns
// this core's rep), cached for (current core, id).
template <typename Rep, typename Resolve>
Rep& FaultIn(EbbId id, Resolve&& resolve) {
  if (void* cached = HostedLookup(id)) {
    return *static_cast<Rep*>(cached);
  }
  Rep& rep = resolve();
  Runtime::CacheRep(id, &rep);
  return rep;
}
}  // namespace ebb_internal

// --- Per-core representatives held by an installed root ---------------------------------------
//
// Root must be installed (Runtime::InstallRoot) under the Ebb's id and provide
// Rep& RepFor(std::size_t machine_core). The handler is out of line and cold: EbbRef::GetRep
// inlines the miss call into every call site, and a miss happens once per core.
template <typename Rep, typename Root>
class RootedEbb {
 public:
  __attribute__((noinline, cold)) static Rep& HandleFault(EbbId id) {
    return ebb_internal::FaultIn<Rep>(id, [id]() -> Rep& {
      Runtime& rt = CurrentRuntime();
      auto* root = static_cast<Root*>(rt.FindRoot(id));
      Kbugon(root == nullptr, "RootedEbb: no root for id %u on '%s'", id, rt.name().c_str());
      return root->RepFor(CurrentContext().machine_core);
    });
  }
};

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
    return ebb_internal::FaultIn<Rep>(id, [id]() -> Rep& {
      Runtime& rt = CurrentRuntime();
      Root* root = rt.GetOrCreateRoot<Root>(id, [] { return new Root(); });
      auto* rep = new Rep(*root);
      rt.AdoptRep(rep);
      return *rep;
    });
  }
};

// --- Per-core representatives with no shared root -------------------------------------------
template <typename Rep>
class MulticoreEbb<Rep, void> {
 public:
  static Rep& HandleFault(EbbId id) {
    return ebb_internal::FaultIn<Rep>(id, []() -> Rep& {
      auto* rep = new Rep();
      CurrentRuntime().AdoptRep(rep);
      return *rep;
    });
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
    return ebb_internal::FaultIn<T>(id, [id]() -> T& {
      return *CurrentRuntime().GetOrCreateRoot<T>(id, []() -> T* {
        if constexpr (std::is_default_constructible_v<T>) {
          return new T();
        } else {
          Kabort("SharedEbb: no instance installed and T is not default-constructible");
          return nullptr;
        }
      });
    });
  }
};

}  // namespace ebbrt

#endif  // EBBRT_SRC_CORE_MULTICORE_EBB_H_
