// Runtime — the per-machine spine of an EbbRT instance.
//
// The paper deploys one library OS per VM plus hosted library instances inside Linux
// processes. Our reproduction runs several such instances inside one address space (so the
// simulated testbed can wire them together), which means every "per-machine singleton" of the
// original — Ebb roots, the boot allocator, the network stack — hangs off a Runtime object
// instead of being a process-global. A Runtime owns:
//
//   * its kind (Native or Hosted — Hosted runtimes translate EbbIds through per-core hash
//     maps, reproducing the paper's userspace translation cost),
//   * the global core slots assigned to it,
//   * the root registry: EbbId -> root object used by representative miss handlers,
//   * typed subsystem slots for the default Ebbs (event manager, allocators, network stack).
//
// A runtime owns every subsystem it creates: GetOrCreateSubsystem/InstallSubsystem adopt it,
// and ~Runtime destroys it in reverse creation order. InstallRoot is only for caller-owned
// roots, and only the executors (SimWorld, ThreadMachine) fill a slot they own themselves.
#ifndef EBBRT_SRC_CORE_RUNTIME_H_
#define EBBRT_SRC_CORE_RUNTIME_H_

#include <cstddef>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/core/ebb_id.h"
#include "src/platform/context.h"
#include "src/platform/debug.h"

namespace ebbrt {

enum class RuntimeKind : std::uint8_t {
  kNative,  // library OS instance: flat per-core Ebb translation tables
  kHosted,  // userspace library instance: per-core hash-table translation
};

// Typed slots for per-machine subsystems; representatives fetch them from the current
// runtime without a registry lookup.
enum class Subsystem : std::size_t {
  kEventManager = 0,
  kPageAllocator,
  kGeneralPurposeAllocator,
  kRcuManager,
  kNetworkManager,
  kMessenger,
  kGlobalIdMap,
  kFileSystem,  // client of the hosted frontend's file service (dist::FileSystem)
  kObservability,  // per-machine telemetry plane root (obs::ObsRoot)
  kMachine,  // simulated machine this runtime is attached to (if any)
  kNumSubsystems,
};

// --- A per-core (or per-node) table: a root's reps, a hosted runtime's maps -------------------
//
// Each rep is its own allocation (adjacent reps do not share the table's storage), built by
// make(i) -> std::unique_ptr<Rep> for i = 0..n-1 when the table is constructed. Lookup is a
// bounds check and a load: no lock, no lazy path.
template <typename Rep>
class PerCore {
 public:
  template <typename Make>
  PerCore(std::size_t n, Make&& make) {
    reps_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      reps_.push_back(make(i));
    }
  }

  Rep& operator[](std::size_t i) const {
    Kassert(i < reps_.size(), "PerCore: index out of range");
    return *reps_[i];
  }
  std::size_t size() const { return reps_.size(); }

 private:
  std::vector<std::unique_ptr<Rep>> reps_;
};

class Runtime {
 public:
  explicit Runtime(RuntimeKind kind, std::string name = "machine");
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  RuntimeKind kind() const { return kind_; }
  bool hosted() const { return kind_ == RuntimeKind::kHosted; }
  const std::string& name() const { return name_; }
  std::size_t id() const { return id_; }

  // --- Cores -------------------------------------------------------------
  // Claims `n` global core slots for this machine and builds each core's hosted
  // translation map. Called exactly once, by the executor, before any core runs. Returns the
  // first global slot.
  std::size_t AddCores(std::size_t n);
  std::size_t num_cores() const { return cores_.size(); }
  std::size_t global_core(std::size_t machine_core) const {
    Kassert(machine_core < cores_.size(), "global_core: bad index");
    return cores_[machine_core];
  }
  const std::vector<std::size_t>& cores() const { return cores_; }

  // --- Root registry -----------------------------------------------------
  // Returns the root object for `id`, constructing it with `factory` under the registry lock
  // if absent. A root the factory built is owned by this runtime: ~Runtime deletes it.
  template <typename T, typename Factory>
  T* GetOrCreateRoot(EbbId id, Factory&& factory) {
    std::lock_guard<std::mutex> lock(roots_mu_);
    auto it = roots_.find(id);
    if (it != roots_.end()) {
      return static_cast<T*>(it->second.ptr);
    }
    T* root = factory();
    roots_.emplace(id, Owned{root, [](void* p) { delete static_cast<T*>(p); }});
    return root;
  }

  // Takes ownership of a representative a fault handler built. ~Runtime deletes reps
  // before the roots they may reference.
  template <typename Rep>
  void AdoptRep(Rep* rep) {
    std::lock_guard<std::mutex> lock(roots_mu_);
    reps_.push_back(Owned{rep, [](void* p) { delete static_cast<Rep*>(p); }});
  }

  void* FindRoot(EbbId id) {
    std::lock_guard<std::mutex> lock(roots_mu_);
    auto it = roots_.find(id);
    return it == roots_.end() ? nullptr : it->second.ptr;
  }

  // Installs a root the caller owns: ~Runtime never deletes it.
  void InstallRoot(EbbId id, void* root);

  // Adopts ownership of a subsystem object so it dies with this machine (in reverse adoption
  // order — installers adopt foundations first). Benches build and tear down many short-lived
  // machines; without this, per-machine arenas and allocator roots would accumulate.
  void Adopt(std::shared_ptr<void> obj) { adopted_.push_back(std::move(obj)); }

  // --- Hosted translation cache -------------------------------------------
  // Hosted runtimes cache representatives in a per-core hash map (the paper's Linux userspace
  // cannot use per-core virtual memory regions). Only `machine_core` itself reads or writes
  // its map, so neither call takes a lock. Lookup returns nullptr on miss.
  void* HostedCacheLookup(std::size_t machine_core, EbbId id);
  void HostedCacheInsert(std::size_t machine_core, EbbId id, void* rep);

  // Caches `rep` for (current core, id): native -> flat table, hosted -> hash map. The one
  // caller is the fault path, ebb_internal::FaultIn.
  static void CacheRep(EbbId id, void* rep);

  // --- Subsystem slots ----------------------------------------------------
  // The subsystem in `which`'s slot, built by `factory` (returning std::shared_ptr<T>) and
  // adopted if the slot is empty. The hit path is one slot load and a null test.
  template <typename T, typename Factory>
  T& GetOrCreateSubsystem(Subsystem which, Factory&& factory) {
    if (T* existing = TryGetSubsystem<T>(which)) {
      return *existing;
    }
    return InstallSubsystem(which, std::shared_ptr<T>(std::forward<Factory>(factory)()));
  }

  // Fills `which`'s empty slot with `obj` and adopts it.
  template <typename T>
  T& InstallSubsystem(Subsystem which, std::shared_ptr<T> obj) {
    Kassert(TryGetSubsystem<T>(which) == nullptr, "InstallSubsystem: slot already filled");
    T& ref = *obj;
    SetSubsystem(which, &ref);
    Adopt(std::move(obj));
    return ref;
  }

  template <typename T>
  T& GetSubsystem(Subsystem which) const {
    void* p = subsystems_[static_cast<std::size_t>(which)];
    Kassert(p != nullptr, "GetSubsystem: subsystem not installed");
    return *static_cast<T*>(p);
  }

  template <typename T>
  T* TryGetSubsystem(Subsystem which) const {
    return static_cast<T*>(subsystems_[static_cast<std::size_t>(which)]);
  }

  // Dynamic EbbId allocation for this machine (see EbbAllocator for the distributed story).
  EbbId AllocateLocalId();

 private:
  // Only the executors fill a slot without adopting: they own the event plane they install.
  friend class SimWorld;
  friend class ThreadMachine;
  template <typename T>
  void SetSubsystem(Subsystem which, T* ptr) {
    subsystems_[static_cast<std::size_t>(which)] = ptr;
  }

  // An object in the registry; `deleter` is null when the runtime does not own it.
  struct Owned {
    void* ptr;
    void (*deleter)(void*);
  };

  RuntimeKind kind_;
  std::string name_;
  std::size_t id_;
  std::vector<std::size_t> cores_;

  std::mutex roots_mu_;
  std::unordered_map<EbbId, Owned> roots_;
  std::vector<Owned> reps_;  // built by fault handlers, deleted in reverse by ~Runtime

  std::optional<PerCore<std::unordered_map<EbbId, void*>>> hosted_cache_;  // built by AddCores

  void* subsystems_[static_cast<std::size_t>(Subsystem::kNumSubsystems)] = {};

  std::mutex id_mu_;
  EbbId next_local_id_ = kFirstFreeId;

  std::vector<std::shared_ptr<void>> adopted_;  // destroyed in reverse order by ~Runtime
};

// Global core-slot bookkeeping (which runtime owns which global core).
namespace core_registry {
std::size_t Claim(Runtime* runtime, std::size_t n);
void Release(Runtime* runtime);
}  // namespace core_registry

}  // namespace ebbrt

#endif  // EBBRT_SRC_CORE_RUNTIME_H_
