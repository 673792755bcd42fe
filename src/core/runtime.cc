#include "src/core/runtime.h"

#include <array>
#include <atomic>

namespace ebbrt {

namespace core_registry {
namespace {
std::mutex mu;
std::array<Runtime*, kMaxCores> owners = {};
}  // namespace

std::size_t Claim(Runtime* runtime, std::size_t n) {
  std::lock_guard<std::mutex> lock(mu);
  // Prefer a contiguous run of free slots (callers index cores as first+i). Slots are
  // recycled across Runtime lifetimes — benches construct many short-lived testbeds — and
  // Runtime's destructor wipes the per-core translation tables before release, so reuse
  // never observes stale representatives.
  for (std::size_t start = 0; start + n <= kMaxCores; ++start) {
    bool free_run = true;
    for (std::size_t i = 0; i < n; ++i) {
      if (owners[start + i] != nullptr) {
        free_run = false;
        start += i;  // skip past the occupied slot
        break;
      }
    }
    if (free_run) {
      for (std::size_t i = 0; i < n; ++i) {
        owners[start + i] = runtime;
      }
      return start;
    }
  }
  Kabort("core_registry: no contiguous run of %zu free core slots", n);
}

void Release(Runtime* runtime) {
  std::lock_guard<std::mutex> lock(mu);
  for (auto& owner : owners) {
    if (owner == runtime) {
      owner = nullptr;
    }
  }
}
}  // namespace core_registry

namespace {
std::atomic<std::size_t> next_runtime_id{0};
}  // namespace

Runtime::Runtime(RuntimeKind kind, std::string name)
    : kind_(kind), name_(std::move(name)), id_(next_runtime_id.fetch_add(1)) {}

Runtime::~Runtime() {
  // Adopted subsystems die before the core slots are released, in reverse adoption order
  // (allocator roots before the arena they carve from).
  while (!adopted_.empty()) {
    adopted_.pop_back();
  }
  // Then what fault handlers built: reps first (a rep may reference its root), then roots.
  while (!reps_.empty()) {
    reps_.back().deleter(reps_.back().ptr);
    reps_.pop_back();
  }
  for (auto& entry : roots_) {
    if (entry.second.deleter != nullptr) {
      entry.second.deleter(entry.second.ptr);
    }
  }
  // Clear any representatives this machine's cores cached in the global translation tables so
  // a later test constructing a new Runtime does not see stale pointers.
  for (std::size_t core : cores_) {
    void** table = context_internal::CoreEbbTable(core);
    for (std::size_t i = 0; i < kMaxFastEbbIds; ++i) {
      table[i] = nullptr;
    }
  }
  core_registry::Release(this);
}

std::size_t Runtime::AddCores(std::size_t n) {
  Kassert(n > 0, "AddCores: zero cores");
  Kassert(cores_.empty(), "AddCores: called twice");
  std::size_t first = core_registry::Claim(this, n);
  for (std::size_t i = 0; i < n; ++i) {
    cores_.push_back(first + i);
  }
  hosted_cache_.emplace(
      n, [](std::size_t) { return std::make_unique<std::unordered_map<EbbId, void*>>(); });
  return first;
}

void Runtime::InstallRoot(EbbId id, void* root) {
  std::lock_guard<std::mutex> lock(roots_mu_);
  roots_[id] = Owned{root, nullptr};
}

void* Runtime::HostedCacheLookup(std::size_t machine_core, EbbId id) {
  auto& map = (*hosted_cache_)[machine_core];
  auto it = map.find(id);
  return it == map.end() ? nullptr : it->second;
}

void Runtime::HostedCacheInsert(std::size_t machine_core, EbbId id, void* rep) {
  (*hosted_cache_)[machine_core][id] = rep;
}

void Runtime::CacheRep(EbbId id, void* rep) {
  Context& ctx = CurrentContext();
  Kassert(ctx.runtime != nullptr, "CacheRep: no context");
  if (ctx.runtime->hosted()) {
    ctx.runtime->HostedCacheInsert(ctx.machine_core, id, rep);
    return;
  }
  Kassert(id < kMaxFastEbbIds, "CacheRep: EbbId beyond fast-path table");
  context_internal::CoreEbbTable(ctx.core)[id] = rep;
}

EbbId Runtime::AllocateLocalId() {
  std::lock_guard<std::mutex> lock(id_mu_);
  EbbId id = next_local_id_++;
  Kbugon(id >= kMaxFastEbbIds, "Runtime %zu: EbbId space exhausted", id_);
  return id;
}

}  // namespace ebbrt
