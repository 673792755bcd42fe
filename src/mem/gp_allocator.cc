#include "src/mem/gp_allocator.h"

#include <cstdlib>

namespace ebbrt {

namespace {

// Append-on-install registry of live GP roots, used to route any arena pointer back to its
// owning machine's allocator (mem::FindOwningRoot). Fixed-capacity array of atomics so the
// lookup — which sits on IOBuf release paths — takes no lock; slots are recycled when a
// machine is torn down.
constexpr std::size_t kMaxLiveRoots = 64;
std::atomic<GeneralPurposeAllocatorRoot*> g_live_roots[kMaxLiveRoots] = {};

void RegisterRoot(GeneralPurposeAllocatorRoot* root) {
  for (auto& slot : g_live_roots) {
    GeneralPurposeAllocatorRoot* expected = nullptr;
    if (slot.compare_exchange_strong(expected, root, std::memory_order_acq_rel)) {
      return;
    }
  }
  Kabort("gp_allocator: more than %zu live machine arenas", kMaxLiveRoots);
}

void UnregisterRoot(GeneralPurposeAllocatorRoot* root) {
  for (auto& slot : g_live_roots) {
    GeneralPurposeAllocatorRoot* expected = root;
    if (slot.compare_exchange_strong(expected, nullptr, std::memory_order_acq_rel)) {
      return;
    }
  }
}

}  // namespace

namespace mem {

namespace internal {
// Defined in heap_count.cc alongside the replacement ::operator new. Referencing it here
// forces that archive member into any binary that touches mem::stats(): a static-library
// operator new is only linked when some symbol in its object file is, and a silently absent
// hook would report 0.0 allocs for a path that mallocs.
void EnsureHeapCountLinked();
}  // namespace internal

Stats& stats() {
  internal::EnsureHeapCountLinked();
  static Stats instance;
  return instance;
}

GeneralPurposeAllocatorRoot* FindOwningRoot(const void* p) {
  for (auto& slot : g_live_roots) {
    GeneralPurposeAllocatorRoot* root = slot.load(std::memory_order_acquire);
    if (root != nullptr && root->pages().arena().Contains(p)) {
      return root;
    }
  }
  return nullptr;
}

void* AllocRouted(std::size_t size, bool* slab_backed) {
  if (HaveContext() &&
      CurrentRuntime().TryGetSubsystem<GeneralPurposeAllocatorRoot>(
          Subsystem::kGeneralPurposeAllocator) != nullptr) {
    void* p = GeneralPurposeAllocator::Instance()->Alloc(size);
    if (p != nullptr) {
      if (slab_backed != nullptr) {
        *slab_backed = true;
      }
      return p;
    }
  }
  if (slab_backed != nullptr) {
    *slab_backed = false;
  }
  stats().heap_fallback_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size != 0 ? size : 1);
}

void FreeRouted(void* p) {
  if (p == nullptr) {
    return;
  }
  GeneralPurposeAllocatorRoot* owner = FindOwningRoot(p);
  if (owner == nullptr) {
    std::free(p);
    return;
  }
  if (HaveContext() && owner->runtime() == &CurrentRuntime()) {
    // Same machine: per-core fast path via the cached Ebb representative.
    GeneralPurposeAllocator::Instance()->Free(p);
    return;
  }
  owner->FreeAnywhere(p);
}

}  // namespace mem

GeneralPurposeAllocatorRoot::GeneralPurposeAllocatorRoot(PageAllocatorRoot& pages,
                                                         std::size_t num_cores,
                                                         Runtime* runtime)
    : pages_(pages), num_cores_(num_cores), runtime_(runtime) {
  // One slab cache Ebb per size class. Ids are taken from the machine-local dynamic range so
  // the class caches are themselves replaceable/invocable Ebbs.
  for (std::size_t i = 0; i < gp_internal::kSizeClasses.size(); ++i) {
    EbbId id = CurrentRuntime().AllocateLocalId();
    class_roots_[i] = std::make_unique<SlabCacheRoot>(pages, gp_internal::kSizeClasses[i], id,
                                                      num_cores);
    CurrentRuntime().InstallRoot(id, class_roots_[i].get());
  }
  reps_.resize(num_cores);
  RegisterRoot(this);
}

GeneralPurposeAllocatorRoot::~GeneralPurposeAllocatorRoot() { UnregisterRoot(this); }

void GeneralPurposeAllocatorRoot::FreeAnywhere(void* p) {
  PhysArena& arena = pages_.arena();
  Kassert(arena.Contains(p), "GeneralPurposeAllocatorRoot::FreeAnywhere: foreign pointer");
  // Running as a core of this machine: the ordinary per-core fast path applies.
  if (HaveContext() && runtime_ != nullptr && &CurrentRuntime() == runtime_) {
    RepFor(CurrentContext().machine_core).Free(p);
    return;
  }
  // Anything else — world actions, another machine's core, post-loop teardown — may not
  // touch a per-core freelist. Route slab objects to the owning node depot and large blocks
  // to the node buddy, both of which are lock-protected.
  mem::stats().remote_frees.fetch_add(1, std::memory_order_relaxed);
  PageInfo& info = arena.InfoForAddr(p);
  if (info.kind == PageKind::kSlab) {
    static_cast<SlabCacheRoot*>(info.owner)->RemoteFree(p, info.node);
    return;
  }
  Kassert(info.kind == PageKind::kLarge, "FreeAnywhere: free of non-allocated page");
  pages_.RepForNode(info.node).FreePages(p);
}

GeneralPurposeAllocator& GeneralPurposeAllocatorRoot::RepFor(std::size_t machine_core) {
  Kassert(machine_core < reps_.size(), "GeneralPurposeAllocatorRoot: bad core");
  std::lock_guard<Spinlock> lock(rep_mu_);
  if (reps_[machine_core] == nullptr) {
    reps_[machine_core] = std::make_unique<GeneralPurposeAllocator>(*this, machine_core);
  }
  return *reps_[machine_core];
}

GeneralPurposeAllocator& GeneralPurposeAllocator::HandleFault(EbbId id) {
  Context& ctx = CurrentContext();
  auto* root = ctx.runtime->TryGetSubsystem<GeneralPurposeAllocatorRoot>(
      Subsystem::kGeneralPurposeAllocator);
  Kbugon(root == nullptr, "GeneralPurposeAllocator: memory subsystem not installed on '%s'",
         ctx.runtime->name().c_str());
  GeneralPurposeAllocator& rep = root->RepFor(ctx.machine_core);
  Runtime::CacheRep(id, &rep);
  return rep;
}

GeneralPurposeAllocator::GeneralPurposeAllocator(GeneralPurposeAllocatorRoot& root,
                                                 std::size_t machine_core)
    : root_(root), machine_core_(machine_core) {
  for (std::size_t i = 0; i < gp_internal::kSizeClasses.size(); ++i) {
    class_reps_[i] = &root.class_root(i).RepFor(machine_core);
  }
}

void* GeneralPurposeAllocator::Alloc(std::size_t size) {
  std::size_t cls = gp_internal::ClassFor(size);
  if (__builtin_expect(cls < gp_internal::kSizeClasses.size(), true)) {
    return class_reps_[cls]->Alloc();
  }
  return AllocLarge(size);
}

void GeneralPurposeAllocator::Free(void* p) {
  PhysArena& arena = root_.pages().arena();
  Kassert(arena.Contains(p), "GeneralPurposeAllocator: free of foreign pointer");
  PageInfo& info = arena.InfoForAddr(p);
  if (__builtin_expect(info.kind == PageKind::kSlab, true)) {
    auto* cache_root = static_cast<SlabCacheRoot*>(info.owner);
    cache_root->RepFor(machine_core_).Free(p);
    return;
  }
  Kassert(info.kind == PageKind::kLarge, "GeneralPurposeAllocator: free of non-allocated page");
  FreeLarge(p, info);
}

void* GeneralPurposeAllocator::AllocLarge(std::size_t size) {
  std::size_t pages_needed = (size + kPageSize - 1) >> kPageShift;
  std::size_t order = 0;
  while ((std::size_t{1} << order) < pages_needed) {
    ++order;
  }
  if (order > kMaxOrder) {
    return nullptr;
  }
  PageAllocator& pages = root_.pages().RepForCore(machine_core_);
  void* block = pages.AllocPages(order);
  if (block == nullptr) {
    return nullptr;
  }
  PageInfo& info = pages.arena().InfoForAddr(block);
  info.kind = PageKind::kLarge;
  info.order = static_cast<std::uint8_t>(order);
  return block;
}

void GeneralPurposeAllocator::FreeLarge(void* p, PageInfo& info) {
  root_.pages().RepForNode(info.node).FreePages(p);
}

namespace mem {

void Install(Runtime& runtime, std::size_t num_cores, Config config) {
  // Adoption order = destruction constraints reversed: the GP root (adopted last) dies
  // first, unregistering its arena from the routed-free registry before the arena unmaps.
  auto arena = std::make_shared<PhysArena>(config.arena_bytes, config.numa_nodes);
  runtime.Adopt(arena);
  std::size_t cores_per_node = config.cores_per_node != 0
                                   ? config.cores_per_node
                                   : (num_cores + config.numa_nodes - 1) / config.numa_nodes;
  auto& pages = runtime.InstallSubsystem(
      Subsystem::kPageAllocator, std::make_shared<PageAllocatorRoot>(*arena, cores_per_node));
  // GP root construction allocates Ebb ids, which needs a current-runtime context; callers
  // install memory before the loops run, so borrow core 0's identity.
  ScopedContext ctx(runtime, runtime.global_core(0), 0, runtime.hosted());
  runtime.InstallSubsystem(
      Subsystem::kGeneralPurposeAllocator,
      std::make_shared<GeneralPurposeAllocatorRoot>(pages, num_cores, &runtime));
}

}  // namespace mem

}  // namespace ebbrt
