#include "src/mem/gp_allocator.h"

#include <cstdlib>

namespace ebbrt {

namespace {

// Live GP roots, indexed by their arena's reservation slot (PhysArena), so routing any
// pointer home is one table load (mem::FindOwningRoot). Beside the root, the slot keeps the
// arena's mapped size: a pointer past the arena's end but inside its slot is no arena
// pointer. An array of atomics, so the lookup, which sits on every IOBuf and item release
// path, takes no lock.
struct RootSlot {
  std::atomic<GeneralPurposeAllocatorRoot*> root{nullptr};
  std::atomic<std::size_t> bytes{0};
};
RootSlot g_live_roots[kArenaSlots];

void RegisterRoot(GeneralPurposeAllocatorRoot* root, const PhysArena& arena) {
  RootSlot& slot = g_live_roots[arena.slot()];
  slot.bytes.store(arena.bytes(), std::memory_order_relaxed);
  slot.root.store(root, std::memory_order_release);  // publishes bytes with it
}

void UnregisterRoot(const PhysArena& arena) {
  RootSlot& slot = g_live_roots[arena.slot()];
  slot.root.store(nullptr, std::memory_order_release);
  slot.bytes.store(0, std::memory_order_relaxed);
}

}  // namespace

namespace mem {

namespace internal {
// Defined in heap_count.cc alongside the replacement ::operator new. Referencing it here
// forces that archive member into any binary that touches mem::stats(): a static-library
// operator new is only linked when some symbol in its object file is, and a silently absent
// hook would report 0.0 allocs for a path that mallocs.
void EnsureHeapCountLinked();

void* HeapFallback(std::size_t size) {
  stats().heap_fallback_allocs.fetch_add(1, std::memory_order_relaxed);
  void* block = std::malloc(size != 0 ? size : 1);
  Kbugon(block == nullptr, "mem: heap fallback of %zu bytes failed", size);
  return block;
}
}  // namespace internal

Stats& stats() {
  internal::EnsureHeapCountLinked();
  static Stats instance;
  return instance;
}

GeneralPurposeAllocatorRoot* FindOwningRoot(const void* p) {
  std::uintptr_t offset = ArenaOffsetOf(p);
  if (offset >= kArenaSlots * kArenaStride) {
    return nullptr;  // outside the reservation: heap, stack, or static memory
  }
  RootSlot& slot = g_live_roots[offset >> kArenaStrideShift];
  GeneralPurposeAllocatorRoot* root = slot.root.load(std::memory_order_acquire);
  if ((offset & (kArenaStride - 1)) >= slot.bytes.load(std::memory_order_relaxed)) {
    return nullptr;  // a free slot (0 bytes) or past its arena's end
  }
  return root;
}

void* AllocRouted(std::size_t size) {
  if (internal::HaveLocalGpAllocator()) {
    if (void* p = GeneralPurposeAllocator::Instance()->Alloc(size)) {
      return p;
    }
  }
  return internal::HeapFallback(size);
}

bool FreeRouted(void* p) {
  if (p == nullptr) {
    return false;
  }
  GeneralPurposeAllocatorRoot* owner = FindOwningRoot(p);
  if (owner == nullptr) {
    stats().heap_fallback_frees.fetch_add(1, std::memory_order_relaxed);
    std::free(p);
    return false;
  }
  return owner->FreeAnywhere(p);
}

}  // namespace mem

GeneralPurposeAllocatorRoot::GeneralPurposeAllocatorRoot(PageAllocatorRoot& pages,
                                                         std::size_t num_cores,
                                                         Runtime* runtime)
    : pages_(pages), runtime_(runtime), class_roots_([&] {
        // One slab cache Ebb per size class. Ids are taken from the machine-local dynamic
        // range so the class caches are themselves replaceable/invocable Ebbs.
        decltype(class_roots_) roots;
        for (std::size_t i = 0; i < roots.size(); ++i) {
          EbbId id = CurrentRuntime().AllocateLocalId();
          roots[i] = std::make_unique<SlabCacheRoot>(
              pages, gp_internal::kSizeClasses[i], id, num_cores, static_cast<std::uint8_t>(i));
          CurrentRuntime().InstallRoot(id, roots[i].get());
        }
        return roots;
      }()),
      reps_(num_cores, [this](std::size_t core) {
        return std::make_unique<GeneralPurposeAllocator>(*this, core);
      }) {
  RegisterRoot(this, pages_.arena());
}

GeneralPurposeAllocatorRoot::~GeneralPurposeAllocatorRoot() { UnregisterRoot(pages_.arena()); }

bool GeneralPurposeAllocatorRoot::FreeAnywhere(void* p) {
  // Running as a core of this machine: the ordinary per-core fast path, through the cached
  // Ebb representative.
  if (HaveContext() && runtime_ != nullptr && &CurrentRuntime() == runtime_) {
    GeneralPurposeAllocator::Instance()->Free(p);
    return false;
  }
  // Anything else — world actions, another machine's core, post-loop teardown — may not
  // touch a per-core freelist. Route slab objects to the owning node depot and large blocks
  // to the node buddy, both of which are lock-protected.
  PhysArena& arena = pages_.arena();
  Kassert(arena.Contains(p), "GeneralPurposeAllocatorRoot::FreeAnywhere: foreign pointer");
  mem::stats().remote_frees.fetch_add(1, std::memory_order_relaxed);
  PageInfo& info = arena.InfoForAddr(p);
  if (info.kind == PageKind::kSlab) {
    static_cast<SlabCacheRoot*>(info.owner)->RemoteFree(p, info.node);
    return true;
  }
  Kassert(info.kind == PageKind::kLarge, "FreeAnywhere: free of non-allocated page");
  pages_.RepForNode(info.node).FreePages(p);
  return true;
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
    // The page names its size class, and this core's cache of that class is one indexed
    // load away: no hop through the owning SlabCacheRoot.
    class_reps_[info.size_class]->Free(p);
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
  PageAllocator& pages = root_.pages().RepFor(machine_core_);
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
  // first, clearing its arena's registry slot before the arena unmaps and frees the slot.
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
  auto& gp = runtime.InstallSubsystem(
      Subsystem::kGeneralPurposeAllocator,
      std::make_shared<GeneralPurposeAllocatorRoot>(pages, num_cores, &runtime));
  // Non-owning registrations, so their Ebbs' fault handler (RootedEbb) finds both roots
  // under their ids, as it finds every other root.
  runtime.InstallRoot(kPageAllocatorId, &pages);
  runtime.InstallRoot(kGeneralPurposeAllocatorId, &gp);
}

}  // namespace mem

}  // namespace ebbrt
