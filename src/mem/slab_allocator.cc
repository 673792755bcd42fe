#include "src/mem/slab_allocator.h"

namespace ebbrt {

namespace {
inline void*& NextOf(void* obj) { return *static_cast<void**>(obj); }

// Publishes the chain first..last (linked through each object's first word) onto `depot`.
void Push(SlabCacheRoot::Depot& depot, void* first, void* last) {
  void* old = depot.head.load(std::memory_order_relaxed);
  do {
    NextOf(last) = old;
  } while (!depot.head.compare_exchange_weak(old, first, std::memory_order_release,
                                             std::memory_order_relaxed));
}
}  // namespace

SlabCacheRoot::SlabCacheRoot(PageAllocatorRoot& pages, std::size_t object_size, EbbId id,
                             std::size_t num_cores, std::uint8_t size_class)
    : pages_(pages), object_size_(object_size), id_(id), size_class_(size_class),
      depots_(pages.nodes()),
      reps_(num_cores,
            [this](std::size_t core) { return std::make_unique<SlabCache>(*this, core); }) {
  Kassert(object_size >= sizeof(void*), "SlabCacheRoot: object too small for a link");
  // Pick the smallest slab order that fits at least 8 objects (single page when possible).
  slab_order_ = 0;
  while (slab_order_ < kMaxOrder &&
         ((kPageSize << slab_order_) / object_size_) < 8) {
    ++slab_order_;
  }
  objects_per_slab_ = (kPageSize << slab_order_) / object_size_;
  Kassert(objects_per_slab_ >= 1, "SlabCacheRoot: object larger than max slab");
}

void SlabCacheRoot::RemoteFree(void* p, std::size_t node) {
  Kassert(node < depots_.size(), "SlabCacheRoot::RemoteFree: bad node");
  Push(depots_[node], p, p);
}

SlabCache::SlabCache(SlabCacheRoot& root, std::size_t machine_core)
    : root_(root), machine_core_(machine_core) {
  node_ = root_.pages().RepFor(machine_core).node();
}

// A dry freelist: refill it, then take the ordinary pop.
void* SlabCache::AllocSlow() { return Refill() ? Alloc() : nullptr; }

bool SlabCache::RefillFromDepot() {
  // Take the whole depot chain (balancing granularity is the flush batch) onto the dry list,
  // counting it as it is walked.
  freelist_ = root_.depot_for(node_).head.exchange(nullptr, std::memory_order_acquire);
  for (void* obj = freelist_; obj != nullptr; obj = NextOf(obj)) {
    ++free_count_;
  }
  return freelist_ != nullptr;
}

void SlabCache::FlushHalfToDepot() {
  // Walk to the midpoint and hand the tail half to the node depot.
  std::size_t keep = free_count_ / 2;
  void* cursor = freelist_;
  for (std::size_t i = 1; i < keep; ++i) {
    cursor = NextOf(cursor);
  }
  void* flush_head = NextOf(cursor);
  NextOf(cursor) = nullptr;
  free_count_ = keep;
  // Find the flush chain's tail to splice in O(len); lists here are short relative to
  // watermark and this path is rare (1 in kWatermark/2 frees).
  void* tail = flush_head;
  while (NextOf(tail) != nullptr) {
    tail = NextOf(tail);
  }
  Push(root_.depot_for(node_), flush_head, tail);
}

bool SlabCache::Refill() {
  if (RefillFromDepot()) {
    return true;
  }
  // Carve a fresh slab from this node's buddy allocator.
  PageAllocator& pages = root_.pages().RepForNode(node_);
  void* slab = pages.AllocPages(root_.slab_order());
  if (slab == nullptr) {
    return false;
  }
  PhysArena& arena = pages.arena();
  Pfn first = arena.AddrToPfn(slab);
  for (std::size_t i = 0; i < (std::size_t{1} << root_.slab_order()); ++i) {
    PageInfo& info = arena.InfoFor(first + i);
    info.kind = PageKind::kSlab;
    info.size_class = root_.size_class();
    info.owner = &root_;
  }
  root_.count_slab();
  auto* bytes = static_cast<std::uint8_t*>(slab);
  std::size_t object_size = root_.object_size();
  std::size_t count = root_.objects_per_slab();
  for (std::size_t i = 0; i < count; ++i) {
    void* obj = bytes + i * object_size;
    NextOf(obj) = freelist_;
    freelist_ = obj;
  }
  free_count_ += count;
  return true;
}

}  // namespace ebbrt
