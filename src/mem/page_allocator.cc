#include "src/mem/page_allocator.h"

#include <algorithm>

namespace ebbrt {

PageAllocatorRoot::PageAllocatorRoot(PhysArena& arena, std::size_t cores_per_node)
    : arena_(arena), cores_per_node_(cores_per_node ? cores_per_node : 1),
      reps_(arena.nodes(),
            [&](std::size_t node) { return std::make_unique<PageAllocator>(arena, node); }) {}

PageAllocator& PageAllocatorRoot::RepFor(std::size_t machine_core) {
  return reps_[std::min(machine_core / cores_per_node_, reps_.size() - 1)];
}

PageAllocator& PageAllocatorRoot::RepForNode(std::size_t node) { return reps_[node]; }

PageAllocator::PageAllocator(PhysArena& arena, std::size_t node)
    : arena_(arena), node_(node), first_pfn_(arena.NodeFirstPfn(node)),
      num_pages_(arena.NodePages(node)) {
  // Seed the free lists by carving the node's range into maximal naturally-aligned blocks
  // (alignment relative to the node base keeps buddy arithmetic closed within the node).
  Pfn pfn = first_pfn_;
  std::size_t remaining = num_pages_;
  while (remaining > 0) {
    std::size_t order = kMaxOrder;
    while (order > 0 && (((pfn - first_pfn_) & ((std::size_t{1} << order) - 1)) != 0 ||
                         (std::size_t{1} << order) > remaining)) {
      --order;
    }
    PushFree(pfn, order);
    pfn += std::size_t{1} << order;
    remaining -= std::size_t{1} << order;
  }
}

void PageAllocator::PushFree(Pfn pfn, std::size_t order) {
  PageInfo& info = arena_.InfoFor(pfn);
  info.kind = PageKind::kFree;
  info.order = static_cast<std::uint8_t>(order);
  info.node = static_cast<std::uint16_t>(node_);
  auto* block = reinterpret_cast<FreeBlock*>(arena_.PfnToAddr(pfn));
  block->prev = nullptr;
  block->next = free_lists_[order];
  if (block->next != nullptr) {
    block->next->prev = block;
  }
  free_lists_[order] = block;
  free_pages_ += std::size_t{1} << order;
}

void PageAllocator::RemoveFree(Pfn pfn, std::size_t order) {
  auto* block = reinterpret_cast<FreeBlock*>(arena_.PfnToAddr(pfn));
  if (block->prev != nullptr) {
    block->prev->next = block->next;
  } else {
    free_lists_[order] = block->next;
  }
  if (block->next != nullptr) {
    block->next->prev = block->prev;
  }
  free_pages_ -= std::size_t{1} << order;
}

Pfn PageAllocator::PopFree(std::size_t order) {
  FreeBlock* block = free_lists_[order];
  Kassert(block != nullptr, "PageAllocator: PopFree on empty list");
  free_lists_[order] = block->next;
  if (block->next != nullptr) {
    block->next->prev = nullptr;
  }
  free_pages_ -= std::size_t{1} << order;
  return arena_.AddrToPfn(block);
}

void* PageAllocator::AllocPages(std::size_t order) {
  Kassert(order <= kMaxOrder, "PageAllocator: order too large");
  std::lock_guard<Spinlock> lock(mu_);
  // Find the smallest order with a free block, splitting down as needed.
  std::size_t have = order;
  while (have <= kMaxOrder && free_lists_[have] == nullptr) {
    ++have;
  }
  if (have > kMaxOrder) {
    return nullptr;
  }
  Pfn pfn = PopFree(have);
  while (have > order) {
    --have;
    // Keep the low half, push the high half back as a free buddy.
    PushFree(pfn + (std::size_t{1} << have), have);
  }
  PageInfo& info = arena_.InfoFor(pfn);
  info.kind = PageKind::kBuddyAllocated;
  info.order = static_cast<std::uint8_t>(order);
  info.node = static_cast<std::uint16_t>(node_);
  // Interior pages: mark so stray frees are caught.
  for (std::size_t i = 1; i < (std::size_t{1} << order); ++i) {
    arena_.InfoFor(pfn + i).kind = PageKind::kBuddyTail;
  }
  return arena_.PfnToAddr(pfn);
}

void PageAllocator::FreePages(void* addr) {
  Pfn pfn = arena_.AddrToPfn(addr);
  std::lock_guard<Spinlock> lock(mu_);
  PageInfo& info = arena_.InfoFor(pfn);
  Kassert(info.kind == PageKind::kBuddyAllocated || info.kind == PageKind::kSlab ||
              info.kind == PageKind::kLarge,
          "PageAllocator: free of non-allocated block");
  std::size_t order = info.order;
  // Merge with the buddy while it is free and of equal order.
  while (order < kMaxOrder) {
    Pfn buddy = BuddyOf(pfn, order);
    if (buddy < first_pfn_ || buddy >= first_pfn_ + num_pages_) {
      break;
    }
    PageInfo& buddy_info = arena_.InfoFor(buddy);
    if (buddy_info.kind != PageKind::kFree || buddy_info.order != order) {
      break;
    }
    RemoveFree(buddy, order);
    buddy_info.kind = PageKind::kBuddyTail;
    if (buddy < pfn) {
      pfn = buddy;
    }
    ++order;
  }
  PushFree(pfn, order);
}

}  // namespace ebbrt
