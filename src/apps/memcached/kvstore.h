// KvStore — the RCU-backed key/value store behind the memcached servers (§4.2: "Key-value
// pairs are stored in an RCU hash table to alleviate lock contention which is a common cause
// for poor scalability in memcached").
//
// The item plane is zero-alloc on the generic heap. An item is ONE block carved from the
// per-core slab allocator:
//
//   [ refs | flags | cas | klen | vlen |  key bytes  |  value bytes ]
//   '---------- 24-byte header --------'
//
// SET copies the wire bytes into the block exactly once; the table's node reads the key
// back out of the block (KeyOf policy), so there is no separate key string, no shared_ptr
// control block, and no per-item std::string. Items are immutable after construction and
// intrusively reference-counted: GET handlers build zero-copy response views over the value
// bytes (see MakeValueBuffer) whose IOBuf deleter drops the reference directly — a
// concurrent SET replacing the item cannot free it while a response or retransmission still
// points at it. The final Unref routes the block home to its carving core's allocator, from
// whichever core (or teardown thread) drops it.
#ifndef EBBRT_SRC_APPS_MEMCACHED_KVSTORE_H_
#define EBBRT_SRC_APPS_MEMCACHED_KVSTORE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <new>
#include <string_view>
#include <utility>

#include "src/iobuf/iobuf.h"
#include "src/mem/gp_allocator.h"
#include "src/platform/context.h"
#include "src/platform/spinlock.h"
#include "src/rcu/rcu_hash_table.h"

namespace ebbrt {
namespace memcached {

// Immutable, intrusively refcounted item block. Construct only through New; the key and
// value bytes trail the header in the same allocation.
class Item {
 public:
  static Item* New(std::string_view key, std::string_view value, std::uint32_t flags,
                   std::uint64_t cas) {
    void* p = mem::AllocRouted(sizeof(Item) + key.size() + value.size());
    Item* item = new (p) Item(flags, cas, static_cast<std::uint32_t>(key.size()),
                              static_cast<std::uint32_t>(value.size()));
    char* bytes = const_cast<char*>(item->bytes());
    std::memcpy(bytes, key.data(), key.size());
    std::memcpy(bytes + key.size(), value.data(), value.size());
    live_.fetch_add(1, std::memory_order_relaxed);
    return item;
  }

  void Ref() const { refs_.fetch_add(1, std::memory_order_relaxed); }
  void Unref() const {
    if (refs_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      live_.fetch_sub(1, std::memory_order_relaxed);
      Item* self = const_cast<Item*>(this);
      self->~Item();
      mem::FreeRouted(self);
    }
  }

  std::string_view key() const { return {bytes(), klen_}; }
  std::string_view value() const { return {bytes() + klen_, vlen_}; }
  std::uint32_t flags() const { return flags_; }
  std::uint64_t cas() const { return cas_; }
  std::uint32_t refs() const { return refs_.load(std::memory_order_relaxed); }

  // Item blocks alive process-wide — the leak/double-free canary the lifetime tests pin.
  static std::uint64_t live_count() { return live_.load(std::memory_order_relaxed); }

 private:
  Item(std::uint32_t flags, std::uint64_t cas, std::uint32_t klen, std::uint32_t vlen)
      : flags_(flags), cas_(cas), klen_(klen), vlen_(vlen) {}
  ~Item() = default;

  const char* bytes() const { return reinterpret_cast<const char*>(this + 1); }

  mutable std::atomic<std::uint32_t> refs_{1};  // New hands the caller the first reference
  std::uint32_t flags_;
  std::uint64_t cas_;
  std::uint32_t klen_;
  std::uint32_t vlen_;

  inline static std::atomic<std::uint64_t> live_{0};
};
static_assert(sizeof(Item) == 24, "item header is 24 bytes; key/value bytes trail it");

// Intrusive smart pointer over Item. Construction from a raw pointer ADOPTS the reference
// (Item::New already handed us one); copies bump the count, destruction drops it.
class ItemPtr {
 public:
  ItemPtr() = default;
  explicit ItemPtr(const Item* item) : item_(item) {}
  ItemPtr(const ItemPtr& other) : item_(other.item_) {
    if (item_ != nullptr) {
      item_->Ref();
    }
  }
  ItemPtr(ItemPtr&& other) noexcept : item_(other.item_) { other.item_ = nullptr; }
  ItemPtr& operator=(const ItemPtr& other) {
    ItemPtr(other).Swap(*this);
    return *this;
  }
  ItemPtr& operator=(ItemPtr&& other) noexcept {
    ItemPtr(std::move(other)).Swap(*this);
    return *this;
  }
  ~ItemPtr() {
    if (item_ != nullptr) {
      item_->Unref();
    }
  }

  const Item* get() const { return item_; }
  const Item* operator->() const { return item_; }
  const Item& operator*() const { return *item_; }
  explicit operator bool() const { return item_ != nullptr; }

  // Transfers the reference out (e.g. into an IOBuf deleter) without touching the count.
  const Item* Release() {
    const Item* item = item_;
    item_ = nullptr;
    return item;
  }

  void Swap(ItemPtr& other) { std::swap(item_, other.item_); }

  friend bool operator==(const ItemPtr& p, std::nullptr_t) { return p.item_ == nullptr; }
  friend bool operator!=(const ItemPtr& p, std::nullptr_t) { return p.item_ != nullptr; }
  friend bool operator==(std::nullptr_t, const ItemPtr& p) { return p.item_ == nullptr; }
  friend bool operator!=(std::nullptr_t, const ItemPtr& p) { return p.item_ != nullptr; }

 private:
  const Item* item_ = nullptr;
};

// Table policies: the item block owns the key bytes (KeyOf reads them back), and lookups
// hash string_views directly — Find(wire_key) never materializes a std::string.
struct ItemKeyOf {
  std::string_view operator()(const ItemPtr& item) const { return item->key(); }
};
struct KeyHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view key) const {
    return std::hash<std::string_view>{}(key);
  }
};

class KvStore {
 public:
  explicit KvStore(RcuManagerRoot& rcu, std::size_t bucket_bits = 14)
      : table_(rcu, bucket_bits) {}

  // Lock-free read; the returned reference keeps the item alive past replacement. The copy
  // out of the table node is taken inside the RCU read-side section (this event), where the
  // node — and therefore its reference — cannot yet have been reclaimed.
  ItemPtr Get(std::string_view key) {
    ItemPtr* found = table_.Find(key);
    return found != nullptr ? *found : ItemPtr();
  }

  // Batch Get: calls fn(i, const Item*) for i = 0..n-1 in request order, with the item
  // Get(keys[i]) would return (null on a miss). The pointer is BORROWED: no reference is
  // taken, and it stays valid for the call only, because the caller's RCU read side (this
  // event) keeps the table node and its reference alive. Take an ItemPtr (Ref) to keep it
  // longer. The keys resolve through the table's prefetched batch lookup
  // (RcuHashTable::FindEach), so a MultiGet pays its cache misses in parallel.
  template <typename F>
  void GetEach(const std::string_view* keys, std::size_t n, F&& fn) {
    table_.FindEach(keys, n, [&fn](std::size_t i, ItemPtr* found) {
      fn(i, found != nullptr ? found->get() : nullptr);
    });
  }

  void Set(std::string_view key, std::string_view value, std::uint32_t flags) {
    table_.InsertOrReplace(key, ItemPtr(Item::New(key, value, flags, NextCas())));
  }

  bool Add(std::string_view key, std::string_view value, std::uint32_t flags) {
    return table_.Insert(key, ItemPtr(Item::New(key, value, flags, NextCas())));
  }

  // Succeeds only if the key is present — checked and swapped under one bucket-lock hold
  // (RcuHashTable::ReplaceIfPresent), so a concurrent Delete cannot slip between the check
  // and the write and let REPLACE resurrect a deleted key.
  bool Replace(std::string_view key, std::string_view value, std::uint32_t flags) {
    return table_.ReplaceIfPresent(key, ItemPtr(Item::New(key, value, flags, NextCas())));
  }

  bool Delete(std::string_view key) { return table_.Erase(key); }

  std::size_t size() const { return table_.size(); }

 private:
  // CAS identifiers are drawn from per-core blocks refilled in batches from one shared
  // counter — the shared atomic is touched once per kCasBatch SETs instead of once per SET,
  // so the store's last cross-core contended cache line leaves the write path. IDs are
  // unique and per-core monotonic, which is all memcached CAS semantics need.
  static constexpr std::uint64_t kCasBatch = 64;
  struct alignas(kCacheLineSize) CasBlock {
    std::uint64_t next = 0;
    std::uint64_t limit = 0;
  };

  std::uint64_t NextCas() {
    if (HaveContext()) {
      std::size_t core = CurrentContext().machine_core;
      if (core < kMaxCores) {
        CasBlock& block = cas_blocks_[core];
        if (block.next == block.limit) {
          block.next = cas_source_.fetch_add(kCasBatch, std::memory_order_relaxed);
          block.limit = block.next + kCasBatch;
        }
        return block.next++;
      }
    }
    return cas_source_.fetch_add(1, std::memory_order_relaxed);
  }

  RcuHashTable<std::string_view, ItemPtr, KeyHash, std::equal_to<>, ItemKeyOf> table_;
  std::array<CasBlock, kMaxCores> cas_blocks_{};
  std::atomic<std::uint64_t> cas_source_{1};
};

// Zero-copy view of an item's value whose lifetime is pinned by the IOBuf itself: the
// caller's reference transfers INTO the buffer's deleter (no heap-allocated anchor object),
// and release of the last buffer clone drops it.
inline std::unique_ptr<IOBuf> MakeValueBuffer(ItemPtr item) {
  const Item* raw = item.Release();
  std::string_view value = raw->value();
  return IOBuf::TakeOwnership(
      const_cast<char*>(value.data()), value.size(), value.size(),
      [](void*, void* arg) { static_cast<const Item*>(arg)->Unref(); },
      const_cast<Item*>(raw));
}

}  // namespace memcached
}  // namespace ebbrt

#endif  // EBBRT_SRC_APPS_MEMCACHED_KVSTORE_H_
