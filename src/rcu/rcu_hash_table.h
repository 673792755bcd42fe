// RcuHashTable — lock-free readers, per-bucket-locked writers, RCU-deferred reclamation.
//
// The EbbRT network stack "stores connection state in an RCU hash table which allows common
// connection lookup operations to proceed without any atomic operations" (§3.6); memcached's
// key/value store uses the same structure to avoid the lock contention that limits stock
// memcached's scalability (§4.2).
//
// Readers traverse bucket chains through release/consume-ordered next pointers — plain loads
// on x86 — and never synchronize. Writers serialize per bucket; erased nodes are reclaimed
// through RcuManagerRoot once every core has passed an event boundary.
//
// Lookup is heterogeneous: Find accepts any type the Hash/Eq policies take (e.g. a
// string_view probing a string-keyed table), so a datapath lookup never materializes a
// temporary key. Every node stores its hash, so chain traversal compares one integer before
// touching key bytes.
//
// FindEach is the batch form of Find. A lookup is three dependent loads (bucket head, node,
// the key bytes the compare reads), each a likely cache miss in a large table. FindEach
// issues them as prefetches a chunk of keys at a time, one stage across the whole chunk
// before the next, so a batch waits for about three memory latencies rather than three per
// key.
//
// The KeyOf policy (default: void) lets the value own the key bytes. With a non-void KeyOf,
// nodes store no key at all — KeyOf{}(value) reads it back (e.g. from an item block that
// already embeds the key) — and nodes are carved from the per-core slab allocator
// (mem::AllocRouted) with route-home frees, keeping table churn off the generic heap. Only
// owners whose lifetime sits inside their machine's (so slab blocks outlive the nodes)
// should opt in; the void default keeps plain new/delete and the embedded key copy.
#ifndef EBBRT_SRC_RCU_RCU_HASH_TABLE_H_
#define EBBRT_SRC_RCU_RCU_HASH_TABLE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/mem/gp_allocator.h"
#include "src/platform/spinlock.h"
#include "src/rcu/rcu.h"

namespace ebbrt {

template <typename K, typename V, typename Hash = std::hash<K>,
          typename Eq = std::equal_to<>, typename KeyOf = void>
class RcuHashTable {
  static constexpr bool kKeyFromValue = !std::is_void_v<KeyOf>;

 public:
  // `bucket_bits` fixes the table at 2^bits buckets (RCU-resizable tables exist; the paper's
  // stack uses a fixed-size table and so do we — sized generously by the owner).
  RcuHashTable(RcuManagerRoot& rcu, std::size_t bucket_bits)
      : rcu_(rcu), mask_((std::size_t{1} << bucket_bits) - 1),
        buckets_(std::size_t{1} << bucket_bits) {}

  ~RcuHashTable() {
    for (auto& bucket : buckets_) {
      Node* node = bucket.head.load(std::memory_order_relaxed);
      while (node != nullptr) {
        Node* next = node->next.load(std::memory_order_relaxed);
        DeleteNode(node);
        node = next;
      }
    }
  }

  RcuHashTable(const RcuHashTable&) = delete;
  RcuHashTable& operator=(const RcuHashTable&) = delete;

  // Lock-free lookup, heterogeneous over anything Hash/Eq accept. The returned pointer is
  // guaranteed valid for the remainder of the current event (the RCU read-side section);
  // callers must not hold it across events.
  template <typename LK>
  V* Find(const LK& key) {
    std::size_t hash = Hash{}(key);
    return Walk(buckets_[hash & mask_].head.load(std::memory_order_acquire), hash, key);
  }

  // Batch lookup: calls fn(i, V*) for i = 0..n-1 in order, with exactly what Find(keys[i])
  // would return (nullptr on a miss; duplicates are looked up again). Keys go kBatchChunk
  // at a time: hash every key and prefetch its bucket, then load every head and prefetch
  // its node, then (KeyOf tables) prefetch every first node's key bytes, and only then walk
  // the chains as Find does. Same validity rules as Find.
  template <typename LK, typename F>
  void FindEach(const LK* keys, std::size_t n, F&& fn) {
    std::size_t hashes[kBatchChunk];
    Node* heads[kBatchChunk];
    for (std::size_t first = 0; first < n; first += kBatchChunk) {
      std::size_t count = std::min(kBatchChunk, n - first);
      for (std::size_t i = 0; i < count; ++i) {
        hashes[i] = Hash{}(keys[first + i]);
        __builtin_prefetch(&buckets_[hashes[i] & mask_]);
      }
      for (std::size_t i = 0; i < count; ++i) {
        heads[i] = buckets_[hashes[i] & mask_].head.load(std::memory_order_acquire);
        __builtin_prefetch(heads[i]);
      }
      if constexpr (kKeyFromValue) {
        for (std::size_t i = 0; i < count; ++i) {
          if (heads[i] != nullptr) {
            __builtin_prefetch(NodeKey(*heads[i]).data());
          }
        }
      }
      for (std::size_t i = 0; i < count; ++i) {
        fn(first + i, Walk(heads[i], hashes[i], keys[first + i]));
      }
    }
  }

  // Inserts (key, value); returns false (and drops value) if the key already exists.
  bool Insert(const K& key, V value) {
    std::size_t hash = Hash{}(key);
    Bucket& bucket = buckets_[hash & mask_];
    std::lock_guard<Spinlock> lock(bucket.mu);
    for (Node* node = bucket.head.load(std::memory_order_relaxed); node != nullptr;
         node = node->next.load(std::memory_order_relaxed)) {
      if (node->hash == hash && Eq{}(NodeKey(*node), key)) {
        return false;
      }
    }
    Node* node = NewNode(hash, key, std::move(value));
    node->next.store(bucket.head.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    bucket.head.store(node, std::memory_order_release);  // publish
    size_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  // Inserts or replaces. Replacement unlinks the old node and RCU-defers its deletion, so
  // concurrent readers keep a valid (old) value.
  void InsertOrReplace(const K& key, V value) {
    std::size_t hash = Hash{}(key);
    Bucket& bucket = buckets_[hash & mask_];
    Node* node = NewNode(hash, key, std::move(value));
    Node* victim = nullptr;
    {
      std::lock_guard<Spinlock> lock(bucket.mu);
      std::atomic<Node*>* link = &bucket.head;
      Node* cursor = link->load(std::memory_order_relaxed);
      while (cursor != nullptr) {
        if (cursor->hash == hash && Eq{}(NodeKey(*cursor), key)) {
          victim = cursor;
          node->next.store(cursor->next.load(std::memory_order_relaxed),
                           std::memory_order_relaxed);
          link->store(node, std::memory_order_release);
          break;
        }
        link = &cursor->next;
        cursor = link->load(std::memory_order_relaxed);
      }
      if (victim == nullptr) {
        node->next.store(bucket.head.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
        bucket.head.store(node, std::memory_order_release);
        size_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    if (victim != nullptr) {
      rcu_.CallRcu([victim] { DeleteNode(victim); });
    }
  }

  // Replaces `key`'s value ONLY if the key is present — the check and the swap happen under
  // one bucket-lock hold, so a concurrent Erase cannot interleave between them and let a
  // replace resurrect a deleted key (memcached REPLACE semantics). Returns false (dropping
  // `value`) when the key is absent. The displaced node is RCU-deferred like any other
  // unlink, so in-flight readers keep the old value.
  bool ReplaceIfPresent(const K& key, V value) {
    std::size_t hash = Hash{}(key);
    Bucket& bucket = buckets_[hash & mask_];
    Node* node = NewNode(hash, key, std::move(value));
    Node* victim = nullptr;
    {
      std::lock_guard<Spinlock> lock(bucket.mu);
      std::atomic<Node*>* link = &bucket.head;
      Node* cursor = link->load(std::memory_order_relaxed);
      while (cursor != nullptr) {
        if (cursor->hash == hash && Eq{}(NodeKey(*cursor), key)) {
          victim = cursor;
          node->next.store(cursor->next.load(std::memory_order_relaxed),
                           std::memory_order_relaxed);
          link->store(node, std::memory_order_release);
          break;
        }
        link = &cursor->next;
        cursor = link->load(std::memory_order_relaxed);
      }
    }
    if (victim == nullptr) {
      DeleteNode(node);  // never published: no reader can hold it, free immediately
      return false;
    }
    rcu_.CallRcu([victim] { DeleteNode(victim); });
    return true;
  }

  // Unlinks `key`; deletion is deferred past a grace period. Returns false if absent.
  bool Erase(const K& key) { return Retire(Unlink(key, nullptr)); }

  // Unlinks `key` like Erase, but first COPIES its value into `*out` (under the bucket
  // lock, so exactly one concurrent Extract wins). The value is copied, never moved:
  // readers that found the node before the unlink may still be dereferencing it until the
  // grace period ends, so the node's contents must stay intact. This is the
  // claim-completion primitive the RPC pending tables use — whoever extracts the promise
  // fulfills it; a duplicate response finds nothing and is dropped.
  bool Extract(const K& key, V* out) { return Retire(Unlink(key, out)); }

  // Read-side iteration (same validity rules as Find).
  template <typename F>
  void ForEach(F&& f) {
    for (auto& bucket : buckets_) {
      for (Node* node = bucket.head.load(std::memory_order_acquire); node != nullptr;
           node = node->next.load(std::memory_order_acquire)) {
        f(NodeKey(*node), node->value);
      }
    }
  }

  std::size_t size() const { return size_.load(std::memory_order_relaxed); }

 private:
  // Keys FindEach resolves per prefetch round: enough to cover a MultiGet batch, few enough
  // that every prefetched line is still cached when its chain is walked.
  static constexpr std::size_t kBatchChunk = 16;

  // Two node layouts, selected by the KeyOf policy. KeyedNode embeds a key copy (the
  // classic layout); KeylessNode reads the key back out of the value, shrinking the node to
  // {hash, value, next} — for a pointer-like V that's three words.
  struct KeyedNode {
    KeyedNode(std::size_t h, const K& k, V v) : hash(h), key(k), value(std::move(v)) {}
    std::size_t hash;
    K key;
    V value;
    std::atomic<KeyedNode*> next{nullptr};
  };
  struct KeylessNode {
    KeylessNode(std::size_t h, const K&, V v) : hash(h), value(std::move(v)) {}
    std::size_t hash;
    V value;
    std::atomic<KeylessNode*> next{nullptr};
  };
  using Node = std::conditional_t<kKeyFromValue, KeylessNode, KeyedNode>;
  struct Bucket {
    std::atomic<Node*> head{nullptr};
    Spinlock mu;
  };

  static decltype(auto) NodeKey(const Node& node) {
    if constexpr (kKeyFromValue) {
      return KeyOf{}(node.value);
    } else {
      return (node.key);
    }
  }

  // The read-side chain walk Find and FindEach share, from a loaded bucket head.
  template <typename LK>
  static V* Walk(Node* node, std::size_t hash, const LK& key) {
    for (; node != nullptr; node = node->next.load(std::memory_order_acquire)) {
      if (node->hash == hash && Eq{}(NodeKey(*node), key)) {
        return &node->value;
      }
    }
    return nullptr;
  }

  // KeyOf tables carve nodes from the per-core slab plane with route-home frees (an RCU
  // callback may run the delete on a different core than the insert); void-KeyOf tables
  // keep plain new/delete so owners with arbitrary lifetimes stay safe.
  static Node* NewNode(std::size_t hash, const K& key, V value) {
    if constexpr (kKeyFromValue) {
      void* p = mem::AllocRouted(sizeof(Node));
      return new (p) Node(hash, key, std::move(value));
    } else {
      return new Node(hash, key, std::move(value));
    }
  }
  static void DeleteNode(Node* node) {
    if constexpr (kKeyFromValue) {
      node->~Node();
      mem::FreeRouted(node);
    } else {
      delete node;
    }
  }

  // Locked unlink of `key`'s node, copying its value into *out when non-null. Returns the
  // unlinked (not yet reclaimed) node, or nullptr when absent — the one traversal Erase
  // and Extract share.
  Node* Unlink(const K& key, V* out) {
    std::size_t hash = Hash{}(key);
    Bucket& bucket = buckets_[hash & mask_];
    std::lock_guard<Spinlock> lock(bucket.mu);
    std::atomic<Node*>* link = &bucket.head;
    Node* cursor = link->load(std::memory_order_relaxed);
    while (cursor != nullptr) {
      if (cursor->hash == hash && Eq{}(NodeKey(*cursor), key)) {
        if (out != nullptr) {
          *out = cursor->value;
        }
        link->store(cursor->next.load(std::memory_order_relaxed),
                    std::memory_order_release);
        return cursor;
      }
      link = &cursor->next;
      cursor = link->load(std::memory_order_relaxed);
    }
    return nullptr;
  }

  // Accounts for and RCU-defers an unlinked node. False when there was none.
  bool Retire(Node* victim) {
    if (victim == nullptr) {
      return false;
    }
    size_.fetch_sub(1, std::memory_order_relaxed);
    rcu_.CallRcu([victim] { DeleteNode(victim); });
    return true;
  }

  RcuManagerRoot& rcu_;
  std::size_t mask_;
  std::vector<Bucket> buckets_;
  std::atomic<std::size_t> size_{0};
};

}  // namespace ebbrt

#endif  // EBBRT_SRC_RCU_RCU_HASH_TABLE_H_
