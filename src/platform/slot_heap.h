// SlotHeap — the SimWorld calendar and the Timer: a slot table whose payloads never move
// (fixed-size chunks plus a free list, so a callable can run in place while the table grows)
// and an indexed binary min-heap of 24-byte POD (time, seq, slot) keys. A sift step copies
// three words, never a payload; each slot's recorded heap position lets Set (push, or re-key
// up or down) and Remove skip the search. The caller supplies the tie-breaking seq. Once
// warm, no operation allocates.
#ifndef EBBRT_SRC_PLATFORM_SLOT_HEAP_H_
#define EBBRT_SRC_PLATFORM_SLOT_HEAP_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/platform/debug.h"

namespace ebbrt {

template <typename T>
class SlotHeap {
 public:
  struct Key {
    std::uint64_t time;
    std::uint64_t seq;
    std::uint32_t slot;
    friend bool operator<(const Key& a, const Key& b) {
      return a.time != b.time ? a.time < b.time : a.seq < b.seq;
    }
  };
  static_assert(sizeof(Key) == 24);
  static constexpr std::uint32_t kNotQueued = UINT32_MAX;

  // Takes a free slot, or a fresh one; it starts out not queued.
  std::uint32_t Acquire() {
    if (!free_.empty()) {
      std::uint32_t slot = free_.back();
      free_.pop_back();
      return slot;
    }
    if ((pos_.size() & kChunkMask) == 0) {
      chunks_.push_back(std::make_unique<T[]>(kChunkMask + 1));
    }
    pos_.push_back(kNotQueued);
    return static_cast<std::uint32_t>(pos_.size() - 1);
  }
  // Frees an unqueued slot. The caller clears the payload when its re-entrancy rules allow.
  void Release(std::uint32_t slot) {
    Kassert(pos_[slot] == kNotQueued, "SlotHeap: releasing a queued slot");
    free_.push_back(slot);
  }
  T& operator[](std::uint32_t slot) { return chunks_[slot >> kChunkShift][slot & kChunkMask]; }
  std::uint32_t slots() const { return static_cast<std::uint32_t>(pos_.size()); }

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }
  const Key& top() const { return heap_.front(); }
  // The slot's key, or nullptr when it is not queued.
  const Key* Find(std::uint32_t slot) const {
    return pos_[slot] == kNotQueued ? nullptr : &heap_[pos_[slot]];
  }
  // Queues the slot at (time, seq), or re-keys it there if it is already queued.
  void Set(std::uint32_t slot, std::uint64_t time, std::uint64_t seq) {
    if (pos_[slot] == kNotQueued) {
      pos_[slot] = static_cast<std::uint32_t>(heap_.size());
      heap_.emplace_back();
    }
    Fix(pos_[slot], {time, seq, slot});
  }
  void Remove(std::uint32_t slot) {
    std::uint32_t pos = pos_[slot];
    Kassert(pos != kNotQueued, "SlotHeap: removing an unqueued slot");
    pos_[slot] = kNotQueued;
    Key last = heap_.back();
    heap_.pop_back();
    if (pos < heap_.size()) {
      Fix(pos, last);
    }
  }
  // Dequeues the earliest slot (it stays acquired) and returns it.
  std::uint32_t Pop() {
    std::uint32_t slot = heap_.front().slot;
    Remove(slot);
    return slot;
  }

 private:
  static constexpr std::uint32_t kChunkShift = 6;
  static constexpr std::uint32_t kChunkMask = (1u << kChunkShift) - 1;

  void Place(std::uint32_t pos, const Key& key) {
    pos_[key.slot] = pos;
    heap_[pos] = key;
  }
  // Fills the hole at `pos` with `key`, sifting it up or down to where it belongs.
  void Fix(std::uint32_t pos, Key key) {
    for (; pos > 0 && key < heap_[(pos - 1) / 2]; pos = (pos - 1) / 2) {
      Place(pos, heap_[(pos - 1) / 2]);
    }
    auto n = static_cast<std::uint32_t>(heap_.size());
    for (std::uint32_t child = 2 * pos + 1; child < n; child = 2 * pos + 1) {
      child += child + 1 < n && heap_[child + 1] < heap_[child];
      if (!(heap_[child] < key)) {
        break;
      }
      Place(pos, heap_[child]);
      pos = child;
    }
    Place(pos, key);
  }

  std::vector<std::unique_ptr<T[]>> chunks_;
  std::vector<std::uint32_t> pos_;  // per slot: index into heap_, or kNotQueued
  std::vector<std::uint32_t> free_;
  std::vector<Key> heap_;
};

}  // namespace ebbrt

#endif  // EBBRT_SRC_PLATFORM_SLOT_HEAP_H_
