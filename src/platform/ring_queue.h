// RingQueue — a double-ended FIFO over a power-of-two circular buffer that keeps its
// capacity.
//
// std::deque frees a node when pop_front empties it and allocates a fresh one when push_back
// fills the last, so a queue that only ever holds a few elements still calls the allocator
// once per few hundred bytes of throughput. The per-segment queues (a connection's
// retransmission queue, a NIC's RX rings) cycle millions of elements through a shallow
// depth; once a RingQueue has grown to that depth, push and pop never allocate.
//
// Popped slots are reset to T{} at once, so an element's resources are released when it
// leaves the queue, not when its slot is next overwritten.
#ifndef EBBRT_SRC_PLATFORM_RING_QUEUE_H_
#define EBBRT_SRC_PLATFORM_RING_QUEUE_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "src/platform/debug.h"

namespace ebbrt {

template <typename T>
class RingQueue {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  T& front() {
    Kassert(size_ != 0, "RingQueue: front of empty queue");
    return slots_[head_];
  }

  void push_back(T value) {
    if (size_ == slots_.size()) {
      Grow();
    }
    slots_[(head_ + size_) & (slots_.size() - 1)] = std::move(value);
    ++size_;
  }

  void push_front(T value) {
    if (size_ == slots_.size()) {
      Grow();
    }
    head_ = (head_ - 1) & (slots_.size() - 1);
    slots_[head_] = std::move(value);
    ++size_;
  }

  void pop_front() {
    Kassert(size_ != 0, "RingQueue: pop of empty queue");
    slots_[head_] = T{};
    head_ = (head_ + 1) & (slots_.size() - 1);
    --size_;
  }

  void clear() {
    while (size_ != 0) {
      pop_front();
    }
  }

 private:
  void Grow() {
    std::vector<T> bigger(slots_.empty() ? 8 : 2 * slots_.size());
    for (std::size_t i = 0; i < size_; ++i) {
      bigger[i] = std::move(slots_[(head_ + i) & (slots_.size() - 1)]);
    }
    slots_.swap(bigger);
    head_ = 0;
  }

  std::vector<T> slots_;  // size is zero or a power of two
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace ebbrt

#endif  // EBBRT_SRC_PLATFORM_RING_QUEUE_H_
