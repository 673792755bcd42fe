// Minimal test-and-set spinlock with exponential pause backoff.
//
// Used only off the per-core fast paths: the node buddy allocator, RCU hash-table bucket
// writers, and the ARP and DHCP tables. Per-core data needs no lock at all — EbbRT's
// non-preemptive, non-migrating events make plain loads/stores safe there.
#ifndef EBBRT_SRC_PLATFORM_SPINLOCK_H_
#define EBBRT_SRC_PLATFORM_SPINLOCK_H_

#include <atomic>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace ebbrt {

inline void CpuRelax() {
#if defined(__x86_64__)
  _mm_pause();
#endif
}

class Spinlock {
 public:
  Spinlock() = default;
  Spinlock(const Spinlock&) = delete;
  Spinlock& operator=(const Spinlock&) = delete;

  void lock() {  // NOLINT: BasicLockable naming
    while (flag_.exchange(true, std::memory_order_acquire)) {
      do {
        CpuRelax();
      } while (flag_.load(std::memory_order_relaxed));
    }
  }

  bool try_lock() {  // NOLINT: Lockable naming
    return !flag_.exchange(true, std::memory_order_acquire);
  }

  void unlock() {  // NOLINT: BasicLockable naming
    flag_.store(false, std::memory_order_release);
  }

 private:
  std::atomic<bool> flag_{false};
};

// Cache-line size used to pad per-core structures against false sharing.
inline constexpr std::size_t kCacheLineSize = 64;

}  // namespace ebbrt

#endif  // EBBRT_SRC_PLATFORM_SPINLOCK_H_
