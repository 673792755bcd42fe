#include "src/mem/vmem.h"

#include <signal.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cstring>
#include <mutex>
#include <vector>

#include "src/mem/phys_arena.h"
#include "src/platform/debug.h"

namespace ebbrt {

// Process-wide registry + SIGSEGV dispatcher. The handler runs on the faulting thread
// synchronously, so invoking user code from it is well-defined for this use (the same pattern
// userfault-style allocators rely on).
class VMemRegistry {
 public:
  static VMemRegistry& Get() {
    static VMemRegistry instance;
    return instance;
  }

  VMemRegion& Register(void* base, std::size_t size, VMemRegion::FaultHandler handler) {
    std::lock_guard<std::mutex> lock(mu_);
    regions_.push_back(
        std::unique_ptr<VMemRegion>(new VMemRegion(base, size, std::move(handler))));
    return *regions_.back();
  }

  void Unregister(VMemRegion& region) {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = regions_.begin(); it != regions_.end(); ++it) {
      if (it->get() == &region) {
        regions_.erase(it);
        return;
      }
    }
  }

  VMemRegion* Find(void* addr) {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& region : regions_) {
      if (region->Contains(addr)) {
        return region.get();
      }
    }
    return nullptr;
  }

 private:
  VMemRegistry() {
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_sigaction = &VMemRegistry::OnFault;
    sa.sa_flags = SA_SIGINFO;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGSEGV, &sa, &previous_);
  }

  static void OnFault(int /*signo*/, siginfo_t* info, void* /*ucontext*/) {
    VMemRegion* region = Get().Find(info->si_addr);
    if (region == nullptr) {
      // Not ours: restore the previous disposition and re-raise so real crashes still crash.
      sigaction(SIGSEGV, &Get().previous_, nullptr);
      raise(SIGSEGV);
      return;
    }
    region->faults_.fetch_add(1, std::memory_order_relaxed);
    if (region->handler_) {
      region->handler_(*region, info->si_addr);
    } else {
      // Default demand handler with fault-around, matching what a general-purpose kernel
      // does (map a cluster per fault rather than a single page).
      constexpr std::size_t kFaultAround = 16;
      auto base = reinterpret_cast<std::uintptr_t>(region->base());
      auto addr = reinterpret_cast<std::uintptr_t>(info->si_addr) & ~(kPageSize - 1);
      std::size_t span = kFaultAround * kPageSize;
      std::uintptr_t end = base + region->size();
      if (addr + span > end) {
        span = end - addr;
      }
      mprotect(reinterpret_cast<void*>(addr), span, PROT_READ | PROT_WRITE);
    }
  }

  std::mutex mu_;
  std::vector<std::unique_ptr<VMemRegion>> regions_;
  struct sigaction previous_;
};

VMemRegion::VMemRegion(void* base, std::size_t size, FaultHandler handler)
    : base_(base), size_(size), handler_(std::move(handler)) {}

VMemRegion::~VMemRegion() { munmap(base_, size_); }

void VMemRegion::MapPage(void* addr) {
  auto page = reinterpret_cast<std::uintptr_t>(addr) & ~(kPageSize - 1);
  int rc = mprotect(reinterpret_cast<void*>(page), kPageSize, PROT_READ | PROT_WRITE);
  Kbugon(rc != 0, "VMemRegion: mprotect failed");
}

void VMemRegion::MapAll(bool touch) {
  int rc = mprotect(base_, size_, PROT_READ | PROT_WRITE);
  Kbugon(rc != 0, "VMemRegion: mprotect failed");
  if (touch) {
    auto* p = static_cast<volatile std::uint8_t*>(base_);
    for (std::size_t off = 0; off < size_; off += kPageSize) {
      p[off] = p[off];
    }
  }
}

namespace vmem {

VMemRegion& Allocate(std::size_t bytes, VMemRegion::FaultHandler handler) {
  std::size_t size = (bytes + kPageSize - 1) & ~(kPageSize - 1);
  void* base = mmap(nullptr, size, PROT_NONE, MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE,
                    -1, 0);
  Kbugon(base == MAP_FAILED, "vmem::Allocate: mmap of %zu bytes failed", size);
  return VMemRegistry::Get().Register(base, size, std::move(handler));
}

void Release(VMemRegion& region) { VMemRegistry::Get().Unregister(region); }

}  // namespace vmem

}  // namespace ebbrt
