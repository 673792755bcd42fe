// Shared pieces of the benchmark: seeded input tables, the value-correctness ledger, the
// per-rep result, and the counter snapshots read at the measured window's edges.
#ifndef PERFBENCH_SRC_COMMON_H_
#define PERFBENCH_SRC_COMMON_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "src/iobuf/iobuf.h"
#include "src/sim/testbed.h"

namespace perfbench {

// splitmix64: a few instructions per draw, so generating inputs never shows up in the
// client's host time (std::mt19937 seeding per draw costs microseconds).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  // Uniform in [0, n).
  std::uint64_t Below(std::uint64_t n) { return Next() % n; }
  // Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

std::uint64_t Mix(std::uint64_t a, std::uint64_t b);

// Keys and per-key value sizes, precomputed from the seed. A value's bytes are a window of
// a seeded byte pool chosen by (key, version), so every write is distinct, costs no
// generation at issue time, and can be compared byte for byte when read back.
struct KeyTable {
  std::vector<std::string> keys;
  std::vector<std::uint32_t> value_sizes;
  std::string pool;
  std::uint64_t seed = 0;

  std::string_view Value(std::size_t key, std::uint32_t version) const {
    std::size_t len = value_sizes[key];
    std::size_t offset = Mix(seed ^ key, version) % (pool.size() - len + 1);
    return std::string_view(pool).substr(offset, len);
  }
};

// ETC key sizes (20-70 B, normal body around 31 B) and ETC value sizes (generalized Pareto,
// sigma 214, k 0.35, clamped to [1, 1024]); `fixed_value` > 0 replaces the value law.
KeyTable MakeKeyTable(std::uint64_t seed, std::size_t count, const char* prefix,
                      std::uint32_t fixed_value);

// Which version of each key a read may legitimately return. A read issued after the
// acknowledgement of version `acked` and answered before version `issued + 1` was sent may
// see any version in [acked, issued]; version 0 is the preload.
class Ledger {
 public:
  explicit Ledger(std::size_t keys) : issued_(keys, 0), acked_(keys, 0) {}
  std::uint32_t NextVersion(std::size_t key) { return ++issued_[key]; }
  void Ack(std::size_t key, std::uint32_t version) {
    if (version > acked_[key]) {
      acked_[key] = version;
    }
  }
  std::uint32_t acked(std::size_t key) const { return acked_[key]; }
  std::uint32_t issued(std::size_t key) const { return issued_[key]; }

  // True when `chain` holds exactly the bytes of some version in [lo, issued(key)].
  bool Matches(const KeyTable& table, std::size_t key, std::uint32_t lo,
               const ebbrt::IOBuf* chain) const;
  bool Matches(const KeyTable& table, std::size_t key, std::uint32_t lo,
               std::string_view bytes) const;

 private:
  std::vector<std::uint32_t> issued_;
  std::vector<std::uint32_t> acked_;
};

bool ChainEquals(const ebbrt::IOBuf* chain, std::string_view expected);

// Work counts read before and after the measured window (all machines of a testbed).
struct Counters {
  double calendar_entries = 0;
  double frames = 0;
  double handlers = 0;
  double xcore_pushes = 0;
  double control_locks = 0;
  double tx_segments = 0;
  double tx_data_segments = 0;
  double payload_bytes = 0;
  double rx_coalesced_bytes = 0;
  double heap_allocs = 0;
  double pool_hits = 0;
  double pool_misses = 0;
  double messages = 0;
  double rpc_retries = 0;
  double rpc_timeouts = 0;

  Counters operator-(const Counters& o) const;
};

// Summed value of every sample named `name` in the machine's metric snapshot (0 when the
// machine has no telemetry plane or no such series).
double SnapshotSum(ebbrt::Runtime& runtime, const std::string& name);

// One rep: a fresh testbed, set up, a measured window of virtual time, drain, teardown.
struct RepResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;     // wrong value, miss, unanswered, refused, failed future
  std::uint64_t completed = 0;  // ops answered inside the measured window
  double setup_s = 0;           // set-up CPU time, scaled to the reference speed
  double cpu_ns = 0;            // process CPU time over the measured window
  std::uint64_t window_ns = 0;  // virtual length of the measured window
  std::vector<double> slice_ns_per_op;      // per window slice, scaled to the reference speed
  std::vector<double> raw_slice_ns_per_op;  // the same, unscaled process CPU ns per op
  std::vector<double> reference_ns;         // ReferenceCpuNs() after each slice
  std::vector<std::uint64_t> latencies_ns;  // modeled, ops due inside the window
  std::uint64_t late_max_ns = 0;
  Counters counts;              // window deltas
  std::vector<std::string> errors;  // first few check failures, for the log

  void Fail(std::string what) {
    ++failed;
    if (errors.size() < 8) {
      errors.push_back(std::move(what));
    }
  }
  // A check that is not an op (teardown, server counters).
  void CheckFailed(std::string what) {
    if (errors.size() < 8) {
      errors.push_back(std::move(what));
    }
    teardown_ok = false;
  }
  bool teardown_ok = true;
};

double ProcessCpuNs();

// Runs a fixed loop of the benchmark's own (random reads and writes over 1 MiB, an
// unpredictable branch, a 512 B copy every 64 steps) and returns the process CPU ns it took.
// The program never runs this code, so its time moves only with the speed the machine gives
// the process at that moment: a shared guest's vCPUs slow down and speed up by tens of
// percent over seconds to minutes as neighbours come and go.
double ReferenceCpuNs();

// About what ReferenceCpuNs() takes on an idle 4-vCPU Xeon KVM guest. Host times are
// reported scaled by kReferenceNominalNs / ReferenceCpuNs() measured next to them, that is,
// in ns on a machine that runs the reference loop in exactly this time.
inline constexpr double kReferenceNominalNs = 1'200'000;

// Runs the world until `done()` holds or virtual time passes `horizon`, stepping 1 ms at a
// time; stepping only observes the calendar, it never changes the modeled schedule.
template <typename F>
bool RunUntilOr(ebbrt::SimWorld& world, std::uint64_t horizon, F done) {
  while (!done()) {
    if (world.Now() >= horizon) {
      return false;
    }
    world.RunUntil(std::min(horizon, world.Now() + 1'000'000));
  }
  return true;
}

// Runs the measured window [t0, t1): records the set-up time (process CPU time since
// `cpu_start_ns`), opens the tracer's window, and steps through the window in equal slices,
// recording the process CPU time per op completed in each slice (slices that complete
// nothing are skipped). Host time is sampled this finely so that a burst of interference
// from outside the process spoils one slice, not the whole rep. Each slice is pinned to the
// next of the CPUs the process may use, and ReferenceCpuNs() runs on that CPU right before
// and right after it; the slice's figure is scaled by the reference's nominal time over the
// mean of those two, and the set-up time by the median of the rep's reference times. A
// slowdown of the machine then moves the reference and the slice together and cancels,
// while the program's own cost does not enter the reference, which runs none of its code
// (only the caches and clock speed a slice leaves behind can move the reference a little).
// Work counts of every machine in `nodes` are read at the window's edges.
void MeasureWindow(ebbrt::sim::Testbed& bed, const std::vector<ebbrt::sim::TestbedNode>& nodes,
                   std::uint64_t t0, std::uint64_t t1, double cpu_start_ns, RepResult& result);

// Teardown checks: the buffer pool is back at its idle occupancy (taken with every
// connection up and the world drained, when it holds only the NIC queues' posted receive
// buffers), and no item block outlived its testbed.
void CheckPoolIdle(std::uint64_t idle_in_use, RepResult& result);
void CheckNoLiveItems(RepResult& result);

// Runs the world until the calendar drains (TCP close handshakes, RCU grace periods) or
// virtual time passes `horizon`; true when it drained.
inline bool Quiesce(ebbrt::SimWorld& world, std::uint64_t horizon) {
  while (world.Now() < horizon) {
    if (world.RunUntil(world.Now() + 10'000'000)) {
      return true;
    }
  }
  return false;
}

}  // namespace perfbench

#endif  // PERFBENCH_SRC_COMMON_H_
