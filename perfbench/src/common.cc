#include "common.h"

#include <sched.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "src/apps/memcached/kvstore.h"
#include "src/mem/gp_allocator.h"
#include "src/obs/metrics.h"
#include "trace.h"

namespace perfbench {

std::uint64_t Mix(std::uint64_t a, std::uint64_t b) {
  Rng rng(a * 0x9e3779b97f4a7c15ull + b);
  return rng.Next();
}

KeyTable MakeKeyTable(std::uint64_t seed, std::size_t count, const char* prefix,
                      std::uint32_t fixed_value) {
  KeyTable table;
  table.seed = seed;
  Rng rng(Mix(seed, 0x6b657973));  // "keys"
  table.keys.reserve(count);
  table.value_sizes.reserve(count);
  std::uint32_t max_value = 1;
  for (std::size_t i = 0; i < count; ++i) {
    // Box-Muller normal draw for the key size.
    double u1 = std::max(rng.Unit(), 1e-12);
    double u2 = rng.Unit();
    double normal = std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
    std::size_t size = static_cast<std::size_t>(std::clamp(30.7 + 8.2 * normal, 20.0, 70.0));
    std::string key = prefix + std::to_string(i) + ":";
    while (key.size() < size) {
      key.push_back(static_cast<char>('a' + rng.Below(26)));
    }
    table.keys.push_back(std::move(key));
    std::uint32_t value = fixed_value;
    if (value == 0) {
      double u = rng.Unit();
      double k = 0.348;
      double sigma = 214.48;
      double x = sigma / k * (std::pow(1.0 - u, -k) - 1.0);
      value = static_cast<std::uint32_t>(std::clamp(x, 1.0, 1024.0));
    }
    table.value_sizes.push_back(value);
    max_value = std::max(max_value, value);
  }
  std::size_t pool_bytes = 64 * 1024 + max_value;
  table.pool.resize(pool_bytes);
  Rng bytes(Mix(seed, 0x706f6f6c));  // "pool"
  for (std::size_t i = 0; i < pool_bytes; i += 8) {
    std::uint64_t word = bytes.Next();
    std::memcpy(&table.pool[i], &word, std::min<std::size_t>(8, pool_bytes - i));
  }
  return table;
}

bool ChainEquals(const ebbrt::IOBuf* chain, std::string_view expected) {
  std::size_t offset = 0;
  for (const ebbrt::IOBuf* seg = chain; seg != nullptr; seg = seg->Next()) {
    std::size_t len = seg->Length();
    if (offset + len > expected.size() ||
        std::memcmp(seg->Data(), expected.data() + offset, len) != 0) {
      return false;
    }
    offset += len;
  }
  return offset == expected.size();
}

bool Ledger::Matches(const KeyTable& table, std::size_t key, std::uint32_t lo,
                     const ebbrt::IOBuf* chain) const {
  for (std::uint32_t v = lo; v <= issued_[key]; ++v) {
    if (ChainEquals(chain, table.Value(key, v))) {
      return true;
    }
  }
  return false;
}

bool Ledger::Matches(const KeyTable& table, std::size_t key, std::uint32_t lo,
                     std::string_view bytes) const {
  for (std::uint32_t v = lo; v <= issued_[key]; ++v) {
    if (bytes == table.Value(key, v)) {
      return true;
    }
  }
  return false;
}

Counters Counters::operator-(const Counters& o) const {
  Counters d;
  d.calendar_entries = calendar_entries - o.calendar_entries;
  d.frames = frames - o.frames;
  d.handlers = handlers - o.handlers;
  d.xcore_pushes = xcore_pushes - o.xcore_pushes;
  d.control_locks = control_locks - o.control_locks;
  d.tx_segments = tx_segments - o.tx_segments;
  d.tx_data_segments = tx_data_segments - o.tx_data_segments;
  d.payload_bytes = payload_bytes - o.payload_bytes;
  d.rx_coalesced_bytes = rx_coalesced_bytes - o.rx_coalesced_bytes;
  d.heap_allocs = heap_allocs - o.heap_allocs;
  d.pool_hits = pool_hits - o.pool_hits;
  d.pool_misses = pool_misses - o.pool_misses;
  d.messages = messages - o.messages;
  d.rpc_retries = rpc_retries - o.rpc_retries;
  d.rpc_timeouts = rpc_timeouts - o.rpc_timeouts;
  return d;
}

double SnapshotSum(ebbrt::Runtime& runtime, const std::string& name) {
  ebbrt::obs::ObsRoot* root = ebbrt::obs::ObsRoot::TryFor(runtime);
  if (root == nullptr) {
    return 0;
  }
  double total = 0;
  for (const auto& sample : root->SnapshotNow().samples) {
    if (sample.first == name) {
      total += sample.second;
    }
  }
  return total;
}

namespace {

Counters ReadCounters(ebbrt::sim::Testbed& bed,
                      const std::vector<ebbrt::sim::TestbedNode>& nodes) {
  Counters c;
  c.calendar_entries = static_cast<double>(bed.world().world_stats().entries_dispatched);
  for (const ebbrt::sim::TestbedNode& node : nodes) {
    c.frames += static_cast<double>(node.nic->frames_transmitted());
    const ebbrt::NetworkManager::Stats& s = node.net->stats();
    c.tx_segments += static_cast<double>(s.tcp_tx_segments.load());
    c.tx_data_segments += static_cast<double>(s.tcp_tx_data_segments.load());
    c.payload_bytes += static_cast<double>(s.tcp_tx_payload_bytes.load());
    c.rx_coalesced_bytes += static_cast<double>(s.rx_coalesced_bytes.load());
    ebbrt::obs::ObsRoot* root = ebbrt::obs::ObsRoot::TryFor(*node.runtime);
    if (root == nullptr) {
      continue;
    }
    ebbrt::obs::ObsRoot::MetricsSnapshot snap = root->SnapshotNow();
    for (const auto& sample : snap.samples) {
      if (sample.first == "event_xcore_pushes") {
        c.xcore_pushes += sample.second;
      } else if (sample.first == "event_control_locks") {
        c.control_locks += sample.second;
      } else if (sample.first == "messenger_messages_sent") {
        c.messages += sample.second;
      } else if (sample.first == "rpc_retries") {
        c.rpc_retries += sample.second;
      } else if (sample.first == "rpc_timeouts") {
        c.rpc_timeouts += sample.second;
      }
    }
    for (const auto& hist : snap.hists) {
      if (hist.first == "event_handler_latency_ns") {
        c.handlers += static_cast<double>(hist.second.count);
      }
    }
  }
  return c;
}

void ReadMemCounters(Counters* c) {
  const ebbrt::mem::Stats& m = ebbrt::mem::stats();
  c->heap_allocs = static_cast<double>(m.generic_heap_allocs.load());
  c->pool_hits = static_cast<double>(m.pool_hits.load());
  c->pool_misses = static_cast<double>(m.pool_misses.load());
}

// The CPUs this process may run on, read before the first pin narrows them.
const std::vector<int>& AllowedCpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &set)) {
          out.push_back(cpu);
        }
      }
    }
    return out;
  }();
  return cpus;
}

void PinTo(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);  // best effort: an unpinned slice is still valid
}

// The process-wide allocation counters are read on the window side of the snapshot work,
// so the snapshots' own allocations stay out of the delta.
Counters WindowOpen(ebbrt::sim::Testbed& bed,
                    const std::vector<ebbrt::sim::TestbedNode>& nodes) {
  Counters c = ReadCounters(bed, nodes);
  ReadMemCounters(&c);
  return c;
}

Counters WindowClose(ebbrt::sim::Testbed& bed,
                     const std::vector<ebbrt::sim::TestbedNode>& nodes) {
  Counters mem;
  ReadMemCounters(&mem);
  Counters c = ReadCounters(bed, nodes);
  c.heap_allocs = mem.heap_allocs;
  c.pool_hits = mem.pool_hits;
  c.pool_misses = mem.pool_misses;
  return c;
}

}  // namespace

void MeasureWindow(ebbrt::sim::Testbed& bed, const std::vector<ebbrt::sim::TestbedNode>& nodes,
                   std::uint64_t t0, std::uint64_t t1, double cpu_start_ns, RepResult& result) {
  constexpr std::uint64_t kSlices = 20;
  static std::uint64_t windows_measured = 0;
  const std::vector<int>& cpus = AllowedCpus();
  std::uint64_t rotation = windows_measured++;
  ebbrt::SimWorld& world = bed.world();
  world.RunUntil(t0);
  double setup_cpu = ProcessCpuNs() - cpu_start_ns;
  Counters before = WindowOpen(bed, nodes);
  if (!cpus.empty()) {
    PinTo(cpus[rotation % cpus.size()]);
  }
  double reference = ReferenceCpuNs();
  std::vector<double> references{reference};
  GlobalTracer().set_window_open(true);
  double cpu_total = 0;
  std::uint64_t ops = result.completed;
  for (std::uint64_t k = 1; k <= kSlices; ++k) {
    if (!cpus.empty()) {
      PinTo(cpus[(rotation + k) % cpus.size()]);
    }
    // The reference runs right before and right after each slice, on the slice's CPU.
    double reference_before = k == 1 ? reference : ReferenceCpuNs();
    double cpu_before = ProcessCpuNs();  // after the migration: it is not charged
    world.RunUntil(t0 + (t1 - t0) * k / kSlices);
    double slice_cpu = ProcessCpuNs() - cpu_before;
    double reference_after = ReferenceCpuNs();
    references.push_back(reference_after);
    cpu_total += slice_cpu;
    std::uint64_t ops_now = result.completed;
    if (ops_now > ops) {
      double raw = slice_cpu / static_cast<double>(ops_now - ops);
      double speed = kReferenceNominalNs / ((reference_before + reference_after) / 2.0);
      result.raw_slice_ns_per_op.push_back(raw);
      result.slice_ns_per_op.push_back(raw * speed);
      result.reference_ns.push_back(reference_after);
    }
    ops = ops_now;
  }
  GlobalTracer().set_window_open(false);
  std::nth_element(references.begin(), references.begin() + references.size() / 2,
                   references.end());
  result.setup_s = setup_cpu * kReferenceNominalNs / references[references.size() / 2] / 1e9;
  result.cpu_ns = cpu_total;
  result.window_ns = t1 - t0;
  result.counts = WindowClose(bed, nodes) - before;
}

void CheckPoolIdle(std::uint64_t idle_in_use, RepResult& result) {
  std::uint64_t in_use = ebbrt::mem::stats().pool_in_use.load();
  if (in_use != idle_in_use) {
    result.CheckFailed("buffer pool in_use " + std::to_string(in_use) + " != idle " +
                       std::to_string(idle_in_use));
  }
}

void CheckNoLiveItems(RepResult& result) {
  std::uint64_t live = ebbrt::memcached::Item::live_count();
  if (live != 0) {
    result.CheckFailed("items leaked: " + std::to_string(live));
  }
}

double ReferenceCpuNs() {
  // 1 MiB of 64-bit words: after the untimed pass below it sits in a core's L2, so the
  // loop's time follows the speed of the core and hardly the caches the program left behind.
  // (A 4 MiB table, half in the shared L3, slowed about 1.5x as much as the program did when
  // neighbours loaded the machine, and read 1.0-1.55 ms depending on the workload before it.)
  constexpr std::size_t kWords = std::size_t{1} << 17;
  constexpr std::size_t kSteps = 100'000;
  static std::vector<std::uint64_t> table = [] {
    std::vector<std::uint64_t> t(kWords);
    Rng rng(0x7265666572656e63ull);  // "referenc"
    for (std::uint64_t& word : t) {
      word = rng.Next();
    }
    return t;
  }();
  static volatile std::uint64_t sink = 0;
  // An untimed pass brings the table back into the caches, so the timed loop does not depend
  // on how much of it the program's last slice evicted.
  std::uint64_t acc = 0;
  for (std::uint64_t word : table) {
    acc += word;
  }
  double start = ProcessCpuNs();
  Rng rng(0x6c6f6f70ull);  // "loop": every call touches the same addresses
  for (std::size_t i = 0; i < kSteps; ++i) {
    std::uint64_t r = rng.Next();
    std::uint64_t& word = table[r & (kWords - 1)];
    // A data-dependent branch the predictor cannot learn, as in parsing and dispatch.
    if ((word ^ acc) & 1) {
      acc += word >> 3;
    } else {
      acc ^= word * 0x9e3779b97f4a7c15ull;
    }
    word = acc ^ r;
    if ((i & 63) == 0) {
      // Copy a 512 B block, as the network path copies payloads.
      std::size_t from = (r >> 20) & (kWords - 64);
      std::size_t to = (r >> 40) & (kWords - 64);
      std::memmove(&table[to], &table[from], 64 * sizeof(std::uint64_t));
    }
  }
  sink = sink + acc;
  return ProcessCpuNs() - start;
}

double ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
}

}  // namespace perfbench
