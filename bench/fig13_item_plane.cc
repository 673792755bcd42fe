// Figure 13 — the KV item plane under a GET/SET mix sweep: ns/op, per-op latency
// quantiles, and the generic-heap allocations per op.
//
// The paper attributes its memcached win to per-core memory allocation, an RCU item table,
// and zero-copy item views (§4.2). The sweep (bench/item_plane_common.h) drives KvStore
// directly, so the numbers isolate the item plane itself.
//
// The headline column is heap_allocs_per_op, measured by the counting ::operator new hook,
// so hidden mallocs anywhere in the item path count. item_plane_test runs this same
// schedule and holds every point to zero heap allocations and zero control locks.
//
// Modes:
//   (none)    full sweep -> section "item_plane" of BENCH_item_plane.json
//
// The file's "item_plane_baseline" section is history: it was recorded once against the
// item plane before its zero-alloc refactor, and nothing regenerates it.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "bench/item_plane_common.h"

namespace ebbrt {
namespace {

using bench::HistogramColumnsJson;
using bench::MixPoint;

std::string PointsJson(const std::vector<MixPoint>& points) {
  std::string out = "[";
  char buf[512];
  for (std::size_t i = 0; i < points.size(); ++i) {
    const MixPoint& p = points[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"mix_get_pct\": %d, \"value_size\": %zu, \"ops\": %llu, "
                  "\"gets\": %llu, \"sets\": %llu, \"ns_per_op\": %.1f, %s, "
                  "\"get_heap_allocs_per_op\": %.4f, \"set_heap_allocs_per_op\": %.4f, "
                  "\"heap_allocs_per_op\": %.4f, \"control_locks\": %llu}",
                  i == 0 ? "" : ", ", p.get_pct, p.value_size,
                  static_cast<unsigned long long>(p.ops),
                  static_cast<unsigned long long>(p.gets),
                  static_cast<unsigned long long>(p.sets), p.ns_per_op,
                  HistogramColumnsJson(p.latency).c_str(), p.get_heap_allocs_per_op,
                  p.set_heap_allocs_per_op, p.heap_allocs_per_op,
                  static_cast<unsigned long long>(p.control_locks));
    out += buf;
  }
  out += "]";
  return out;
}

void PrintPoint(const MixPoint& p) {
  std::printf("%3d/%-3d %10zu %9llu %10.1f %8llu %8llu %8llu %10.4f %10.4f %10llu\n",
              p.get_pct, 100 - p.get_pct, p.value_size,
              static_cast<unsigned long long>(p.ops), p.ns_per_op,
              static_cast<unsigned long long>(p.latency.P50()),
              static_cast<unsigned long long>(p.latency.P99()),
              static_cast<unsigned long long>(p.latency.P999()),
              p.get_heap_allocs_per_op, p.set_heap_allocs_per_op,
              static_cast<unsigned long long>(p.control_locks));
}

}  // namespace
}  // namespace ebbrt

int main() {
  using namespace ebbrt;
  std::printf("# item-plane mix sweep (%llu ops/point)\n",
              static_cast<unsigned long long>(bench::kItemOpsPerPoint));
  std::printf("%-7s %10s %9s %10s %8s %8s %8s %10s %10s %10s\n", "mix", "value_size",
              "ops", "ns_per_op", "p50_ns", "p99_ns", "p999_ns", "get_allocs",
              "set_allocs", "ctl_locks");
  std::vector<MixPoint> points = bench::RunMixSweep();
  for (const MixPoint& p : points) {
    PrintPoint(p);
  }
  bench::WriteJsonSection("BENCH_item_plane.json", "item_plane", PointsJson(points));
  std::printf("# wrote section \"item_plane\" to BENCH_item_plane.json\n");
  return 0;
}
