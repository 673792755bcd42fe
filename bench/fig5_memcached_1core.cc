// Figure 5 — Memcached single-core performance: mean and 99th-percentile latency as a
// function of offered throughput, for EbbRT/KVM, Linux/KVM, Linux native, and OSv.
//
// Also emits the TX-batching depth sweep (pipeline {1, 8, 32}) as the "memcached_1core"
// section of BENCH_tx_batching.json and BENCH_alloc_pool.json — the segments-per-op and
// zero-malloc evidence. tx_batcher_test runs the same depth points (RunDepthPoint) and
// holds them to coalesced sends and zero heap allocations.
//
// Modes:
//   (none)        full figure + depth sweep
//   --sweep-only  just the depth sweep (fast; rewrites the two sections)
#include <cstring>

#include "bench/memcached_common.h"

int main(int argc, char** argv) {
  using namespace ebbrt::bench;
  bool sweep_only = argc > 1 && std::strcmp(argv[1], "--sweep-only") == 0;
  if (!sweep_only) {
    RunFigure("Figure 5", /*server_cores=*/1);
  }
  EmitTxBatchingSweep("memcached_1core", /*server_cores=*/1, {1, 8, 32},
                      /*total_requests=*/512);
  return 0;
}
