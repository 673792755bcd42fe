// The webserver TX-batching depth point behind Table 2's "webserver" section of
// BENCH_tx_batching.json and BENCH_alloc_pool.json. tab2_webserver records the sweep;
// tx_batcher_test holds it to zero heap allocations and coalesced sends.
#ifndef EBBRT_BENCH_WEBSERVER_COMMON_H_
#define EBBRT_BENCH_WEBSERVER_COMMON_H_

#include "bench/bench_json.h"
#include "src/apps/http/http_server.h"
#include "src/apps/loadgen/http_loadgen.h"
#include "src/sim/testbed.h"

namespace ebbrt {
namespace bench {

// Pipelined GET bursts against the uv-layer (node-style) EbbRT server: depth-N rounds sent
// as one chain; the auto-corked server answers each round in one chain.
inline DepthPoint RunWebDepthPoint(std::size_t depth) {
  sim::Testbed bed;
  sim::TestbedNode server = bed.AddNode("server", 1, Ipv4Addr::Of(10, 0, 0, 2));
  sim::TestbedNode client = bed.AddNode("client", 1, Ipv4Addr::Of(10, 0, 0, 3),
                                        sim::HypervisorModel::Native());
  http::HttpServer* srv = nullptr;
  server.Spawn(0, [&] { srv = new http::HttpServer(*server.net, 8080); });
  loadgen::HttpLoadgen::Config config;
  config.connections = 1;
  config.pipeline = depth;
  config.think_time_ns = 10'000;
  config.warmup_ns = 5'000'000;
  config.duration_ns = 100'000'000;
  loadgen::HttpLoadgen gen(bed, client, Ipv4Addr::Of(10, 0, 0, 2), 8080, config);
  bool done = false;
  gen.Run().Then([&](Future<loadgen::HttpLoadgen::Result> f) {
    f.Get();
    done = true;
  });
  // Steady-state allocation baseline, matching fig5's end-of-preload mark: run through the
  // warmup window first so one-time pool/slab carving is excluded from the alloc fields
  // (the request denominator stays the server's total, the same approximation
  // segments_per_op makes).
  bed.world().RunUntil(bed.world().Now() + config.warmup_ns);
  server.net->stats().MarkAllocBaseline();
  std::uint64_t horizon = 2ull * 1000 * 1000 * 1000;
  while (!done && bed.world().Now() < horizon) {
    if (bed.world().RunUntil(bed.world().Now() + 50'000'000)) {
      break;
    }
  }
  return FillDepthPoint(server.net->stats(), depth,
                         srv != nullptr ? srv->requests() : 0, bed.world().Now());
}

}  // namespace bench
}  // namespace ebbrt

#endif  // EBBRT_BENCH_WEBSERVER_COMMON_H_
