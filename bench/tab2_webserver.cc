// Table 2 — Node.js webserver latency (paper §4.3): GET requests answered with a 148-byte
// static response under moderate load.
//
//   Paper: EbbRT mean 90.54us / 99th 123.00us; Linux mean 112.83us / 99th 199.00us
//   (Linux mean +24.6%, 99th +61.8%).
//
// The EbbRT server runs on the uv:: layer (the node.js port surface); the Linux server is the
// same logic over the baseline socket stack. Both inside the KVM model; wrk-style closed-loop
// client.
//
// Modes:
//   (none)        the table + the webserver depth sweep (bench/webserver_common.h)
//   --sweep-only  just the depth sweep: rewrites the "webserver" sections of
//                 BENCH_tx_batching.json and BENCH_alloc_pool.json
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/webserver_common.h"

namespace ebbrt {
namespace {

struct Row {
  double mean_us;
  double p99_us;
  double rps;
};

Row RunVariant(bool ebbrt_server) {
  sim::Testbed bed;
  sim::TestbedNode server = bed.AddNode("server", 1, Ipv4Addr::Of(10, 0, 0, 2));
  sim::TestbedNode client = bed.AddNode("client", 2, Ipv4Addr::Of(10, 0, 0, 3),
                                        sim::HypervisorModel::Native());
  server.Spawn(0, [&] {
    if (ebbrt_server) {
      new http::HttpServer(*server.net, 8080);
    } else {
      auto* stack = new baseline::SocketStack(bed.world(), *server.net,
                                              baseline::SocketStack::LinuxModel());
      new http::BaselineHttpServer(*stack, 8080);
    }
  });
  loadgen::HttpLoadgen::Config config;
  config.connections = 8;       // moderate load
  config.think_time_ns = 50'000;
  config.duration_ns = 200'000'000;
  loadgen::HttpLoadgen gen(bed, client, Ipv4Addr::Of(10, 0, 0, 2), 8080, config);
  loadgen::HttpLoadgen::Result result;
  bool done = false;
  gen.Run().Then([&](Future<loadgen::HttpLoadgen::Result> f) {
    result = f.Get();
    done = true;
  });
  std::uint64_t horizon = 2ull * 1000 * 1000 * 1000;
  while (!done && bed.world().Now() < horizon) {
    if (bed.world().RunUntil(bed.world().Now() + 50'000'000)) {
      break;
    }
  }
  return {result.mean_ns / 1000.0, result.p99_ns / 1000.0, result.achieved_rps};
}

void EmitWebserverSweep(const std::vector<std::size_t>& depths) {
  bench::EmitDepthSweep("webserver", depths, bench::RunWebDepthPoint);
}

}  // namespace
}  // namespace ebbrt

int main(int argc, char** argv) {
  using namespace ebbrt;
  bool sweep_only = argc > 1 && std::strcmp(argv[1], "--sweep-only") == 0;
  if (sweep_only) {
    EmitWebserverSweep({1, 8, 32});
    return 0;
  }
  std::printf("# Table 2 reproduction: webserver GET -> 148B static response, moderate"
              " load\n");
  std::printf("# paper: EbbRT 90.54us mean / 123us 99th; Linux 112.83us mean / 199us 99th\n");
  Row ebbrt_row = RunVariant(true);
  Row linux_row = RunVariant(false);
  std::printf("%-8s %12s %16s %12s\n", "system", "mean(us)", "99th-pct(us)", "rps");
  std::printf("%-8s %12.2f %16.2f %12.0f\n", "EbbRT", ebbrt_row.mean_us, ebbrt_row.p99_us,
              ebbrt_row.rps);
  std::printf("%-8s %12.2f %16.2f %12.0f\n", "Linux", linux_row.mean_us, linux_row.p99_us,
              linux_row.rps);
  std::printf("# Linux/EbbRT: mean %+.1f%%, 99th %+.1f%%\n",
              (linux_row.mean_us / ebbrt_row.mean_us - 1.0) * 100.0,
              (linux_row.p99_us / ebbrt_row.p99_us - 1.0) * 100.0);
  EmitWebserverSweep({1, 8, 32});
  return 0;
}
