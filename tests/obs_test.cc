// Telemetry-plane tests: obs::Histogram bucket math and quantile error bound, the pull
// collectors' cross-core sums, the per-core span-id sequence, and the two exposition
// surfaces — GET /metrics over sim TCP and the StatsService RPC scrape.
#include <algorithm>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/apps/http/http_server.h"
#include "src/dist/messenger.h"
#include "src/event/event_manager.h"
#include "src/obs/histogram.h"
#include "src/obs/metrics.h"
#include "src/obs/stats_service.h"
#include "src/sim/testbed.h"

namespace ebbrt {
namespace {

using sim::Testbed;
using sim::TestbedNode;

constexpr Ipv4Addr kServerIp = Ipv4Addr::Of(10, 0, 0, 2);
constexpr Ipv4Addr kClientIp = Ipv4Addr::Of(10, 0, 0, 3);

// --- Histogram bucket math -------------------------------------------------------------------

TEST(Histogram, BucketBoundaries) {
  // Values below kSub get exact unit buckets.
  for (std::uint64_t v = 0; v < obs::Histogram::kSub; ++v) {
    EXPECT_EQ(obs::Histogram::Index(v), v);
    EXPECT_EQ(obs::Histogram::LowerBound(v), v);
    EXPECT_EQ(obs::Histogram::UpperBound(v), v);
  }
  // Every value lands in a bucket whose [lower, upper] range contains it, and the log-linear
  // width bound holds: upper <= lower * (1 + 1/kSub) for every non-unit bucket.
  const std::uint64_t probes[] = {8,    9,     15,   16,        17,       255,
                                  256,  1000,  4095, 4096,      99999,    1u << 20,
                                  (1u << 20) + 1,   (1ull << 40) + 12345, ~0ull >> 1};
  for (std::uint64_t v : probes) {
    std::size_t i = obs::Histogram::Index(v);
    ASSERT_LT(i, obs::Histogram::kBuckets) << v;
    EXPECT_LE(obs::Histogram::LowerBound(i), v) << v;
    EXPECT_GE(obs::Histogram::UpperBound(i), v) << v;
  }
  // Buckets tile the axis: each upper bound is exactly the next lower bound minus one.
  for (std::size_t i = 0; i + 1 < obs::Histogram::kBuckets; ++i) {
    EXPECT_EQ(obs::Histogram::UpperBound(i) + 1, obs::Histogram::LowerBound(i + 1)) << i;
  }
}

TEST(Histogram, QuantileWithinDocumentedErrorBound) {
  // The documented contract: estimate >= exact and <= exact * (1 + 1/kSub) + 1. Checked
  // against an exact sort over a deterministic mixed-scale sample.
  std::mt19937_64 rng(42);
  obs::Histogram hist;
  std::vector<std::uint64_t> values;
  values.reserve(10000);
  for (int i = 0; i < 10000; ++i) {
    // Log-uniform-ish: scale spans 2^0 .. 2^30.
    std::uint64_t scale = 1ull << (rng() % 31);
    std::uint64_t v = rng() % (scale + 1);
    values.push_back(v);
    hist.Record(v);
  }
  std::sort(values.begin(), values.end());
  obs::Histogram::Snapshot snapshot = hist.TakeSnapshot();
  EXPECT_EQ(snapshot.count, values.size());
  for (double q : {0.5, 0.9, 0.95, 0.99, 0.999}) {
    std::size_t rank = static_cast<std::size_t>(q * static_cast<double>(values.size()));
    if (rank < 1) {
      rank = 1;
    }
    std::uint64_t exact = values[rank - 1];
    std::uint64_t estimate = snapshot.Quantile(q);
    EXPECT_GE(estimate, exact) << "q=" << q;
    double bound = static_cast<double>(exact) *
                       (1.0 + 1.0 / static_cast<double>(obs::Histogram::kSub)) + 1.0;
    EXPECT_LE(static_cast<double>(estimate), bound) << "q=" << q;
  }
}

TEST(Histogram, SnapshotMergeIsSampleUnion) {
  // Merging per-core snapshots must behave as if every sample landed in one histogram —
  // the cross-core aggregation contract.
  obs::Histogram a, b;
  for (std::uint64_t v = 0; v < 100; ++v) {
    a.Record(v);
  }
  for (std::uint64_t v = 1000; v < 1100; ++v) {
    b.Record(v);
  }
  obs::Histogram::Snapshot merged = a.TakeSnapshot();
  merged.Merge(b.TakeSnapshot());
  obs::Histogram both;
  for (std::uint64_t v = 0; v < 100; ++v) {
    both.Record(v);
  }
  for (std::uint64_t v = 1000; v < 1100; ++v) {
    both.Record(v);
  }
  obs::Histogram::Snapshot expected = both.TakeSnapshot();
  EXPECT_EQ(merged.count, expected.count);
  EXPECT_EQ(merged.sum, expected.sum);
  for (double q : {0.25, 0.5, 0.75, 0.99}) {
    EXPECT_EQ(merged.Quantile(q), expected.Quantile(q)) << q;
  }
}

// --- Collectors and the per-core trace state -------------------------------------------------

double Find(const obs::ObsRoot::MetricsSnapshot& snapshot, const std::string& name) {
  for (const auto& sample : snapshot.samples) {
    if (sample.first == name) {
      return sample.second;
    }
  }
  return -1;
}

TEST(Collectors, EventCollectorSumsEveryCore) {
  // Both cores of a 2-core node run events; SnapshotNow's event totals and handler-latency
  // histogram must be the sums of the per-core EventManager stats, the run-queue depth must
  // stay a per-core series, and snapshotting itself must take no event-plane control locks.
  Testbed bed;
  TestbedNode node = bed.AddNode("node", 2, kServerIp);
  std::uint64_t synthetic[2] = {}, handlers[2] = {};
  double synthetic_total = -1, locks_first = -1, locks_second = -2;
  std::uint64_t handler_total = 0;
  std::vector<std::string> depth_series;
  node.Spawn(0, [&] {
    obs::ObsRoot::For(*node.runtime);
    node.Spawn(1, [&] {
      node.Spawn(1, [&] {
        node.Spawn(0, [&] {
          obs::ObsRoot& root = obs::ObsRoot::For(*node.runtime);
          auto& em_root =
              node.runtime->GetSubsystem<EventManagerRoot>(Subsystem::kEventManager);
          obs::ObsRoot::MetricsSnapshot snapshot = root.SnapshotNow();
          for (std::size_t core = 0; core < 2; ++core) {
            synthetic[core] = em_root.RepFor(core).stats().synthetic;
            handlers[core] = em_root.RepFor(core).handler_latency_hist().count();
          }
          synthetic_total = Find(snapshot, "event_synthetic");
          for (const auto& hist : snapshot.hists) {
            if (hist.first == "event_handler_latency_ns") {
              handler_total = hist.second.count;
            }
          }
          for (const auto& sample : snapshot.samples) {
            if (sample.first.rfind("event_run_queue_depth", 0) == 0) {
              depth_series.push_back(sample.first);
            }
          }
          locks_first = Find(snapshot, "event_control_locks");
          locks_second = Find(root.SnapshotNow(), "event_control_locks");
        });
      });
    });
  });
  bed.world().Run();
  ASSERT_GT(synthetic[0], 0u);
  ASSERT_GT(synthetic[1], 0u);
  EXPECT_EQ(synthetic_total, static_cast<double>(synthetic[0] + synthetic[1]));
  ASSERT_GT(handlers[1], 0u);
  EXPECT_EQ(handler_total, handlers[0] + handlers[1]);
  ASSERT_EQ(depth_series.size(), 2u);
  EXPECT_EQ(depth_series[0], "event_run_queue_depth{core=\"0\"}");
  EXPECT_EQ(depth_series[1], "event_run_queue_depth{core=\"1\"}");
  ASSERT_GE(locks_first, 0.0);
  EXPECT_EQ(locks_second, locks_first);
}

TEST(MetricRegistry, SpanIdSequenceSkipsZeroOnWrap) {
  // 2^20 + 1 draws from one rep carry its 20-bit span sequence across the wrap. A zero
  // sequence would make core 0 of a runtime whose id bits are 0 hand out span id 0, the
  // "no parent" value, so the wrap must skip it.
  Testbed bed;
  TestbedNode node = bed.AddNode("node", 1, kServerIp);
  std::size_t zero_sequences = 0;
  node.Spawn(0, [&] {
    obs::MetricRegistry& rep = obs::ObsRoot::For(*node.runtime).RepFor(0);
    for (std::uint32_t i = 0; i <= (1u << 20); ++i) {
      if ((rep.NewSpanId() & 0x000fffff) == 0) {
        zero_sequences++;
      }
    }
  });
  bed.world().Run();
  EXPECT_EQ(zero_sequences, 0u);
}

// --- Exposition surfaces ---------------------------------------------------------------------

// Accumulates raw received bytes (the HTTP client's side).
class StringSink final : public TcpHandler {
 public:
  explicit StringSink(std::string& out) : out_(out) {}
  void Receive(std::unique_ptr<IOBuf> data) override {
    out_ += std::string(data->AsStringView());
  }

 private:
  std::string& out_;
};

TEST(Exposition, MetricsEndpointServesEveryDefaultFamily) {
  // GET /metrics over sim TCP: the response must carry the re-homed legacy stats families
  // (event, mem, net, messenger), the plane's own meta-metrics, and histogram quantile
  // samples — and a plain GET / on the same keep-alive connection still gets the static
  // 148-byte response.
  Testbed bed;
  TestbedNode server = bed.AddNode("server", 1, kServerIp);
  TestbedNode client = bed.AddNode("client", 1, kClientIp);
  std::string response;
  server.Spawn(0, [&] {
    // The messenger family appears once the subsystem exists (collectors sample lazily).
    dist::Messenger::For(*server.runtime);
    new http::HttpServer(*server.net, 8080);
  });
  client.Spawn(0, [&] {
    client.net->tcp().Connect(*client.iface, kServerIp, 8080).Then([&response](
                                                                       Future<TcpPcb> f) {
      TcpPcb pcb = f.Get();
      pcb.InstallHandler(std::unique_ptr<TcpHandler>(std::make_unique<StringSink>(response)));
      pcb.Send(IOBuf::CopyBuffer("GET / HTTP/1.1\r\nHost: x\r\n\r\n"));
      pcb.Send(IOBuf::CopyBuffer("GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n"));
    });
  });
  bed.world().Run();
  // First response: the static page, byte-for-byte.
  ASSERT_GE(response.size(), 148u);
  EXPECT_EQ(response.substr(0, 15), "HTTP/1.1 200 OK");
  std::string metrics = response.substr(148);
  EXPECT_NE(metrics.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  for (const char* family :
       {"event_interrupts", "event_control_locks", "event_handler_latency_ns_count",
        "event_handler_latency_ns{q=\"0.99\"}", "interconnect_batch_size_count",
        "mem_iobuf_allocs", "mem_pool_hits", "net_tcp_rx", "net_tcp_tx_segments",
        "messenger_bad_frames", "obs_spans_recorded", "obs_level",
        "event_run_queue_depth{core=\"0\"}"}) {
    EXPECT_NE(metrics.find(family), std::string::npos) << family;
  }
}

TEST(Exposition, StatsServiceScrapesRemoteMachine) {
  // The RPC scrape surface: a client machine pulls the server machine's rendered metrics
  // text with one Call and sees a series only the server's own collector emits.
  Testbed bed;
  TestbedNode server = bed.AddNode("server", 1, kServerIp);
  TestbedNode client = bed.AddNode("client", 1, kClientIp);
  std::shared_ptr<obs::StatsService> service;
  std::shared_ptr<obs::StatsClient> scraper;
  std::string text;
  server.Spawn(0, [&] {
    obs::ObsRoot::For(*server.runtime).AddCollector([](obs::ObsRoot::MetricsSnapshot& out) {
      out.samples.emplace_back("server_private_ops", 11);
    });
    service = std::make_shared<obs::StatsService>(*server.runtime);
    server.runtime->Adopt(service);
  });
  client.Spawn(0, [&] {
    scraper = std::make_shared<obs::StatsClient>(*client.runtime, kServerIp);
    scraper->Scrape().Then([&](Future<std::string> f) { text = f.Get(); });
  });
  bed.world().Run();
  EXPECT_NE(text.find("server_private_ops 11"), std::string::npos);
  EXPECT_NE(text.find("event_interrupts"), std::string::npos);
  EXPECT_EQ(service->scrapes(), 1u);
}

}  // namespace
}  // namespace ebbrt
