// Mutilate-style memcached load generator (§4.2): open-loop Poisson arrivals at a target
// aggregate QPS over N connections, each pipelining up to 4 requests (the paper's client
// configuration), with the Facebook ETC workload shape: 20-70 B keys, values mostly 1 B-1 KiB
// (generalized-Pareto body, per Atikoglu et al.), ~90% GETs.
//
// The generator runs on a client testbed node using the EbbRT stack (identical measurement
// path for every server variant) and reports mean/percentile latency plus achieved QPS.
#ifndef EBBRT_SRC_APPS_LOADGEN_MEMCACHED_LOADGEN_H_
#define EBBRT_SRC_APPS_LOADGEN_MEMCACHED_LOADGEN_H_

#include <deque>
#include <memory>
#include <random>
#include <vector>

#include "src/apps/memcached/protocol.h"
#include "src/apps/memcached/server.h"
#include "src/obs/histogram.h"
#include "src/sim/testbed.h"

namespace ebbrt {
namespace loadgen {

// ETC-like samplers (deterministic per seed).
class EtcWorkload {
 public:
  explicit EtcWorkload(unsigned seed, std::size_t key_space)
      : rng_(seed), key_space_(key_space) {}

  std::size_t KeyIndex() {
    return std::uniform_int_distribution<std::size_t>(0, key_space_ - 1)(rng_);
  }

  // Keys 20-70 B (normal body around ~31 B, clamped — the ETC key-size shape).
  std::string Key(std::size_t index) {
    std::normal_distribution<double> d(30.7, 8.2);
    // Size is a deterministic function of the index so GETs match preloaded SETs.
    std::mt19937 krng(static_cast<unsigned>(index) * 2654435761u + 1);
    int size = static_cast<int>(d(krng));
    size = std::max(20, std::min(70, size));
    // Built in place: gcc 12 -O3 reports a false -Wrestrict for `"k" + std::to_string(...)`.
    std::string key = std::to_string(index);
    key.insert(key.begin(), 'k');
    key.resize(static_cast<std::size_t>(size), 'K');
    return key;
  }

  // Values: generalized Pareto (sigma=214, k=0.35), clamped to [1, 1024] — "most values
  // sized between 1B-1024B" with a small-value-heavy body (median ~130 B).
  std::size_t ValueSize(std::size_t index) {
    std::mt19937 vrng(static_cast<unsigned>(index) * 0x9E3779B9u + 7);
    double u = std::uniform_real_distribution<double>(0.0, 1.0)(vrng);
    double k = 0.348;
    double sigma = 214.48;
    double x = sigma / k * (std::pow(1.0 - u, -k) - 1.0);
    return static_cast<std::size_t>(std::max(1.0, std::min(1024.0, x)));
  }

  bool IsGet(double get_ratio) {
    return std::uniform_real_distribution<double>(0.0, 1.0)(rng_) < get_ratio;
  }

  std::uint64_t InterarrivalNs(double rate_per_ns) {
    std::exponential_distribution<double> d(rate_per_ns);
    return static_cast<std::uint64_t>(d(rng_));
  }

 private:
  std::mt19937 rng_;
  std::size_t key_space_;
};

class MemcachedLoadgen {
 public:
  struct Config {
    std::size_t connections = 8;
    std::size_t pipeline = 4;          // paper: up to four pipelined requests per connection
    double get_ratio = 0.9;
    std::size_t key_space = 4000;
    double target_qps = 100000;
    std::uint64_t warmup_ns = 20'000'000;     // 20 ms
    std::uint64_t duration_ns = 200'000'000;  // 200 ms measured
    unsigned seed = 1;
  };

  struct Result {
    double achieved_qps = 0;
    std::uint64_t mean_ns = 0;
    std::uint64_t p50_ns = 0;
    std::uint64_t p95_ns = 0;
    std::uint64_t p99_ns = 0;
    std::uint64_t p999_ns = 0;
    std::size_t samples = 0;
  };

  MemcachedLoadgen(sim::Testbed& bed, sim::TestbedNode& client, Ipv4Addr server,
                   std::uint16_t port, Config config)
      : bed_(bed), client_(client), server_(server), port_(port), config_(config) {}

  // Preloads the keyspace, runs warmup + measurement, fulfills the returned future with the
  // aggregate result. Drive bed.world().Run() after calling.
  Future<Result> Run();

 private:
  struct Conn;        // measurement connection: a TcpHandler (defined in the .cc)
  struct Preloader;   // keyspace preloader: a TcpHandler driving pipelined SET batches
  void StartConnections();
  void IssueTick(std::shared_ptr<Conn> conn);
  void IssueRequest(Conn& conn);
  void Finish();

  sim::Testbed& bed_;
  sim::TestbedNode& client_;
  Ipv4Addr server_;
  std::uint16_t port_;
  Config config_;
  Promise<Result> done_;
  std::unique_ptr<EtcWorkload> preload_workload_;
  std::vector<std::shared_ptr<Conn>> conns_;
  std::uint64_t measure_start_ = 0;
  std::uint64_t measure_end_ = 0;
  // Shared percentile machinery (obs::Histogram): constant space, no sort at Finish; the
  // quantile is the sample's bucket upper bound (<= 12.5% above exact, see histogram.h).
  obs::Histogram latencies_;
  std::uint64_t completed_in_window_ = 0;
  bool finished_ = false;
  std::size_t conns_ready_ = 0;
};

// Closed-loop pipelined burst client — the measurement harness for the segments-per-op and
// allocs-per-op stories. Preloads a small keyspace, then issues `total_requests` GETs over
// `connections` connections in rounds of `depth` per connection, each round sent as ONE
// chain (one wire segment when it fits, exactly how a pipelining client batches), waiting
// for the whole round's responses before issuing the next. The request *schedule* (request
// k goes to connection k % connections, keys striped over the key space) depends only on
// total_requests and connections, never on depth, so two runs differing only in depth must
// elicit byte-identical response streams — the invariant the corked-vs-uncorked property
// test asserts, while the depth sweep reads the server's segments_tx/sends_coalesced deltas.
//
// Multicore: connection i is opened from client core i % cores; with symmetric RSS and
// matching queue counts the same flow hash steers the server side to the same core index,
// so `connections >= server_cores` distinct flows put work on EVERY server core (the fig6
// requirement — a single flow would collapse the 4-core sweep onto one core).
class MemcachedBurstClient final : public TcpHandler {
 public:
  struct Config {
    std::size_t depth = 1;            // requests pipelined per round, per connection
    std::size_t total_requests = 64;  // GETs issued across all rounds and connections
    std::size_t key_space = 16;       // keys preloaded (fixed-size values, all GETs hit)
    std::size_t value_size = 32;
    std::size_t connections = 1;      // parallel connections (distinct RSS flows)
    // Invoked once, on the client, when the preload phase completes and the measured GET
    // phase begins — benches snapshot steady-state baselines (MarkAllocBaseline) here.
    std::function<void()> on_steady;
  };

  struct Result {
    // Concatenated GET-phase response streams, per connection in connection order (for
    // connections == 1 this is exactly the wire byte stream — the property-test invariant).
    std::string response_bytes;
    std::size_t responses = 0;
  };

  // Connects from `client` (connection i on core i % cores) and fulfills the returned
  // future when the whole schedule completes (drive the world afterwards).
  static Future<Result> Run(sim::TestbedNode& client, Ipv4Addr server, std::uint16_t port,
                            Config config);

  void Receive(std::unique_ptr<IOBuf> data) override;

 private:
  // Shared fleet state: schedule bookkeeping and result aggregation across connections.
  struct Fleet {
    Config config;
    sim::TestbedNode node;
    Ipv4Addr server;
    std::uint16_t port = 0;
    Promise<Result> done;
    std::vector<std::shared_ptr<MemcachedBurstClient>> conns;
    bool preloaded = false;
    std::size_t finished = 0;
    std::size_t responses = 0;
  };

  MemcachedBurstClient(std::shared_ptr<Fleet> fleet, std::size_t index)
      : fleet_(std::move(fleet)), index_(index) {}

  void SendPreload();
  void SendNextRound();
  void FinishConnection();
  std::size_t TotalForThisConnection() const;

  std::shared_ptr<Fleet> fleet_;
  std::size_t index_ = 0;            // this connection's slot (request k iff k % conns == index)
  memcached::RequestParser parser_;
  std::string response_bytes_;       // this connection's GET-phase stream
  bool preloading_ = true;           // only connection 0 actually preloads
  std::size_t preload_pending_ = 0;
  std::size_t issued_ = 0;           // requests this connection has issued
  std::size_t round_pending_ = 0;
  bool finished_ = false;
};

}  // namespace loadgen
}  // namespace ebbrt

#endif  // EBBRT_SRC_APPS_LOADGEN_MEMCACHED_LOADGEN_H_
