// The sharded memcached cluster the shard, fault and trace tests bring up: a hosted frontend
// serving GlobalIdMap, N single-core shard machines each running a ShardService announced
// under "service/memcached/<i>", and a native client that discovers them and routes through
// a ShardRouter. The gate tests also drive it in a closed loop and read what a measured
// window cost across the whole cluster.
#ifndef EBBRT_TESTS_CLUSTER_FIXTURE_H_
#define EBBRT_TESTS_CLUSTER_FIXTURE_H_

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/apps/memcached/shard.h"
#include "src/obs/metrics.h"
#include "src/sim/testbed.h"

namespace ebbrt {
namespace test {

struct ClusterConfig {
  std::size_t shards = 4;
  // Modeled service time each shard charges per key it serves; 0 charges nothing.
  std::uint64_t service_ns = 0;
  // Every machine's telemetry plane is created at this level before any traffic.
  obs::Level obs_level = obs::Level::kTracing;
  // The client's router. The default is the static single-replica router's contract.
  memcached::ShardRouter::Config router{.replication = 1, .read_options = {}};
};

// R=2 with single-attempt 500 us deadlines: a dead replica costs one deadline, then the
// router routes around it.
inline constexpr memcached::ShardRouter::Config kFailFastRouter{
    .replication = 2,
    .read_options = {/*deadline_ns=*/500'000, dist::RetryPolicy{1}},
    .write_options = {/*deadline_ns=*/500'000, dist::RetryPolicy{1}}};

class Cluster {
 public:
  static constexpr Ipv4Addr kFrontendIp = Ipv4Addr::Of(10, 0, 0, 10);
  static constexpr Ipv4Addr kClientIp = Ipv4Addr::Of(10, 0, 0, 3);
  // The closed loop's key space: Key(0) .. Key(kKeySpace - 1), each a 64-byte value.
  static constexpr std::size_t kKeySpace = 256;

  explicit Cluster(ClusterConfig config = {}) : config_(std::move(config)) {
    frontend = bed.AddNode("frontend", 1, kFrontendIp, sim::HypervisorModel::Native(),
                           RuntimeKind::kHosted);
    for (std::size_t i = 0; i < config_.shards; ++i) {
      shards.push_back(bed.AddNode("shard" + std::to_string(i), 1,
                                   Ipv4Addr::Of(10, 0, 0, 20 + static_cast<unsigned>(i))));
    }
    client = bed.AddNode("client", 1, kClientIp, sim::HypervisorModel::Native());
    services.resize(config_.shards, nullptr);

    frontend.Spawn(0, [this] {
      obs::ObsRoot::For(*frontend.runtime).SetLevel(config_.obs_level);
      dist::GlobalIdMap::ServeOn(*frontend.runtime);
    });
    for (std::size_t i = 0; i < config_.shards; ++i) {
      sim::TestbedNode node = shards[i];
      node.Spawn(0, [this, node, i] {
        obs::ObsRoot::For(*node.runtime).SetLevel(config_.obs_level);
        memcached::ShardService::Config service_config;
        if (config_.service_ns != 0) {
          service_config.on_request = [this] { bed.world().Charge(config_.service_ns); };
        }
        auto service =
            std::make_shared<memcached::ShardService>(*node.runtime, i, service_config);
        services[i] = service.get();
        node.runtime->Adopt(std::move(service));  // dies with the machine
        memcached::AnnounceShard(*node.runtime, kFrontendIp, i, node.iface->addr())
            .Then([](Future<void> f) { f.Get(); });
      });
    }
    client.Spawn(0, [this] { obs::ObsRoot::For(*client.runtime).SetLevel(config_.obs_level); });
  }

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  static std::string Key(std::size_t index) { return "user:" + std::to_string(index); }

  // The ring of every shard at `epoch`, as an operator would publish it.
  memcached::RingRecord Ring(std::uint64_t epoch) const {
    memcached::RingRecord ring;
    ring.epoch = epoch;
    for (std::size_t i = 0; i < shards.size(); ++i) {
      ring.shards.push_back(
          {shards[i].iface->addr(), memcached::kShardServiceBase + static_cast<EbbId>(i)});
    }
    return ring;
  }

  // On the client: discovers every shard, builds `router` over the discovered ring at epoch
  // 1 (first publishing that ring when the router watches the record), then runs `then`.
  // The caller runs the world.
  void Start(std::function<void()> then) {
    client.Spawn(0, [this, then = std::move(then)] {
      memcached::DiscoverShards(*client.runtime, kFrontendIp, shards.size())
          .Then([this, then](Future<std::vector<memcached::ShardEndpoint>> f) {
            memcached::RingRecord ring{1, f.Get()};
            if (!config_.router.frontend.IsAny()) {
              // A router that watches the ring record needs one to watch.
              memcached::PublishRing(*client.runtime, kFrontendIp, ring)
                  .Then([](Future<void> pf) { pf.Get(); });
            }
            router = std::make_unique<memcached::ShardRouter>(*client.runtime,
                                                              std::move(ring), config_.router);
            then();
          });
    });
  }

  // The gate tests' closed loop: Start, preload every key write-all in rounds of 32 Sets,
  // then issue `round()` (a future over one whole round) back to back until `next()`, run
  // as each round resolves, returns false. Returns when the world has drained.
  void RunLoop(std::function<Future<void>()> round, std::function<bool()> next) {
    round_ = std::move(round);
    next_ = std::move(next);
    Start([this] { PreloadFrom(0); });
    bed.world().Run();
  }

  // One round of `depth` GETs of keys first, first + 1, ... (mod kKeySpace), issued in one
  // event. With `on_get`, each GET reports whether it succeeded; without, a failed GET
  // fails the round.
  Future<void> GetRound(std::size_t first, std::size_t depth,
                        std::function<void(bool)> on_get = nullptr) {
    std::vector<Future<void>> gets;
    gets.reserve(depth);
    for (std::size_t i = 0; i < depth; ++i) {
      gets.push_back(router->Get(Key((first + i) % kKeySpace))
                         .Then([on_get](Future<memcached::ShardRouter::GetResult> f) {
                           if (!on_get) {
                             f.Get();
                             return;
                           }
                           try {
                             f.Get();
                           } catch (const std::exception&) {
                             on_get(false);
                             return;
                           }
                           on_get(true);
                         }));
    }
    return WhenAll(std::move(gets));
  }

  // What a measured window cost, from Mark() to Close().
  struct Window {
    std::uint64_t virtual_ns = 0;
    std::uint64_t data_segments = 0;  // sent by the client and every shard
    std::uint64_t control_locks = 0;  // Messenger control-mutex acquisitions, every machine
    std::uint64_t spans = 0;          // span records written, every machine
    std::uint64_t heap_allocs = 0;    // process-wide heap fallbacks
    double pool_hit_rate = 0;
  };

  void Mark() {
    client.net->stats().MarkAllocBaseline();
    mark_ = Counters();
  }

  Window Close() {
    Window now = Counters();
    const NetworkManager::Stats& stats = client.net->stats();
    return Window{now.virtual_ns - mark_.virtual_ns,
                  now.data_segments - mark_.data_segments,
                  now.control_locks - mark_.control_locks,
                  now.spans - mark_.spans,
                  stats.heap_allocs_since_mark(),
                  stats.pool_hit_rate_since_mark()};
  }

  sim::Testbed bed;
  sim::TestbedNode frontend;
  std::vector<sim::TestbedNode> shards;
  sim::TestbedNode client;
  std::vector<memcached::ShardService*> services;  // set once each shard machine has run
  std::unique_ptr<memcached::ShardRouter> router;  // built on the client by Start

 private:
  void PreloadFrom(std::size_t first) {
    std::size_t n = std::min<std::size_t>(32, kKeySpace - first);
    std::vector<Future<void>> sets;
    sets.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      sets.push_back(router->Set(Key(first + i), std::string(64, 'v')));
    }
    WhenAll(std::move(sets)).Then([this, next = first + n](Future<void> f) {
      f.Get();
      if (next < kKeySpace) {
        PreloadFrom(next);
      } else {
        IssueRound();
      }
    });
  }

  void IssueRound() {
    round_().Then([this](Future<void> f) {
      f.Get();
      if (next_()) {
        IssueRound();
      }
    });
  }

  // Running totals; Close() subtracts the ones Mark() took.
  Window Counters() {
    Window totals;
    totals.virtual_ns = bed.world().Now();
    totals.data_segments = client.net->stats().tcp_tx_data_segments.load();
    for (const sim::TestbedNode& node : shards) {
      totals.data_segments += node.net->stats().tcp_tx_data_segments.load();
    }
    std::vector<Runtime*> machines = {frontend.runtime, client.runtime};
    for (const sim::TestbedNode& node : shards) {
      machines.push_back(node.runtime);
    }
    for (Runtime* runtime : machines) {
      totals.control_locks += dist::Messenger::For(*runtime).stats().control_locks.load();
      obs::ObsRoot& obs = obs::ObsRoot::For(*runtime);
      for (std::size_t core = 0; core < obs.num_cores(); ++core) {
        if (obs::MetricRegistry* rep = obs.TryRep(core)) {
          totals.spans += rep->spans_recorded();
        }
      }
    }
    return totals;
  }

  ClusterConfig config_;
  std::function<Future<void>()> round_;
  std::function<bool()> next_;
  Window mark_;
};

}  // namespace test
}  // namespace ebbrt

#endif  // EBBRT_TESTS_CLUSTER_FIXTURE_H_
