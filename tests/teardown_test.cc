// Teardown frees everything: a scenario builds a world, runs it, and destroys it, and then
// every process-wide count of live state is back where it started — generic-heap blocks,
// heap-fallback blocks of the routed carve, memcached items, live network frames and RCU
// epochs in flight — with no RPC call left pending when the world was torn down. The
// scenarios are the perfbench shapes (an ETC server, an 8 KiB server, a sharded MultiGet
// cluster) plus a failover run.
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "cluster_fixture.h"
#include "src/apps/loadgen/memcached_loadgen.h"
#include "src/apps/memcached/kvstore.h"
#include "src/apps/memcached/server.h"
#include "src/mem/gp_allocator.h"
#include "src/rcu/rcu.h"

namespace ebbrt {
namespace {

using test::Cluster;

constexpr Ipv4Addr kServerIp = Ipv4Addr::Of(10, 0, 0, 2);
constexpr Ipv4Addr kClientIp = Ipv4Addr::Of(10, 0, 0, 3);
constexpr std::uint16_t kPort = 11211;

// Process-wide live state a torn-down world must give back.
struct Residue {
  std::int64_t heap_blocks = 0;      // generic-heap allocs minus frees
  std::int64_t fallback_blocks = 0;  // routed-carve heap fallbacks minus their frees
  std::uint64_t items = 0;
  std::uint64_t pool_in_use = 0;
  std::uint64_t rcu_epochs = 0;

  static Residue Now() {
    const mem::Stats& stats = mem::stats();
    return Residue{static_cast<std::int64_t>(stats.generic_heap_allocs.load() -
                                             stats.generic_heap_frees.load()),
                   static_cast<std::int64_t>(stats.heap_fallback_allocs.load() -
                                             stats.heap_fallback_frees.load()),
                   memcached::Item::live_count(), stats.pool_in_use.load(),
                   RcuManagerRoot::epochs_in_flight()};
  }
};

// Runs `scenario` twice; it builds a world, runs it to quiescence, destroys it, and returns
// the RPC calls its clients still had pending just before the destroy. The first run warms
// what the process keeps across worlds (per-core translation tables, the arena registry);
// across the second, every count must come back to where it was.
void ExpectTeardownFreesEverything(const std::function<std::size_t()>& scenario) {
  scenario();
  const Residue before = Residue::Now();
  std::size_t pending = scenario();
  const Residue after = Residue::Now();
  EXPECT_EQ(pending, 0u);
  EXPECT_EQ(after.heap_blocks, before.heap_blocks);
  EXPECT_EQ(after.fallback_blocks, before.fallback_blocks);
  EXPECT_EQ(after.items, before.items);
  EXPECT_EQ(after.pool_in_use, before.pool_in_use);
  EXPECT_EQ(after.rcu_epochs, before.rcu_epochs);
}

// A single-core memcached server and a 4-core client, as perfbench's memcached shapes.
struct ServerBed {
  ServerBed() {
    server = bed.AddNode("server", 1, kServerIp);
    client = bed.AddNode("client", 4, kClientIp, sim::HypervisorModel::Native());
    server.Spawn(0, [this] { mc = new memcached::MemcachedServer(*server.net, kPort); });
  }
  // The server goes first, on its own core; the world goes with this object.
  ~ServerBed() {
    server.Spawn(0, [mc = mc] { delete mc; });
    bed.world().Run();
  }

  sim::Testbed bed;
  sim::TestbedNode server;
  sim::TestbedNode client;
  memcached::MemcachedServer* mc = nullptr;
};

TEST(Teardown, EtcOpenServerFreesEverything) {
  // Open-loop ETC mix (90% GETs, 1 B - 1 KiB values) over 16 connections.
  ExpectTeardownFreesEverything([] {
    ServerBed setup;
    loadgen::MemcachedLoadgen::Config config;
    config.connections = 16;
    config.key_space = 500;
    config.target_qps = 200'000;
    config.warmup_ns = 2'000'000;
    config.duration_ns = 10'000'000;
    loadgen::MemcachedLoadgen gen(setup.bed, setup.client, kServerIp, kPort, config);
    std::size_t samples = 0;
    gen.Run().Then([&](Future<loadgen::MemcachedLoadgen::Result> f) { samples = f.Get().samples; });
    setup.bed.world().Run();
    EXPECT_GT(samples, 0u);
    return std::size_t{0};
  });
}

TEST(Teardown, LargeValueServerFreesEverything) {
  // 8 KiB values: multi-segment reassembly and item carving; the second pass replaces
  // every value, so the old items ride RCU to their free.
  ExpectTeardownFreesEverything([] {
    ServerBed setup;
    for (int pass = 0; pass < 2; ++pass) {
      std::size_t responses = 0;
      loadgen::MemcachedBurstClient::Config config;
      config.depth = 4;
      config.total_requests = 64;
      config.key_space = 6;
      config.value_size = 8192;
      config.connections = 4;
      loadgen::MemcachedBurstClient::Run(setup.client, kServerIp, kPort, config)
          .Then([&](Future<loadgen::MemcachedBurstClient::Result> f) {
            responses = f.Get().responses;
          });
      setup.bed.world().Run();
      EXPECT_EQ(responses, 64u);
    }
    return std::size_t{0};
  });
}

TEST(Teardown, ShardedMultiGetClusterFreesEverything) {
  // 16-key MultiGets (every fourth round a Set) over four shards at R=2.
  ExpectTeardownFreesEverything([] {
    Cluster cluster({.shards = 4, .router = {.replication = 2, .read_options = {}}});
    std::size_t rounds = 0;
    std::size_t hits = 0;
    cluster.RunLoop(
        [&] {
          if (rounds % 4 == 3) {
            return cluster.router->Set(Cluster::Key(rounds), std::string(64, 'w'));
          }
          std::vector<std::string> keys;
          for (std::size_t i = 0; i < 16; ++i) {
            keys.push_back(Cluster::Key((rounds * 16 + i) % Cluster::kKeySpace));
          }
          std::vector<std::string_view> views(keys.begin(), keys.end());
          return cluster.router->MultiGet(views).Then(
              [&hits, keys = std::move(keys)](
                  Future<std::vector<memcached::ShardRouter::GetResult>> f) {
                for (const memcached::ShardRouter::GetResult& result : f.Get()) {
                  hits += result.found ? 1 : 0;
                }
              });
        },
        [&] { return ++rounds < 24; });
    EXPECT_EQ(rounds, 24u);
    EXPECT_EQ(hits, 18u * 16u);  // 18 MultiGet rounds, every key preloaded
    return cluster.router->pending_calls();
  });
}

TEST(Teardown, FailoverClusterFreesEverything) {
  // KillOneOfFourShards' schedule in brief: kill shard 0 under GET load, revive it, and
  // re-admit it with a ring at epoch 2.
  ExpectTeardownFreesEverything([] {
    Cluster cluster({.shards = 4,
                     .service_ns = 3000,
                     .router = {.replication = 2,
                                .read_options = {/*deadline_ns=*/400'000, dist::RetryPolicy{1}},
                                .ring_refresh_ns = 300'000,
                                .frontend = Cluster::kFrontendIp}});
    enum class Stage { kHealthy, kKilled, kRevived, kReadmitted };
    Stage stage = Stage::kHealthy;
    Runtime& victim = *cluster.shards[0].runtime;
    std::size_t issued = 0;
    std::size_t rounds = 0;
    std::uint64_t killed_at = 0;
    cluster.RunLoop(
        [&] {
          Future<void> round = cluster.GetRound(issued, 8, [](bool) {});
          issued += 8;
          return round;
        },
        [&] {
          std::uint64_t now = cluster.bed.world().Now();
          ++rounds;
          if (stage == Stage::kHealthy && rounds == 10) {
            cluster.bed.world().KillMachine(victim);
            killed_at = now;
            stage = Stage::kKilled;
          } else if (stage == Stage::kKilled && now >= killed_at + 2'500'000) {
            cluster.bed.world().ReviveMachine(victim);
            stage = Stage::kRevived;
          } else if (stage == Stage::kRevived && now >= killed_at + 7'000'000) {
            memcached::PublishRing(*cluster.client.runtime, Cluster::kFrontendIp,
                                   cluster.Ring(2))
                .Then([&](Future<void> f) {
                  f.Get();
                  cluster.router->RefreshRing();
                });
            stage = Stage::kReadmitted;
            rounds = 0;
          } else if (stage == Stage::kReadmitted && rounds == 10) {
            cluster.router->StopRingWatcher();  // lets the world drain
            return false;
          }
          return true;
        });
    EXPECT_EQ(stage, Stage::kReadmitted);
    EXPECT_GE(cluster.router->stats().failovers, 1u);
    return cluster.router->pending_calls();
  });
}

}  // namespace
}  // namespace ebbrt
