// sharded_multiget: a hosted GlobalIdMap frontend, four single-core ShardService machines
// replicated at R=2, and four issuing cores with one ShardRouter each. Each issuing core
// runs a closed loop of 16-key MultiGet batches with 10% Sets; no modeled service charge.
// The memcached wire parser is not on this path at all.
//
// The issuing cores are four single-core client machines: a machine's RPC demux admits one
// RpcClient per shard service, so one multi-core machine can host only one router.
#include <array>
#include <exception>
#include <string>
#include <vector>

#include "src/apps/memcached/shard.h"
#include "src/mem/gp_allocator.h"
#include "src/obs/metrics.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

using ebbrt::Ipv4Addr;
using ebbrt::memcached::ShardRouter;

constexpr Ipv4Addr kFrontendIp = Ipv4Addr::Of(10, 0, 0, 10);
constexpr std::size_t kShards = 4;
constexpr std::size_t kReplication = 2;
constexpr std::size_t kClients = 4;
constexpr std::size_t kOutstandingPerCore = 2;
constexpr std::size_t kBatch = 16;
constexpr double kSetRatio = 0.1;
constexpr std::size_t kKeySpace = 4096;
constexpr std::size_t kOpsPerCore = 8192;  // wraps; more than one window consumes
constexpr std::size_t kPreloadWindow = 32;
constexpr std::uint64_t kWarmupNs = 5'000'000;
constexpr std::uint64_t kWindowNs = 50'000'000;
constexpr std::uint64_t kDrainNs = 500'000'000;

struct ShOp {
  bool set;
  std::array<std::uint32_t, kBatch> keys;  // a Set uses keys[0]
};

class ShRun {
 public:
  ShRun(const KeyTable& table, const std::vector<std::vector<ShOp>>& ops, RepResult& result)
      : table(table), ops(ops), result(result), ledger(table.keys.size()) {}

  const KeyTable& table;
  const std::vector<std::vector<ShOp>>& ops;
  RepResult& result;
  Ledger ledger;
  ebbrt::SimWorld* world = nullptr;
  std::array<ebbrt::sim::TestbedNode, kClients> clients;
  std::array<std::unique_ptr<ShardRouter>, kClients> routers;
  std::array<std::size_t, kClients> next_op{};
  std::array<std::size_t, kClients> outstanding{};
  std::size_t routers_ready = 0;
  std::size_t preloaded = 0;
  std::size_t preload_inflight = 0;
  bool preload_done = false;
  std::uint64_t t0 = ~0ull;
  std::uint64_t t1 = ~0ull;

  bool InWindow(std::uint64_t t) const { return t >= t0 && t < t1; }
  std::size_t Outstanding() const {
    std::size_t n = 0;
    for (std::size_t v : outstanding) {
      n += v;
    }
    return n;
  }

  // Write-all preload through core 0's router: version 0 of every key on both replicas.
  void PreloadWindow() {
    if (preloaded == kKeySpace) {
      preload_done = true;
      return;
    }
    std::size_t n = std::min(kPreloadWindow, kKeySpace - preloaded);
    preload_inflight = n;
    for (std::size_t i = 0; i < n; ++i) {
      std::size_t key = preloaded++;
      routers[0]->Set(table.keys[key], table.Value(key, 0)).Then([this](ebbrt::Future<void> f) {
        try {
          f.Get();
        } catch (const std::exception& e) {
          result.CheckFailed(std::string("preload Set failed: ") + e.what());
        }
        if (--preload_inflight == 0) {
          PreloadWindow();
        }
      });
    }
  }

  void IssueNext(std::size_t core) {
    std::uint64_t now = world->Now();
    if (now >= t1) {
      return;  // the closed loop stops issuing when the window closes
    }
    const std::vector<ShOp>& list = ops[core];
    const ShOp& op = list[next_op[core]++ % list.size()];
    ++result.attempted;
    ++outstanding[core];
    if (op.set) {
      std::uint32_t key = op.keys[0];
      std::uint32_t version = ledger.NextVersion(key);
      ebbrt::Future<void> done = [&] {
        Span span(Layer::kDistRouter);
        return routers[core]->Set(table.keys[key], table.Value(key, version));
      }();
      done.Then([this, core, key, version, now](ebbrt::Future<void> f) {
        Span span(Layer::kLoadgen);
        try {
          f.Get();
          ledger.Ack(key, version);
        } catch (const std::exception& e) {
          result.Fail(std::string("Set failed: ") + e.what());
        }
        Complete(core, now);
      });
      return;
    }
    std::array<std::uint32_t, kBatch> lo;
    std::vector<std::string_view> keys;
    keys.reserve(kBatch);
    for (std::size_t i = 0; i < kBatch; ++i) {
      lo[i] = ledger.acked(op.keys[i]);
      keys.push_back(table.keys[op.keys[i]]);
    }
    ebbrt::Future<std::vector<ShardRouter::GetResult>> done = [&] {
      Span span(Layer::kDistRouter);
      return routers[core]->MultiGet(keys);
    }();
    done.Then([this, core, &op, lo, now](ebbrt::Future<std::vector<ShardRouter::GetResult>> f) {
      Span span(Layer::kLoadgen);
      try {
        std::vector<ShardRouter::GetResult> results = f.Get();
        if (results.size() != kBatch) {
          result.Fail("MultiGet answered " + std::to_string(results.size()) + " keys");
        } else {
          for (std::size_t i = 0; i < kBatch; ++i) {
            std::uint32_t key = op.keys[i];
            if (!results[i].found ||
                !ledger.Matches(table, key, lo[i], results[i].value.get())) {
              result.Fail("MultiGet " + table.keys[key] + ": wrong or missing value");
              break;
            }
          }
        }
      } catch (const std::exception& e) {
        result.Fail(std::string("MultiGet failed: ") + e.what());
      }
      Complete(core, now);
    });
  }

  void Complete(std::size_t core, std::uint64_t issued) {
    std::uint64_t now = world->Now();
    --outstanding[core];
    if (InWindow(now)) {
      ++result.completed;
    }
    if (InWindow(issued)) {
      result.latencies_ns.push_back(now - issued);
    }
    IssueNext(core);
  }
};

class ShardedWorkload final : public Workload {
 public:
  explicit ShardedWorkload(std::uint64_t seed)
      : table_(MakeKeyTable(seed, kKeySpace, "user:", 0)) {
    Rng rng(Mix(seed, 0x736864));  // "shd"
    ops_.resize(kClients);
    for (auto& list : ops_) {
      list.resize(kOpsPerCore);
      for (ShOp& op : list) {
        op.set = rng.Unit() < kSetRatio;
        for (std::uint32_t& key : op.keys) {
          key = static_cast<std::uint32_t>(rng.Below(kKeySpace));
        }
      }
    }
  }

  RepResult RunRep(double cpu_start_ns, bool record) override;

 private:
  KeyTable table_;
  std::vector<std::vector<ShOp>> ops_;
};

RepResult ShardedWorkload::RunRep(double cpu_start_ns, bool /*record*/) {
  RepResult result;
  auto bed = std::make_unique<ebbrt::sim::Testbed>();
  ebbrt::sim::TestbedNode frontend =
      bed->AddNode("frontend", 1, kFrontendIp, ebbrt::sim::HypervisorModel::Native(),
                   ebbrt::RuntimeKind::kHosted);
  std::vector<ebbrt::sim::TestbedNode> nodes{frontend};
  for (std::size_t i = 0; i < kShards; ++i) {
    nodes.push_back(bed->AddNode("shard" + std::to_string(i), 1,
                                 Ipv4Addr::Of(10, 0, 0, 20 + static_cast<unsigned>(i))));
  }
  ebbrt::SimWorld& world = bed->world();
  ShRun run(table_, ops_, result);
  run.world = &world;
  for (std::size_t i = 0; i < kClients; ++i) {
    run.clients[i] = bed->AddNode("client" + std::to_string(i), 1,
                                  Ipv4Addr::Of(10, 0, 0, 30 + static_cast<unsigned>(i)),
                                  ebbrt::sim::HypervisorModel::Native());
    nodes.push_back(run.clients[i]);
  }

  std::vector<ebbrt::memcached::ShardService*> services(kShards, nullptr);
  frontend.Spawn(0, [frontend] {
    ebbrt::obs::ObsRoot::For(*frontend.runtime);
    ebbrt::dist::GlobalIdMap::ServeOn(*frontend.runtime);
  });
  for (std::size_t i = 0; i < kShards; ++i) {
    ebbrt::sim::TestbedNode node = nodes[1 + i];
    node.Spawn(0, [node, i, &services] {
      ebbrt::obs::ObsRoot::For(*node.runtime);
      auto service = std::make_shared<ebbrt::memcached::ShardService>(*node.runtime, i);
      services[i] = service.get();
      node.runtime->Adopt(service);
      ebbrt::memcached::AnnounceShard(*node.runtime, kFrontendIp, i, node.iface->addr())
          .Then([](ebbrt::Future<void> f) { f.Get(); });
    });
  }
  for (std::size_t i = 0; i < kClients; ++i) {
    run.clients[i].Spawn(0, [&run, i] {
      ebbrt::Runtime& runtime = *run.clients[i].runtime;
      ebbrt::obs::ObsRoot::For(runtime);
      ebbrt::memcached::DiscoverShards(runtime, kFrontendIp, kShards)
          .Then([&run, &runtime, i](
                    ebbrt::Future<std::vector<ebbrt::memcached::ShardEndpoint>> f) {
            ebbrt::memcached::RingRecord ring;
            ring.epoch = 1;
            try {
              ring.shards = f.Get();
            } catch (const std::exception& e) {
              run.result.CheckFailed(std::string("shard discovery failed: ") + e.what());
              return;
            }
            ShardRouter::Config config;
            config.replication = kReplication;
            run.routers[i] = std::make_unique<ShardRouter>(runtime, std::move(ring), config);
            ++run.routers_ready;
          });
    });
  }
  // Idle pool occupancy (see CheckPoolIdle): every router dialed, the world drained.
  if (!RunUntilOr(world, 10'000'000'000ull, [&] { return run.routers_ready == kClients; }) ||
      !Quiesce(world, world.Now() + 10'000'000'000ull)) {
    result.CheckFailed("routers did not come up");
    return result;
  }
  std::uint64_t pool_idle = ebbrt::mem::stats().pool_in_use.load();
  run.clients[0].Spawn(0, [&run] { run.PreloadWindow(); });

  if (!RunUntilOr(world, 10'000'000'000ull, [&] { return run.preload_done; })) {
    result.CheckFailed("preload did not finish");
    return result;
  }
  // Started from here, outside any machine: a core cannot spawn onto another machine.
  std::uint64_t start = world.Now() + 50'000;
  run.t0 = start + kWarmupNs;
  run.t1 = run.t0 + kWindowNs;
  for (std::size_t i = 0; i < kClients; ++i) {
    run.clients[i].Spawn(0, [&run, i] {
      Span span(Layer::kLoadgen);
      for (std::size_t k = 0; k < kOutstandingPerCore; ++k) {
        run.IssueNext(i);
      }
    });
  }
  MeasureWindow(*bed, nodes, run.t0, run.t1, cpu_start_ns, result);

  RunUntilOr(world, run.t1 + kDrainNs, [&] { return run.Outstanding() == 0; });
  for (std::size_t i = 0; i < run.Outstanding(); ++i) {
    result.Fail("op never resolved");
  }
  for (std::size_t i = 0; i < kClients; ++i) {
    if (run.next_op[i] == 0) {
      result.CheckFailed("issuing core " + std::to_string(i) + " never issued");
    }
  }
  double pending = 0;
  for (const ebbrt::sim::TestbedNode& client : run.clients) {
    pending += SnapshotSum(*client.runtime, "rpc_pending_calls");
  }
  if (pending != 0) {
    result.CheckFailed("rpc_pending_calls " + std::to_string(pending) + " after drain");
  }
  for (std::size_t i = 0; i < kShards; ++i) {
    if (services[i] == nullptr || services[i]->bad_frames() != 0) {
      result.CheckFailed("shard " + std::to_string(i) + " missing or counted bad frames");
    }
  }
  for (std::size_t i = 0; i < kClients; ++i) {
    run.clients[i].Spawn(0, [&run, i] { run.routers[i].reset(); });
  }
  if (!Quiesce(world, world.Now() + 10'000'000'000ull)) {
    result.CheckFailed("world did not quiesce after the routers closed");
  }
  CheckPoolIdle(pool_idle, result);
  bed.reset();
  CheckNoLiveItems(result);
  return result;
}

}  // namespace

std::unique_ptr<Workload> MakeShardedMultiGet(std::uint64_t seed) {
  return std::make_unique<ShardedWorkload>(seed);
}

}  // namespace perfbench
