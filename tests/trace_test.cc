// Distributed-tracing tests: trace ids survive RPC retries under fresh request ids, and a
// MultiGet that crosses a shard failover yields exactly the span tree the design promises —
// one local root, one client span per frame issued (the dead primary's marked kTimeout),
// and server spans on the survivors parented on the client spans that reached them. The
// telemetry-level gates bound what the plane costs at kOff, kMetrics and kTracing.
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/apps/memcached/shard.h"
#include "src/dist/rpc.h"
#include "src/event/timer.h"
#include "src/obs/metrics.h"
#include "src/sim/testbed.h"
#include "tests/cluster_fixture.h"

namespace ebbrt {
namespace {

using sim::Testbed;
using sim::TestbedNode;
using test::Cluster;

constexpr Ipv4Addr kServerIp = Ipv4Addr::Of(10, 0, 0, 2);
constexpr Ipv4Addr kClientIp = Ipv4Addr::Of(10, 0, 0, 3);
constexpr EbbId kEchoService = kFirstStaticUserId + 34;

class EchoServer final : public dist::RpcServer {
 public:
  EchoServer(Runtime& runtime, EbbId service) : dist::RpcServer(runtime, service) {}

 private:
  void HandleCall(Ipv4Addr from, std::uint64_t request_id, std::uint16_t /*opcode*/,
                  std::uint32_t aux, std::unique_ptr<IOBuf> body) override {
    Reply(from, request_id, aux, std::move(body));
  }
};

TEST(Tracing, TraceIdSurvivesRetryUnderFreshRequestId) {
  // Attempt 1 expires through a delayed link; the healed re-send (a FRESH request id)
  // completes. One logical call -> ONE client span with attempts == 2, and BOTH server-side
  // executions carry the same trace id, parented on that one client span — the re-send
  // re-sent the trace identity, not just the payload.
  Testbed bed;
  TestbedNode server = bed.AddNode("server", 1, kServerIp);
  TestbedNode client = bed.AddNode("client", 1, kClientIp);
  std::shared_ptr<EchoServer> echo;
  server.Spawn(0, [&] {
    obs::ObsRoot::For(*server.runtime);  // tracing is the default level
    echo = std::make_shared<EchoServer>(*server.runtime, kEchoService);
    server.runtime->Adopt(echo);
  });
  std::shared_ptr<dist::RpcClient> rpc;
  bool succeeded = false;
  client.Spawn(0, [&] {
    obs::ObsRoot::For(*client.runtime);
    rpc = std::make_shared<dist::RpcClient>(*client.runtime, kEchoService, kServerIp);
    // Warm call first so the dial doesn't ride the faulted link (fault_test's recipe).
    rpc->Call(1, 0, IOBuf::CopyBuffer("warm"), dist::CallOptions{})
        .Then([&](Future<dist::RpcClient::Response> wf) {
          wf.Get();
          obs::ObsRoot::For(*client.runtime).ClearSpans();
          obs::ObsRoot::For(*server.runtime).ClearSpans();
          bed.fabric().SetLinkFault(server.nic->port(),
                                    {.drop_rate = 0, .extra_delay_ns = 1'000'000});
          Timer::Instance()->Start(
              1'200'000, [&] { bed.fabric().ClearLinkFault(server.nic->port()); });
          dist::CallOptions options{
              /*deadline_ns=*/400'000,
              dist::RetryPolicy{/*max_attempts=*/3, /*initial_backoff_ns=*/2'000'000,
                                /*max_backoff_ns=*/8'000'000}};
          rpc->Call(1, 0, IOBuf::CopyBuffer("traced"), options)
              .Then([&](Future<dist::RpcClient::Response> f) {
                f.Get();
                succeeded = true;
              });
        });
  });
  bed.world().Run();
  ASSERT_TRUE(succeeded);

  std::vector<obs::SpanRecord> client_spans = obs::ObsRoot::For(*client.runtime).Spans();
  ASSERT_EQ(client_spans.size(), 1u);  // one LOGICAL call, one span, despite two sends
  const obs::SpanRecord& call_span = client_spans[0];
  EXPECT_EQ(call_span.kind, obs::SpanKind::kClient);
  EXPECT_EQ(call_span.status, obs::SpanStatus::kOk);
  EXPECT_EQ(call_span.attempts, 2u);
  EXPECT_EQ(call_span.service, kEchoService);
  EXPECT_NE(call_span.trace_id, 0u);
  EXPECT_GT(call_span.end_ns, call_span.start_ns);

  std::vector<obs::SpanRecord> server_spans = obs::ObsRoot::For(*server.runtime).Spans();
  ASSERT_EQ(server_spans.size(), 2u);  // both attempts executed (attempt 1's reply was late)
  for (const obs::SpanRecord& span : server_spans) {
    EXPECT_EQ(span.kind, obs::SpanKind::kServer);
    EXPECT_EQ(span.trace_id, call_span.trace_id);
    EXPECT_EQ(span.parent_span, call_span.span_id);
  }
}

TEST(Tracing, MultiGetAcrossFailoverYieldsExactSpanTree) {
  // Two shards, R=2, write-all preload, then kill the primary of half the keys and issue
  // ONE MultiGet. The promised tree:
  //   1 kLocal root (opcode kShardOpMultiGet, parent 0)
  //   3 kClient children of the root: the two-shard scatter (one frame each) plus the one
  //     failover re-issue; exactly the dead primary's span is kTimeout
  //   2 kServer spans on the SURVIVOR (original + re-issued slots), each parented on the
  //     client span that carried its frame; the corpse records nothing
  Cluster cluster({.shards = 2, .router = test::kFailFastRouter});
  std::vector<std::string> keys;
  std::size_t primary = 0;
  std::size_t found = 0;
  bool done = false;
  cluster.Start([&] {
    memcached::ShardRouter& router = *cluster.router;
    // Pick keys whose primaries cover BOTH shards, so the scatter is two frames and the kill
    // leaves a survivor holding replicated copies of the lost slots.
    for (std::size_t i = 0; keys.size() < 4; ++i) {
      std::string key = "key" + std::to_string(i);
      std::size_t shard = router.ShardFor(key);
      std::size_t have = 0;
      for (const std::string& k : keys) {
        if (router.ShardFor(k) == shard) {
          have++;
        }
      }
      if (have < 2) {
        keys.push_back(key);
      }
    }
    primary = router.ShardFor(keys[0]);
    std::vector<Future<void>> preload;
    for (const std::string& key : keys) {
      preload.push_back(router.Set(key, "value-of-" + key));
    }
    WhenAll(std::move(preload)).Then([&](Future<void> pf) {
      pf.Get();  // every key on BOTH replicas
      obs::ObsRoot::For(*cluster.client.runtime).ClearSpans();
      for (TestbedNode& node : cluster.shards) {
        obs::ObsRoot::For(*node.runtime).ClearSpans();
      }
      cluster.bed.world().KillMachine(*cluster.shards[primary].runtime);
      std::vector<std::string_view> views(keys.begin(), keys.end());
      router.MultiGet(views).Then(
          [&](Future<std::vector<memcached::ShardRouter::GetResult>> mf) {
            for (const memcached::ShardRouter::GetResult& r : mf.Get()) {
              if (r.found) {
                found++;
              }
            }
            done = true;
          });
    });
  });
  cluster.bed.world().Run();
  ASSERT_TRUE(done);
  EXPECT_EQ(found, keys.size());  // the failover answered every key

  // --- The client's half of the tree: 1 root + 3 client spans, one trace id throughout.
  std::vector<obs::SpanRecord> client_spans =
      obs::ObsRoot::For(*cluster.client.runtime).Spans();
  std::vector<obs::SpanRecord> roots, rpcs;
  for (const obs::SpanRecord& span : client_spans) {
    if (span.kind == obs::SpanKind::kLocal) {
      roots.push_back(span);
    } else if (span.kind == obs::SpanKind::kClient) {
      rpcs.push_back(span);
    }
  }
  ASSERT_EQ(roots.size(), 1u);
  const obs::SpanRecord& root = roots[0];
  EXPECT_EQ(root.parent_span, 0u);  // a genuine trace root
  EXPECT_EQ(root.opcode, memcached::kShardOpMultiGet);
  EXPECT_EQ(root.status, obs::SpanStatus::kOk);
  ASSERT_NE(root.trace_id, 0u);

  ASSERT_EQ(rpcs.size(), 3u);  // two-shard scatter + one failover re-issue
  std::set<std::uint32_t> ok_rpc_ids;
  std::size_t timeouts = 0;
  for (const obs::SpanRecord& span : rpcs) {
    EXPECT_EQ(span.trace_id, root.trace_id);
    EXPECT_EQ(span.parent_span, root.span_id);
    EXPECT_EQ(span.opcode, memcached::kShardOpMultiGet);
    if (span.status == obs::SpanStatus::kTimeout) {
      timeouts++;
      // The frame that died with the primary: addressed to the dead shard's service.
      EXPECT_EQ(span.service,
                memcached::kShardServiceBase + static_cast<EbbId>(primary));
    } else {
      EXPECT_EQ(span.status, obs::SpanStatus::kOk);
      ok_rpc_ids.insert(span.span_id);
    }
  }
  EXPECT_EQ(timeouts, 1u);

  // --- The shards' half: the corpse recorded nothing; the survivor served both frames.
  std::vector<obs::SpanRecord> dead_spans =
      obs::ObsRoot::For(*cluster.shards[primary].runtime).Spans();
  EXPECT_TRUE(dead_spans.empty());
  std::vector<obs::SpanRecord> survivor_spans =
      obs::ObsRoot::For(*cluster.shards[1 - primary].runtime).Spans();
  ASSERT_EQ(survivor_spans.size(), 2u);
  for (const obs::SpanRecord& span : survivor_spans) {
    EXPECT_EQ(span.kind, obs::SpanKind::kServer);
    EXPECT_EQ(span.trace_id, root.trace_id);
    EXPECT_EQ(ok_rpc_ids.count(span.parent_span), 1u);
  }
}

TEST(Tracing, RouterOpInsideTraceScopeJoinsTheAmbientTrace) {
  // A ShardRouter::Get issued inside a TraceScope adopts the scope's trace instead of
  // starting one: its kLocal root records in that trace parented on the scope's span, and
  // the shard client span parents on that root.
  Cluster cluster({.shards = 1});
  obs::Span outer;
  bool done = false;
  cluster.Start([&] {
    Runtime& runtime = *cluster.client.runtime;
    obs::ObsRoot::For(runtime).ClearSpans();
    outer = obs::OpenSpan(runtime);
    obs::ObsRoot::TraceScope scope(runtime, outer);
    cluster.router->Get("key").Then([&](Future<memcached::ShardRouter::GetResult> f) {
      f.Get();
      done = true;
    });
  });
  cluster.bed.world().Run();
  ASSERT_TRUE(done);
  ASSERT_NE(outer.trace_id, 0u);

  std::vector<obs::SpanRecord> roots, rpcs;
  for (const obs::SpanRecord& span : obs::ObsRoot::For(*cluster.client.runtime).Spans()) {
    (span.kind == obs::SpanKind::kLocal ? roots : rpcs).push_back(span);
  }
  ASSERT_EQ(roots.size(), 1u);
  ASSERT_EQ(rpcs.size(), 1u);
  EXPECT_EQ(roots[0].trace_id, outer.trace_id);
  EXPECT_EQ(roots[0].parent_span, outer.span_id);
  EXPECT_EQ(roots[0].opcode, memcached::kShardOpGet);
  EXPECT_EQ(rpcs[0].kind, obs::SpanKind::kClient);
  EXPECT_EQ(rpcs[0].trace_id, outer.trace_id);
  EXPECT_EQ(rpcs[0].parent_span, roots[0].span_id);
}

// --- What the telemetry plane costs at each level ---------------------------------------------
//
// The same four-shard workload at kOff, kMetrics and kTracing, every machine's plane set to
// the level before any traffic: shards charging 3 us per key, a preload, two warm-up rounds
// of 32 GETs, then 40 measured rounds.

struct LevelRun {
  bool done = false;
  std::size_t ops = 0;  // measured GETs that succeeded
  std::size_t errors = 0;
  double ops_per_sec = 0;
  double allocs_per_op = 0;
  std::uint64_t control_locks = 0;  // every machine's Messenger
  std::uint64_t spans = 0;          // written on every machine
};

LevelRun RunAtLevel(obs::Level level) {
  constexpr std::size_t kDepth = 32;
  Cluster cluster({.shards = 4, .service_ns = 3000, .obs_level = level});
  LevelRun run;
  std::size_t rounds_left = 2 + 40;
  std::size_t issued = 0;
  bool marked = false;
  cluster.RunLoop(
      [&] {
        Future<void> round = cluster.GetRound(issued, kDepth, [&](bool ok) {
          if (marked) {
            ++(ok ? run.ops : run.errors);
          }
        });
        issued += kDepth;
        return round;
      },
      [&] {
        if (!marked && issued >= 2 * kDepth) {
          cluster.Mark();
          marked = true;
        }
        if (--rounds_left > 0) {
          return true;
        }
        Cluster::Window window = cluster.Close();
        run.done = true;
        run.ops_per_sec = run.ops * 1e9 / static_cast<double>(window.virtual_ns);
        run.allocs_per_op = static_cast<double>(window.heap_allocs) / run.ops;
        run.control_locks = window.control_locks;
        run.spans = window.spans;
        return false;
      });
  return run;
}

TEST(TelemetryLevels, TracingKeepsNinetySevenPercentOfDarkThroughput) {
  // Trace ids ride the RpcHeader at every level, so full tracing may cost no modeled work,
  // segments or stalls on the datapath: at least 0.97x the GETs per second of kOff.
  LevelRun off = RunAtLevel(obs::Level::kOff);
  LevelRun tracing = RunAtLevel(obs::Level::kTracing);
  ASSERT_TRUE(off.done);
  ASSERT_TRUE(tracing.done);
  EXPECT_GE(tracing.ops_per_sec, 0.97 * off.ops_per_sec);
}

TEST(TelemetryLevels, TracingRecordsASpanPerGet) {
  // Every measured GET writes a local root span and a client span on the client and a
  // server span on a shard (3 per GET on the fixed clock).
  LevelRun tracing = RunAtLevel(obs::Level::kTracing);
  ASSERT_TRUE(tracing.done);
  EXPECT_GE(tracing.spans, tracing.ops);
}

TEST(TelemetryLevels, NoSpansBelowTracing) {
  for (obs::Level level : {obs::Level::kOff, obs::Level::kMetrics}) {
    LevelRun run = RunAtLevel(level);
    SCOPED_TRACE(testing::Message() << "level " << static_cast<int>(level));
    ASSERT_TRUE(run.done);
    EXPECT_EQ(run.spans, 0u);
  }
}

TEST(TelemetryLevels, PlaneAllocatesNothingAndTakesNoControlLocks) {
  for (obs::Level level : {obs::Level::kOff, obs::Level::kMetrics, obs::Level::kTracing}) {
    LevelRun run = RunAtLevel(level);
    SCOPED_TRACE(testing::Message() << "level " << static_cast<int>(level));
    ASSERT_TRUE(run.done);
    EXPECT_GT(run.ops, 0u);
    EXPECT_EQ(run.errors, 0u);
    EXPECT_LE(run.allocs_per_op, 0.05);
    EXPECT_EQ(run.control_locks, 0u);
  }
}

}  // namespace
}  // namespace ebbrt
