// Fault-plane tests: RPC deadlines/retries/teardown resolve exactly once, fault injection
// (link faults, machine kill/revive, TCP sever) behaves deterministically, and the
// replicated ShardRouter fails over, skips suspects, and only trusts well-formed newer
// ring records — down to the gates of killing one of four shards mid-run.
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/apps/memcached/shard.h"
#include "src/dist/rpc.h"
#include "src/event/timer.h"
#include "src/sim/testbed.h"
#include "tests/cluster_fixture.h"

namespace ebbrt {
namespace {

using sim::Testbed;
using sim::TestbedNode;

constexpr Ipv4Addr kServerIp = Ipv4Addr::Of(10, 0, 0, 2);
constexpr Ipv4Addr kClientIp = Ipv4Addr::Of(10, 0, 0, 3);
constexpr EbbId kEchoService = kFirstStaticUserId + 40;

// Echo RPC server with a mute switch: `silent` swallows requests (the deliberately
// unresponsive peer every deadline test needs — TCP stays healthy, the service does not).
class EchoServer final : public dist::RpcServer {
 public:
  EchoServer(Runtime& runtime, EbbId service) : dist::RpcServer(runtime, service) {}

  bool silent = false;
  std::size_t requests = 0;

 private:
  void HandleCall(Ipv4Addr from, std::uint64_t request_id, std::uint16_t /*opcode*/,
                  std::uint32_t aux, std::unique_ptr<IOBuf> body) override {
    requests++;
    if (silent) {
      return;
    }
    Reply(from, request_id, aux, std::move(body));
  }
};

class FaultTest : public ::testing::Test {
 protected:
  FaultTest()
      : server_(bed_.AddNode("server", 1, kServerIp)),
        client_(bed_.AddNode("client", 1, kClientIp)) {}

  Testbed bed_;
  TestbedNode server_;
  TestbedNode client_;
};

TEST_F(FaultTest, DeadlineExpiryFailsExactlyOnce) {
  // A mute server: the call must fail with RpcTimeout after exactly one attempt (no retry
  // budget), and the pending table must be empty afterwards — nothing leaks, nothing
  // resolves twice (a double-resolve would abort in Promise).
  std::shared_ptr<EchoServer> echo;
  server_.Spawn(0, [&] {
    echo = std::make_shared<EchoServer>(*server_.runtime, kEchoService);
    echo->silent = true;
    server_.runtime->Adopt(echo);
  });
  std::shared_ptr<dist::RpcClient> client;
  bool resolved = false;
  bool timed_out = false;
  client_.Spawn(0, [&] {
    client = std::make_shared<dist::RpcClient>(*client_.runtime, kEchoService, kServerIp);
    dist::CallOptions options{/*deadline_ns=*/1'000'000,
                              dist::RetryPolicy{/*max_attempts=*/1}};
    client->Call(1, 0, IOBuf::CopyBuffer("ping"), options)
        .Then([&](Future<dist::RpcClient::Response> f) {
          resolved = true;
          try {
            f.Get();
          } catch (const dist::RpcTimeout&) {
            timed_out = true;
          }
        });
  });
  bed_.world().Run();
  EXPECT_TRUE(resolved);
  EXPECT_TRUE(timed_out);
  EXPECT_EQ(echo->requests, 1u);  // delivered, deliberately unanswered
  EXPECT_EQ(client->pending_calls(), 0u);
  EXPECT_EQ(client->stats().timeouts.load(), 1u);
  EXPECT_EQ(client->stats().retries.load(), 0u);
}

TEST_F(FaultTest, LateReplyAfterTimeoutIsDroppedNotDoubleResolved) {
  // A 2ms link delay pushes the echo's round trip far past a 500us deadline: the call
  // times out first, then the genuine reply arrives and must find its id already claimed
  // (late_drops), never a second resolution.
  std::shared_ptr<EchoServer> echo;
  server_.Spawn(0, [&] {
    echo = std::make_shared<EchoServer>(*server_.runtime, kEchoService);
    server_.runtime->Adopt(echo);
  });
  bed_.fabric().SetLinkFault(server_.nic->port(),
                             {.drop_rate = 0, .extra_delay_ns = 2'000'000});
  std::shared_ptr<dist::RpcClient> client;
  bool timed_out = false;
  client_.Spawn(0, [&] {
    client = std::make_shared<dist::RpcClient>(*client_.runtime, kEchoService, kServerIp);
    dist::CallOptions options{/*deadline_ns=*/500'000,
                              dist::RetryPolicy{/*max_attempts=*/1}};
    client->Call(1, 0, IOBuf::CopyBuffer("slow"), options)
        .Then([&](Future<dist::RpcClient::Response> f) {
          try {
            f.Get();
          } catch (const dist::RpcTimeout&) {
            timed_out = true;
          }
        });
  });
  bed_.world().Run();
  EXPECT_TRUE(timed_out);
  EXPECT_EQ(echo->requests, 1u);
  EXPECT_EQ(client->stats().timeouts.load(), 1u);
  EXPECT_EQ(client->stats().late_drops.load(), 1u);
  EXPECT_EQ(client->pending_calls(), 0u);
}

TEST_F(FaultTest, RetryAfterLinkHealSucceeds) {
  // Attempt 1 round-trips through a 1ms-delayed link and expires; the fault clears during
  // the backoff window, so the re-sent attempt (fresh id) completes fast — and attempt 1's
  // straggling reply is dropped as late, not double-resolved.
  std::shared_ptr<EchoServer> echo;
  server_.Spawn(0, [&] {
    echo = std::make_shared<EchoServer>(*server_.runtime, kEchoService);
    server_.runtime->Adopt(echo);
  });
  std::shared_ptr<dist::RpcClient> client;
  bool succeeded = false;
  std::string payload;
  client_.Spawn(0, [&] {
    client = std::make_shared<dist::RpcClient>(*client_.runtime, kEchoService, kServerIp);
    // Warm call first: the TCP dial must not ride the faulted link, or the handshake
    // itself eats the first deadline and skews the attempt accounting.
    client->Call(1, 0, IOBuf::CopyBuffer("warm"), dist::CallOptions{})
        .Then([&](Future<dist::RpcClient::Response> wf) {
          wf.Get();
          bed_.fabric().SetLinkFault(server_.nic->port(),
                                     {.drop_rate = 0, .extra_delay_ns = 1'000'000});
          std::uint64_t heal_at = 1'200'000;
          Timer::Instance()->Start(
              heal_at, [&] { bed_.fabric().ClearLinkFault(server_.nic->port()); });
          // Backoff chosen past the faulted round trip (~2ms): TCP delivers in sequence
          // order, so a retry issued while attempt 1's delayed reply is still in flight
          // would have ITS reply parked behind that straggler and expire too.
          dist::CallOptions options{
              /*deadline_ns=*/400'000,
              dist::RetryPolicy{/*max_attempts=*/3, /*initial_backoff_ns=*/2'000'000,
                                /*max_backoff_ns=*/8'000'000}};
          client->Call(1, 0, IOBuf::CopyBuffer("again"), options)
              .Then([&](Future<dist::RpcClient::Response> f) {
                dist::RpcClient::Response response = f.Get();  // throws -> test fails
                payload = dist::ChainToString(response.body.get());
                succeeded = true;
              });
        });
  });
  bed_.world().Run();
  EXPECT_TRUE(succeeded);
  EXPECT_EQ(payload, "again");
  EXPECT_EQ(client->stats().timeouts.load(), 1u);   // attempt 1 expired
  EXPECT_EQ(client->stats().retries.load(), 1u);    // one re-send won
  EXPECT_EQ(client->stats().late_drops.load(), 1u); // attempt 1's reply arrived late
  EXPECT_EQ(echo->requests, 3u);                    // warm + both attempts
  EXPECT_EQ(client->pending_calls(), 0u);
}

TEST_F(FaultTest, SeverPeerFailsEveryPendingCallExactlyOnce) {
  // Calls with deadline 0 (no expiry) against a mute server: severing the client's TCP
  // connections to the peer must reject every pending promise with RpcPeerLost — the
  // "connection died under outstanding calls" regression a pending-table leak hides.
  std::shared_ptr<EchoServer> echo;
  server_.Spawn(0, [&] {
    echo = std::make_shared<EchoServer>(*server_.runtime, kEchoService);
    echo->silent = true;
    server_.runtime->Adopt(echo);
  });
  std::shared_ptr<dist::RpcClient> client;
  std::size_t resolved = 0;
  std::size_t peer_lost = 0;
  std::size_t severed = 0;
  client_.Spawn(0, [&] {
    client = std::make_shared<dist::RpcClient>(*client_.runtime, kEchoService, kServerIp);
    dist::CallOptions options{/*deadline_ns=*/0, dist::RetryPolicy{/*max_attempts=*/1}};
    for (int i = 0; i < 3; ++i) {
      client->Call(1, 0, IOBuf::CopyBuffer("stuck"), options)
          .Then([&](Future<dist::RpcClient::Response> f) {
            resolved++;
            try {
              f.Get();
            } catch (const dist::RpcPeerLost&) {
              peer_lost++;
            }
          });
    }
    Timer::Instance()->Start(1'000'000,
                             [&] { severed = client_.net->tcp().SeverPeer(kServerIp); });
  });
  bed_.world().Run();
  EXPECT_EQ(severed, 1u);
  EXPECT_EQ(resolved, 3u);
  EXPECT_EQ(peer_lost, 3u);
  EXPECT_EQ(client->pending_calls(), 0u);
  EXPECT_EQ(client->stats().peer_failures.load(), 3u);
}

TEST_F(FaultTest, ClientTeardownRejectsOutstandingCalls) {
  // Destroying the client with a no-deadline call outstanding must resolve it (RpcPeerLost)
  // rather than leaking the promise — the fourth leg of "nothing pending forever".
  std::shared_ptr<EchoServer> echo;
  server_.Spawn(0, [&] {
    echo = std::make_shared<EchoServer>(*server_.runtime, kEchoService);
    echo->silent = true;
    server_.runtime->Adopt(echo);
  });
  std::shared_ptr<dist::RpcClient> client;
  bool resolved = false;
  bool peer_lost = false;
  client_.Spawn(0, [&] {
    client = std::make_shared<dist::RpcClient>(*client_.runtime, kEchoService, kServerIp);
    dist::CallOptions options{/*deadline_ns=*/0, dist::RetryPolicy{/*max_attempts=*/1}};
    client->Call(1, 0, IOBuf::CopyBuffer("orphan"), options)
        .Then([&](Future<dist::RpcClient::Response> f) {
          resolved = true;
          try {
            f.Get();
          } catch (const dist::RpcPeerLost&) {
            peer_lost = true;
          }
        });
    Timer::Instance()->Start(1'000'000, [&] { client.reset(); });
  });
  bed_.world().Run();
  EXPECT_TRUE(resolved);
  EXPECT_TRUE(peer_lost);
}

TEST_F(FaultTest, FrameDropPlanRecoversThroughRetransmission) {
  // A lossy (but not partitioned) link: TCP retransmission must carry every echo through,
  // and the switch must account each injected drop.
  std::shared_ptr<EchoServer> echo;
  server_.Spawn(0, [&] {
    echo = std::make_shared<EchoServer>(*server_.runtime, kEchoService);
    server_.runtime->Adopt(echo);
  });
  bed_.fabric().SetLinkFault(server_.nic->port(),
                             {.drop_rate = 0.15, .extra_delay_ns = 0, .blackhole = false,
                              .seed = 7});
  constexpr std::size_t kCalls = 20;
  std::shared_ptr<dist::RpcClient> client;
  std::size_t completed = 0;
  auto issue = std::make_shared<std::function<void()>>();
  client_.Spawn(0, [&, issue] {
    client = std::make_shared<dist::RpcClient>(*client_.runtime, kEchoService, kServerIp);
    *issue = [&, issue] {
      client->Call(1, 0, IOBuf::CopyBuffer("lossy"), dist::CallOptions{})
          .Then([&, issue](Future<dist::RpcClient::Response> f) {
            f.Get();
            if (++completed < kCalls) {
              (*issue)();
            }
          });
    };
    (*issue)();
  });
  bed_.world().Run();
  EXPECT_EQ(completed, kCalls);
  EXPECT_EQ(echo->requests, kCalls);
  EXPECT_GE(bed_.fabric().faults_injected(), 1u);
  EXPECT_EQ(client->pending_calls(), 0u);
}

TEST(KillReviveTest, PauseAndResumeIsDeterministic) {
  // Kill/revive is pause semantics: a periodic ticker on the victim stalls while killed
  // (its wakes dropped and counted), resumes after revive, and the whole schedule replays
  // bit-identically across runs.
  struct Outcome {
    int ticks = 0;
    std::uint64_t last_tick_at = 0;
    std::uint64_t dropped = 0;
    std::uint64_t kills = 0;
    std::uint64_t revives = 0;
  };
  auto run_once = [] {
    Testbed bed;
    TestbedNode victim = bed.AddNode("victim", 1, Ipv4Addr::Of(10, 0, 0, 2));
    TestbedNode operator_node = bed.AddNode("operator", 1, Ipv4Addr::Of(10, 0, 0, 3));
    auto outcome = std::make_shared<Outcome>();
    victim.Spawn(0, [&bed, outcome] {
      auto handle = std::make_shared<std::uint64_t>(0);
      *handle = Timer::Instance()->Start(
          100'000,
          [&bed, outcome, handle] {
            outcome->ticks++;
            outcome->last_tick_at = bed.world().Now();
            if (outcome->ticks == 30) {
              Timer::Instance()->Stop(*handle);
            }
          },
          /*periodic=*/true);
    });
    operator_node.Spawn(0, [&bed, victim] {
      Timer::Instance()->Start(500'000,
                               [&bed, victim] { bed.world().KillMachine(*victim.runtime); });
      Timer::Instance()->Start(
          2'000'000, [&bed, victim] { bed.world().ReviveMachine(*victim.runtime); });
    });
    bed.world().Run();
    outcome->dropped = bed.world().world_stats().entries_dropped_killed;
    outcome->kills = bed.world().world_stats().kills;
    outcome->revives = bed.world().world_stats().revives;
    return *outcome;
  };
  Outcome first = run_once();
  Outcome second = run_once();
  EXPECT_EQ(first.ticks, 30);
  EXPECT_EQ(first.kills, 1u);
  EXPECT_EQ(first.revives, 1u);
  EXPECT_GE(first.dropped, 1u);  // the tick wake that landed inside the kill window
  // The ticker lost its 0.5ms..2ms window, so the 30th tick lands after the revive.
  EXPECT_GT(first.last_tick_at, 2'000'000u);
  EXPECT_EQ(first.ticks, second.ticks);
  EXPECT_EQ(first.last_tick_at, second.last_tick_at);
  EXPECT_EQ(first.dropped, second.dropped);
}

// --- Replicated ShardRouter failover --------------------------------------------------------

using test::Cluster;

TEST(ShardFaultTest, GetFailsOverAndSetSkipsSuspect) {
  // R=2 over two shards: every key is replicated on both. Kill the key's primary after a
  // write-all preload — the read must time out once, mark the primary suspect, fail over
  // to the replica, and return the value; the next write must skip the suspect (not hang
  // on the corpse) and a newer ring epoch must clear the suspicion. Then the surviving
  // replica dies too: a read of a key with no live replica fails once, with RpcPeerLost.
  Cluster cluster({.shards = 2, .router = test::kFailFastRouter});
  bool got_found = false;
  std::string got_value;
  bool set_ok = false;
  bool adopted = false;
  bool stale_adopted = true;
  std::size_t primary = 0;
  cluster.Start([&] {
    memcached::ShardRouter& router = *cluster.router;
    primary = router.ShardFor("k1");
    router.Set("k1", "v1").Then([&](Future<void> sf) {
      sf.Get();  // preload reached BOTH replicas
      cluster.bed.world().KillMachine(*cluster.shards[primary].runtime);
      router.Get("k1").Then([&](Future<memcached::ShardRouter::GetResult> gf) {
        memcached::ShardRouter::GetResult result = gf.Get();
        got_found = result.found;
        got_value = dist::ChainToString(result.value.get());
        router.Set("k1", "v2").Then([&](Future<void> wf) {
          wf.Get();
          set_ok = true;
          adopted = router.AdoptRing(cluster.Ring(2));
          stale_adopted = router.AdoptRing(cluster.Ring(1));
        });
      });
    });
  });
  cluster.bed.world().Run();
  EXPECT_TRUE(got_found);
  EXPECT_EQ(got_value, "v1");
  EXPECT_TRUE(set_ok);
  const memcached::ShardRouter::Stats& stats = cluster.router->stats();
  EXPECT_GE(stats.failovers, 1u);
  EXPECT_EQ(stats.suspects_marked, 1u);
  EXPECT_GE(stats.write_skips, 1u);
  EXPECT_GE(cluster.bed.fabric().killed_drops(), 1u);  // frames to the corpse died at the fabric
  // The epoch-2 swap cleared the suspicion; the stale epoch-1 record was rejected.
  EXPECT_TRUE(adopted);
  EXPECT_FALSE(stale_adopted);
  EXPECT_EQ(cluster.router->ring_epoch(), 2u);
  EXPECT_FALSE(cluster.router->suspect(primary));
  EXPECT_EQ(stats.stale_rings, 1u);
  EXPECT_EQ(stats.ring_swaps, 1u);

  // Every replica dead: the read times out on the primary, re-routes once to the other
  // replica, times out there too, and fails with the every-replica error whatever the
  // replicas' own errors were (RpcTimeout here).
  const std::uint64_t failovers_before = stats.failovers;
  int lost_resolved = 0;
  int lost_peer_lost = 0;
  cluster.client.Spawn(0, [&] {
    cluster.bed.world().KillMachine(*cluster.shards[1 - primary].runtime);
    cluster.router->Get("k1").Then([&](Future<memcached::ShardRouter::GetResult> gf) {
      ++lost_resolved;
      try {
        gf.Get();
      } catch (const dist::RpcPeerLost&) {
        ++lost_peer_lost;
      }
    });
  });
  cluster.bed.world().Run();
  EXPECT_EQ(lost_resolved, 1);
  EXPECT_EQ(lost_peer_lost, 1);
  EXPECT_EQ(stats.failovers, failovers_before + 1);  // a re-route, not the exhaustion
  EXPECT_EQ(cluster.router->pending_calls(), 0u);
}

// --- Kill one of four replicated shards mid-run -----------------------------------------------
//
// Four shards charging 3 us per key, R=2, a write-all preload, then depth-32 GET rounds: two
// warm-up rounds and 60 pre-kill rounds; shard 0 is killed at a round boundary; the fault
// phase runs until the operator re-admits it; then 60 recovery rounds. Shard 0 revives
// 2.5 ms after the kill with its state intact, and ring epoch 2 is published 7 ms after it,
// once the client's TCP retransmission (5 ms RTO) has healed the connection: publishing any
// earlier would clear the suspect mark while reads to shard 0 still time out.

struct Phase {
  std::uint64_t ops = 0;
  std::uint64_t errors = 0;
  std::uint64_t virtual_ns = 0;
  double ops_per_sec() const { return static_cast<double>(ops) * 1e9 / virtual_ns; }
  double error_rate() const { return static_cast<double>(errors) / (ops + errors); }
};

struct FailoverRun {
  bool done = false;
  Phase pre_kill;
  Phase fault;
  Phase recovery;
  memcached::ShardRouter::Stats router;
  std::uint64_t pre_kill_control_locks = 0;  // every machine's Messenger
  // Heap fallbacks from the start of the pre-kill phase to the end of the run, per pre-kill op.
  double pre_kill_allocs_per_op = 0;
};

FailoverRun KillOneOfFour() {
  constexpr std::size_t kDepth = 32;
  constexpr std::size_t kPhaseRounds = 60;
  constexpr std::uint64_t kReviveNs = 2'500'000;
  constexpr std::uint64_t kReadmitNs = 7'000'000;
  Cluster cluster({.shards = 4,
                   .service_ns = 3000,
                   .router = {.replication = 2,
                              .read_options = {/*deadline_ns=*/400'000, dist::RetryPolicy{1}},
                              .ring_refresh_ns = 300'000,
                              .frontend = Cluster::kFrontendIp}});
  enum class Stage { kWarmup, kPreKill, kFault, kRecovery };
  FailoverRun run;
  Stage stage = Stage::kWarmup;
  std::size_t rounds_left = 2;
  std::size_t issued = 0;
  std::uint64_t phase_start = 0;
  std::uint64_t killed_at = 0;
  bool revived = false;
  Runtime& victim = *cluster.shards[0].runtime;
  cluster.RunLoop(
      [&] {
        Phase* phase = stage == Stage::kPreKill ? &run.pre_kill
                       : stage == Stage::kFault ? &run.fault
                       : stage == Stage::kRecovery ? &run.recovery
                                                   : nullptr;
        Future<void> round = cluster.GetRound(issued, kDepth, [phase](bool ok) {
          if (phase != nullptr) {
            ++(ok ? phase->ops : phase->errors);
          }
        });
        issued += kDepth;
        return round;
      },
      [&] {
        std::uint64_t now = cluster.bed.world().Now();
        switch (stage) {
          case Stage::kWarmup:
            if (--rounds_left == 0) {
              cluster.Mark();
              stage = Stage::kPreKill;
              rounds_left = kPhaseRounds;
              phase_start = now;
            }
            break;
          case Stage::kPreKill:
            if (--rounds_left == 0) {
              run.pre_kill.virtual_ns = now - phase_start;
              run.pre_kill_control_locks = cluster.Close().control_locks;
              cluster.bed.world().KillMachine(victim);
              stage = Stage::kFault;
              killed_at = phase_start = now;
            }
            break;
          case Stage::kFault:
            if (!revived && now >= killed_at + kReviveNs) {
              cluster.bed.world().ReviveMachine(victim);
              revived = true;
            }
            if (revived && now >= killed_at + kReadmitNs) {
              run.fault.virtual_ns = now - phase_start;
              // Epoch 2, same membership: the operator's word that shard 0 is healthy. The
              // swap clears every suspect mark; refresh now instead of at the next poll.
              memcached::PublishRing(*cluster.client.runtime, Cluster::kFrontendIp,
                                     cluster.Ring(2))
                  .Then([&](Future<void> f) {
                    f.Get();
                    cluster.router->RefreshRing();
                  });
              stage = Stage::kRecovery;
              rounds_left = kPhaseRounds;
              phase_start = now;
            }
            break;
          case Stage::kRecovery:
            if (--rounds_left == 0) {
              run.recovery.virtual_ns = now - phase_start;
              cluster.router->StopRingWatcher();  // lets the world drain
              run.done = true;
              return false;
            }
            break;
        }
        return true;
      });
  if (run.done) {
    run.router = cluster.router->stats();
    run.pre_kill_allocs_per_op = cluster.client.net->stats().allocs_per_op(run.pre_kill.ops);
  }
  return run;
}

TEST(KillOneOfFourShards, ErrorRatesStayUnderTwoPercent) {
  // Every key keeps a live replica, so a read fails only if failover leaks availability:
  // the fault and recovery phases fail at most 2% of GETs (none, on the fixed clock).
  FailoverRun run = KillOneOfFour();
  ASSERT_TRUE(run.done);
  ASSERT_GT(run.fault.ops, 0u);
  ASSERT_GT(run.recovery.ops, 0u);
  EXPECT_EQ(run.pre_kill.errors, 0u);
  EXPECT_LE(run.fault.error_rate(), 0.02);
  EXPECT_LE(run.recovery.error_rate(), 0.02);
}

TEST(KillOneOfFourShards, ThroughputRecoversAfterReadmission) {
  // Once epoch 2 re-admits shard 0, the cluster serves at least 0.8x its pre-kill GETs per
  // second (0.99x on the fixed clock).
  FailoverRun run = KillOneOfFour();
  ASSERT_TRUE(run.done);
  ASSERT_GT(run.pre_kill.ops, 0u);
  EXPECT_GE(run.recovery.ops_per_sec(), 0.8 * run.pre_kill.ops_per_sec());
}

TEST(KillOneOfFourShards, FailoverSuspectAndRingSwapEngage) {
  FailoverRun run = KillOneOfFour();
  ASSERT_TRUE(run.done);
  EXPECT_GE(run.router.failovers, 1u);  // 7 on the fixed clock
  EXPECT_GE(run.router.suspects_marked, 1u);
  EXPECT_GE(run.router.ring_swaps, 1u);
}

TEST(KillOneOfFourShards, PreKillPathAllocatesNothingAndTakesNoControlLocks) {
  // Deadline bookkeeping stays off the hot path: no heap fallbacks to speak of and no
  // Messenger control mutex while every shard is healthy.
  FailoverRun run = KillOneOfFour();
  ASSERT_TRUE(run.done);
  EXPECT_LE(run.pre_kill_allocs_per_op, 0.05);
  EXPECT_EQ(run.pre_kill_control_locks, 0u);
}

// --- Ring record encoding -------------------------------------------------------------------

TEST(RingRecordTest, EncodeParseRoundTrip) {
  memcached::RingRecord record;
  record.epoch = 42;
  record.shards = {{Ipv4Addr::Of(10, 0, 0, 20), memcached::kShardServiceBase},
                   {Ipv4Addr::Of(10, 0, 0, 21), memcached::kShardServiceBase + 1}};
  memcached::RingRecord parsed;
  ASSERT_TRUE(memcached::ParseRingRecord(memcached::EncodeRingRecord(record), &parsed));
  EXPECT_EQ(parsed.epoch, 42u);
  ASSERT_EQ(parsed.shards.size(), 2u);
  EXPECT_EQ(parsed.shards[0].addr, record.shards[0].addr);
  EXPECT_EQ(parsed.shards[0].service, record.shards[0].service);
  EXPECT_EQ(parsed.shards[1].addr, record.shards[1].addr);
  EXPECT_EQ(parsed.shards[1].service, record.shards[1].service);
}

TEST(RingRecordTest, MalformedRecordsRejected) {
  memcached::RingRecord out;
  EXPECT_FALSE(memcached::ParseRingRecord("", &out));
  EXPECT_FALSE(memcached::ParseRingRecord("garbage", &out));
  EXPECT_FALSE(memcached::ParseRingRecord("5|", &out));                   // empty shard list
  EXPECT_FALSE(memcached::ParseRingRecord("x|10.0.0.20#100", &out));      // bad epoch
  EXPECT_FALSE(memcached::ParseRingRecord("|10.0.0.20#100", &out));       // missing epoch
  EXPECT_FALSE(memcached::ParseRingRecord("5|10.0.0.20", &out));          // bad endpoint
  EXPECT_FALSE(memcached::ParseRingRecord("5|10.0.0.20#100,", &out));     // trailing comma
  EXPECT_FALSE(memcached::ParseRingRecord("99999999999999999999|10.0.0.20#100", &out));
}

}  // namespace
}  // namespace ebbrt
