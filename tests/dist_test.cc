// Hybrid-structure tests (§2.1, §4.3): messaging between machines, GlobalIdMap naming served
// by the hosted frontend, the FileSystem Ebb function-shipping to real POSIX files, and the
// gates on closed-loop function-shipping RPC rounds.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/ebb_allocator.h"
#include "src/dist/file_system.h"
#include "src/dist/rpc.h"
#include "src/event/timer.h"
#include "src/sim/testbed.h"

namespace ebbrt {
namespace {

using sim::Testbed;
using sim::TestbedNode;

constexpr Ipv4Addr kFrontendIp = Ipv4Addr::Of(10, 0, 0, 2);
constexpr Ipv4Addr kNativeIp = Ipv4Addr::Of(10, 0, 0, 3);

class DistTest : public ::testing::Test {
 protected:
  DistTest()
      : frontend_(bed_.AddNode("frontend", 1, kFrontendIp, sim::HypervisorModel::Native(),
                               RuntimeKind::kHosted)),
        native_(bed_.AddNode("native", 2, kNativeIp)) {
    root_ = "/tmp/ebbrt_fs_test_" + std::to_string(::getpid());
  }

  ~DistTest() override {
    std::error_code ignored;
    std::filesystem::remove_all(root_, ignored);  // the FileSystem sandbox
  }

  // What closed-loop function-shipping rounds cost once warm.
  struct RpcRounds {
    bool done = false;
    double segments_per_op = 0;  // both machines, both directions
    double allocs_per_op = 0;
    double pool_hit_rate = 0;
  };

  // Rounds of `depth` RPCs from the native instance to the frontend, alternating
  // GlobalIdMap::Get and FileSystem::ReadFile, each round issued in one event and awaited
  // whole: 2 x depth warm-up RPCs, then 512 measured.
  RpcRounds RunRpcRounds(std::size_t depth) {
    constexpr std::size_t kMeasured = 512;
    auto data_segments = [this] {
      return frontend_.net->stats().tcp_tx_data_segments.load() +
             native_.net->stats().tcp_tx_data_segments.load();
    };
    const NetworkManager::Stats& stats = native_.net->stats();
    RpcRounds result;
    dist::FileSystem* fs = nullptr;
    dist::GlobalIdMap* ids = nullptr;
    std::size_t issued = 0;
    bool marked = false;
    std::uint64_t segments_mark = 0;
    std::function<void()> round = [&] {
      std::vector<Future<void>> rpcs;
      for (std::size_t i = 0; i < depth; ++i) {
        if ((issued + i) % 2 == 0) {
          rpcs.push_back(ids->Get("service/bench").Then([](Future<std::string> f) { f.Get(); }));
        } else {
          rpcs.push_back(fs->ReadFile("blob.bin").Then([](Future<std::string> f) { f.Get(); }));
        }
      }
      issued += depth;
      WhenAll(std::move(rpcs)).Then([&](Future<void> f) {
        f.Get();
        if (!marked && issued >= 2 * depth) {
          native_.net->stats().MarkAllocBaseline();
          segments_mark = data_segments();
          marked = true;
          issued = 0;
        }
        if (!marked || issued < kMeasured) {
          round();
          return;
        }
        result.done = true;
        result.segments_per_op =
            static_cast<double>(data_segments() - segments_mark) / kMeasured;
        result.allocs_per_op = stats.allocs_per_op(kMeasured);
        result.pool_hit_rate = stats.pool_hit_rate_since_mark();
      });
    };
    frontend_.Spawn(0, [&] {
      dist::FileSystem::ServeOn(*frontend_.runtime, root_);
      dist::GlobalIdMap::ServeOn(*frontend_.runtime);
    });
    native_.Spawn(0, [&] {
      fs = &dist::FileSystem::For(*native_.runtime, kFrontendIp);
      ids = &dist::GlobalIdMap::For(*native_.runtime, kFrontendIp);
      ids->Set("service/bench", kNativeIp.ToString() + ":0").Then([&](Future<void> f) {
        f.Get();
        return fs->WriteFile("blob.bin", std::string(64, 'x')).Then([&](Future<void> wf) {
          wf.Get();
          round();
        });
      });
    });
    bed_.world().Run();
    return result;
  }

  Testbed bed_;
  TestbedNode frontend_;
  TestbedNode native_;
  std::string root_;
};

TEST_F(DistTest, MessengerRoundTrip) {
  std::string received_at_frontend;
  std::string received_at_native;
  frontend_.Spawn(0, [&] {
    auto& messenger = dist::Messenger::For(*frontend_.runtime);
    messenger.RegisterReceiver(kFirstStaticUserId, [&](Ipv4Addr from,
                                                       std::unique_ptr<IOBuf> payload) {
      received_at_frontend = std::string(payload->AsStringView());
      messenger.Send(from, kFirstStaticUserId, IOBuf::CopyBuffer("pong from frontend"));
    });
  });
  native_.Spawn(0, [&] {
    auto& messenger = dist::Messenger::For(*native_.runtime);
    messenger.RegisterReceiver(kFirstStaticUserId,
                               [&](Ipv4Addr, std::unique_ptr<IOBuf> payload) {
                                 received_at_native = std::string(payload->AsStringView());
                               });
    messenger.Send(kFrontendIp, kFirstStaticUserId, IOBuf::CopyBuffer("ping from native"));
  });
  bed_.world().Run();
  EXPECT_EQ(received_at_frontend, "ping from native");
  EXPECT_EQ(received_at_native, "pong from frontend");
}

namespace {
// Raw TCP sender for the framing-hardening tests: connects to a Messenger port and writes
// whatever bytes it is given, bypassing the Messenger's own (well-formed) framing.
class RawFrameSender final : public TcpHandler {
 public:
  void Receive(std::unique_ptr<IOBuf>) override {}
  void Close() override {
    closed_by_peer = true;
    Pcb().Close();
  }
  bool closed_by_peer = false;
};
}  // namespace

TEST_F(DistTest, MessengerRejectsOversizeFrameAndClosesPeer) {
  // A hand-crafted header claiming a 512 MiB payload: the receiver must tick bad_frames,
  // close the connection, and keep serving well-formed peers — never assert or wedge.
  auto sender = std::make_shared<RawFrameSender>();
  std::string frontend_got;
  frontend_.Spawn(0, [&] {
    dist::Messenger::For(*frontend_.runtime)
        .RegisterReceiver(kFirstStaticUserId,
                          [&](Ipv4Addr, std::unique_ptr<IOBuf> payload) {
                            frontend_got = std::string(payload->AsStringView());
                          });
  });
  native_.Spawn(0, [&] {
    native_.net->tcp()
        .Connect(*native_.iface, kFrontendIp, dist::kMessengerPort)
        .Then([sender](Future<TcpPcb> f) {
          TcpPcb pcb = f.Get();
          pcb.InstallHandler(std::shared_ptr<TcpHandler>(sender));
          dist::MsgHeader header;
          header.length = HostToNet32(512u * 1024 * 1024);  // > kMaxMessageBytes
          header.target = HostToNet32(kFirstStaticUserId);
          auto frame = IOBuf::Create(sizeof(header));
          std::memcpy(frame->WritableData(), &header, sizeof(header));
          pcb.Send(std::move(frame));
        });
  });
  bed_.world().Run();
  const dist::Messenger::Stats& stats = dist::Messenger::For(*frontend_.runtime).stats();
  EXPECT_EQ(stats.bad_frames.load(), 1u);
  EXPECT_EQ(stats.messages_received.load(), 0u);
  EXPECT_TRUE(sender->closed_by_peer);  // the receiver dropped the unframeable connection

  // The messenger is still healthy: a well-formed peer delivers normally afterwards.
  native_.Spawn(0, [&] {
    dist::Messenger::For(*native_.runtime)
        .Send(kFrontendIp, kFirstStaticUserId, IOBuf::CopyBuffer("after the bad peer"));
  });
  bed_.world().Run();
  EXPECT_EQ(frontend_got, "after the bad peer");
  EXPECT_EQ(stats.bad_frames.load(), 1u);
}

TEST_F(DistTest, MessengerRejectsUnknownTargetFrame) {
  // A well-framed message to an EbbId nobody registered: same treatment — counted, peer
  // dropped — because the two machines disagree about what this one serves.
  frontend_.Spawn(0, [&] { dist::Messenger::For(*frontend_.runtime); });
  native_.Spawn(0, [&] {
    dist::Messenger::For(*native_.runtime)
        .Send(kFrontendIp, kFirstStaticUserId + 7, IOBuf::CopyBuffer("to nowhere"));
  });
  bed_.world().Run();
  const dist::Messenger::Stats& stats = dist::Messenger::For(*frontend_.runtime).stats();
  EXPECT_EQ(stats.bad_frames.load(), 1u);
  EXPECT_EQ(stats.messages_received.load(), 0u);
}

TEST_F(DistTest, MessengerSteadyStateFanInTakesNoControlLocks) {
  // The lock-free dispatch-plane claim, asserted: once connections exist and receivers are
  // registered, a second wave of cross-core fan-in traffic must not acquire the Messenger
  // control mutex even once — every per-message peer/receiver lookup rides the RCU read
  // side. (stats().control_locks counts every control_mu_ acquisition.)
  constexpr std::size_t kWave = 24;
  std::size_t received = 0;
  frontend_.Spawn(0, [&] {
    dist::Messenger::For(*frontend_.runtime)
        .RegisterReceiver(kFirstStaticUserId, [&](Ipv4Addr from,
                                                  std::unique_ptr<IOBuf> payload) {
          received++;
          // Reply to exercise the reverse path's peer lookup too.
          dist::Messenger::For(*frontend_.runtime)
              .Send(from, kFirstStaticUserId, std::move(payload));
        });
  });
  std::size_t replies = 0;
  native_.Spawn(0, [&] {
    dist::Messenger::For(*native_.runtime)
        .RegisterReceiver(kFirstStaticUserId,
                          [&](Ipv4Addr, std::unique_ptr<IOBuf>) { replies++; });
    // First wave: dials, accepts, registrations — the control plane is allowed to lock.
    for (std::size_t i = 0; i < kWave; ++i) {
      dist::Messenger::For(*native_.runtime)
          .Send(kFrontendIp, kFirstStaticUserId, IOBuf::CopyBuffer("warm"));
    }
  });
  bed_.world().Run();
  ASSERT_EQ(received, kWave);
  ASSERT_EQ(replies, kWave);

  const dist::Messenger::Stats& frontend_stats =
      dist::Messenger::For(*frontend_.runtime).stats();
  const dist::Messenger::Stats& native_stats =
      dist::Messenger::For(*native_.runtime).stats();
  std::uint64_t frontend_locks = frontend_stats.control_locks.load();
  std::uint64_t native_locks = native_stats.control_locks.load();

  // Second wave: steady state, fanned in from BOTH of the native machine's cores (the
  // cross-core Send forwards through the peer's owner core — still no control lock).
  for (std::size_t core = 0; core < 2; ++core) {
    native_.Spawn(core, [&] {
      for (std::size_t i = 0; i < kWave; ++i) {
        dist::Messenger::For(*native_.runtime)
            .Send(kFrontendIp, kFirstStaticUserId, IOBuf::CopyBuffer("steady"));
      }
    });
  }
  bed_.world().Run();
  EXPECT_EQ(received, 3 * kWave);
  EXPECT_EQ(replies, 3 * kWave);
  EXPECT_EQ(frontend_stats.control_locks.load(), frontend_locks);
  EXPECT_EQ(native_stats.control_locks.load(), native_locks);
  EXPECT_EQ(frontend_stats.bad_frames.load(), 0u);
  EXPECT_EQ(native_stats.bad_frames.load(), 0u);
}

TEST_F(DistTest, FileSystemOffloadsToHostedPosix) {
  std::string read_back;
  std::uint64_t size = 0;
  frontend_.Spawn(0, [&] { dist::FileSystem::ServeOn(*frontend_.runtime, root_); });
  native_.Spawn(0, [&] {
    auto& fs = dist::FileSystem::For(*native_.runtime, kFrontendIp);
    fs.WriteFile("greeting.txt", "written from the native instance")
        .Then([&fs, &read_back, &size](Future<void> f) {
          f.Get();
          return fs.ReadFile("greeting.txt").Then([&fs, &read_back, &size](
                                                      Future<std::string> rf) {
            read_back = rf.Get();
            return fs.GetFileSize("greeting.txt").Then([&size](Future<std::uint64_t> sf) {
              size = sf.Get();
            });
          });
        });
  });
  bed_.world().Run();
  EXPECT_EQ(read_back, "written from the native instance");
  EXPECT_EQ(size, read_back.size());
  // The file genuinely exists on the "Linux" side.
  std::FILE* f = std::fopen((root_ + "/greeting.txt").c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
}

TEST_F(DistTest, FileSystemReadMissingFails) {
  bool failed = false;
  frontend_.Spawn(0, [&] { dist::FileSystem::ServeOn(*frontend_.runtime, root_); });
  native_.Spawn(0, [&] {
    auto& fs = dist::FileSystem::For(*native_.runtime, kFrontendIp);
    fs.ReadFile("does-not-exist").Then([&failed](Future<std::string> f) {
      try {
        f.Get();
      } catch (const std::runtime_error&) {
        failed = true;
      }
    });
  });
  bed_.world().Run();
  EXPECT_TRUE(failed);
}

TEST_F(DistTest, GlobalIdMapNamingAndIdBlocks) {
  std::string value;
  EbbId block_a = 0;
  EbbId block_b = 0;
  frontend_.Spawn(0, [&] { dist::GlobalIdMap::ServeOn(*frontend_.runtime); });
  native_.Spawn(0, [&] {
    auto& map = dist::GlobalIdMap::For(*native_.runtime, kFrontendIp);
    map.Set("service/memcached", "10.0.0.3:11211").Then([&](Future<void> f) {
      f.Get();
      return map.Get("service/memcached").Then([&](Future<std::string> gf) {
        value = gf.Get();
        return map.AllocateIdBlock(64).Then([&](Future<EbbId> bf) {
          block_a = bf.Get();
          return map.AllocateIdBlock(64).Then([&](Future<EbbId> bf2) {
            block_b = bf2.Get();
            // Install the block into this machine's allocator, as bring-up would.
            EbbAllocator::Instance()->SetGlobalBlock(block_b, 64);
          });
        });
      });
    });
  });
  bed_.world().Run();
  EXPECT_EQ(value, "10.0.0.3:11211");
  EXPECT_NE(block_a, 0u);
  EXPECT_EQ(block_b, block_a + 64);
}

// --- RpcClient completion targets ----------------------------------------------------------

// Echo RPC server that records the request ids it saw; `silent` swallows requests (a test
// may answer one later through Reply).
class RecordingEcho final : public dist::RpcServer {
 public:
  RecordingEcho(Runtime& runtime, EbbId service, bool silent)
      : dist::RpcServer(runtime, service), silent_(silent) {}

  using dist::RpcServer::Reply;

  std::vector<std::uint64_t> request_ids;

 private:
  void HandleCall(Ipv4Addr from, std::uint64_t request_id, std::uint16_t /*opcode*/,
                  std::uint32_t aux, std::unique_ptr<IOBuf> body) override {
    request_ids.push_back(request_id);
    if (!silent_) {
      Reply(from, request_id, aux, std::move(body));
    }
  }

  bool silent_;
};

// Counts how the completion ran; `then` (optional) runs after either outcome, from inside it.
struct CountingCompletion final : dist::RpcCompletion {
  int responses = 0;
  int timeouts = 0;
  int peer_lost = 0;
  int other_failures = 0;
  std::string body;
  std::function<void()> then;

  int runs() const { return responses + timeouts + peer_lost + other_failures; }

  void OnResponse(dist::RpcResponse response) override {
    ++responses;
    body = dist::ChainToString(response.body.get());
    if (then) {
      then();
    }
  }
  void OnFailure(std::exception_ptr error) override {
    try {
      std::rethrow_exception(error);
    } catch (const dist::RpcTimeout&) {
      ++timeouts;
    } catch (const dist::RpcPeerLost&) {
      ++peer_lost;
    } catch (...) {
      ++other_failures;
    }
    if (then) {
      then();
    }
  }
};

TEST_F(DistTest, EveryResolutionPathRunsTheCompletionExactlyOnce) {
  // The four ways a call resolves — response, deadline expiry after its retries, peer loss,
  // client teardown — each run the caller's completion target exactly once, and leave
  // nothing pending.
  constexpr EbbId kEcho = kFirstStaticUserId + 50;
  constexpr EbbId kMute = kFirstStaticUserId + 51;
  frontend_.Spawn(0, [&] {
    frontend_.runtime->Adopt(std::make_shared<RecordingEcho>(*frontend_.runtime, kEcho, false));
    frontend_.runtime->Adopt(std::make_shared<RecordingEcho>(*frontend_.runtime, kMute, true));
  });
  std::shared_ptr<dist::RpcClient> echo;
  std::shared_ptr<dist::RpcClient> mute;
  CountingCompletion answered;
  CountingCompletion expired;
  native_.Spawn(0, [&] {
    echo = std::make_shared<dist::RpcClient>(*native_.runtime, kEcho, kFrontendIp);
    mute = std::make_shared<dist::RpcClient>(*native_.runtime, kMute, kFrontendIp);
    echo->Call(1, 0, IOBuf::CopyBuffer("ping"), dist::CallOptions{}, &answered);
    mute->Call(1, 0, IOBuf::CopyBuffer("lost"),
               dist::CallOptions{/*deadline_ns=*/200'000,
                                 dist::RetryPolicy{/*max_attempts=*/2,
                                                   /*initial_backoff_ns=*/100'000,
                                                   /*max_backoff_ns=*/100'000}},
               &expired);
  });
  bed_.world().Run();
  EXPECT_EQ(answered.responses, 1);
  EXPECT_EQ(answered.runs(), 1);
  EXPECT_EQ(answered.body, "ping");
  EXPECT_EQ(expired.timeouts, 1);
  EXPECT_EQ(expired.runs(), 1);
  EXPECT_EQ(mute->stats().retries.load(), 1u);
  EXPECT_EQ(mute->stats().timeouts.load(), 2u);
  EXPECT_EQ(echo->pending_calls(), 0u);
  EXPECT_EQ(mute->pending_calls(), 0u);

  // Peer loss: no deadline, so only the dead connection can resolve the call.
  CountingCompletion severed;
  native_.Spawn(0, [&] {
    mute->Call(1, 0, IOBuf::CopyBuffer("stuck"),
               dist::CallOptions{/*deadline_ns=*/0, dist::RetryPolicy{/*max_attempts=*/1}},
               &severed);
    Timer::Instance()->Start(100'000, [&] { native_.net->tcp().SeverPeer(kFrontendIp); });
  });
  bed_.world().Run();
  EXPECT_EQ(severed.peer_lost, 1);
  EXPECT_EQ(severed.runs(), 1);
  EXPECT_EQ(mute->stats().peer_failures.load(), 1u);
  EXPECT_EQ(mute->pending_calls(), 0u);

  // Teardown: one call pending on each core's lane when the client dies.
  CountingCompletion orphans[2];
  for (std::size_t core = 0; core < 2; ++core) {
    native_.Spawn(core, [&, core] {
      mute->Call(1, 0, IOBuf::CopyBuffer("orphan"),
                 dist::CallOptions{/*deadline_ns=*/0, dist::RetryPolicy{/*max_attempts=*/1}},
                 &orphans[core]);
    });
  }
  bed_.world().Run();
  EXPECT_EQ(mute->pending_calls(), 2u);
  native_.Spawn(0, [&] { mute.reset(); });
  bed_.world().Run();
  for (const CountingCompletion& orphan : orphans) {
    EXPECT_EQ(orphan.peer_lost, 1);
    EXPECT_EQ(orphan.runs(), 1);
  }
  EXPECT_EQ(answered.runs(), 1);
  EXPECT_EQ(expired.runs(), 1);
  EXPECT_EQ(severed.runs(), 1);
}

TEST_F(DistTest, ManyCallsInFlightGrowTheLaneAndEachGetsItsOwnReply) {
  // 200 calls outstanding at once on one core spread over several slot chunks (16, 32, 64,
  // 128 slots): every completion receives the reply to its own request. Each call arms a
  // deadline timer on its core, and each completion there stops it: nothing lingers.
  constexpr EbbId kEcho = kFirstStaticUserId + 53;
  constexpr std::size_t kCalls = 200;
  frontend_.Spawn(0, [&] {
    frontend_.runtime->Adopt(std::make_shared<RecordingEcho>(*frontend_.runtime, kEcho, false));
  });
  std::shared_ptr<dist::RpcClient> client;
  std::vector<CountingCompletion> completions(kCalls);
  std::size_t pending_after_issue = 0;
  std::size_t timers_after_issue = 0;
  std::size_t timers_after_replies = ~std::size_t{0};
  native_.Spawn(1, [&] {
    client = std::make_shared<dist::RpcClient>(*native_.runtime, kEcho, kFrontendIp);
    // Replies arrive in order on this core; the last one looks before any deadline passes.
    completions.back().then = [&] { timers_after_replies = Timer::Instance()->pending(); };
    for (std::size_t i = 0; i < kCalls; ++i) {
      client->Call(1, 0, IOBuf::CopyBuffer("call-" + std::to_string(i)), dist::CallOptions{},
                   &completions[i]);
    }
    pending_after_issue = client->pending_calls();
    timers_after_issue = Timer::Instance()->pending();
  });
  bed_.world().Run();
  EXPECT_EQ(pending_after_issue, kCalls);
  EXPECT_GE(timers_after_issue, kCalls);
  EXPECT_LE(timers_after_replies, timers_after_issue - kCalls);
  for (std::size_t i = 0; i < kCalls; ++i) {
    EXPECT_EQ(completions[i].responses, 1) << i;
    EXPECT_EQ(completions[i].runs(), 1) << i;
    EXPECT_EQ(completions[i].body, "call-" + std::to_string(i));
  }
  EXPECT_EQ(client->pending_calls(), 0u);
  EXPECT_EQ(client->stats().late_drops.load(), 0u);
}

TEST_F(DistTest, LateResponseToARecycledSlotIsDroppedNotMisrouted) {
  // Call A times out and frees its slot; call B, issued from A's failure, takes the same
  // slot under a newer generation. A's reply then arrives (a 2 ms link delay): it must tick
  // late_drops and leave B pending, and B must later resolve with ITS reply.
  constexpr EbbId kEcho = kFirstStaticUserId + 52;
  std::shared_ptr<RecordingEcho> server;
  frontend_.Spawn(0, [&] {
    server = std::make_shared<RecordingEcho>(*frontend_.runtime, kEcho, false);
    frontend_.runtime->Adopt(server);
  });
  bed_.fabric().SetLinkFault(frontend_.nic->port(),
                             {.drop_rate = 0, .extra_delay_ns = 2'000'000});
  std::shared_ptr<dist::RpcClient> client;
  CountingCompletion first;
  CountingCompletion second;
  std::uint64_t late_drops_when_b_resolved = 0;
  native_.Spawn(0, [&] {
    client = std::make_shared<dist::RpcClient>(*native_.runtime, kEcho, kFrontendIp);
    first.then = [&] {
      client->Call(1, 0, IOBuf::CopyBuffer("second"),
                   dist::CallOptions{/*deadline_ns=*/0, dist::RetryPolicy{1}}, &second);
    };
    // A's reply must have been dropped BEFORE B's reply arrived, not after.
    second.then = [&] { late_drops_when_b_resolved = client->stats().late_drops.load(); };
    client->Call(1, 0, IOBuf::CopyBuffer("first"),
                 dist::CallOptions{/*deadline_ns=*/500'000, dist::RetryPolicy{1}}, &first);
  });
  bed_.world().Run();
  EXPECT_EQ(first.timeouts, 1);
  EXPECT_EQ(first.runs(), 1);
  EXPECT_EQ(second.responses, 1);
  EXPECT_EQ(second.runs(), 1);
  EXPECT_EQ(second.body, "second");
  EXPECT_EQ(client->stats().late_drops.load(), 1u);
  EXPECT_EQ(late_drops_when_b_resolved, 1u);
  EXPECT_EQ(client->pending_calls(), 0u);
  // Same lane and slot, different generation.
  ASSERT_EQ(server->request_ids.size(), 2u);
  EXPECT_EQ(server->request_ids[0] >> 32, server->request_ids[1] >> 32);
  EXPECT_NE(server->request_ids[0], server->request_ids[1]);
}

TEST_F(DistTest, OneMachineIsClientAndServerOfOneService) {
  // Each machine serves service S and calls S on the other, in one event. Requests travel
  // to S and replies to S | kRpcReplyTarget, so each machine's server sees only the other's
  // request and each client only its own reply.
  constexpr EbbId kEcho = kFirstStaticUserId + 54;
  struct Side {
    std::shared_ptr<RecordingEcho> server;
    std::shared_ptr<dist::RpcClient> client;
    CountingCompletion call;
  };
  Side frontend_side;
  Side native_side;
  auto start = [&](TestbedNode& node, Side& side, Ipv4Addr other, const char* body) {
    node.Spawn(0, [&node, &side, other, body, kEcho] {
      side.server = std::make_shared<RecordingEcho>(*node.runtime, kEcho, false);
      node.runtime->Adopt(side.server);
      side.client = std::make_shared<dist::RpcClient>(*node.runtime, kEcho, other);
      side.client->Call(1, 0, IOBuf::CopyBuffer(body), dist::CallOptions{}, &side.call);
    });
  };
  start(frontend_, frontend_side, kNativeIp, "from frontend");
  start(native_, native_side, kFrontendIp, "from native");
  bed_.world().Run();
  EXPECT_EQ(frontend_side.call.responses, 1);
  EXPECT_EQ(frontend_side.call.runs(), 1);
  EXPECT_EQ(frontend_side.call.body, "from frontend");
  EXPECT_EQ(native_side.call.responses, 1);
  EXPECT_EQ(native_side.call.runs(), 1);
  EXPECT_EQ(native_side.call.body, "from native");
  for (Side* side : {&frontend_side, &native_side}) {
    EXPECT_EQ(side->server->request_ids.size(), 1u);
    EXPECT_EQ(side->client->stats().late_drops.load(), 0u);
    EXPECT_EQ(side->client->pending_calls(), 0u);
  }
  EXPECT_EQ(dist::Messenger::For(*frontend_.runtime).stats().bad_frames.load(), 0u);
  EXPECT_EQ(dist::Messenger::For(*native_.runtime).stats().bad_frames.load(), 0u);
}

TEST_F(DistTest, MisdirectedRpcFramesAreDropped) {
  // A request-flagged frame at a client's target and a reply-flagged frame at a server's
  // target both carry the live call's request id, yet neither resolves the call nor reaches
  // HandleCall: each end checks the direction flag before anything else. The real reply
  // then resolves the call exactly once.
  constexpr EbbId kEcho = kFirstStaticUserId + 55;
  std::shared_ptr<RecordingEcho> server;
  frontend_.Spawn(0, [&] {
    server = std::make_shared<RecordingEcho>(*frontend_.runtime, kEcho, /*silent=*/true);
    frontend_.runtime->Adopt(server);
  });
  std::shared_ptr<dist::RpcClient> client;
  CountingCompletion call;
  native_.Spawn(0, [&] {
    client = std::make_shared<dist::RpcClient>(*native_.runtime, kEcho, kFrontendIp);
    client->Call(1, 0, IOBuf::CopyBuffer("real request"),
                 dist::CallOptions{/*deadline_ns=*/0, dist::RetryPolicy{1}}, &call);
  });
  bed_.world().Run();
  ASSERT_EQ(server->request_ids.size(), 1u);
  const std::uint64_t live_id = server->request_ids[0];

  frontend_.Spawn(0, [&] {
    dist::Messenger::For(*frontend_.runtime)
        .Send(kNativeIp, kEcho | dist::kRpcReplyTarget,
              dist::BuildRpcFrame(live_id, 1, /*flags=*/0, 0,
                                  IOBuf::CopyBuffer("forged request")));
  });
  native_.Spawn(0, [&] {
    dist::Messenger::For(*native_.runtime)
        .Send(kFrontendIp, kEcho,
              dist::BuildRpcFrame(live_id, 0, dist::kRpcResponse, 0,
                                  IOBuf::CopyBuffer("forged reply")));
  });
  bed_.world().Run();
  EXPECT_EQ(call.runs(), 0);
  EXPECT_EQ(client->pending_calls(), 1u);
  EXPECT_EQ(server->request_ids.size(), 1u);

  frontend_.Spawn(0, [&] {
    server->Reply(kNativeIp, live_id, 0, IOBuf::CopyBuffer("real reply"));
  });
  bed_.world().Run();
  EXPECT_EQ(call.responses, 1);
  EXPECT_EQ(call.runs(), 1);
  EXPECT_EQ(call.body, "real reply");
  EXPECT_EQ(client->pending_calls(), 0u);
  EXPECT_EQ(client->stats().late_drops.load(), 0u);
  // Each forged frame ticks its receiver's bad-frame ledger against the sender, and the
  // peer connection survives it: the real reply above rode the same link.
  dist::Messenger& frontend = dist::Messenger::For(*frontend_.runtime);
  dist::Messenger& native = dist::Messenger::For(*native_.runtime);
  EXPECT_EQ(frontend.stats().bad_frames.load(), 1u);
  EXPECT_EQ(native.stats().bad_frames.load(), 1u);
  using Ledger = std::vector<std::pair<Ipv4Addr, std::uint64_t>>;
  EXPECT_EQ(frontend.BadFramesByPeer(), (Ledger{{kNativeIp, 1}}));
  EXPECT_EQ(native.BadFramesByPeer(), (Ledger{{kFrontendIp, 1}}));
  EXPECT_EQ(frontend.stats().reconnects.load(), 0u);
  EXPECT_EQ(native.stats().reconnects.load(), 0u);
}

// --- Function-shipping RPC rounds ----------------------------------------------------------

class DistRpcRounds : public DistTest, public ::testing::WithParamInterface<std::size_t> {};

TEST_P(DistRpcRounds, SteadyStateRidesThePoolWithoutHeapAllocs) {
  // The Messenger rides the slab-backed IOBuf datapath: warm RPCs cost at most 0.1 heap
  // fallbacks each (none, on the fixed clock) and arrive in frames carved from the arena.
  RpcRounds rounds = RunRpcRounds(GetParam());
  ASSERT_TRUE(rounds.done);
  EXPECT_LE(rounds.allocs_per_op, 0.1);
  EXPECT_GT(rounds.pool_hit_rate, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Depths, DistRpcRounds, ::testing::Values(1u, 8u, 32u));

TEST_F(DistTest, PipelinedRpcRoundsShareSegments) {
  // The Messenger rides auto-corked connections: a round of 32 RPCs leaves each machine as
  // one segment, so an RPC costs well under half a segment (0.156 on the fixed clock, 2.0 at
  // depth 1).
  RpcRounds rounds = RunRpcRounds(32);
  ASSERT_TRUE(rounds.done);
  EXPECT_LT(rounds.segments_per_op, 0.5);
}

}  // namespace
}  // namespace ebbrt
