// TX corking / event-scoped send aggregation tests:
//
//   * auto-cork flushes exactly once per event (flush-once invariant, via stats);
//   * a window-limited flush is partial and drains via the ACK path, when a later frame of
//     the same event shrinks the peer's window before the event-boundary flush;
//   * Close() with corked data flushes the data before the FIN;
//   * property: the received byte stream is identical with and without auto-cork;
//   * acceptance: memcached at pipeline depth 32 serves the same byte stream with >= 4x
//     fewer TX data segments than at depth 1;
//   * the committed depth sweeps (fig5, fig6, tab2, run through the benches' own depth
//     points) coalesce sends and receive into arena frames with zero steady-state heap
//     allocs.
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/memcached_common.h"
#include "bench/webserver_common.h"
#include "src/apps/loadgen/memcached_loadgen.h"
#include "src/apps/memcached/server.h"
#include "src/event/event_manager.h"
#include "src/sim/testbed.h"

namespace ebbrt {
namespace {

using sim::Testbed;
using sim::TestbedNode;

constexpr Ipv4Addr kServerIp = Ipv4Addr::Of(10, 0, 0, 2);
constexpr Ipv4Addr kClientIp = Ipv4Addr::Of(10, 0, 0, 3);

// Accumulates received bytes; closes when the peer closes.
class SinkHandler final : public TcpHandler {
 public:
  explicit SinkHandler(std::string* out = nullptr) : out_(out) {}
  void Receive(std::unique_ptr<IOBuf> data) override {
    if (out_ != nullptr) {
      *out_ += std::string(data->AsStringView());
    }
  }
  void Close() override { Pcb().Close(); }

 private:
  std::string* out_;
};

TEST(TxBatcher, AutoCorkFlushesOncePerEvent) {
  Testbed bed;
  TestbedNode server = bed.AddNode("server", 1, kServerIp);
  TestbedNode client = bed.AddNode("client", 1, kClientIp);
  constexpr std::size_t kResponses = 5;

  // Answers each received chain with kResponses small writes — all inside one Receive
  // event, so auto-cork must merge them into one segment flushed once.
  class BurstResponder final : public TcpHandler {
   public:
    void Receive(std::unique_ptr<IOBuf>) override {
      for (std::size_t i = 0; i < kResponses; ++i) {
        ASSERT_TRUE(Pcb().Send(IOBuf::CopyBuffer("resp" + std::to_string(i) + "|")));
      }
      // Still corked inside the event: the flush happens at the event boundary.
      EXPECT_GT(Pcb().CorkedBytes(), 0u);
    }
  };

  std::string received;
  server.Spawn(0, [&] {
    server.net->tcp().Listen(9301, [](TcpPcb pcb) {
      pcb.InstallHandler(std::unique_ptr<TcpHandler>(std::make_unique<BurstResponder>()));
      pcb.SetAutoCork(true);
    });
  });
  client.Spawn(0, [&] {
    client.net->tcp().Connect(*client.iface, kServerIp, 9301).Then([&](Future<TcpPcb> f) {
      TcpPcb pcb = f.Get();
      pcb.InstallHandler(std::unique_ptr<TcpHandler>(std::make_unique<SinkHandler>(&received)));
      pcb.Send(IOBuf::CopyBuffer("go"));
    });
  });
  bed.world().Run();
  EXPECT_EQ(received, "resp0|resp1|resp2|resp3|resp4|");
  // Flush-once-per-event: 5 sends, 1 data segment, 1 flush, 4 coalesced.
  EXPECT_EQ(server.net->stats().tcp_tx_data_segments.load(), 1u);
  EXPECT_EQ(server.net->stats().cork_flushes.load(), 1u);
  EXPECT_EQ(server.net->stats().sends_coalesced.load(), kResponses - 1);
  EXPECT_EQ(server.net->stats().corked_drops.load(), 0u);
}

// Builds the bare ACK that `from` (at `tuple.remote`) would send to `to` (at `tuple.local`),
// advertising `window`. Its ack field is zero: with nothing in flight no ack value advances
// snd_una, so the receiver takes it as a pure window update.
std::unique_ptr<IOBuf> WindowUpdateFrame(const FourTuple& tuple, const Interface& from,
                                         const Interface& to, std::uint16_t window) {
  constexpr std::size_t kLen = sizeof(EthernetHeader) + sizeof(Ipv4Header) + sizeof(TcpHeader);
  auto frame = IOBuf::CopyBuffer(std::string(kLen, '\0'));
  frame->Advance(sizeof(EthernetHeader));
  net_internal::FillIpv4(*frame, tuple.remote_ip, tuple.local_ip, kIpProtoTcp,
                         sizeof(TcpHeader), 0);
  auto& tcp = frame->Get<TcpHeader>(sizeof(Ipv4Header));
  tcp.src_port = HostToNet16(tuple.remote_port);
  tcp.dst_port = HostToNet16(tuple.local_port);
  tcp.SetHeaderWords(5);
  tcp.flags = kTcpAck;
  tcp.window = HostToNet16(window);
  ChecksumAccumulator acc;
  net_internal::AddPseudoHeader(acc, tuple.remote_ip, tuple.local_ip, kIpProtoTcp,
                                sizeof(TcpHeader));
  acc.Add(frame->Data() + sizeof(Ipv4Header), sizeof(TcpHeader));
  tcp.checksum = acc.Finish();
  frame->Retreat(sizeof(EthernetHeader));
  auto& eth = frame->Get<EthernetHeader>();
  eth.dst = to.mac();
  eth.src = from.mac();
  eth.type = HostToNet16(kEthTypeIpv4);
  return frame;
}

TEST(TxBatcher, WindowLimitedPartialFlushDrainsViaAcks) {
  Testbed bed;
  TestbedNode server = bed.AddNode("server", 1, kServerIp);
  TestbedNode client = bed.AddNode("client", 1, kClientIp);
  const std::string payload(2000, 'w');
  std::string received;
  server.Spawn(0, [&] {
    server.net->tcp().Listen(9302, [&received](TcpPcb pcb) {
      // The server keeps its window at 512, so every later ACK reopens only 512 bytes.
      pcb.SetReceiveWindow(512);
      pcb.InstallHandler(std::unique_ptr<TcpHandler>(std::make_unique<SinkHandler>(&received)));
    });
  });
  std::size_t corked_after_flush = 0;
  auto client_pcb = std::make_shared<TcpPcb>();
  client.Spawn(0, [&] {
    client.net->tcp().Connect(*client.iface, kServerIp, 9302).Then([&](Future<TcpPcb> f) {
      *client_pcb = f.Get();
      client_pcb->InstallHandler(std::unique_ptr<TcpHandler>(std::make_unique<SinkHandler>()));
      client_pcb->SetAutoCork(true);
      event::Local().Spawn([&] {
        // One client event, in the order the NIC's RX drain produces: the application corks
        // 2000 bytes under the handshake window (64 KiB), then a later frame of the same
        // event shrinks the window to 512 before the event-boundary flush.
        EXPECT_TRUE(client_pcb->Send(IOBuf::CopyBuffer(payload)));
        EXPECT_EQ(client_pcb->CorkedBytes(), payload.size());
        client.iface->Receive(
            WindowUpdateFrame(client_pcb->tuple(), *server.iface, *client.iface, 512));
        EXPECT_EQ(client_pcb->CorkedBytes(), payload.size());  // no mid-event flush
        // Runs after the event-boundary flush and before any ACK can arrive.
        event::Local().Spawn([&] { corked_after_flush = client_pcb->CorkedBytes(); });
      });
    });
  });
  bed.world().Run();
  // The flush was window-limited: only 512 bytes left at the event boundary; the rest
  // drained from the ACK path, preserving order and content.
  EXPECT_EQ(corked_after_flush, payload.size() - 512);
  EXPECT_EQ(received, payload);
  EXPECT_EQ(client_pcb->CorkedBytes(), 0u);
  EXPECT_GT(client.net->stats().cork_flushes.load(), 1u);
}

TEST(TxBatcher, CloseWithCorkedDataFlushesDataBeforeFin) {
  Testbed bed;
  TestbedNode server = bed.AddNode("server", 1, kServerIp);
  TestbedNode client = bed.AddNode("client", 1, kClientIp);

  // Sends a farewell and closes within the same Receive event: the corked farewell must
  // reach the peer before the FIN.
  class FarewellHandler final : public TcpHandler {
   public:
    void Receive(std::unique_ptr<IOBuf>) override {
      ASSERT_TRUE(Pcb().Send(IOBuf::CopyBuffer("goodbye")));
      Pcb().Close();  // data still corked: FIN must follow the flush
    }
  };

  std::string received;
  bool peer_closed = false;
  std::string received_at_close;

  class ClosureObserver final : public TcpHandler {
   public:
    ClosureObserver(std::string& received, bool& closed, std::string& at_close)
        : received_(received), closed_(closed), at_close_(at_close) {}
    void Receive(std::unique_ptr<IOBuf> data) override {
      received_ += std::string(data->AsStringView());
    }
    void Close() override {
      closed_ = true;
      at_close_ = received_;  // what had arrived by the time the FIN was honored
      Pcb().Close();
    }

   private:
    std::string& received_;
    bool& closed_;
    std::string& at_close_;
  };

  server.Spawn(0, [&] {
    server.net->tcp().Listen(9303, [](TcpPcb pcb) {
      pcb.InstallHandler(std::unique_ptr<TcpHandler>(std::make_unique<FarewellHandler>()));
      pcb.SetAutoCork(true);
    });
  });
  client.Spawn(0, [&] {
    client.net->tcp().Connect(*client.iface, kServerIp, 9303).Then([&](Future<TcpPcb> f) {
      TcpPcb pcb = f.Get();
      pcb.InstallHandler(std::unique_ptr<TcpHandler>(
          std::make_unique<ClosureObserver>(received, peer_closed, received_at_close)));
      pcb.Send(IOBuf::CopyBuffer("hi"));
    });
  });
  bed.world().Run();
  EXPECT_EQ(received, "goodbye");
  EXPECT_TRUE(peer_closed);
  EXPECT_EQ(received_at_close, "goodbye");  // FIN ordered after the flushed data
  EXPECT_EQ(server.net->stats().corked_drops.load(), 0u);
}

// --- Property: corked and uncorked transmissions deliver identical byte streams -------------

class CorkedStreamEquality : public ::testing::TestWithParam<unsigned> {};

TEST_P(CorkedStreamEquality, SameBytesFewerSegments) {
  // One message schedule per seed; sent once plain, once auto-corked. The receiver
  // must observe the identical stream; the corked run must use fewer data segments.
  std::mt19937 rng(GetParam());
  std::vector<std::string> messages;
  std::size_t total = 0;
  for (int i = 0; i < 40 && total < 24'000; ++i) {
    std::size_t len = 1 + rng() % 1200;
    std::string m(len, '\0');
    for (auto& c : m) {
      c = static_cast<char>('a' + rng() % 26);
    }
    total += len;
    messages.push_back(std::move(m));
  }

  auto run = [&messages](bool corked) {
    Testbed bed;
    TestbedNode server = bed.AddNode("server", 1, kServerIp);
    TestbedNode client = bed.AddNode("client", 1, kClientIp);
    auto received = std::make_shared<std::string>();
    server.Spawn(0, [&] {
      server.net->tcp().Listen(9304, [received](TcpPcb pcb) {
        pcb.InstallHandler(
            std::unique_ptr<TcpHandler>(std::make_unique<SinkHandler>(received.get())));
      });
    });
    client.Spawn(0, [&] {
      client.net->tcp().Connect(*client.iface, kServerIp, 9304).Then([&](Future<TcpPcb> f) {
        TcpPcb pcb = f.Get();
        pcb.InstallHandler(std::unique_ptr<TcpHandler>(std::make_unique<SinkHandler>()));
        pcb.SetAutoCork(corked);
        // Groups of 8 sends, each group in its own event: auto-cork flushes each group once.
        for (std::size_t first = 0; first < messages.size(); first += 8) {
          event::Local().Spawn([&messages, pcb, first]() mutable {
            for (std::size_t i = first; i < messages.size() && i < first + 8; ++i) {
              ASSERT_TRUE(pcb.Send(IOBuf::CopyBuffer(messages[i])));
            }
          });
        }
      });
    });
    bed.world().Run();
    return std::make_pair(*received, client.net->stats().tcp_tx_data_segments.load());
  };

  auto [plain_bytes, plain_segments] = run(false);
  auto [corked_bytes, corked_segments] = run(true);
  ASSERT_EQ(plain_bytes.size(), corked_bytes.size());
  EXPECT_EQ(plain_bytes, corked_bytes);
  EXPECT_EQ(plain_segments, messages.size());  // Nagle-free: one segment per small send
  EXPECT_LT(corked_segments, plain_segments);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CorkedStreamEquality, ::testing::Values(1u, 2u, 3u, 4u));

// --- Acceptance: the segments-per-op story on the real memcached server ---------------------

struct BurstRun {
  std::string bytes;
  std::uint64_t data_segments = 0;
  std::uint64_t sends_coalesced = 0;
  double bytes_per_segment = 0;
};

BurstRun RunMemcachedBurst(std::size_t depth, std::size_t total_requests) {
  Testbed bed;
  TestbedNode server = bed.AddNode("server", 1, kServerIp);
  TestbedNode client = bed.AddNode("client", 1, kClientIp);
  server.Spawn(0, [&] { new memcached::MemcachedServer(*server.net, 11211); });
  loadgen::MemcachedBurstClient::Config config;
  config.depth = depth;
  config.total_requests = total_requests;
  BurstRun run;
  bool done = false;
  loadgen::MemcachedBurstClient::Run(client, kServerIp, 11211, config)
      .Then([&](Future<loadgen::MemcachedBurstClient::Result> f) {
        run.bytes = f.Get().response_bytes;
        done = true;
      });
  bed.world().Run();
  EXPECT_TRUE(done);
  run.data_segments = server.net->stats().tcp_tx_data_segments.load();
  run.sends_coalesced = server.net->stats().sends_coalesced.load();
  run.bytes_per_segment = server.net->stats().bytes_per_segment();
  return run;
}

TEST(TxBatcher, MemcachedDepth32CutsSegmentsPerOpAtLeast4x) {
  constexpr std::size_t kRequests = 256;
  BurstRun depth1 = RunMemcachedBurst(1, kRequests);
  BurstRun depth32 = RunMemcachedBurst(32, kRequests);
  // Same request schedule => byte-identical response stream, regardless of batching.
  ASSERT_FALSE(depth1.bytes.empty());
  EXPECT_EQ(depth1.bytes, depth32.bytes);
  // The aggregation win: >= 4x fewer TX data segments at depth 32.
  EXPECT_GE(depth1.data_segments, 4 * depth32.data_segments)
      << "depth1=" << depth1.data_segments << " depth32=" << depth32.data_segments;
  EXPECT_GT(depth32.sends_coalesced, 0u);
  EXPECT_GT(depth32.bytes_per_segment, depth1.bytes_per_segment);
}

// Every committed sweep shape of BENCH_tx_batching.json / BENCH_alloc_pool.json: memcached
// at 1 and 4 server cores (512 requests) and the uv webserver, at depths 1/8/32, plus fig5's
// depth-8 point at half the schedule. Steady state never falls back to the heap — at
// either request count, so heap allocs cannot grow with the schedule — and every pipelined
// depth coalesces sends and receives into frames carved from the machine arena.
TEST(TxBatcher, CommittedDepthSweepsCoalesceWithZeroHeapAllocs) {
  std::vector<std::pair<const char*, bench::DepthPoint>> points;
  for (std::size_t depth : {1, 8, 32}) {
    points.emplace_back("memcached_1core", bench::RunDepthPoint(1, depth, 512));
    points.emplace_back("memcached_4core", bench::RunDepthPoint(4, depth, 512));
    points.emplace_back("webserver", bench::RunWebDepthPoint(depth));
  }
  points.emplace_back("memcached_1core", bench::RunDepthPoint(1, 8, 256));
  for (const auto& [sweep, p] : points) {
    SCOPED_TRACE(::testing::Message() << sweep << " pipeline " << p.pipeline << ", "
                                      << p.requests << " requests");
    ASSERT_GT(p.requests, 0u);
    EXPECT_EQ(p.heap_allocs, 0u);
    if (p.pipeline >= 8) {
      EXPECT_GT(p.sends_coalesced, 0u);
      EXPECT_GT(p.pool_hit_rate, 0.0);
    }
  }
}

}  // namespace
}  // namespace ebbrt
