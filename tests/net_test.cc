// Network stack integration tests on the simulated testbed: ARP, UDP, DHCP, TCP handshake /
// data transfer / windowing / close, loss recovery, core affinity, adaptive polling.
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/sim/testbed.h"

namespace ebbrt {
namespace {

using sim::Testbed;
using sim::TestbedNode;

constexpr Ipv4Addr kServerIp = Ipv4Addr::Of(10, 0, 0, 2);
constexpr Ipv4Addr kClientIp = Ipv4Addr::Of(10, 0, 0, 3);

// Shared TcpHandler shapes for the TCP suites (everything subclasses TcpHandler — the
// legacy callback shim is gone).

// Echoes every received chain back; closes when the peer closes.
class EchoHandler final : public TcpHandler {
 public:
  void Receive(std::unique_ptr<IOBuf> data) override { Pcb().Send(std::move(data)); }
  void Close() override { Pcb().Close(); }
};

// Accumulates received bytes into an external string; closes when the peer closes.
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

// Application-paced sender (the paper's pump loop): sends as much of `payload` as the window
// allows, resumes from SendReady, optionally closes when done.
class PumpHandler final : public TcpHandler {
 public:
  PumpHandler(const std::string& payload, bool close_when_done, std::size_t max_chunk = 0)
      : payload_(payload), close_when_done_(close_when_done), max_chunk_(max_chunk) {}
  void Receive(std::unique_ptr<IOBuf>) override {}
  void SendReady() override { Pump(); }
  void Pump() {
    while (offset_ < payload_.size()) {
      std::size_t window = Pcb().SendWindowRemaining();
      if (window == 0) {
        return;  // SendReady re-enters
      }
      std::size_t chunk = std::min(window, payload_.size() - offset_);
      if (max_chunk_ != 0) {
        chunk = std::min(chunk, max_chunk_);
      }
      ASSERT_TRUE(Pcb().Send(IOBuf::CopyBuffer(payload_.data() + offset_, chunk)));
      offset_ += chunk;
    }
    if (close_when_done_) {
      Pcb().Close();
    }
  }

 private:
  const std::string& payload_;
  std::size_t offset_ = 0;
  bool close_when_done_;
  std::size_t max_chunk_;
};

TEST(Net, ArpResolvesAcrossMachines) {
  Testbed bed;
  TestbedNode server = bed.AddNode("server", 1, kServerIp);
  TestbedNode client = bed.AddNode("client", 1, kClientIp);
  MacAddr resolved{};
  bool done = false;
  client.Spawn(0, [&] {
    client.iface->ArpFind(kServerIp).Then([&](Future<MacAddr> f) {
      resolved = f.Get();
      done = true;
    });
  });
  bed.world().Run();
  ASSERT_TRUE(done);
  EXPECT_EQ(resolved, server.nic->mac());
}

TEST(Net, ArpCacheHitIsSynchronous) {
  Testbed bed;
  bed.AddNode("server", 1, kServerIp);  // answers the client's ARP requests
  TestbedNode client = bed.AddNode("client", 1, kClientIp);
  bool second_was_sync = false;
  client.Spawn(0, [&] {
    client.iface->ArpFind(kServerIp).Then([&](Future<MacAddr>) {
      // Figure 2's cached case: the continuation fires before ArpFind returns.
      bool flag = false;
      client.iface->ArpFind(kServerIp).Then([&flag](Future<MacAddr>) { flag = true; });
      second_was_sync = flag;
    });
  });
  bed.world().Run();
  EXPECT_TRUE(second_was_sync);
}

TEST(Net, UdpRoundTrip) {
  Testbed bed;
  TestbedNode server = bed.AddNode("server", 1, kServerIp);
  TestbedNode client = bed.AddNode("client", 1, kClientIp);
  std::string received_at_server;
  std::string received_at_client;
  server.Spawn(0, [&] {
    server.net->BindUdp(7000, [&](Ipv4Addr src, std::uint16_t sport,
                                  std::unique_ptr<IOBuf> data) {
      received_at_server = std::string(data->AsStringView());
      server.net->SendUdp(src, 7000, sport, IOBuf::CopyBuffer("pong!"));
    });
  });
  client.Spawn(0, [&] {
    client.net->BindUdp(7001, [&](Ipv4Addr, std::uint16_t, std::unique_ptr<IOBuf> data) {
      received_at_client = std::string(data->AsStringView());
    });
    client.net->SendUdp(kServerIp, 7001, 7000, IOBuf::CopyBuffer("ping?"));
  });
  bed.world().Run();
  EXPECT_EQ(received_at_server, "ping?");
  EXPECT_EQ(received_at_client, "pong!");
}

TEST(Net, UdpUnboundPortDropsAndCounts) {
  Testbed bed;
  TestbedNode server = bed.AddNode("server", 1, kServerIp);
  TestbedNode client = bed.AddNode("client", 1, kClientIp);
  client.Spawn(0, [&] {
    client.net->SendUdp(kServerIp, 9999, 4242, IOBuf::CopyBuffer("nobody home"));
  });
  bed.world().Run();
  EXPECT_EQ(server.net->stats().udp_dropped.load(), 1u);
}

TEST(Net, DhcpAcquiresLease) {
  Testbed bed;
  TestbedNode server = bed.AddNode("dhcp-server", 1, Ipv4Addr::Of(10, 0, 0, 1));
  TestbedNode client = bed.AddNode("booting", 1, Ipv4Addr::Any());
  DhcpServer dhcpd(*server.net, Ipv4Addr::Of(10, 0, 0, 100), 16,
                   Ipv4Addr::Of(255, 255, 255, 0), Ipv4Addr::Of(10, 0, 0, 1));
  Interface::IpConfig got;
  bool done = false;
  client.Spawn(0, [&] {
    dhcp::Acquire(*client.net, *client.iface).Then([&](Future<Interface::IpConfig> f) {
      got = f.Get();
      done = true;
    });
  });
  bed.world().Run();
  ASSERT_TRUE(done);
  EXPECT_EQ(got.addr, Ipv4Addr::Of(10, 0, 0, 100));
  EXPECT_EQ(got.gateway, Ipv4Addr::Of(10, 0, 0, 1));
  EXPECT_EQ(client.iface->addr(), got.addr);
  EXPECT_EQ(dhcpd.leases(), 1u);
}

TEST(Net, TcpConnectAndEcho) {
  Testbed bed;
  TestbedNode server = bed.AddNode("server", 1, kServerIp);
  TestbedNode client = bed.AddNode("client", 1, kClientIp);
  std::string echoed;
  bool closed = false;

  class EchoClient final : public TcpHandler {
   public:
    EchoClient(std::string& echoed, bool& closed) : echoed_(echoed), closed_(closed) {}
    void Receive(std::unique_ptr<IOBuf> data) override {
      echoed_ += std::string(data->AsStringView());
      if (echoed_.size() >= 11) {
        Pcb().Close();
      }
    }
    void Close() override { closed_ = true; }

   private:
    std::string& echoed_;
    bool& closed_;
  };

  server.Spawn(0, [&] {
    server.net->tcp().Listen(8000, [](TcpPcb pcb) {
      pcb.InstallHandler(std::unique_ptr<TcpHandler>(std::make_unique<EchoHandler>()));
    });
  });
  client.Spawn(0, [&] {
    client.net->tcp().Connect(*client.iface, kServerIp, 8000).Then([&](Future<TcpPcb> f) {
      TcpPcb pcb = f.Get();
      pcb.InstallHandler(
          std::unique_ptr<TcpHandler>(std::make_unique<EchoClient>(echoed, closed)));
      pcb.Send(IOBuf::CopyBuffer("hello "));
      pcb.Send(IOBuf::CopyBuffer("world"));
    });
  });
  bed.world().Run();
  EXPECT_EQ(echoed, "hello world");
}

TEST(Net, TcpLargeTransferSegmentsAndReassembles) {
  Testbed bed;
  TestbedNode server = bed.AddNode("server", 1, kServerIp);
  TestbedNode client = bed.AddNode("client", 1, kClientIp);
  constexpr std::size_t kTotal = 50'000;  // crosses MSS and window boundaries
  std::string payload(kTotal, 'x');
  for (std::size_t i = 0; i < kTotal; ++i) {
    payload[i] = static_cast<char>('a' + i % 26);
  }
  std::string received;
  server.Spawn(0, [&] {
    server.net->tcp().Listen(8001, [&received](TcpPcb pcb) {
      pcb.InstallHandler(std::unique_ptr<TcpHandler>(std::make_unique<SinkHandler>(&received)));
    });
  });
  client.Spawn(0, [&] {
    client.net->tcp().Connect(*client.iface, kServerIp, 8001).Then([&](Future<TcpPcb> f) {
      TcpPcb pcb = f.Get();
      // The application-owned pacing loop the paper prescribes: send as much as the window
      // allows, continue when ACKs open it again.
      auto pump = std::make_unique<PumpHandler>(payload, /*close_when_done=*/true);
      auto* raw = pump.get();
      pcb.InstallHandler(std::unique_ptr<TcpHandler>(std::move(pump)));
      raw->Pump();
    });
  });
  bed.world().Run();
  EXPECT_EQ(received.size(), kTotal);
  EXPECT_EQ(received, payload);
}

TEST(Net, TcpChecksumDropsSegmentWithOneCorruptPayloadByte) {
  // Every RX segment is fully verified: flipping any one payload byte, at an odd or an even
  // offset, drops the segment and ticks checksum_drops; the intact segment passes.
  Testbed bed;
  TestbedNode server = bed.AddNode("server", 1, kServerIp);
  TestbedNode client = bed.AddNode("client", 1, kClientIp);
  std::string payload(101, '\0');
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>(i * 37 + 11);
  }
  constexpr std::size_t kL4Offset = sizeof(EthernetHeader) + sizeof(Ipv4Header);
  constexpr std::size_t kPayloadOffset = kL4Offset + sizeof(TcpHeader);
  // An Ethernet + IPv4 + TCP frame from the client, checksummed as the stack's TX does.
  auto make_frame = [&] {
    auto frame = IOBuf::CopyBuffer(std::string(kPayloadOffset, '\0') + payload);
    frame->Advance(sizeof(EthernetHeader));
    net_internal::FillIpv4(*frame, kClientIp, kServerIp, kIpProtoTcp, sizeof(TcpHeader),
                           payload.size());
    auto& tcp = frame->Get<TcpHeader>(sizeof(Ipv4Header));
    tcp.src_port = HostToNet16(40000);
    tcp.dst_port = HostToNet16(8009);
    tcp.seq = HostToNet32(1);
    tcp.SetHeaderWords(5);
    tcp.flags = kTcpAck | kTcpPsh;
    tcp.window = HostToNet16(1000);
    auto l4_len = static_cast<std::uint16_t>(sizeof(TcpHeader) + payload.size());
    ChecksumAccumulator acc;
    net_internal::AddPseudoHeader(acc, kClientIp, kServerIp, kIpProtoTcp, l4_len);
    acc.Add(frame->Data() + sizeof(Ipv4Header), l4_len);
    tcp.checksum = acc.Finish();
    frame->Retreat(sizeof(EthernetHeader));
    auto& eth = frame->Get<EthernetHeader>();
    eth.dst = server.iface->mac();
    eth.src = client.iface->mac();
    eth.type = HostToNet16(kEthTypeIpv4);
    return frame;
  };
  auto& stats = server.net->stats();
  server.Spawn(0, [&] { server.iface->Receive(make_frame()); });
  bed.world().Run();
  EXPECT_EQ(stats.tcp_rx.load(), 1u);
  EXPECT_EQ(stats.checksum_drops.load(), 0u);

  const std::vector<std::size_t> offsets = {0, 1, 2, 3, 50, 99, 100};
  for (std::size_t offset : offsets) {
    server.Spawn(0, [&, offset] {
      auto frame = make_frame();
      frame->WritableData()[kPayloadOffset + offset] ^= 0x5a;
      server.iface->Receive(std::move(frame));
    });
  }
  bed.world().Run();
  EXPECT_EQ(stats.tcp_rx.load(), 1u + offsets.size());
  EXPECT_EQ(stats.checksum_drops.load(), offsets.size());
}

TEST(Net, DeviceVouchedSegmentSkipsSoftwareChecksum) {
  // The checksum-offload contract. A frame sent through the NIC with kNeedsCsum carries only
  // the pseudo-header sum, as TransmitSegment writes it; the receiving NIC marks it
  // kDataValid and TCP skips its software sum. The same bytes injected without the mark fail
  // that sum, and a frame that crossed the NIC unmarked is still verified in software.
  Testbed bed;
  TestbedNode server = bed.AddNode("server", 1, kServerIp);
  TestbedNode client = bed.AddNode("client", 1, kClientIp);
  const std::string payload(64, 'p');
  constexpr std::size_t kPayloadOffset =
      sizeof(EthernetHeader) + sizeof(Ipv4Header) + sizeof(TcpHeader);
  // full_sum: the complete software checksum; otherwise the pseudo-header sum only.
  auto make_frame = [&](bool full_sum) {
    auto frame = IOBuf::CopyBuffer(std::string(kPayloadOffset, '\0') + payload);
    frame->Advance(sizeof(EthernetHeader));
    net_internal::FillIpv4(*frame, kClientIp, kServerIp, kIpProtoTcp, sizeof(TcpHeader),
                           payload.size());
    auto& tcp = frame->Get<TcpHeader>(sizeof(Ipv4Header));
    tcp.src_port = HostToNet16(40001);
    tcp.dst_port = HostToNet16(8011);
    tcp.seq = HostToNet32(1);
    tcp.SetHeaderWords(5);
    tcp.flags = kTcpAck | kTcpPsh;
    tcp.window = HostToNet16(1000);
    auto l4_len = static_cast<std::uint16_t>(sizeof(TcpHeader) + payload.size());
    if (full_sum) {
      ChecksumAccumulator acc;
      net_internal::AddPseudoHeader(acc, kClientIp, kServerIp, kIpProtoTcp, l4_len);
      acc.Add(frame->Data() + sizeof(Ipv4Header), l4_len);
      tcp.checksum = acc.Finish();
    } else {
      tcp.checksum = net_internal::PseudoHeaderSum(kClientIp, kServerIp, kIpProtoTcp, l4_len);
    }
    frame->Retreat(sizeof(EthernetHeader));
    auto& eth = frame->Get<EthernetHeader>();
    eth.dst = server.iface->mac();
    eth.src = client.iface->mac();
    eth.type = HostToNet16(kEthTypeIpv4);
    return frame;
  };
  auto& stats = server.net->stats();

  // The seed is the one a completing device starts from: summing the L4 bytes over it gives
  // the full software checksum.
  {
    auto partial = make_frame(false);
    ChecksumAccumulator device;
    device.Add(partial->Data() + sizeof(EthernetHeader) + sizeof(Ipv4Header),
               sizeof(TcpHeader) + payload.size());
    auto full = make_frame(true);
    EXPECT_EQ(device.Finish(), full->Get<TcpHeader>(sizeof(EthernetHeader) + sizeof(Ipv4Header))
                                   .checksum);
  }

  // Offloaded: the device vouches, so the partial sum is never checked in software.
  client.Spawn(0, [&] {
    client.nic->Transmit(make_frame(false), PacketInfo{PacketInfo::kNeedsCsum});
  });
  bed.world().Run();
  EXPECT_EQ(stats.tcp_rx.load(), 1u);
  EXPECT_EQ(stats.checksum_drops.load(), 0u);

  // The same bytes with no device mark: the software sum sees a partial checksum.
  server.Spawn(0, [&] { server.iface->Receive(make_frame(false)); });
  bed.world().Run();
  EXPECT_EQ(stats.tcp_rx.load(), 2u);
  EXPECT_EQ(stats.checksum_drops.load(), 1u);

  // A corrupt frame sent without kNeedsCsum arrives unmarked and fails the software sum.
  client.Spawn(0, [&] {
    auto frame = make_frame(true);
    frame->WritableData()[kPayloadOffset + 7] ^= 0x5a;
    client.nic->Transmit(std::move(frame));
  });
  bed.world().Run();
  EXPECT_EQ(stats.tcp_rx.load(), 3u);
  EXPECT_EQ(stats.checksum_drops.load(), 2u);

  // Both ARP caches are still cold, so the SYN parks on ArpFind. It keeps its kNeedsCsum
  // through the ARP-miss continuation: the server accepts it without a software drop.
  bool accepted = false;
  server.Spawn(0, [&] {
    server.net->tcp().Listen(8012, [&accepted](TcpPcb pcb) {
      accepted = true;
      pcb.InstallHandler(std::unique_ptr<TcpHandler>(std::make_unique<EchoHandler>()));
    });
  });
  client.Spawn(0, [&] {
    client.net->tcp().Connect(*client.iface, kServerIp, 8012).Then([](Future<TcpPcb> f) {
      f.Get().Close();
    });
  });
  bed.world().Run();
  EXPECT_TRUE(accepted);
  EXPECT_EQ(stats.checksum_drops.load(), 2u);
  EXPECT_EQ(client.net->stats().checksum_drops.load(), 0u);
}

TEST(Net, TcpEstablishedRoundTripsDoNotTouchTheGenericHeap) {
  // The per-segment claim: with the connection established and the ARP cache warm, a data
  // segment's whole life (TCP segmenting and checksum, IPv4 + Ethernet framing, the cache-hit
  // transmit, the fabric, RX verification and delivery, the RTX timer re-arm on each ACK)
  // performs zero generic-heap allocations. The counter sees every ::operator new in the
  // process, simulator included.
  Testbed bed;
  TestbedNode server = bed.AddNode("server", 1, kServerIp);
  TestbedNode client = bed.AddNode("client", 1, kClientIp);
  // Warm-up runs past one retransmission timeout (5 ms; a round trip takes about 5 us of
  // virtual time), so every timer, ring and pool on the path has been exercised at its
  // working depth before the count starts.
  constexpr int kWarmup = 1024;
  constexpr int kMeasured = 256;
  const std::string message(100, 'm');

  class PingClient final : public TcpHandler {
   public:
    PingClient(const std::string& message, std::uint64_t& allocs, int& done)
        : message_(message), allocs_(allocs), done_(done) {}
    void Ping() { Pcb().Send(IOBuf::CopyBuffer(message_)); }
    void Receive(std::unique_ptr<IOBuf> data) override {
      pending_ += data->ComputeChainDataLength();
      if (pending_ < message_.size()) {
        return;
      }
      pending_ -= message_.size();
      ++done_;
      auto& counter = mem::stats().generic_heap_allocs;
      if (done_ == kWarmup) {
        before_ = counter.load();
      } else if (done_ == kWarmup + kMeasured) {
        allocs_ = counter.load() - before_;
        Pcb().Close();
        return;
      }
      Ping();
    }
    void Close() override {}

   private:
    const std::string& message_;
    std::uint64_t& allocs_;
    int& done_;
    std::size_t pending_ = 0;
    std::uint64_t before_ = 0;
  };

  std::uint64_t allocs = ~0ull;
  int done = 0;
  server.Spawn(0, [&] {
    server.net->tcp().Listen(8010, [](TcpPcb pcb) {
      pcb.InstallHandler(std::unique_ptr<TcpHandler>(std::make_unique<EchoHandler>()));
    });
  });
  client.Spawn(0, [&] {
    client.net->tcp().Connect(*client.iface, kServerIp, 8010).Then([&](Future<TcpPcb> f) {
      TcpPcb pcb = f.Get();
      auto ping = std::make_unique<PingClient>(message, allocs, done);
      auto* raw = ping.get();
      pcb.InstallHandler(std::unique_ptr<TcpHandler>(std::move(ping)));
      raw->Ping();
    });
  });
  bed.world().Run();
  ASSERT_EQ(done, kWarmup + kMeasured);
  EXPECT_EQ(allocs, 0u);
}

TEST(Net, TcpSendBeyondWindowRefused) {
  Testbed bed;
  TestbedNode server = bed.AddNode("server", 1, kServerIp);
  TestbedNode client = bed.AddNode("client", 1, kClientIp);
  bool refused = false;
  server.Spawn(0, [&] {
    server.net->tcp().Listen(8002, [](TcpPcb pcb) {
      pcb.InstallHandler(std::unique_ptr<TcpHandler>(std::make_unique<SinkHandler>()));
    });
  });
  client.Spawn(0, [&] {
    client.net->tcp().Connect(*client.iface, kServerIp, 8002).Then([&](Future<TcpPcb> f) {
      TcpPcb pcb = f.Get();
      pcb.InstallHandler(std::unique_ptr<TcpHandler>(std::make_unique<SinkHandler>()));
      // 100 KiB exceeds the peer's 64 KiB advertised window: the stack must refuse rather
      // than buffer (the paper's no-stack-buffering contract).
      auto big = IOBuf::Create(100'000);
      refused = !pcb.Send(std::move(big));
    });
  });
  bed.world().Run();
  EXPECT_TRUE(refused);
}

TEST(Net, TcpApplicationControlsReceiveWindow) {
  Testbed bed;
  TestbedNode server = bed.AddNode("server", 1, kServerIp);
  TestbedNode client = bed.AddNode("client", 1, kClientIp);
  std::size_t window_seen = 0;
  server.Spawn(0, [&] {
    server.net->tcp().Listen(8003, [](TcpPcb pcb) {
      pcb.SetReceiveWindow(1024);  // the application throttles the peer
      pcb.InstallHandler(std::unique_ptr<TcpHandler>(std::make_unique<SinkHandler>()));
    });
  });
  client.Spawn(0, [&] {
    client.net->tcp().Connect(*client.iface, kServerIp, 8003).Then([&](Future<TcpPcb> f) {
      auto pcb = std::make_shared<TcpPcb>(f.Get());
      pcb->InstallHandler(std::unique_ptr<TcpHandler>(std::make_unique<SinkHandler>()));
      // Give the window update a round trip, then observe the clamped send window.
      Timer::Instance()->Start(2'000'000, [pcb, &window_seen] {
        window_seen = pcb->SendWindowRemaining();
      });
      pcb->Send(IOBuf::CopyBuffer("x"));
    });
  });
  bed.world().Run();
  EXPECT_LE(window_seen, 1024u);
  EXPECT_GT(window_seen, 0u);
}

TEST(Net, TcpRecoversFromPacketLoss) {
  Testbed bed;
  bed.fabric().SetLossRate(0.05, /*seed=*/7);  // 5% deterministic loss
  TestbedNode server = bed.AddNode("server", 1, kServerIp);
  TestbedNode client = bed.AddNode("client", 1, kClientIp);
  constexpr std::size_t kTotal = 20'000;
  std::string payload(kTotal, '?');
  for (std::size_t i = 0; i < kTotal; ++i) {
    payload[i] = static_cast<char>('0' + i % 10);
  }
  std::string received;
  server.Spawn(0, [&] {
    server.net->tcp().Listen(8004, [&received](TcpPcb pcb) {
      pcb.InstallHandler(std::unique_ptr<TcpHandler>(std::make_unique<SinkHandler>(&received)));
    });
  });
  client.Spawn(0, [&] {
    client.net->tcp().Connect(*client.iface, kServerIp, 8004).Then([&](Future<TcpPcb> f) {
      TcpPcb pcb = f.Get();
      auto pump = std::make_unique<PumpHandler>(payload, /*close_when_done=*/false,
                                                /*max_chunk=*/kTcpMss);
      auto* raw = pump.get();
      pcb.InstallHandler(std::unique_ptr<TcpHandler>(std::move(pump)));
      raw->Pump();
    });
  });
  // Loss recovery needs retransmission timeouts: run with a generous virtual horizon.
  bed.world().RunUntil(30ull * 1000 * 1000 * 1000);
  EXPECT_EQ(received, payload) << "loss recovery failed: got " << received.size() << "/"
                               << kTotal;
  EXPECT_GT(bed.fabric().frames_dropped(), 0u);  // the test actually exercised loss
}

// The fabric learns only testbed MACs (MacAddr::FromIndex below 2^16); any other source
// address is a wiring bug, not a frame to forward.
TEST(Net, SwitchRejectsNonTestbedSourceMac) {
  SimWorld world;
  sim::Switch fabric(world);
  fabric.Attach(nullptr);
  EthernetHeader eth{};
  eth.dst = MacAddr::Broadcast();
  eth.src.bytes = {0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc};
  auto frame = IOBuf::CopyBuffer(&eth, sizeof(eth));
  EXPECT_DEATH(fabric.Transmit(0, *frame), "not a testbed MAC");
}

TEST(Net, TcpConnectionStateLivesOnRssCore) {
  Testbed bed;
  TestbedNode server = bed.AddNode("server", 4, kServerIp);
  TestbedNode client = bed.AddNode("client", 1, kClientIp);
  std::vector<std::size_t> accept_cores;
  std::vector<std::size_t> rx_cores;

  class CoreRecordingEcho final : public TcpHandler {
   public:
    explicit CoreRecordingEcho(std::vector<std::size_t>& rx_cores) : rx_cores_(rx_cores) {}
    void Receive(std::unique_ptr<IOBuf> data) override {
      rx_cores_.push_back(CurrentContext().machine_core);
      Pcb().Send(std::move(data));
    }

   private:
    std::vector<std::size_t>& rx_cores_;
  };

  class CountingClient final : public TcpHandler {
   public:
    explicit CountingClient(int& done) : done_(done) {}
    void Receive(std::unique_ptr<IOBuf>) override { ++done_; }

   private:
    int& done_;
  };

  server.Spawn(0, [&] {
    server.net->tcp().Listen(8005, [&](TcpPcb pcb) {
      accept_cores.push_back(CurrentContext().machine_core);
      pcb.InstallHandler(
          std::unique_ptr<TcpHandler>(std::make_unique<CoreRecordingEcho>(rx_cores)));
    });
  });
  constexpr int kConns = 8;
  int done = 0;
  client.Spawn(0, [&] {
    for (int i = 0; i < kConns; ++i) {
      client.net->tcp().Connect(*client.iface, kServerIp, 8005).Then([&](Future<TcpPcb> f) {
        TcpPcb pcb = f.Get();
        pcb.InstallHandler(std::unique_ptr<TcpHandler>(std::make_unique<CountingClient>(done)));
        pcb.Send(IOBuf::CopyBuffer("affinity"));
      });
    }
  });
  bed.world().Run();
  EXPECT_EQ(done, kConns);
  ASSERT_EQ(accept_cores.size(), rx_cores.size());
  // Every receive ran on the same core that accepted its connection (RSS affinity), and the
  // 8 connections actually spread over multiple server cores.
  for (std::size_t i = 0; i < accept_cores.size(); ++i) {
    EXPECT_EQ(accept_cores[i], rx_cores[i]);
  }
  std::set<std::size_t> distinct(accept_cores.begin(), accept_cores.end());
  EXPECT_GT(distinct.size(), 1u);
}

TEST(Net, AdaptivePollingEngagesUnderLoad) {
  Testbed bed;
  TestbedNode server = bed.AddNode("server", 1, kServerIp);
  // Unvirtualized client (like the paper's load generator): no per-packet virtio kick, so it
  // can blast at wire rate and actually overwhelm the server's interrupt path.
  TestbedNode client = bed.AddNode("client", 1, kClientIp, sim::HypervisorModel::Native());
  std::uint64_t received = 0;
  server.Spawn(0, [&] {
    server.net->BindUdp(6000, [&received](Ipv4Addr, std::uint16_t, std::unique_ptr<IOBuf>) {
      ++received;
    });
  });
  // Blast datagrams so a burst lands behind one interrupt, engaging the polling mode.
  constexpr int kBurst = 400;
  client.Spawn(0, [&] {
    for (int i = 0; i < kBurst; ++i) {
      client.net->SendUdp(kServerIp, 6000, 6000, IOBuf::CopyBuffer("burst"));
    }
  });
  bed.world().Run();
  EXPECT_EQ(received, static_cast<std::uint64_t>(kBurst));
  EXPECT_GT(server.nic->frames_polled(), 0u) << "polling mode never engaged";
  // Far fewer interrupts than frames: the driver batched via polling.
  EXPECT_LT(server.nic->interrupts_raised(), static_cast<std::uint64_t>(kBurst) / 4);
}

}  // namespace
}  // namespace ebbrt
