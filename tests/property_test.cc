// Property-style parameterized suites: invariants that must hold across swept parameters.
//
//  * TCP delivers byte-exact streams for any (message size, loss rate) combination.
//  * The chain checksum equals the flat checksum for any split of a buffer, and both equal a
//    byte-wise RFC 1071 reference for every length, alignment, split and fill.
//  * Slab caches hand out non-overlapping, correctly-sized objects for every size class.
//  * The buddy allocator conserves pages for arbitrary alloc/free interleavings.
#include <numeric>
#include <random>
#include <set>

#include <gtest/gtest.h>

#include "src/mem/gp_allocator.h"
#include "src/sim/testbed.h"

namespace ebbrt {
namespace {

// --- TCP stream integrity across loss/size ------------------------------------------------

struct TcpSweepParam {
  std::size_t bytes;
  double loss;
  std::uint32_t seed;
};

class TcpStreamIntegrity : public ::testing::TestWithParam<TcpSweepParam> {};

// Receiver side of the sweep: accumulate bytes, close when the peer closes.
class SinkHandler final : public TcpHandler {
 public:
  explicit SinkHandler(std::string& out) : out_(out) {}
  void Receive(std::unique_ptr<IOBuf> data) override {
    out_ += std::string(data->AsStringView());
  }
  void Close() override { Pcb().Close(); }

 private:
  std::string& out_;
};

// Sender side: the application-paced pump (window check + SendReady resume).
class PumpHandler final : public TcpHandler {
 public:
  explicit PumpHandler(const std::string& payload) : payload_(payload) {}
  void Receive(std::unique_ptr<IOBuf>) override {}
  void SendReady() override { Pump(); }
  void Pump() {
    while (offset_ < payload_.size()) {
      std::size_t window = Pcb().SendWindowRemaining();
      if (window == 0) {
        return;
      }
      std::size_t chunk = std::min(window, payload_.size() - offset_);
      Pcb().Send(IOBuf::CopyBuffer(payload_.data() + offset_, chunk));
      offset_ += chunk;
    }
  }

 private:
  const std::string& payload_;
  std::size_t offset_ = 0;
};

TEST_P(TcpStreamIntegrity, ByteExactUnderLossAndSize) {
  const TcpSweepParam param = GetParam();
  sim::Testbed bed;
  if (param.loss > 0) {
    bed.fabric().SetLossRate(param.loss, param.seed);
  }
  sim::TestbedNode server = bed.AddNode("server", 2, Ipv4Addr::Of(10, 0, 0, 2));
  sim::TestbedNode client = bed.AddNode("client", 1, Ipv4Addr::Of(10, 0, 0, 3));
  std::string payload(param.bytes, '\0');
  std::mt19937 rng(param.seed);
  for (auto& c : payload) {
    c = static_cast<char>('a' + rng() % 26);
  }
  std::string received;
  server.Spawn(0, [&] {
    server.net->tcp().Listen(9100, [&received](TcpPcb pcb) {
      pcb.InstallHandler(std::unique_ptr<TcpHandler>(std::make_unique<SinkHandler>(received)));
    });
  });
  client.Spawn(0, [&] {
    client.net->tcp().Connect(*client.iface, Ipv4Addr::Of(10, 0, 0, 2), 9100)
        .Then([&](Future<TcpPcb> f) {
          TcpPcb pcb = f.Get();
          auto pump = std::make_unique<PumpHandler>(payload);
          auto* raw = pump.get();
          pcb.InstallHandler(std::unique_ptr<TcpHandler>(std::move(pump)));
          raw->Pump();
        });
  });
  bed.world().RunUntil(120ull * 1000 * 1000 * 1000);
  ASSERT_EQ(received.size(), payload.size());
  EXPECT_EQ(received, payload);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TcpStreamIntegrity,
    ::testing::Values(TcpSweepParam{100, 0.0, 1}, TcpSweepParam{1460, 0.0, 2},
                      TcpSweepParam{1461, 0.0, 3},  // one byte past a segment boundary
                      TcpSweepParam{30000, 0.0, 4}, TcpSweepParam{200000, 0.0, 5},
                      TcpSweepParam{5000, 0.02, 6}, TcpSweepParam{30000, 0.05, 7},
                      TcpSweepParam{20000, 0.08, 8},  // heavy loss: retransmission-dominated
                      TcpSweepParam{100000, 0.03, 9}),
    [](const ::testing::TestParamInfo<TcpSweepParam>& info) {
      return "bytes" + std::to_string(info.param.bytes) + "_losspct" +
             std::to_string(static_cast<int>(info.param.loss * 100));
    });

// --- Checksum split-invariance ---------------------------------------------------------------

class ChecksumSplit : public ::testing::TestWithParam<int> {};

TEST_P(ChecksumSplit, ChainChecksumMatchesFlat) {
  std::mt19937 rng(GetParam());
  std::size_t len = 1 + rng() % 4096;
  std::string data(len, '\0');
  for (auto& c : data) {
    c = static_cast<char>(rng());
  }
  std::uint16_t flat = InternetChecksum(data.data(), data.size());
  // Split into random chain elements (odd splits exercise the byte-carry logic).
  auto chain = IOBuf::CopyBuffer(data.data(), 0);
  std::size_t off = 0;
  while (off < len) {
    std::size_t piece = 1 + rng() % 97;
    piece = std::min(piece, len - off);
    chain->AppendChain(IOBuf::CopyBuffer(data.data() + off, piece));
    off += piece;
  }
  ChecksumAccumulator acc;
  acc.AddChain(*chain);
  EXPECT_EQ(acc.Finish(), flat);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChecksumSplit, ::testing::Range(1, 17));

// --- Checksum kernel against a byte-wise RFC 1071 oracle -----------------------------------

// RFC 1071 §4.1 one network-order byte pair at a time, folding every step: deliberately naive,
// so it shares nothing with the word-wide kernel it checks. Returns the checksum in network
// byte order as a number (the kernel returns it in host order, ready to store).
std::uint16_t ReferenceChecksum(const std::string& data) {
  std::uint32_t sum = 0;
  for (std::size_t i = 0; i < data.size(); i += 2) {
    std::uint32_t hi = static_cast<std::uint8_t>(data[i]);
    std::uint32_t lo = i + 1 < data.size() ? static_cast<std::uint8_t>(data[i + 1]) : 0;
    sum += (hi << 8) | lo;
    sum = (sum & 0xffff) + (sum >> 16);
  }
  return static_cast<std::uint16_t>(~sum & 0xffff);
}

std::uint16_t ChainChecksum(const std::string& data, const std::vector<std::size_t>& pieces) {
  auto chain = IOBuf::CopyBuffer(data.data(), 0);
  std::size_t off = 0;
  for (std::size_t piece : pieces) {
    chain->AppendChain(IOBuf::CopyBuffer(data.data() + off, piece));
    off += piece;
  }
  EXPECT_EQ(off, data.size());
  ChecksumAccumulator acc;
  acc.AddChain(*chain);
  return acc.Finish();
}

std::string RandomBytes(std::size_t len, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::string data(len, '\0');
  for (auto& c : data) {
    c = static_cast<char>(rng());
  }
  return data;
}

TEST(ChecksumKernel, FlatMatchesReferenceForEveryLengthAndAlignment) {
  std::string data = RandomBytes(300, 41);
  for (std::size_t start = 0; start < 8; ++start) {
    for (std::size_t len = 0; len + start <= data.size(); ++len) {
      std::string piece = data.substr(start, len);
      ASSERT_EQ(InternetChecksum(data.data() + start, len), HostToNet16(ReferenceChecksum(piece)))
          << "start " << start << " len " << len;
    }
  }
}

TEST(ChecksumKernel, ChainSplitAtEveryOffsetMatchesReference) {
  // Pieces from 1 byte to past two MSS, split at every odd and even offset; the second shape
  // puts a 1-byte element first, so the middle piece starts at an odd stream offset.
  std::string data = RandomBytes(2 * kTcpMss + 3, 42);
  std::uint16_t want = HostToNet16(ReferenceChecksum(data));
  for (std::size_t k = 1; k < data.size(); ++k) {
    ASSERT_EQ(ChainChecksum(data, {k, data.size() - k}), want) << "split at " << k;
    if (k + 1 < data.size()) {
      ASSERT_EQ(ChainChecksum(data, {1, k, data.size() - 1 - k}), want) << "split 1+" << k;
    }
  }
}

TEST(ChecksumKernel, EqualPiecesFromOneByteToPastTheMss) {
  std::string data = RandomBytes(3 * kTcpMss + 7, 43);
  std::uint16_t want = HostToNet16(ReferenceChecksum(data));
  for (std::size_t piece : {1, 2, 3, 4, 5, 7, 8, 9, 63, 64, 65, 1459, 1460, 1461, 1500}) {
    std::vector<std::size_t> pieces;
    for (std::size_t off = 0; off < data.size(); off += piece) {
      pieces.push_back(std::min(piece, data.size() - off));
    }
    EXPECT_EQ(ChainChecksum(data, pieces), want) << "piece " << piece;
  }
}

TEST(ChecksumKernel, AllZeroAndAllOnesBuffers) {
  for (std::size_t len : {1, 2, 3, 4, 7, 8, 1460, 1461, 65536, 65537}) {
    std::string zeros(len, '\0');
    std::string ones(len, '\xff');
    EXPECT_EQ(InternetChecksum(zeros.data(), len), 0xffff) << len;
    EXPECT_EQ(InternetChecksum(zeros.data(), len), HostToNet16(ReferenceChecksum(zeros)));
    EXPECT_EQ(InternetChecksum(ones.data(), len), HostToNet16(ReferenceChecksum(ones))) << len;
    if (len % 2 == 0) {
      EXPECT_EQ(InternetChecksum(ones.data(), len), 0) << len;  // sum is one's-complement -0
    }
  }
}

TEST(ChecksumKernel, BufferOver64KiBMatchesReference) {
  // Past 64 KiB the 16-bit sum carries many times over; the deferred fold must keep them all.
  for (std::size_t len : {std::size_t{70001}, std::size_t{1} << 20}) {
    std::string data = RandomBytes(len, 44);
    EXPECT_EQ(InternetChecksum(data.data(), len), HostToNet16(ReferenceChecksum(data))) << len;
    std::string ones(len, '\xff');
    EXPECT_EQ(InternetChecksum(ones.data(), len), HostToNet16(ReferenceChecksum(ones))) << len;
    EXPECT_EQ(ChainChecksum(data, {len / 3, len - len / 3}),
              HostToNet16(ReferenceChecksum(data)));
  }
}

// --- Slab size-class invariants ----------------------------------------------------------------

class SlabSizeClasses : public ::testing::TestWithParam<std::size_t> {
 protected:
  SlabSizeClasses() : runtime_(RuntimeKind::kNative, "prop-slab") {
    runtime_.AddCores(1);
    mem::Config config;
    config.arena_bytes = 64ull << 20;
    mem::Install(runtime_, 1, config);
  }
  Runtime runtime_;
};

TEST_P(SlabSizeClasses, ObjectsDisjointAndWritable) {
  ScopedContext ctx(runtime_, runtime_.global_core(0), 0, false);
  std::size_t size = GetParam();
  constexpr int kCount = 300;
  std::vector<void*> objs;
  for (int i = 0; i < kCount; ++i) {
    void* p = mem::Alloc(size);
    ASSERT_NE(p, nullptr);
    std::memset(p, i & 0xff, size);
    objs.push_back(p);
  }
  // Disjointness: each object still carries its own fill byte at both ends.
  for (int i = 0; i < kCount; ++i) {
    auto* bytes = static_cast<std::uint8_t*>(objs[i]);
    EXPECT_EQ(bytes[0], i & 0xff);
    EXPECT_EQ(bytes[size - 1], i & 0xff);
  }
  for (void* p : objs) {
    mem::Free(p);
  }
}

INSTANTIATE_TEST_SUITE_P(Classes, SlabSizeClasses,
                         ::testing::Values(1, 8, 9, 17, 48, 63, 100, 256, 300, 1000, 2048,
                                           4000, 4096));

// --- Buddy conservation under random interleavings ---------------------------------------------

class BuddyConservation : public ::testing::TestWithParam<unsigned> {};

TEST_P(BuddyConservation, FreePagesRestoredAfterChurn) {
  PhysArena arena(32ull << 20, 1);
  PageAllocator buddy(arena, 0);
  std::size_t before = buddy.free_pages();
  std::mt19937 rng(GetParam());
  std::vector<void*> live;
  for (int step = 0; step < 3000; ++step) {
    if (live.empty() || rng() % 3 != 0) {
      void* p = buddy.AllocPages(rng() % 6);
      if (p != nullptr) {
        live.push_back(p);
      }
    } else {
      std::size_t idx = rng() % live.size();
      buddy.FreePages(live[idx]);
      live[idx] = live.back();
      live.pop_back();
    }
  }
  for (void* p : live) {
    buddy.FreePages(p);
  }
  EXPECT_EQ(buddy.free_pages(), before);
  // Full coalescing: a max-order block must be allocatable again.
  void* big = buddy.AllocPages(kMaxOrder);
  EXPECT_NE(big, nullptr);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BuddyConservation, ::testing::Values(11u, 22u, 33u, 44u));

}  // namespace
}  // namespace ebbrt
