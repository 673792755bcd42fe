// Property-style parameterized suites: invariants that must hold across swept parameters.
//
//  * TCP delivers byte-exact streams for any (message size, loss rate) combination.
//  * The chain checksum equals the flat checksum for any split of a buffer, and both equal a
//    byte-wise RFC 1071 reference for every length, alignment, split and fill.
//  * Slab caches hand out non-overlapping, correctly-sized objects for every size class.
//  * The buddy allocator conserves pages for arbitrary alloc/free interleavings.
//  * The key-vector body parser reads the same keys from one segment and from a chain split
//    anywhere, and rejects every malformed body on both paths.
//  * The RCU table's batch lookup answers every key exactly as Find does, in request order,
//    for hits, misses and duplicates, at batch sizes on both sides of its internal chunk.
#include <numeric>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/apps/memcached/protocol.h"
#include "src/apps/memcached/shard.h"
#include "src/dist/rpc.h"
#include "src/mem/gp_allocator.h"
#include "src/rcu/rcu_hash_table.h"
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

// --- Key-vector body parser: one segment vs. every split -------------------------------------

std::string KeyVectorBytes(const std::vector<std::string>& keys) {
  std::size_t bytes = 0;
  for (const std::string& key : keys) {
    bytes += key.size();
  }
  dist::KeyVectorBuilder builder(keys.size(), bytes);
  for (const std::string& key : keys) {
    builder.Add(key);
  }
  return dist::ChainToString(builder.Finish().get());
}

// `bytes` as a chain cut at each offset in `cuts` (ascending; empty pieces allowed).
std::unique_ptr<IOBuf> ChainOf(const std::string& bytes, const std::vector<std::size_t>& cuts) {
  std::unique_ptr<IOBuf> head;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= cuts.size(); ++i) {
    std::size_t end = i < cuts.size() ? cuts[i] : bytes.size();
    auto piece = IOBuf::CopyBuffer(bytes.data() + start, end - start);
    if (head == nullptr) {
      head = std::move(piece);
    } else {
      head->AppendChain(std::move(piece));
    }
    start = end;
  }
  return head;
}

// Parses `chain`, returning the keys as owned strings (or nullopt when rejected).
std::optional<std::vector<std::string>> ParseKeys(const IOBuf* chain) {
  std::vector<std::string_view> views;
  std::vector<char> scratch;
  if (!dist::ParseKeyVectorBody(chain, &views, &scratch)) {
    return std::nullopt;
  }
  return std::vector<std::string>(views.begin(), views.end());
}

TEST(KeyVectorParser, EverySplitParsesTheSameKeysAsOneSegment) {
  const std::vector<std::string> keys = {"user:1",         "",
                                         "k",              std::string(70, 'a'),
                                         std::string(300, 'b'), "user:2:" + std::string(20, 'c')};
  const std::string bytes = KeyVectorBytes(keys);
  auto whole = ChainOf(bytes, {});
  ASSERT_EQ(whole->Next(), nullptr);
  std::optional<std::vector<std::string>> flat = ParseKeys(whole.get());
  ASSERT_TRUE(flat.has_value());
  EXPECT_EQ(*flat, keys);
  for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
    auto chain = ChainOf(bytes, {cut});
    EXPECT_EQ(ParseKeys(chain.get()), flat) << "split at " << cut;
  }
  std::vector<std::size_t> every_byte(bytes.size() - 1);
  std::iota(every_byte.begin(), every_byte.end(), 1);
  auto shredded = ChainOf(bytes, every_byte);
  EXPECT_EQ(ParseKeys(shredded.get()), flat);
}

TEST(KeyVectorParser, MalformedBodiesRejectedOnBothPaths) {
  auto u32 = [](std::uint32_t v) {
    v = HostToNet32(v);
    return std::string(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  auto u16 = [](std::uint16_t v) {
    v = HostToNet16(v);
    return std::string(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  const std::string valid = KeyVectorBytes({"alpha", "beta"});
  const std::vector<std::pair<std::string, std::string>> malformed = {
      {"count above kMaxVectorKeys",
       u32(static_cast<std::uint32_t>(dist::kMaxVectorKeys) + 1) + u16(1) + "k"},
      {"shorter than the count word", u32(1).substr(0, 3)},
      {"truncated length word", u32(2) + u16(5) + "alpha" + u16(4).substr(0, 1)},
      {"truncated key bytes", u32(1) + u16(10) + "short"},
      {"missing keys", u32(3) + u16(5) + "alpha"},
      {"trailing bytes", valid + "x"},
  };
  for (const auto& [name, bytes] : malformed) {
    auto whole = ChainOf(bytes, {});
    EXPECT_FALSE(ParseKeys(whole.get()).has_value()) << name << ", one segment";
    for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
      auto chain = ChainOf(bytes, {cut});
      EXPECT_FALSE(ParseKeys(chain.get()).has_value()) << name << ", split at " << cut;
    }
  }
  EXPECT_FALSE(ParseKeys(nullptr).has_value());
}

TEST(KeyVectorParser, ShardServiceAnswersMalformedBatchesWithAnRpcError) {
  // End to end through a ShardService, with bodies small enough for one segment and large
  // enough to span several: a malformed batch is an RPC error (not a transport failure, not
  // a bad frame); an oversized key inside a well-formed batch is a miss that ticks
  // bad_frames; a well-formed batch is answered whatever its segmentation.
  sim::Testbed bed;
  sim::TestbedNode shard = bed.AddNode("shard", 1, Ipv4Addr::Of(10, 0, 0, 20));
  sim::TestbedNode client = bed.AddNode("client", 1, Ipv4Addr::Of(10, 0, 0, 3));
  memcached::ShardService* service = nullptr;
  shard.Spawn(0, [&] {
    auto owned = std::make_shared<memcached::ShardService>(*shard.runtime, 0);
    service = owned.get();
    shard.runtime->Adopt(owned);
  });
  std::vector<std::string> small_keys = {"a", "b"};
  std::vector<std::string> large_keys;  // ~4 KiB of keys: the request spans segments
  for (int i = 0; i < 64; ++i) {
    large_keys.push_back("large:" + std::to_string(i) + std::string(56, 'x'));
  }
  std::vector<std::string> oversized = {"ok", std::string(memcached::kMaxKeyLen + 1, 'o')};
  struct Outcome {
    bool answered = false;
    std::uint32_t aux = 0;
    bool app_error = false;
  };
  std::vector<Outcome> outcomes(6);
  std::shared_ptr<dist::RpcClient> rpc;
  client.Spawn(0, [&] {
    rpc = std::make_shared<dist::RpcClient>(*client.runtime, memcached::kShardServiceBase,
                                            Ipv4Addr::Of(10, 0, 0, 20));
    auto call = [&](std::size_t i, const std::string& bytes, std::uint32_t count) {
      rpc->Call(memcached::kShardOpMultiGet, count, IOBuf::CopyBuffer(bytes))
          .Then([&, i](Future<dist::RpcClient::Response> f) {
            try {
              outcomes[i].aux = f.Get().aux;
              outcomes[i].answered = true;
            } catch (const dist::RpcTransportError&) {
            } catch (const std::runtime_error&) {
              outcomes[i].app_error = true;
            }
          });
    };
    call(0, KeyVectorBytes(small_keys), 2);
    call(1, KeyVectorBytes(small_keys) + "x", 2);
    call(2, KeyVectorBytes(large_keys), 64);
    call(3, KeyVectorBytes(large_keys) + "x", 64);
    call(4, KeyVectorBytes(large_keys).substr(0, 3000), 64);
    call(5, KeyVectorBytes(oversized), 2);
  });
  bed.world().Run();
  EXPECT_TRUE(outcomes[0].answered);
  EXPECT_EQ(outcomes[0].aux, 0u);  // misses: nothing stored
  EXPECT_TRUE(outcomes[1].app_error);
  EXPECT_TRUE(outcomes[2].answered);
  EXPECT_TRUE(outcomes[3].app_error);
  EXPECT_TRUE(outcomes[4].app_error);
  EXPECT_TRUE(outcomes[5].answered);
  EXPECT_EQ(service->bad_frames(), 1u);  // only the oversized key inside a sound batch
  EXPECT_EQ(rpc->pending_calls(), 0u);
}

// --- Batch lookup equals Find, key by key --------------------------------------------------------

// Batch sizes: empty, one key, and both sides of one and two internal 16-key chunks.
constexpr std::size_t kBatchSizes[] = {0, 1, 2, 15, 16, 17, 31, 32, 33, 64, 100};

// A batch drawn from [0, 2 * stored): about half the keys miss, and with more draws than
// distinct keys, duplicates appear; one duplicate is forced whenever there are two slots.
std::vector<int> DrawBatch(std::mt19937& rng, std::size_t n, int key_space) {
  std::vector<int> batch(n);
  for (int& key : batch) {
    key = static_cast<int>(rng() % static_cast<unsigned>(key_space));
  }
  if (n >= 2) {
    batch[n - 1] = batch[0];
  }
  return batch;
}

class RcuBatchLookup : public ::testing::TestWithParam<unsigned> {};

TEST_P(RcuBatchLookup, FindEachAnswersEveryKeyAsFindDoes) {
  // No event loops: RCU callbacks run at once, and the keyed layout uses new/delete.
  Runtime rt(RuntimeKind::kNative, "prop-batch");
  rt.AddCores(1);
  constexpr int kKeys = 120;
  // Four buckets for up to 120 keys: chains ~30 long, so the walk past the prefetched head
  // carries most of the answers.
  RcuHashTable<int, int> table(RcuManagerRoot::For(rt), 2);
  std::mt19937 rng(GetParam());
  for (int key = 0; key < kKeys; ++key) {
    if (rng() % 4 != 0) {
      table.Insert(key, key * 7);
    }
  }
  for (std::size_t n : kBatchSizes) {
    std::vector<int> batch = DrawBatch(rng, n, 2 * kKeys);
    std::size_t calls = 0;
    std::size_t hits = 0;
    table.FindEach(batch.data(), batch.size(), [&](std::size_t i, int* found) {
      ASSERT_EQ(i, calls) << "batch " << n << ": answers out of request order";
      EXPECT_EQ(found, table.Find(batch[i])) << "batch " << n << ", key " << batch[i];
      hits += found != nullptr;
      ++calls;
    });
    EXPECT_EQ(calls, n);
    if (n >= 32) {
      EXPECT_GT(hits, 0u) << "batch " << n;
      EXPECT_LT(hits, n) << "batch " << n;
    }
  }
}

TEST_P(RcuBatchLookup, GetEachAnswersEveryKeyAsGetDoes) {
  // The KeyOf layout (keys read back from the item blocks, whose bytes FindEach
  // prefetches), through the KvStore surface the MultiGet paths call. Overwrites and
  // deletes leave replaced and erased keys in the mix.
  Runtime rt(RuntimeKind::kNative, "prop-batch-kv");
  rt.AddCores(1);
  std::uint64_t live_before = memcached::Item::live_count();
  constexpr int kKeys = 120;
  std::vector<std::string> names;
  for (int key = 0; key < 2 * kKeys; ++key) {
    names.push_back(std::string("key:").append(std::to_string(key)));  // gcc 12 -O3 -Wrestrict
  }
  {
    memcached::KvStore store(RcuManagerRoot::For(rt), /*bucket_bits=*/1);
    std::mt19937 rng(GetParam());
    for (int key = 0; key < kKeys; ++key) {
      if (rng() % 4 != 0) {
        store.Set(names[key], std::string("v").append(std::to_string(key)), 0);
      }
      if (rng() % 8 == 0) {
        store.Set(names[key], "replaced", 0);
      }
      if (rng() % 8 == 0) {
        store.Delete(names[key]);
      }
    }
    for (std::size_t n : kBatchSizes) {
      std::vector<int> draws = DrawBatch(rng, n, 2 * kKeys);
      std::vector<std::string_view> batch;
      for (int key : draws) {
        batch.push_back(names[key]);
      }
      std::size_t calls = 0;
      store.GetEach(batch.data(), batch.size(), [&](std::size_t i, memcached::ItemPtr item) {
        ASSERT_EQ(i, calls) << "batch " << n << ": answers out of request order";
        EXPECT_EQ(item.get(), store.Get(batch[i]).get()) << "batch " << n << ", " << batch[i];
        ++calls;
      });
      EXPECT_EQ(calls, n);
    }
  }
  EXPECT_EQ(memcached::Item::live_count(), live_before);  // every reference dropped
}

INSTANTIATE_TEST_SUITE_P(Seeds, RcuBatchLookup, ::testing::Values(1u, 2u, 3u, 4u, 5u));

}  // namespace
}  // namespace ebbrt
