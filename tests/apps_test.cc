// Application-level integration tests: memcached (both stacks), HTTP servers, the baseline
// socket layer, and V8-suite kernel result invariance across environments.
#include <gtest/gtest.h>

#include "src/apps/http/http_server.h"
#include "src/apps/loadgen/memcached_loadgen.h"
#include "src/apps/memcached/server.h"
#include "src/apps/v8bench/kernels.h"
#include "src/sim/testbed.h"

namespace ebbrt {
namespace {

using sim::Testbed;
using sim::TestbedNode;

constexpr Ipv4Addr kServerIp = Ipv4Addr::Of(10, 0, 0, 2);
constexpr Ipv4Addr kClientIp = Ipv4Addr::Of(10, 0, 0, 3);

std::unique_ptr<IOBuf> BuildSetRequest(std::string_view key, std::string_view value) {
  using namespace memcached;
  std::size_t body = sizeof(SetExtras) + key.size() + value.size();
  auto buf = IOBuf::Create(sizeof(BinaryHeader) + body, true);
  auto& hdr = buf->Get<BinaryHeader>();
  hdr.magic = kMagicRequest;
  hdr.opcode = static_cast<std::uint8_t>(Opcode::kSet);
  hdr.key_length = HostToNet16(static_cast<std::uint16_t>(key.size()));
  hdr.extras_length = sizeof(SetExtras);
  hdr.total_body = HostToNet32(static_cast<std::uint32_t>(body));
  auto* p = buf->WritableData() + sizeof(BinaryHeader) + sizeof(SetExtras);
  std::memcpy(p, key.data(), key.size());
  std::memcpy(p + key.size(), value.data(), value.size());
  return buf;
}

std::unique_ptr<IOBuf> BuildGetRequest(std::string_view key) {
  using namespace memcached;
  auto buf = IOBuf::Create(sizeof(BinaryHeader) + key.size(), true);
  auto& hdr = buf->Get<BinaryHeader>();
  hdr.magic = kMagicRequest;
  hdr.opcode = static_cast<std::uint8_t>(Opcode::kGet);
  hdr.key_length = HostToNet16(static_cast<std::uint16_t>(key.size()));
  hdr.total_body = HostToNet32(static_cast<std::uint32_t>(key.size()));
  std::memcpy(buf->WritableData() + sizeof(BinaryHeader), key.data(), key.size());
  return buf;
}

// `declared_count` is normally keys.size(); tests lie to exercise the malformed-batch path
// (a count promising more keys than the body packs).
std::unique_ptr<IOBuf> BuildMultiGetRequest(const std::vector<std::string_view>& keys,
                                            std::size_t declared_count) {
  using namespace memcached;
  std::size_t packed = 0;
  for (std::string_view k : keys) {
    packed += sizeof(std::uint16_t) + k.size();
  }
  std::size_t body = sizeof(MultiGetExtras) + packed;
  auto buf = IOBuf::Create(sizeof(BinaryHeader) + body, true);
  auto& hdr = buf->Get<BinaryHeader>();
  hdr.magic = kMagicRequest;
  hdr.opcode = static_cast<std::uint8_t>(Opcode::kMultiGet);
  hdr.extras_length = sizeof(MultiGetExtras);
  hdr.total_body = HostToNet32(static_cast<std::uint32_t>(body));
  buf->Get<MultiGetExtras>(sizeof(BinaryHeader)).key_count =
      HostToNet32(static_cast<std::uint32_t>(declared_count));
  auto* p = buf->WritableData() + sizeof(BinaryHeader) + sizeof(MultiGetExtras);
  for (std::string_view k : keys) {
    std::uint16_t klen = HostToNet16(static_cast<std::uint16_t>(k.size()));
    std::memcpy(p, &klen, sizeof(klen));
    p += sizeof(klen);
    std::memcpy(p, k.data(), k.size());
    p += k.size();
  }
  return buf;
}

// Unpacks a MULTIGET response's value section (count x [MultiGetEntry][value if hit]).
struct MultiGetResult {
  memcached::Status status;
  std::string value;
};
std::vector<MultiGetResult> ParseMultiGetResponseBody(const std::string& body,
                                                      std::size_t count) {
  using memcached::MultiGetEntry;
  std::vector<MultiGetResult> out;
  std::size_t off = 0;
  for (std::size_t i = 0; i < count; ++i) {
    if (off + sizeof(MultiGetEntry) > body.size()) {
      ADD_FAILURE() << "response truncated at entry " << i;
      return out;
    }
    MultiGetEntry entry;
    std::memcpy(&entry, body.data() + off, sizeof(entry));
    off += sizeof(entry);
    MultiGetResult r;
    r.status = static_cast<memcached::Status>(NetToHost16(entry.status));
    std::uint32_t len = NetToHost32(entry.value_length);
    if (off + len > body.size()) {
      ADD_FAILURE() << "value truncated at entry " << i;
      return out;
    }
    r.value = body.substr(off, len);
    off += len;
    out.push_back(std::move(r));
  }
  EXPECT_EQ(off, body.size()) << "trailing bytes after the declared entries";
  return out;
}

struct ClientState {
  memcached::RequestParser parser;
  std::vector<std::pair<memcached::Status, std::string>> responses;
};

// Client-side connection handler: parses responses into the shared ClientState.
class ResponseCollector final : public TcpHandler {
 public:
  explicit ResponseCollector(std::shared_ptr<ClientState> state) : state_(std::move(state)) {}
  void Receive(std::unique_ptr<IOBuf> data) override {
    auto& state = *state_;
    state.parser.Feed(std::move(data), [&state](const memcached::RequestParser::Request& r) {
      state.responses.emplace_back(
          static_cast<memcached::Status>(NetToHost16(r.header.status_vbucket)),
          std::string(r.value));
    });
  }

 private:
  std::shared_ptr<ClientState> state_;
};

// Accumulates raw received bytes (the HTTP clients' side).
class StringSink final : public TcpHandler {
 public:
  explicit StringSink(std::string& out) : out_(out) {}
  void Receive(std::unique_ptr<IOBuf> data) override {
    out_ += std::string(data->AsStringView());
  }

 private:
  std::string& out_;
};

void RunMemcachedExchange(TcpPcb pcb, std::shared_ptr<ClientState> state) {
  pcb.InstallHandler(
      std::unique_ptr<TcpHandler>(std::make_unique<ResponseCollector>(std::move(state))));
  pcb.Send(BuildSetRequest("answer", "forty-two"));
  pcb.Send(BuildGetRequest("answer"));
  pcb.Send(BuildGetRequest("missing"));
}

TEST(Apps, MemcachedEbbRTSetGet) {
  Testbed bed;
  TestbedNode server = bed.AddNode("server", 2, kServerIp);
  TestbedNode client = bed.AddNode("client", 1, kClientIp);
  auto state = std::make_shared<ClientState>();
  memcached::MemcachedServer* srv = nullptr;
  server.Spawn(0, [&] { srv = new memcached::MemcachedServer(*server.net, 11211); });
  client.Spawn(0, [&] {
    client.net->tcp().Connect(*client.iface, kServerIp, 11211).Then([&, state](
                                                                        Future<TcpPcb> f) {
      RunMemcachedExchange(f.Get(), state);
    });
  });
  bed.world().Run();
  ASSERT_EQ(state->responses.size(), 3u);
  EXPECT_EQ(state->responses[0].first, memcached::Status::kOk);          // SET
  EXPECT_EQ(state->responses[1].first, memcached::Status::kOk);          // GET hit
  EXPECT_EQ(state->responses[1].second, "forty-two");
  EXPECT_EQ(state->responses[2].first, memcached::Status::kKeyNotFound); // GET miss
  EXPECT_EQ(srv->requests(), 3u);
}

TEST(Apps, BurstClientSpreadsFlowsAcrossAllServerCores) {
  // The fig6 requirement: one connection per client core, each with a distinct flow hash,
  // so symmetric RSS puts work on EVERY server core (a single flow collapses onto one).
  constexpr std::size_t kCores = 4;
  Testbed bed;
  TestbedNode server = bed.AddNode("server", kCores, kServerIp);
  TestbedNode client = bed.AddNode("client", kCores, kClientIp,
                                   sim::HypervisorModel::Native());
  server.Spawn(0, [&] { new memcached::MemcachedServer(*server.net, 11211); });
  loadgen::MemcachedBurstClient::Config config;
  config.depth = 8;
  config.total_requests = 128;
  config.key_space = 32;
  config.connections = kCores;
  std::size_t responses = 0;
  loadgen::MemcachedBurstClient::Run(client, kServerIp, 11211, config)
      .Then([&](Future<loadgen::MemcachedBurstClient::Result> f) {
        responses = f.Get().responses;
      });
  bed.world().Run();
  EXPECT_EQ(responses, config.total_requests);
  auto& em = server.runtime->GetSubsystem<EventManagerRoot>(Subsystem::kEventManager);
  for (std::size_t core = 0; core < kCores; ++core) {
    EXPECT_GT(em.RepFor(core).stats().interrupts, 0u)
        << "server core " << core << " received no device events";
  }
}

TEST(Apps, MemcachedBaselineSetGet) {
  Testbed bed;
  TestbedNode server = bed.AddNode("server", 2, kServerIp);
  TestbedNode client = bed.AddNode("client", 1, kClientIp);
  auto state = std::make_shared<ClientState>();
  baseline::SocketStack* stack = nullptr;
  memcached::BaselineMemcachedServer* srv = nullptr;
  server.Spawn(0, [&] {
    stack = new baseline::SocketStack(bed.world(), *server.net,
                                      baseline::SocketStack::LinuxModel());
    srv = new memcached::BaselineMemcachedServer(*stack, 11211);
  });
  client.Spawn(0, [&] {
    client.net->tcp().Connect(*client.iface, kServerIp, 11211).Then([&, state](
                                                                        Future<TcpPcb> f) {
      RunMemcachedExchange(f.Get(), state);
    });
  });
  // The baseline runs scheduler ticks forever; run to a bounded horizon.
  bed.world().RunUntil(2ull * 1000 * 1000 * 1000);
  ASSERT_EQ(state->responses.size(), 3u);
  EXPECT_EQ(state->responses[1].second, "forty-two");
  EXPECT_EQ(srv->requests(), 3u);
}

TEST(Apps, MemcachedValueSurvivesReplacementRace) {
  // A GET response referencing an item zero-copy must survive the item being replaced before
  // the response drains (the ItemRef anchor in MakeValueBuffer).
  Testbed bed;
  TestbedNode server = bed.AddNode("server", 1, kServerIp);
  TestbedNode client = bed.AddNode("client", 1, kClientIp);
  auto state = std::make_shared<ClientState>();
  server.Spawn(0, [&] { new memcached::MemcachedServer(*server.net, 11211); });
  client.Spawn(0, [&] {
    client.net->tcp().Connect(*client.iface, kServerIp, 11211).Then([state](Future<TcpPcb> f) {
      TcpPcb pcb = f.Get();
      pcb.InstallHandler(
          std::unique_ptr<TcpHandler>(std::make_unique<ResponseCollector>(state)));
      pcb.Send(BuildSetRequest("k", std::string(900, 'A')));
      pcb.Send(BuildGetRequest("k"));
      pcb.Send(BuildSetRequest("k", std::string(900, 'B')));  // replaces while GET in flight
      pcb.Send(BuildGetRequest("k"));
    });
  });
  bed.world().Run();
  ASSERT_EQ(state->responses.size(), 4u);
  EXPECT_EQ(state->responses[1].second, std::string(900, 'A'));
  EXPECT_EQ(state->responses[3].second, std::string(900, 'B'));
}

TEST(Apps, MemcachedMultiGetBatchWithHitsMissesAndDuplicates) {
  // One MULTIGET frame answering four lookups (two hits, a miss, a duplicate) under a
  // single response header, entries in request order.
  Testbed bed;
  TestbedNode server = bed.AddNode("server", 1, kServerIp);
  TestbedNode client = bed.AddNode("client", 1, kClientIp);
  auto state = std::make_shared<ClientState>();
  memcached::MemcachedServer* srv = nullptr;
  server.Spawn(0, [&] { srv = new memcached::MemcachedServer(*server.net, 11211); });
  client.Spawn(0, [&] {
    client.net->tcp().Connect(*client.iface, kServerIp, 11211).Then([state](Future<TcpPcb> f) {
      TcpPcb pcb = f.Get();
      pcb.InstallHandler(
          std::unique_ptr<TcpHandler>(std::make_unique<ResponseCollector>(state)));
      pcb.Send(BuildSetRequest("alpha", "first"));
      pcb.Send(BuildSetRequest("beta", std::string(500, 'B')));
      pcb.Send(BuildMultiGetRequest({"alpha", "missing", "beta", "alpha"}, 4));
    });
  });
  bed.world().Run();
  ASSERT_EQ(state->responses.size(), 3u);  // SET, SET, one MULTIGET response
  EXPECT_EQ(state->responses[2].first, memcached::Status::kOk);
  auto results = ParseMultiGetResponseBody(state->responses[2].second, 4);
  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(results[0].status, memcached::Status::kOk);
  EXPECT_EQ(results[0].value, "first");
  EXPECT_EQ(results[1].status, memcached::Status::kKeyNotFound);
  EXPECT_EQ(results[1].value, "");
  EXPECT_EQ(results[2].status, memcached::Status::kOk);
  EXPECT_EQ(results[2].value, std::string(500, 'B'));
  EXPECT_EQ(results[3].status, memcached::Status::kOk);  // duplicate answered again
  EXPECT_EQ(results[3].value, "first");
  EXPECT_EQ(srv->bad_frames(), 0u);
}

TEST(Apps, MemcachedMultiGetTruncatedBatchRejectedWithoutWedging) {
  // A batch whose count promises more keys than the body packs is malformed-but-framed:
  // the server must answer kInvalidArguments, tick bad_frames, and keep serving the SAME
  // connection (the bad_frames discipline — reject, never assert, never wedge).
  Testbed bed;
  TestbedNode server = bed.AddNode("server", 1, kServerIp);
  TestbedNode client = bed.AddNode("client", 1, kClientIp);
  auto state = std::make_shared<ClientState>();
  memcached::MemcachedServer* srv = nullptr;
  server.Spawn(0, [&] { srv = new memcached::MemcachedServer(*server.net, 11211); });
  client.Spawn(0, [&] {
    client.net->tcp().Connect(*client.iface, kServerIp, 11211).Then([state](Future<TcpPcb> f) {
      TcpPcb pcb = f.Get();
      pcb.InstallHandler(
          std::unique_ptr<TcpHandler>(std::make_unique<ResponseCollector>(state)));
      pcb.Send(BuildSetRequest("still-here", "yes"));
      pcb.Send(BuildMultiGetRequest({"only-one"}, /*declared_count=*/3));  // truncated
      pcb.Send(BuildGetRequest("still-here"));  // same connection must still answer
    });
  });
  bed.world().Run();
  ASSERT_EQ(state->responses.size(), 3u);
  EXPECT_EQ(state->responses[0].first, memcached::Status::kOk);
  EXPECT_EQ(state->responses[1].first, memcached::Status::kInvalidArguments);
  EXPECT_EQ(state->responses[2].first, memcached::Status::kOk);
  EXPECT_EQ(state->responses[2].second, "yes");
  EXPECT_EQ(srv->bad_frames(), 1u);
}

TEST(Apps, MemcachedOversizedKeyRejectedWithoutWedging) {
  // A SET whose key exceeds kMaxKeyLen is framed correctly but violates the per-item
  // bounds: the server must answer kInvalidArguments, tick bad_frames, never carve an item
  // for it, and keep serving the same connection.
  Testbed bed;
  TestbedNode server = bed.AddNode("server", 1, kServerIp);
  TestbedNode client = bed.AddNode("client", 1, kClientIp);
  auto state = std::make_shared<ClientState>();
  memcached::MemcachedServer* srv = nullptr;
  server.Spawn(0, [&] { srv = new memcached::MemcachedServer(*server.net, 11211); });
  std::string long_key(memcached::kMaxKeyLen + 1, 'K');
  client.Spawn(0, [&, state] {
    client.net->tcp().Connect(*client.iface, kServerIp, 11211).Then([state, &long_key](
                                                                        Future<TcpPcb> f) {
      TcpPcb pcb = f.Get();
      pcb.InstallHandler(
          std::unique_ptr<TcpHandler>(std::make_unique<ResponseCollector>(state)));
      pcb.Send(BuildSetRequest(long_key, "rejected"));
      pcb.Send(BuildSetRequest("fits", "stored"));  // same connection must still serve
      pcb.Send(BuildGetRequest("fits"));
    });
  });
  bed.world().Run();
  ASSERT_EQ(state->responses.size(), 3u);
  EXPECT_EQ(state->responses[0].first, memcached::Status::kInvalidArguments);
  EXPECT_EQ(state->responses[1].first, memcached::Status::kOk);
  EXPECT_EQ(state->responses[2].first, memcached::Status::kOk);
  EXPECT_EQ(state->responses[2].second, "stored");
  EXPECT_EQ(srv->bad_frames(), 1u);
  EXPECT_EQ(srv->store().size(), 1u);  // the oversized item was never stored
}

TEST(Apps, MemcachedParserSkipsOversizedValueWithoutBuffering) {
  // A SET declaring a value above kMaxValueLen must be rejected from the HEADER alone: the
  // request is delivered immediately (oversized flag, empty views) and the body bytes are
  // discarded as they stream in — pending_bytes stays at zero, nothing is coalesced, and
  // the stream resynchronizes at the next request.
  using memcached::BinaryHeader;
  using memcached::RequestParser;
  constexpr std::size_t kHugeValue = 2 * 1024 * 1024;  // > kMaxValueLen, < kMaxRequestBody
  auto request = IOBuf::Create(sizeof(BinaryHeader), true);
  auto& hdr = request->Get<BinaryHeader>();
  hdr.magic = memcached::kMagicRequest;
  hdr.opcode = static_cast<std::uint8_t>(memcached::Opcode::kSet);
  hdr.key_length = HostToNet16(1);
  hdr.extras_length = sizeof(memcached::SetExtras);
  hdr.total_body = HostToNet32(
      static_cast<std::uint32_t>(sizeof(memcached::SetExtras) + 1 + kHugeValue));
  std::size_t body_len = sizeof(memcached::SetExtras) + 1 + kHugeValue;

  RequestParser parser;
  std::size_t delivered = 0;
  std::size_t oversized = 0;
  auto sink = [&](const RequestParser::Request& req) {
    ++delivered;
    if (req.oversized) {
      ++oversized;
      EXPECT_TRUE(req.key.empty());
      EXPECT_TRUE(req.value.empty());
    }
  };
  // Header alone: rejected immediately, before one body byte exists.
  parser.Feed(std::move(request), sink);
  EXPECT_EQ(delivered, 1u);
  EXPECT_EQ(oversized, 1u);
  EXPECT_FALSE(parser.poisoned());
  EXPECT_EQ(parser.pending_bytes(), 0u);
  // Body streams in: discarded chunk by chunk, never buffered, never coalesced.
  std::string chunk(64 * 1024, 'x');
  std::size_t sent = 0;
  while (sent < body_len) {
    std::size_t n = std::min(chunk.size(), body_len - sent);
    parser.FeedBytes(chunk.data(), n, sink);
    sent += n;
    EXPECT_EQ(parser.pending_bytes(), 0u);
  }
  EXPECT_EQ(delivered, 1u);
  EXPECT_EQ(parser.coalesce_ops(), 0u);
  // The stream resynchronizes: the next well-formed request parses normally.
  parser.Feed(BuildGetRequest("after"), sink);
  EXPECT_EQ(delivered, 2u);
  EXPECT_EQ(oversized, 1u);
}

TEST(Apps, MemcachedParserPoisonedByContradictoryHeader) {
  // A header whose declared sections exceed its declared body is framing corruption, not a
  // request: the parser must stop (poisoned), deliver nothing, and drop what it buffered —
  // every subsequent byte boundary would be a guess.
  using memcached::RequestParser;
  RequestParser parser;
  auto bad = BuildGetRequest("some-key");
  auto& hdr = bad->Get<memcached::BinaryHeader>();
  hdr.total_body = HostToNet32(2);  // < key_length: self-contradictory
  std::size_t parsed = 0;
  parser.Feed(std::move(bad), [&](const RequestParser::Request&) { ++parsed; });
  EXPECT_EQ(parsed, 0u);
  EXPECT_TRUE(parser.poisoned());
  EXPECT_EQ(parser.pending_bytes(), 0u);
  // Poison is sticky: later (well-formed) bytes are not delivered either.
  parser.Feed(BuildGetRequest("fine"), [&](const RequestParser::Request&) { ++parsed; });
  EXPECT_EQ(parsed, 0u);
}

TEST(Apps, HttpServerServes148ByteResponse) {
  EXPECT_EQ(http::StaticResponse().size(), 148u);
  Testbed bed;
  TestbedNode server = bed.AddNode("server", 1, kServerIp);
  TestbedNode client = bed.AddNode("client", 1, kClientIp);
  std::string response;
  server.Spawn(0, [&] { new http::HttpServer(*server.net, 8080); });
  client.Spawn(0, [&] {
    client.net->tcp().Connect(*client.iface, kServerIp, 8080).Then([&response](
                                                                       Future<TcpPcb> f) {
      TcpPcb pcb = f.Get();
      pcb.InstallHandler(std::unique_ptr<TcpHandler>(std::make_unique<StringSink>(response)));
      pcb.Send(IOBuf::CopyBuffer("GET / HTTP/1.1\r\nHost: x\r\n\r\n"));
      pcb.Send(IOBuf::CopyBuffer("GET / HTTP/1.1\r\nHost: x\r\n\r\n"));  // keep-alive
    });
  });
  bed.world().Run();
  EXPECT_EQ(response.size(), 2 * 148u);
  EXPECT_EQ(response.substr(0, 15), "HTTP/1.1 200 OK");
}

TEST(Apps, BaselineHttpServerServes) {
  Testbed bed;
  TestbedNode server = bed.AddNode("server", 1, kServerIp);
  TestbedNode client = bed.AddNode("client", 1, kClientIp);
  std::string response;
  server.Spawn(0, [&] {
    auto* stack = new baseline::SocketStack(bed.world(), *server.net,
                                            baseline::SocketStack::LinuxModel());
    new http::BaselineHttpServer(*stack, 8080);
  });
  client.Spawn(0, [&] {
    client.net->tcp().Connect(*client.iface, kServerIp, 8080).Then([&response](
                                                                       Future<TcpPcb> f) {
      TcpPcb pcb = f.Get();
      pcb.InstallHandler(std::unique_ptr<TcpHandler>(std::make_unique<StringSink>(response)));
      pcb.Send(IOBuf::CopyBuffer("GET / HTTP/1.1\r\nHost: x\r\n\r\n"));
    });
  });
  bed.world().RunUntil(2ull * 1000 * 1000 * 1000);
  EXPECT_EQ(response.size(), 148u);
}

TEST(Apps, MemcachedParserSingleSegmentIsZeroCopy) {
  // A request fully contained in one segment must be parsed in place: the views handed to
  // the callback point into the fed buffer itself, and no coalesce (the IOBufQueue successor
  // to the old `pending_` string copy) may occur.
  using memcached::RequestParser;
  RequestParser parser;
  auto request = BuildSetRequest("key1", "value-bytes");
  const std::uint8_t* base = request->Data();
  std::size_t parsed = 0;
  parser.Feed(std::move(request), [&](const RequestParser::Request& req) {
    ++parsed;
    EXPECT_EQ(req.key, "key1");
    EXPECT_EQ(req.value, "value-bytes");
    // Zero-copy: the key view aliases the original segment's storage.
    EXPECT_EQ(static_cast<const void*>(req.key.data()),
              static_cast<const void*>(base + sizeof(memcached::BinaryHeader) +
                                       sizeof(memcached::SetExtras)));
  });
  EXPECT_EQ(parsed, 1u);
  EXPECT_EQ(parser.coalesce_ops(), 0u);
  EXPECT_EQ(parser.pending_bytes(), 0u);
}

TEST(Apps, MemcachedParserSplitRequestCoalescesExactlyOnce) {
  using memcached::RequestParser;
  RequestParser parser;
  auto request = BuildSetRequest("split-key", std::string(300, 'v'));
  std::size_t total = request->Length();
  // Feed the one request as five segments (worse than any real MSS split for this size).
  std::size_t parsed = 0;
  auto on_request = [&](const RequestParser::Request& req) {
    ++parsed;
    EXPECT_EQ(req.key, "split-key");
    EXPECT_EQ(req.value, std::string(300, 'v'));
  };
  std::size_t chunk = total / 5 + 1;
  for (std::size_t off = 0; off < total; off += chunk) {
    std::size_t n = std::min(chunk, total - off);
    parser.Feed(IOBuf::CopyBuffer(request->Data() + off, n), on_request);
  }
  EXPECT_EQ(parsed, 1u);
  // The old string accumulator appended on EVERY feed; the queue reassembles exactly once.
  EXPECT_EQ(parser.coalesce_ops(), 1u);
}

TEST(Apps, MemcachedParserStraddledHeaderStillCoalescesOnce) {
  // Even when the 24-byte header itself is split across segments (10-byte chunks), the
  // header is peeked chain-aware and only the completed request is coalesced — once.
  using memcached::RequestParser;
  RequestParser parser;
  auto request = BuildSetRequest("hdr-split-key", std::string(100, 'w'));
  std::size_t total = request->Length();
  std::size_t parsed = 0;
  auto on_request = [&](const RequestParser::Request& req) {
    ++parsed;
    EXPECT_EQ(req.key, "hdr-split-key");
    EXPECT_EQ(req.value, std::string(100, 'w'));
  };
  for (std::size_t off = 0; off < total; off += 10) {
    parser.Feed(IOBuf::CopyBuffer(request->Data() + off, std::min<std::size_t>(10, total - off)),
                on_request);
  }
  EXPECT_EQ(parsed, 1u);
  EXPECT_EQ(parser.coalesce_ops(), 1u);
}

TEST(Apps, MemcachedParserPipelinedBatchStaysZeroCopy) {
  // Several requests arriving in one segment (the loadgen's pipelining) parse in place too.
  using memcached::RequestParser;
  RequestParser parser;
  auto batch = BuildSetRequest("a", "1");
  batch->AppendChain(BuildGetRequest("a"));
  batch->AppendChain(BuildGetRequest("b"));
  batch->Coalesce();  // one wire segment carrying three requests
  std::size_t parsed = 0;
  parser.Feed(std::move(batch), [&](const RequestParser::Request&) { ++parsed; });
  EXPECT_EQ(parsed, 3u);
  EXPECT_EQ(parser.coalesce_ops(), 0u);
}

TEST(Apps, MemcachedParserRvalueCallableFedRepeatedly) {
  // Regression for the forwarding bug: an rvalue callable fed through Feed/FeedBytes must
  // not be re-forwarded (moved-from) inside the parse loop. A move-sensitive functor parsing
  // multiple requests per feed exercises exactly that path.
  using memcached::RequestParser;
  struct MoveSensitiveCounter {
    std::shared_ptr<std::size_t> count = std::make_shared<std::size_t>(0);
    void operator()(const RequestParser::Request&) {
      ASSERT_NE(count, nullptr) << "callable invoked after being moved from";
      ++*count;
    }
  };
  RequestParser parser;
  auto batch = BuildSetRequest("k", "v");
  batch->AppendChain(BuildGetRequest("k"));
  batch->Coalesce();
  MoveSensitiveCounter counter;
  auto count = counter.count;
  parser.Feed(std::move(batch), std::move(counter));
  EXPECT_EQ(*count, 2u);
}

// The environment must never change kernel *results* — only timing.
class V8KernelChecksums : public ::testing::TestWithParam<std::size_t> {};

TEST_P(V8KernelChecksums, SameAcrossEnvironments) {
  const auto& kernel = v8bench::AllKernels()[GetParam()];
  std::uint64_t ebbrt_sum;
  std::uint64_t linux_sum;
  {
    v8bench::Env env(v8bench::Env::Kind::kEbbRT, kernel.arena_bytes);
    ebbrt_sum = kernel.fn(env);
    EXPECT_EQ(env.page_faults(), 0u) << "EbbRT env must not fault";
  }
  {
    v8bench::Env env(v8bench::Env::Kind::kLinux, kernel.arena_bytes);
    linux_sum = kernel.fn(env);
  }
  EXPECT_EQ(ebbrt_sum, linux_sum) << kernel.name;
  EXPECT_NE(ebbrt_sum, 0u) << kernel.name << ": degenerate checksum";
}

INSTANTIATE_TEST_SUITE_P(AllKernels, V8KernelChecksums,
                         ::testing::Range<std::size_t>(0, 8),
                         [](const ::testing::TestParamInfo<std::size_t>& info) {
                           return v8bench::AllKernels()[info.param].name;
                         });

}  // namespace
}  // namespace ebbrt
