// etc_open and set_large: one single-core EbbRT MemcachedServer driven by a 4-core client
// machine over the simulated fabric. The client here is the benchmark's own: its key and
// value tables and its op schedule are precomputed from the seed, it checks every response
// byte for byte, and it times open-loop ops from their due time.
#include <algorithm>
#include <cmath>
#include <deque>
#include <string>
#include <vector>

#include "src/apps/memcached/kvstore.h"
#include "src/apps/memcached/server.h"
#include "src/event/timer.h"
#include "src/mem/gp_allocator.h"
#include "src/obs/metrics.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

using ebbrt::IOBuf;
using ebbrt::Ipv4Addr;
using ebbrt::memcached::BinaryHeader;
using ebbrt::memcached::Opcode;
using ebbrt::memcached::RequestParser;
using ebbrt::memcached::SetExtras;
using ebbrt::memcached::Status;

constexpr Ipv4Addr kServerIp = Ipv4Addr::Of(10, 0, 0, 2);
constexpr Ipv4Addr kClientIp = Ipv4Addr::Of(10, 0, 0, 3);
constexpr std::uint16_t kPort = 11211;
constexpr std::size_t kClientCores = 4;
// Preload SETs in flight at once: bounded by count, and by bytes so a window always fits
// the peer's 64 KiB receive window.
constexpr std::size_t kPreloadWindow = 32;
constexpr std::size_t kPreloadWindowBytes = 48 * 1024;
// Virtual time allowed after the window for answers to arrive; later ones count as missing.
constexpr std::uint64_t kDrainNs = 200'000'000;

struct McConfig {
  std::size_t connections;
  bool open_loop;
  double rate_ops_s;    // open loop: aggregate Poisson arrival rate
  std::size_t depth;    // closed loop: requests outstanding per connection
  double get_ratio;
  std::size_t key_space;
  std::uint32_t value_bytes;  // 0: ETC value-size law
  std::uint64_t warmup_ns;
  std::uint64_t window_ns;
};

struct McOp {
  std::uint64_t due_ns;  // open loop: offset from the schedule start
  std::uint32_t key;
  bool get;
};

// One measured-window request, kept for the server-side replay.
struct RecordedOp {
  std::uint32_t key;
  std::uint32_t version;
  bool get;
};

std::unique_ptr<IOBuf> BuildRequest(Opcode opcode, std::string_view key,
                                    std::string_view value, std::uint32_t opaque) {
  std::size_t extras = opcode == Opcode::kSet ? sizeof(SetExtras) : 0;
  std::size_t body = extras + key.size() + value.size();
  auto buf = IOBuf::Create(sizeof(BinaryHeader) + body, /*zero=*/true);
  auto& hdr = buf->Get<BinaryHeader>();
  hdr.magic = ebbrt::memcached::kMagicRequest;
  hdr.opcode = static_cast<std::uint8_t>(opcode);
  hdr.key_length = ebbrt::HostToNet16(static_cast<std::uint16_t>(key.size()));
  hdr.extras_length = static_cast<std::uint8_t>(extras);
  hdr.total_body = ebbrt::HostToNet32(static_cast<std::uint32_t>(body));
  hdr.opaque = opaque;
  std::uint8_t* p = buf->WritableData() + sizeof(BinaryHeader) + extras;
  std::memcpy(p, key.data(), key.size());
  std::memcpy(p + key.size(), value.data(), value.size());
  return buf;
}

class McRun;

class Conn final : public ebbrt::TcpHandler {
 public:
  Conn(McRun& run, std::size_t index) : run_(run), index_(index) {}

  void Receive(std::unique_ptr<IOBuf> data) override;
  void StartPreload();
  void StartLoad();
  std::size_t outstanding() const { return pending_.size(); }

 private:
  struct Pending {
    std::uint32_t opaque;
    std::uint32_t key;
    std::uint32_t version;  // SET: version written; GET: oldest version it may see
    std::uint64_t t_ns;     // due time (open loop) or send time (closed loop)
    bool get;
    bool preload;
  };

  void OnResponse(const RequestParser::Request& resp);
  void Issue(std::uint32_t key, bool get, std::uint64_t t_ns, bool preload);
  void SendPreloadWindow();
  void Tick();
  void ArmTimer();
  void IssueNextClosed();

  McRun& run_;
  std::size_t index_;
  RequestParser parser_;
  std::deque<Pending> pending_;
  std::size_t next_op_ = 0;
  std::size_t next_preload_ = 0;
  std::size_t preload_inflight_ = 0;
};

class McRun {
 public:
  McRun(const McConfig& cfg, const KeyTable& table,
        const std::vector<std::vector<McOp>>& ops, RepResult& result,
        std::vector<RecordedOp>* record)
      : cfg(cfg), table(table), ops(ops), result(result), record(record),
        ledger(table.keys.size()) {}

  const McConfig& cfg;
  const KeyTable& table;
  const std::vector<std::vector<McOp>>& ops;
  RepResult& result;
  std::vector<RecordedOp>* record;
  Ledger ledger;
  ebbrt::SimWorld* world = nullptr;
  ebbrt::sim::TestbedNode client;
  std::vector<std::shared_ptr<Conn>> conns;
  std::size_t connected = 0;
  bool started = false;
  std::uint64_t start_ns = 0;  // schedule origin (virtual)
  std::uint64_t t0 = ~0ull;    // measured window [t0, t1)
  std::uint64_t t1 = ~0ull;
  std::uint32_t next_opaque = 1;

  bool InWindow(std::uint64_t t) const { return t >= t0 && t < t1; }

  void OnPreloaded() {
    // Every connection starts on its own core; the schedule origin leaves room for the
    // spawns to land.
    start_ns = world->Now() + 50'000;
    t0 = start_ns + cfg.warmup_ns;
    t1 = t0 + cfg.window_ns;
    started = true;
    for (std::size_t i = 0; i < conns.size(); ++i) {
      std::shared_ptr<Conn> conn = conns[i];
      client.Spawn(i % kClientCores, [conn] { conn->StartLoad(); });
    }
  }

  std::size_t Outstanding() const {
    std::size_t n = 0;
    for (const auto& conn : conns) {
      n += conn->outstanding();
    }
    return n;
  }
};

void Conn::Receive(std::unique_ptr<IOBuf> data) {
  Span span(Layer::kLoadgen);
  {
    Span parse(Layer::kMemcachedParse);
    parser_.Feed(std::move(data), [this](const RequestParser::Request& resp) {
      Span handle(Layer::kLoadgen);
      OnResponse(resp);
    });
  }
  if (parser_.poisoned()) {
    run_.result.CheckFailed("unframeable response stream");
  }
}

void Conn::OnResponse(const RequestParser::Request& resp) {
  McRun& run = run_;
  if (pending_.empty()) {
    run.result.CheckFailed("response with no request outstanding");
    return;
  }
  Pending p = pending_.front();
  pending_.pop_front();
  std::uint64_t now = run.world->Now();
  bool ok = resp.header.magic == ebbrt::memcached::kMagicResponse &&
            resp.header.opaque == p.opaque &&
            resp.header.opcode == static_cast<std::uint8_t>(p.get ? Opcode::kGet : Opcode::kSet) &&
            ebbrt::NetToHost16(resp.header.status_vbucket) ==
                static_cast<std::uint16_t>(Status::kOk);
  if (p.preload) {
    if (!ok) {
      run.result.CheckFailed("preload SET failed");
    }
    if (--preload_inflight_ == 0) {
      SendPreloadWindow();
    }
    return;
  }
  if (ok && p.get) {
    ok = run.ledger.Matches(run.table, p.key, p.version, resp.value);
  } else if (ok) {
    run.ledger.Ack(p.key, p.version);
  }
  if (!ok) {
    run.result.Fail(std::string(p.get ? "GET " : "SET ") + run.table.keys[p.key] +
                    ": wrong or missing value");
  }
  if (run.InWindow(now)) {
    ++run.result.completed;
  }
  if (run.InWindow(p.t_ns)) {
    run.result.latencies_ns.push_back(now - p.t_ns);
  }
  if (!run.cfg.open_loop) {
    IssueNextClosed();
  }
}

void Conn::Issue(std::uint32_t key, bool get, std::uint64_t t_ns, bool preload) {
  McRun& run = run_;
  std::uint32_t version = 0;
  std::unique_ptr<IOBuf> req;
  std::uint32_t opaque = run.next_opaque++;
  if (get) {
    version = run.ledger.acked(key);
    req = BuildRequest(Opcode::kGet, run.table.keys[key], {}, opaque);
  } else {
    version = preload ? 0 : run.ledger.NextVersion(key);
    req = BuildRequest(Opcode::kSet, run.table.keys[key], run.table.Value(key, version),
                       opaque);
  }
  if (!preload) {
    ++run.result.attempted;
  }
  if (req->ComputeChainDataLength() > Pcb().SendWindowRemaining()) {
    if (preload) {
      run.result.CheckFailed("preload refused by the send window");
    } else {
      run.result.Fail("request refused: send window full");
    }
    return;
  }
  if (!preload && run.record != nullptr && run.InWindow(t_ns)) {
    run.record->push_back(RecordedOp{key, version, get});
  }
  pending_.push_back(Pending{opaque, key, version, t_ns, get, preload});
  Span send(Layer::kNetSend, opaque);
  Pcb().Send(std::move(req));
}

void Conn::StartPreload() { SendPreloadWindow(); }

void Conn::SendPreloadWindow() {
  McRun& run = run_;
  std::size_t keys = run.table.keys.size();
  if (next_preload_ == keys) {
    run.OnPreloaded();
    return;
  }
  std::size_t per_window =
      std::clamp<std::size_t>(kPreloadWindowBytes / (run.cfg.value_bytes + 128), 1, kPreloadWindow);
  std::size_t n = std::min(per_window, keys - next_preload_);
  preload_inflight_ = n;
  for (std::size_t i = 0; i < n; ++i) {
    Issue(static_cast<std::uint32_t>(next_preload_++), /*get=*/false, 0, /*preload=*/true);
  }
}

void Conn::StartLoad() {
  Span span(Layer::kLoadgen);
  if (run_.cfg.open_loop) {
    ArmTimer();
    return;
  }
  for (std::size_t i = 0; i < run_.cfg.depth; ++i) {
    IssueNextClosed();
  }
}

void Conn::IssueNextClosed() {
  McRun& run = run_;
  std::uint64_t now = run.world->Now();
  if (now >= run.t1) {
    return;  // the closed loop stops issuing when the window closes
  }
  const std::vector<McOp>& ops = run.ops[index_];
  const McOp& op = ops[next_op_++ % ops.size()];
  Issue(op.key, op.get, now, /*preload=*/false);
}

// Open loop: every op whose due time has passed is sent now; how late the generator ran is
// reported, and latency counts from the due time, so a stall is charged to the ops behind it.
void Conn::Tick() {
  McRun& run = run_;
  std::uint64_t now = run.world->Now();
  const std::vector<McOp>& ops = run.ops[index_];
  while (next_op_ < ops.size() && run.start_ns + ops[next_op_].due_ns <= now) {
    const McOp& op = ops[next_op_++];
    std::uint64_t due = run.start_ns + op.due_ns;
    run.result.late_max_ns = std::max(run.result.late_max_ns, now - due);
    Issue(op.key, op.get, due, /*preload=*/false);
  }
  ArmTimer();
}

void Conn::ArmTimer() {
  McRun& run = run_;
  const std::vector<McOp>& ops = run.ops[index_];
  if (next_op_ >= ops.size()) {
    return;
  }
  std::uint64_t due = run.start_ns + ops[next_op_].due_ns;
  std::uint64_t now = run.world->Now();
  std::uint64_t delay = due > now ? due - now : 1;
  ebbrt::Timer::Instance()->Start(delay, [this] {
    Span span(Layer::kLoadgen);
    Tick();
  });
}

class MemcachedWorkload final : public Workload {
 public:
  MemcachedWorkload(std::uint64_t seed, McConfig cfg, const char* key_prefix)
      : cfg_(cfg), table_(MakeKeyTable(seed, cfg.key_space, key_prefix, cfg.value_bytes)) {
    Rng rng(Mix(seed, 0x6f7073));  // "ops"
    ops_.resize(cfg.connections);
    if (cfg.open_loop) {
      // One Poisson stream at the aggregate rate, each arrival dealt to a random connection.
      double t = 0;
      double horizon = static_cast<double>(cfg.warmup_ns + cfg.window_ns);
      double mean_gap = 1e9 / cfg.rate_ops_s;
      while (true) {
        t += -std::log(1.0 - rng.Unit()) * mean_gap;
        if (t >= horizon) {
          break;
        }
        McOp op{static_cast<std::uint64_t>(t), static_cast<std::uint32_t>(rng.Below(cfg.key_space)),
                rng.Unit() < cfg.get_ratio};
        ops_[rng.Below(cfg.connections)].push_back(op);
      }
    } else {
      // A closed loop consumes its list in order and wraps; the length only has to exceed
      // one window's worth so that wrapping is rare.
      for (auto& list : ops_) {
        list.resize(16384);
        for (McOp& op : list) {
          op = McOp{0, static_cast<std::uint32_t>(rng.Below(cfg.key_space)),
                    rng.Unit() < cfg.get_ratio};
        }
      }
    }
  }

  RepResult RunRep(double cpu_start_ns, bool record) override;
  ReplayResult Replay() override;

 private:
  McConfig cfg_;
  KeyTable table_;
  std::vector<std::vector<McOp>> ops_;
  std::vector<RecordedOp> recorded_;
};

RepResult MemcachedWorkload::RunRep(double cpu_start_ns, bool record) {
  RepResult result;
  if (record) {
    recorded_.clear();
  }
  auto bed = std::make_unique<ebbrt::sim::Testbed>();
  ebbrt::sim::TestbedNode server = bed->AddNode("server", 1, kServerIp);
  ebbrt::sim::TestbedNode client = bed->AddNode("client", kClientCores, kClientIp,
                                                ebbrt::sim::HypervisorModel::Native());
  std::vector<ebbrt::sim::TestbedNode> nodes{server, client};
  McRun run(cfg_, table_, ops_, result, record ? &recorded_ : nullptr);
  run.world = &bed->world();
  run.client = client;

  ebbrt::memcached::MemcachedServer* mc = nullptr;
  server.Spawn(0, [&] {
    ebbrt::obs::ObsRoot::For(*server.runtime);
    mc = new ebbrt::memcached::MemcachedServer(*server.net, kPort);
  });
  client.Spawn(0, [&] { ebbrt::obs::ObsRoot::For(*client.runtime); });
  for (std::size_t i = 0; i < cfg_.connections; ++i) {
    auto conn = std::make_shared<Conn>(run, i);
    run.conns.push_back(conn);
    client.Spawn(i % kClientCores, [&run, conn, client] {
      client.net->tcp().Connect(*client.iface, kServerIp, kPort).Then(
          [&run, conn](ebbrt::Future<ebbrt::TcpPcb> f) {
            ebbrt::TcpPcb pcb = f.Get();
            pcb.InstallHandler(std::shared_ptr<ebbrt::TcpHandler>(conn));
            ++run.connected;
          });
    });
  }
  ebbrt::SimWorld& world = bed->world();
  // Idle pool occupancy (see CheckPoolIdle): every connection up, the world drained.
  if (!RunUntilOr(world, 10'000'000'000ull, [&] { return run.connected == cfg_.connections; }) ||
      !Quiesce(world, world.Now() + 10'000'000'000ull)) {
    result.CheckFailed("connections did not come up");
    return result;
  }
  std::uint64_t pool_idle = ebbrt::mem::stats().pool_in_use.load();
  std::shared_ptr<Conn> first = run.conns[0];
  client.Spawn(0, [first] { first->StartPreload(); });  // connection 0 lives on core 0
  if (!RunUntilOr(world, 10'000'000'000ull, [&] { return run.started; })) {
    result.CheckFailed("set-up did not finish");
    return result;
  }
  MeasureWindow(*bed, nodes, run.t0, run.t1, cpu_start_ns, result);

  // Drain, then tear down and prove nothing leaked.
  RunUntilOr(world, run.t1 + kDrainNs, [&] { return run.Outstanding() == 0; });
  for (std::size_t i = 0; i < run.Outstanding(); ++i) {
    result.Fail("request never answered");
  }
  for (std::size_t i = 0; i < run.conns.size(); ++i) {
    std::shared_ptr<Conn> conn = run.conns[i];
    client.Spawn(i % kClientCores, [conn] { conn->Pcb().Close(); });
  }
  if (!Quiesce(world, world.Now() + 10'000'000'000ull)) {
    result.CheckFailed("world did not quiesce after the connections closed");
  }
  if (mc->bad_frames() != 0) {
    result.CheckFailed("server counted bad frames");
  }
  CheckPoolIdle(pool_idle, result);
  run.conns.clear();
  server.Spawn(0, [mc] { delete mc; });
  Quiesce(world, world.Now() + 10'000'000'000ull);
  bed.reset();
  CheckNoLiveItems(result);
  return result;
}

// Feeds the recorded request stream, cut into the MSS-sized segments the client's TCP sent
// it as, through a fresh RequestParser; then applies the same ops to a fresh KvStore.
// Timing is per chunk of calls so that clock reads stay out of the per-op figure.
ReplayResult MemcachedWorkload::Replay() {
  ReplayResult out;
  if (recorded_.empty()) {
    out.ok = false;
    out.error = "no recorded ops";
    return out;
  }
  constexpr std::size_t kChunk = 256;
  std::vector<std::string> segments;              // the request stream, as wire segments
  std::vector<std::size_t> chunk_first_segment;  // index of each chunk's first segment
  {
    std::uint32_t opaque = 1;
    for (std::size_t i = 0; i < recorded_.size(); ++i) {
      if (i % kChunk == 0) {
        chunk_first_segment.push_back(segments.size());
      }
      const RecordedOp& op = recorded_[i];
      std::unique_ptr<IOBuf> req =
          op.get ? BuildRequest(Opcode::kGet, table_.keys[op.key], {}, opaque++)
                 : BuildRequest(Opcode::kSet, table_.keys[op.key],
                                table_.Value(op.key, op.version), opaque++);
      std::string_view bytes(reinterpret_cast<const char*>(req->Data()), req->Length());
      for (std::size_t off = 0; off < bytes.size(); off += ebbrt::kTcpMss) {
        segments.emplace_back(bytes.substr(off, ebbrt::kTcpMss));
      }
    }
    chunk_first_segment.push_back(segments.size());
  }

  std::uint64_t parse_ns = 0;
  std::uint64_t kv_ns = 0;
  std::size_t parsed = 0;
  std::size_t kv_errors = 0;
  {
    ebbrt::SimWorld world;
    ebbrt::Runtime& rt = world.AddMachine("replay", 1);
    std::unique_ptr<RequestParser> parser;
    std::unique_ptr<ebbrt::memcached::KvStore> store;
    std::size_t chunks = chunk_first_segment.size() - 1;
    // One event per chunk: RCU frees of replaced items run between chunks, off the clock.
    for (std::size_t c = 0; c < chunks; ++c) {
      ebbrt::SimWorld::SpawnOn(rt, 0, [&, c] {
        if (c == 0) {
          parser = std::make_unique<RequestParser>();
          store = std::make_unique<ebbrt::memcached::KvStore>(ebbrt::RcuManagerRoot::For(rt));
          for (std::size_t k = 0; k < table_.keys.size(); ++k) {
            store->Set(table_.keys[k], table_.Value(k, 0), 0);
          }
        }
        std::vector<std::unique_ptr<IOBuf>> bufs;
        for (std::size_t s = chunk_first_segment[c]; s < chunk_first_segment[c + 1]; ++s) {
          bufs.push_back(IOBuf::CopyBuffer(segments[s]));
        }
        std::uint64_t start = WallNs();
        for (auto& buf : bufs) {
          parser->Feed(std::move(buf), [&parsed](const RequestParser::Request& req) {
            parsed += req.key.empty() ? 0 : 1;
          });
        }
        parse_ns += WallNs() - start;

        std::size_t first = c * kChunk;
        std::size_t last = std::min(recorded_.size(), first + kChunk);
        start = WallNs();
        for (std::size_t i = first; i < last; ++i) {
          const RecordedOp& op = recorded_[i];
          if (op.get) {
            ebbrt::memcached::ItemPtr item = store->Get(table_.keys[op.key]);
            if (item == nullptr) {
              ++kv_errors;
              continue;
            }
            ebbrt::memcached::MakeValueBuffer(std::move(item)).reset();
          } else {
            store->Set(table_.keys[op.key], table_.Value(op.key, op.version), 0);
          }
        }
        kv_ns += WallNs() - start;
        if (c + 1 == chunks) {
          parser.reset();
          store.reset();
        }
      });
      world.Run();
    }
  }
  if (ebbrt::memcached::Item::live_count() != 0) {
    out.ok = false;
    out.error = "replay leaked items";
  }
  if (parsed != recorded_.size() || kv_errors != 0) {
    out.ok = false;
    out.error = "replay parsed " + std::to_string(parsed) + " of " +
                std::to_string(recorded_.size()) + " requests, " +
                std::to_string(kv_errors) + " store misses";
  }
  double ops = static_cast<double>(recorded_.size());
  out.parse_ns_per_op = static_cast<double>(parse_ns) / ops;
  out.kv_ns_per_op = static_cast<double>(kv_ns) / ops;
  return out;
}

}  // namespace

// The paper's per-core memcached case (Figs. 5-6): small ETC messages, so per-segment and
// per-event costs dominate.
std::unique_ptr<Workload> MakeEtcOpen(std::uint64_t seed) {
  McConfig cfg{};
  cfg.connections = 16;
  cfg.open_loop = true;
  cfg.rate_ops_s = 200'000;
  cfg.get_ratio = 0.9;
  cfg.key_space = 4000;
  cfg.value_bytes = 0;
  cfg.warmup_ns = 10'000'000;
  cfg.window_ns = 100'000'000;
  return std::make_unique<MemcachedWorkload>(seed, cfg, "etc:");
}

// Writes beside reads with 8 KiB values: cost scales with bytes (multi-segment reassembly,
// item carving and replacement, checksums, multi-segment TX), not with segment count.
std::unique_ptr<Workload> MakeSetLarge(std::uint64_t seed) {
  McConfig cfg{};
  cfg.connections = 8;
  cfg.open_loop = false;
  cfg.depth = 4;
  cfg.get_ratio = 0.5;
  cfg.key_space = 2048;
  cfg.value_bytes = 8192;
  cfg.warmup_ns = 5'000'000;
  cfg.window_ns = 50'000'000;
  return std::make_unique<MemcachedWorkload>(seed, cfg, "big:");
}

}  // namespace perfbench
