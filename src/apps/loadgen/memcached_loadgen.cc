#include "src/apps/loadgen/memcached_loadgen.h"

#include <algorithm>

#include "src/event/timer.h"

namespace ebbrt {
namespace loadgen {

using memcached::BinaryHeader;
using memcached::kMagicRequest;
using memcached::Opcode;
using memcached::RequestParser;
using memcached::SetExtras;

namespace {

std::unique_ptr<IOBuf> BuildGet(std::string_view key, std::uint32_t opaque) {
  auto buf = IOBuf::Create(sizeof(BinaryHeader) + key.size(), /*zero=*/true);
  auto& hdr = buf->Get<BinaryHeader>();
  hdr.magic = kMagicRequest;
  hdr.opcode = static_cast<std::uint8_t>(Opcode::kGet);
  hdr.key_length = HostToNet16(static_cast<std::uint16_t>(key.size()));
  hdr.total_body = HostToNet32(static_cast<std::uint32_t>(key.size()));
  hdr.opaque = opaque;
  std::memcpy(buf->WritableData() + sizeof(BinaryHeader), key.data(), key.size());
  return buf;
}

std::unique_ptr<IOBuf> BuildSet(std::string_view key, std::size_t value_size,
                                std::uint32_t opaque) {
  std::size_t body = sizeof(SetExtras) + key.size() + value_size;
  auto buf = IOBuf::Create(sizeof(BinaryHeader) + body, /*zero=*/true);
  auto& hdr = buf->Get<BinaryHeader>();
  hdr.magic = kMagicRequest;
  hdr.opcode = static_cast<std::uint8_t>(Opcode::kSet);
  hdr.key_length = HostToNet16(static_cast<std::uint16_t>(key.size()));
  hdr.extras_length = sizeof(SetExtras);
  hdr.total_body = HostToNet32(static_cast<std::uint32_t>(body));
  hdr.opaque = opaque;
  auto* p = buf->WritableData() + sizeof(BinaryHeader) + sizeof(SetExtras);
  std::memcpy(p, key.data(), key.size());
  std::memset(p + key.size(), 'v', value_size);
  return buf;
}

}  // namespace

// Measurement connection: the loadgen's half of the unified datapath. Responses are parsed
// and accounted synchronously from the device event on the connection's core.
struct MemcachedLoadgen::Conn final : public TcpHandler {
  RequestParser parser;       // responses share the request wire format
  std::deque<std::uint64_t> issue_times;
  std::unique_ptr<EtcWorkload> workload;
  MemcachedLoadgen* gen = nullptr;
  std::size_t core = 0;
  double rate_per_ns = 0;
  bool stopped = false;

  void Receive(std::unique_ptr<IOBuf> data) override {
    parser.Feed(std::move(data), [this](const RequestParser::Request&) {
      if (issue_times.empty()) {
        return;  // response to a request issued outside accounting (shouldn't happen)
      }
      std::uint64_t issued = issue_times.front();
      issue_times.pop_front();
      std::uint64_t now = gen->bed_.world().Now();
      if (issued >= gen->measure_start_ && issued < gen->measure_end_) {
        gen->latencies_.Record(now - issued);
        ++gen->completed_in_window_;
      }
    });
  }
};

// Preloads the keyspace over one connection, pipelining SETs in windows of 32 to keep it
// fast but bounded; kicks off the measurement connections when the last batch is acked.
struct MemcachedLoadgen::Preloader final : public TcpHandler {
  explicit Preloader(MemcachedLoadgen& g) : gen(g) {}

  MemcachedLoadgen& gen;
  RequestParser parser;
  std::size_t next_key = 0;
  std::size_t remaining = 0;

  void Receive(std::unique_ptr<IOBuf> data) override {
    std::size_t done = 0;
    parser.Feed(std::move(data), [&done](const RequestParser::Request&) { ++done; });
    remaining -= done;
    if (remaining == 0) {
      SendNextBatch();
    }
  }

  void SendNextBatch() {
    if (next_key >= gen.config_.key_space) {
      Pcb().Close();
      gen.StartConnections();
      return;
    }
    std::size_t batch = std::min<std::size_t>(32, gen.config_.key_space - next_key);
    remaining = batch;
    for (std::size_t i = 0; i < batch; ++i) {
      std::size_t idx = next_key + i;
      Pcb().Send(BuildSet(gen.preload_workload_->Key(idx),
                          gen.preload_workload_->ValueSize(idx),
                          static_cast<std::uint32_t>(idx)));
    }
    next_key += batch;
  }
};

Future<MemcachedLoadgen::Result> MemcachedLoadgen::Run() {
  Future<Result> result = done_.GetFuture();
  preload_workload_ = std::make_unique<EtcWorkload>(config_.seed, config_.key_space);
  client_.Spawn(0, [this] {
    client_.net->tcp().Connect(*client_.iface, server_, port_).Then([this](Future<TcpPcb> f) {
      TcpPcb pcb = f.Get();
      auto preloader = std::make_shared<Preloader>(*this);
      pcb.InstallHandler(preloader);
      preloader->SendNextBatch();
    });
  });
  return result;
}

void MemcachedLoadgen::StartConnections() {
  std::size_t client_cores = client_.runtime->num_cores();
  measure_start_ = bed_.world().Now() + config_.warmup_ns;
  measure_end_ = measure_start_ + config_.duration_ns;
  for (std::size_t i = 0; i < config_.connections; ++i) {
    std::size_t core = i % client_cores;
    client_.Spawn(core, [this, i, core] {
      client_.net->tcp().Connect(*client_.iface, server_, port_).Then([this, i, core](
                                                                          Future<TcpPcb> f) {
        TcpPcb pcb = f.Get();
        auto conn = std::make_shared<Conn>();
        conn->workload = std::make_unique<EtcWorkload>(config_.seed + 17 * (i + 1),
                                                       config_.key_space);
        conn->gen = this;
        conn->core = core;
        conn->rate_per_ns =
            config_.target_qps / static_cast<double>(config_.connections) / 1e9;
        conns_.push_back(conn);
        pcb.InstallHandler(conn);
        IssueTick(conn);
        if (++conns_ready_ == config_.connections) {
          // Arm the finish line on core 0 of the client.
          std::uint64_t horizon = measure_end_ + 20'000'000;  // drain tail
          std::uint64_t now = bed_.world().Now();
          client_.Spawn(0, [this, horizon, now] {
            Timer::Instance()->Start(horizon - now, [this] { Finish(); });
          });
        }
      });
    });
  }
}

void MemcachedLoadgen::IssueTick(std::shared_ptr<Conn> conn) {
  if (conn->stopped || finished_) {
    return;
  }
  std::uint64_t now = bed_.world().Now();
  if (now >= measure_end_) {
    conn->stopped = true;
    return;
  }
  // Open-loop issue: send unless the pipeline cap is reached (then this arrival is shed and
  // shows up as achieved < offered, exactly how a closed connection limit behaves).
  if (conn->issue_times.size() < config_.pipeline) {
    IssueRequest(*conn);
  }
  std::uint64_t delay = std::max<std::uint64_t>(
      conn->workload->InterarrivalNs(conn->rate_per_ns), 100);
  Timer::Instance()->Start(delay, [this, conn] { IssueTick(conn); });
}

void MemcachedLoadgen::IssueRequest(Conn& conn) {
  std::size_t idx = conn.workload->KeyIndex();
  std::string key = conn.workload->Key(idx);
  std::unique_ptr<IOBuf> req;
  if (conn.workload->IsGet(config_.get_ratio)) {
    req = BuildGet(key, static_cast<std::uint32_t>(idx));
  } else {
    req = BuildSet(key, conn.workload->ValueSize(idx), static_cast<std::uint32_t>(idx));
  }
  if (req->ComputeChainDataLength() <= conn.Pcb().SendWindowRemaining()) {
    conn.issue_times.push_back(bed_.world().Now());
    conn.Pcb().Send(std::move(req));
  }
}

void MemcachedLoadgen::Finish() {
  if (finished_) {
    return;
  }
  finished_ = true;
  for (auto& conn : conns_) {
    conn->stopped = true;
    conn->Pcb().Close();
  }
  Result result;
  obs::Histogram::Snapshot snapshot = latencies_.TakeSnapshot();
  result.samples = static_cast<std::size_t>(snapshot.count);
  if (snapshot.count != 0) {
    result.mean_ns = snapshot.Mean();
    result.p50_ns = snapshot.P50();
    result.p95_ns = snapshot.P95();
    result.p99_ns = snapshot.P99();
    result.p999_ns = snapshot.P999();
  }
  result.achieved_qps = static_cast<double>(completed_in_window_) * 1e9 /
                        static_cast<double>(config_.duration_ns);
  done_.SetValue(result);
}

// --- MemcachedBurstClient ---------------------------------------------------------------------

Future<MemcachedBurstClient::Result> MemcachedBurstClient::Run(sim::TestbedNode& client,
                                                               Ipv4Addr server,
                                                               std::uint16_t port,
                                                               Config config) {
  Kassert(config.connections >= 1, "MemcachedBurstClient: need at least one connection");
  auto fleet = std::make_shared<Fleet>();
  fleet->config = std::move(config);
  fleet->node = client;  // plain pointer bundle, safe to copy into closures
  fleet->server = server;
  fleet->port = port;
  Future<Result> result = fleet->done.GetFuture();
  std::size_t cores = client.runtime->num_cores();
  for (std::size_t i = 0; i < fleet->config.connections; ++i) {
    auto conn = std::shared_ptr<MemcachedBurstClient>(new MemcachedBurstClient(fleet, i));
    fleet->conns.push_back(conn);
    // Connection i opens from client core i % cores; Connect picks a source port whose flow
    // hash lands there, and symmetric RSS steers the server side to the matching core —
    // `connections` distinct flows, one per core pair.
    client.Spawn(i % cores, [fleet, conn]() mutable {
      fleet->node.net->tcp()
          .Connect(*fleet->node.iface, fleet->server, fleet->port)
          .Then([conn](Future<TcpPcb> f) {
            TcpPcb pcb = f.Get();
            pcb.InstallHandler(conn);
            if (conn->index_ == 0) {
              conn->SendPreload();  // one connection preloads the shared key space
            } else if (conn->fleet_->preloaded) {
              conn->preloading_ = false;
              conn->SendNextRound();  // late connect: preload already done
            }
          });
    });
  }
  return result;
}

std::size_t MemcachedBurstClient::TotalForThisConnection() const {
  const Config& cfg = fleet_->config;
  // Request k belongs to connection k % connections.
  if (index_ >= cfg.total_requests) {
    return 0;
  }
  return (cfg.total_requests - index_ - 1) / cfg.connections + 1;
}

void MemcachedBurstClient::SendPreload() {
  const Config& cfg = fleet_->config;
  // All SETs as one chain: the preload is identical across depths, so it contributes the
  // same segment counts to every run of a sweep.
  std::unique_ptr<IOBuf> chain;
  for (std::size_t i = 0; i < cfg.key_space; ++i) {
    auto req = BuildSet("bk" + std::to_string(i), cfg.value_size,
                        static_cast<std::uint32_t>(i));
    if (chain == nullptr) {
      chain = std::move(req);
    } else {
      chain->AppendChain(std::move(req));
    }
  }
  preload_pending_ = cfg.key_space;
  std::size_t bytes = chain->ComputeChainDataLength();
  Kbugon(!Pcb().Send(std::move(chain)),
         "MemcachedBurstClient: preload chain (%zu B) exceeds the send window — shrink "
         "key_space/value_size",
         bytes);
}

void MemcachedBurstClient::SendNextRound() {
  const Config& cfg = fleet_->config;
  std::size_t total = TotalForThisConnection();
  if (issued_ >= total) {
    FinishConnection();
    return;
  }
  std::size_t n = std::min(cfg.depth, total - issued_);
  std::unique_ptr<IOBuf> chain;
  for (std::size_t i = 0; i < n; ++i) {
    // This connection's (issued_ + i)-th request is global request index_ + k*connections.
    std::size_t global = index_ + (issued_ + i) * cfg.connections;
    std::size_t idx = global % cfg.key_space;
    auto req = BuildGet("bk" + std::to_string(idx), static_cast<std::uint32_t>(global));
    if (chain == nullptr) {
      chain = std::move(req);
    } else {
      chain->AppendChain(std::move(req));
    }
  }
  issued_ += n;
  round_pending_ = n;
  std::size_t bytes = chain->ComputeChainDataLength();
  Kbugon(!Pcb().Send(std::move(chain)),
         "MemcachedBurstClient: round chain (%zu B, depth %zu) exceeds the send window — "
         "shrink depth",
         bytes, n);
}

void MemcachedBurstClient::FinishConnection() {
  if (finished_) {
    return;
  }
  finished_ = true;
  Pcb().Close();
  Fleet& fleet = *fleet_;
  if (++fleet.finished == fleet.config.connections) {
    Result result;
    result.responses = fleet.responses;
    for (auto& conn : fleet.conns) {
      if (result.response_bytes.empty()) {
        result.response_bytes = std::move(conn->response_bytes_);
      } else {
        result.response_bytes += conn->response_bytes_;
      }
      conn->response_bytes_.clear();
    }
    fleet.done.SetValue(std::move(result));
    // Break the fleet<->connection shared_ptr cycle (each connection stays alive through
    // its TcpEntry's handler anchor until the close sequence removes the entry).
    fleet.conns.clear();
  }
}

void MemcachedBurstClient::Receive(std::unique_ptr<IOBuf> data) {
  if (!preloading_) {
    // Raw byte-stream capture: a connection's rounds never overlap (closed loop), so its
    // GET-phase stream is exactly the concatenation of these chains.
    for (const IOBuf* seg = data.get(); seg != nullptr; seg = seg->Next()) {
      response_bytes_.append(reinterpret_cast<const char*>(seg->Data()), seg->Length());
    }
  }
  std::size_t completed = 0;
  parser_.Feed(std::move(data), [&completed](const RequestParser::Request&) { ++completed; });
  if (preloading_) {
    preload_pending_ -= completed;
    if (preload_pending_ == 0) {
      preloading_ = false;
      Fleet& fleet = *fleet_;
      fleet.preloaded = true;
      // Steady state begins here: let benches snapshot their baselines, then unleash every
      // connected sibling on its own core (Send must run on the connection's owner core).
      if (fleet.config.on_steady) {
        fleet.config.on_steady();
      }
      std::size_t cores = fleet.node.runtime->num_cores();
      for (std::size_t i = 1; i < fleet.conns.size(); ++i) {
        std::shared_ptr<MemcachedBurstClient> sibling = fleet.conns[i];
        if (!sibling->Pcb().valid()) {
          continue;  // still connecting: the connect continuation starts it
        }
        fleet.node.Spawn(i % cores, [sibling] {
          sibling->preloading_ = false;
          sibling->SendNextRound();
        });
      }
      SendNextRound();
    }
    return;
  }
  fleet_->responses += completed;
  round_pending_ -= completed;
  if (round_pending_ == 0) {
    SendNextRound();
  }
}

}  // namespace loadgen
}  // namespace ebbrt
