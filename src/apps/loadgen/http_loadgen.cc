#include "src/apps/loadgen/http_loadgen.h"

#include <algorithm>

#include "src/event/timer.h"

namespace ebbrt {
namespace loadgen {

namespace {
constexpr std::string_view kRequest =
    "GET / HTTP/1.1\r\nHost: bench\r\nConnection: keep-alive\r\n\r\n";
}  // namespace

// A closed-loop keep-alive connection: a TcpHandler that counts response bytes in place
// (no copies — only chain lengths are inspected) and issues the next request after a think
// pause.
struct HttpLoadgen::Conn final : public TcpHandler,
                                 public std::enable_shared_from_this<Conn> {
  HttpLoadgen* gen = nullptr;
  std::size_t bytes_pending = 0;  // of the current response
  std::uint64_t issued_at = 0;
  bool stopped = false;

  void Receive(std::unique_ptr<IOBuf> data) override {
    std::size_t len = data->ComputeChainDataLength();
    if (len < bytes_pending) {
      bytes_pending -= len;
      return;
    }
    bytes_pending = 0;
    std::uint64_t now = gen->bed_.world().Now();
    if (issued_at >= gen->measure_start_ && issued_at < gen->measure_end_) {
      gen->latencies_.Record(now - issued_at);  // per round (== per request at depth 1)
      gen->completed_ += std::max<std::size_t>(gen->config_.pipeline, 1);
    }
    if (!stopped && now < gen->measure_end_) {
      // Closed loop with light think time ("moderate load").
      HttpLoadgen* g = gen;
      auto self = shared_from_this();
      Timer::Instance()->Start(g->config_.think_time_ns,
                               [g, self] { g->IssueRequest(self); });
    }
  }
};

Future<HttpLoadgen::Result> HttpLoadgen::Run() {
  Future<Result> result = done_.GetFuture();
  measure_start_ = bed_.world().Now() + config_.warmup_ns;
  measure_end_ = measure_start_ + config_.duration_ns;
  std::size_t cores = client_.runtime->num_cores();
  auto ready = std::make_shared<std::size_t>(0);
  for (std::size_t i = 0; i < config_.connections; ++i) {
    std::size_t core = i % cores;
    client_.Spawn(core, [this, ready] {
      client_.net->tcp().Connect(*client_.iface, server_, port_).Then([this, ready](
                                                                          Future<TcpPcb> f) {
        TcpPcb pcb = f.Get();
        auto conn = std::make_shared<Conn>();
        conn->gen = this;
        conns_.push_back(conn);
        pcb.InstallHandler(conn);
        IssueRequest(conn);
        if (++*ready == config_.connections) {
          std::uint64_t horizon = measure_end_ + 20'000'000;
          std::uint64_t now = bed_.world().Now();
          client_.Spawn(0, [this, horizon, now] {
            Timer::Instance()->Start(horizon - now, [this] { Finish(); });
          });
        }
      });
    });
  }
  return result;
}

void HttpLoadgen::IssueRequest(std::shared_ptr<Conn> conn) {
  if (conn->stopped || finished_ || bed_.world().Now() >= measure_end_) {
    conn->stopped = true;
    return;
  }
  conn->issued_at = bed_.world().Now();
  std::size_t depth = std::max<std::size_t>(config_.pipeline, 1);
  conn->bytes_pending = depth * config_.expected_response_bytes;
  // The whole round goes out as one chain — one wire segment when it fits — so the server
  // sees the burst in one event (and, with auto-cork, answers it in one).
  auto chain = IOBuf::CopyBuffer(kRequest);
  for (std::size_t i = 1; i < depth; ++i) {
    chain->AppendChain(IOBuf::CopyBuffer(kRequest));
  }
  conn->Pcb().Send(std::move(chain));
}

void HttpLoadgen::Finish() {
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
    result.p99_ns = snapshot.P99();
    result.p999_ns = snapshot.P999();
  }
  result.achieved_rps =
      static_cast<double>(completed_) * 1e9 / static_cast<double>(config_.duration_ns);
  done_.SetValue(result);
}

}  // namespace loadgen
}  // namespace ebbrt
