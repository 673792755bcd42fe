#include "src/obs/metrics.h"

#include <cstdio>
#include <utility>

#include "src/dist/messenger.h"
#include "src/event/event_manager.h"
#include "src/mem/gp_allocator.h"
#include "src/net/network_manager.h"
#include "src/platform/context.h"
#include "src/platform/debug.h"

namespace ebbrt {
namespace obs {

// --- MetricRegistry --------------------------------------------------------------------------

MetricRegistry::MetricRegistry(ObsRoot& root, std::size_t machine_core)
    : root_(root), machine_core_(machine_core),
      span_ring_(new SpanRecord[kSpanRingCap]) {}

// Trace ids are deterministic under SimWorld: (runtime, core, per-core sequence). Runtime
// ids are process-unique, so traces from different machines in one testbed never collide.
std::uint64_t MetricRegistry::NewTraceId() {
  ++trace_seq_;
  return ((static_cast<std::uint64_t>(root_.runtime().id() + 1) & 0xffffff) << 40) |
         ((static_cast<std::uint64_t>(machine_core_) & 0xff) << 32) | trace_seq_;
}

// Span ids carry (runtime, core, sequence) too: a trace's spans are recorded on several
// machines, and parent links must stay unambiguous when the rings are merged. The 20-bit
// sequence skips 0 when it wraps: on core 0 of a runtime whose id bits are 0 that would be
// span id 0, the "no parent" value.
std::uint32_t MetricRegistry::NewSpanId() {
  span_seq_ = (span_seq_ + 1) & 0x000fffff;
  if (span_seq_ == 0) {
    span_seq_ = 1;
  }
  return ((static_cast<std::uint32_t>(root_.runtime().id() + 1) & 0xff) << 24) |
         ((static_cast<std::uint32_t>(machine_core_) & 0xf) << 20) | span_seq_;
}

void MetricRegistry::RecordSpan(const SpanRecord& span) {
  std::uint64_t slot = span_next_.fetch_add(1, std::memory_order_relaxed);
  span_ring_[slot % kSpanRingCap] = span;
}

// --- ObsRoot ---------------------------------------------------------------------------------

ObsRoot& ObsRoot::For(Runtime& runtime) {
  return runtime.GetOrCreateSubsystem<ObsRoot>(
      Subsystem::kObservability, [&] { return std::make_shared<ObsRoot>(runtime); });
}

ObsRoot::ObsRoot(Runtime& runtime) : runtime_(runtime) {
  reps_.resize(runtime.num_cores());
  // Hand the event plane its level switch: EventManager records its histograms only while
  // this machine's plane says metrics are on.
  if (auto* em_root =
          runtime_.TryGetSubsystem<EventManagerRoot>(Subsystem::kEventManager)) {
    for (std::size_t c = 0; c < em_root->num_cores(); ++c) {
      em_root->RepFor(c).SetObsLevel(&level_);
    }
  }
  InstallDefaultCollectors();
}

ObsRoot::~ObsRoot() {
  // Detach the level switch; the EventManagerRoot outlives this object (adopted earlier),
  // but its reps must not read a freed atomic if anything dispatches during teardown.
  if (auto* em_root =
          runtime_.TryGetSubsystem<EventManagerRoot>(Subsystem::kEventManager)) {
    for (std::size_t c = 0; c < em_root->num_cores(); ++c) {
      em_root->RepFor(c).SetObsLevel(nullptr);
    }
  }
}

MetricRegistry& ObsRoot::RepFor(std::size_t machine_core) {
  Kassert(machine_core < reps_.size(), "ObsRoot::RepFor: bad core");
  if (MetricRegistry* rep = reps_[machine_core].get()) {
    return *rep;
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (reps_[machine_core] == nullptr) {
    reps_[machine_core] = std::make_unique<MetricRegistry>(*this, machine_core);
  }
  return *reps_[machine_core];
}

std::uint64_t ObsRoot::AddCollector(Collector collector) {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t handle = next_collector_++;
  collectors_.emplace_back(handle, std::move(collector));
  return handle;
}

void ObsRoot::RemoveCollector(std::uint64_t handle) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = collectors_.begin(); it != collectors_.end(); ++it) {
    if (it->first == handle) {
      collectors_.erase(it);
      return;
    }
  }
}

ObsRoot::MetricsSnapshot ObsRoot::SnapshotNow() {
  std::vector<std::pair<std::uint64_t, Collector>> collectors;
  {
    std::lock_guard<std::mutex> lock(mu_);
    collectors = collectors_;
  }
  MetricsSnapshot out;
  for (auto& entry : collectors) {
    entry.second(out);
  }
  std::uint64_t spans = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);  // another core may be creating a rep
    for (const auto& rep : reps_) {
      if (rep != nullptr) {
        spans += rep->spans_recorded();
      }
    }
  }
  out.samples.emplace_back("obs_spans_recorded", static_cast<double>(spans));
  out.samples.emplace_back("obs_level", static_cast<double>(level_.load()));
  return out;
}

std::string ObsRoot::RenderText(const MetricsSnapshot& snapshot) {
  std::string out;
  out.reserve(4096);
  char line[256];
  for (const auto& sample : snapshot.samples) {
    double v = sample.second;
    if (v == static_cast<double>(static_cast<long long>(v))) {
      std::snprintf(line, sizeof(line), "%s %lld\n", sample.first.c_str(),
                    static_cast<long long>(v));
    } else {
      std::snprintf(line, sizeof(line), "%s %.6f\n", sample.first.c_str(), v);
    }
    out += line;
  }
  for (const auto& hist : snapshot.hists) {
    const Histogram::Snapshot& s = hist.second;
    const char* name = hist.first.c_str();
    std::snprintf(line, sizeof(line), "%s_count %llu\n%s_sum %llu\n", name,
                  static_cast<unsigned long long>(s.count), name,
                  static_cast<unsigned long long>(s.sum));
    out += line;
    std::snprintf(line, sizeof(line),
                  "%s{q=\"0.5\"} %llu\n%s{q=\"0.99\"} %llu\n%s{q=\"0.999\"} %llu\n", name,
                  static_cast<unsigned long long>(s.P50()), name,
                  static_cast<unsigned long long>(s.P99()), name,
                  static_cast<unsigned long long>(s.P999()));
    out += line;
  }
  return out;
}

std::vector<SpanRecord> ObsRoot::Spans() const {
  std::vector<SpanRecord> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& rep : reps_) {
    if (rep == nullptr) {
      continue;
    }
    std::uint64_t total = rep->span_next_.load(std::memory_order_relaxed);
    std::uint64_t cap = MetricRegistry::kSpanRingCap;
    std::uint64_t first = total > cap ? total - cap : 0;
    for (std::uint64_t i = first; i < total; ++i) {
      out.push_back(rep->span_ring_[i % cap]);
    }
  }
  return out;
}

void ObsRoot::ClearSpans() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& rep : reps_) {
    if (rep != nullptr) {
      rep->span_next_.store(0, std::memory_order_relaxed);
    }
  }
}

std::uint64_t ObsRoot::NowNs() {
  auto* em_root = runtime_.TryGetSubsystem<EventManagerRoot>(Subsystem::kEventManager);
  return em_root == nullptr ? 0 : em_root->executor().Now();
}

ObsRoot::TraceScope::TraceScope(Runtime& runtime, const Span& span) {
  ObsRoot* root = span.trace_id != 0 ? TryFor(runtime) : nullptr;
  if (root == nullptr) {
    return;
  }
  rep_ = &root->RepFor(CurrentContext().machine_core);
  saved_ = rep_->ctx_;
  rep_->ctx_ = TraceContext{span.trace_id, span.span_id};
}

ObsRoot::TraceScope::~TraceScope() {
  if (rep_ != nullptr) {
    rep_->ctx_ = saved_;
  }
}

// --- Spans -----------------------------------------------------------------------------------

Span OpenSpan(Runtime& runtime, std::optional<TraceContext> carried) {
  Span span;
  ObsRoot* root = carried && carried->trace_id == 0 ? nullptr : ObsRoot::TryFor(runtime);
  if (root == nullptr || !root->tracing_on()) {
    return span;
  }
  MetricRegistry& rep = root->RepFor(CurrentContext().machine_core);
  TraceContext parent = carried ? *carried : rep.current();
  span.trace_id = parent.trace_id != 0 ? parent.trace_id : rep.NewTraceId();
  span.parent_span = parent.trace_id != 0 ? parent.span_id : 0;
  span.span_id = rep.NewSpanId();
  span.start_ns = root->NowNs();
  return span;
}

void CloseSpan(Runtime& runtime, const Span& span, SpanKind kind, EbbId service,
               std::uint16_t opcode, SpanStatus status, std::uint32_t attempts) {
  ObsRoot* root = span.trace_id != 0 ? ObsRoot::TryFor(runtime) : nullptr;
  if (root == nullptr) {
    return;
  }
  std::size_t core = CurrentContext().machine_core;
  SpanRecord record;
  record.trace_id = span.trace_id;
  record.span_id = span.span_id;
  record.parent_span = span.parent_span;
  record.service = service;
  record.opcode = opcode;
  record.kind = kind;
  record.status = status;
  record.start_ns = span.start_ns;
  record.end_ns = root->NowNs();
  record.attempts = attempts;
  record.core = static_cast<std::uint32_t>(core);
  root->RepFor(core).RecordSpan(record);
}

// --- Default collectors: the subsystems' stats() structs -------------------------------------
//
// Pull-only: nothing here touches a hot path. Each lambda re-resolves its subsystem at
// sample time (TryGetSubsystem), so collectors installed before a subsystem exists — or
// surviving after one died at teardown — just skip it.
void ObsRoot::InstallDefaultCollectors() {
  Runtime* rt = &runtime_;

  AddCollector([rt](MetricsSnapshot& snapshot) {
    auto* em_root = rt->TryGetSubsystem<EventManagerRoot>(Subsystem::kEventManager);
    if (em_root == nullptr) {
      return;
    }
    std::vector<Sample>& out = snapshot.samples;
    EventManager::Stats total;
    Histogram::Snapshot handler, hook, batch, residency;
    for (std::size_t c = 0; c < em_root->num_cores(); ++c) {
      EventManager& em = em_root->RepFor(c);
      EventManager::Stats s = em.stats();
      total.interrupts += s.interrupts;
      total.synthetic += s.synthetic;
      total.idle_passes += s.idle_passes;
      total.timers += s.timers;
      total.end_of_event += s.end_of_event;
      total.xcore_spawns += s.xcore_spawns;
      total.xcore_batches += s.xcore_batches;
      total.xcore_pushes += s.xcore_pushes;
      total.xcore_wakeups += s.xcore_wakeups;
      total.control_locks += s.control_locks;
      out.emplace_back("event_run_queue_depth{core=\"" + std::to_string(c) + "\"}",
                       static_cast<double>(em.run_queue_depth()));
      em.handler_latency_hist().Sample(&handler);
      em.end_of_event_hook_hist().Sample(&hook);
      em.xcore_batch_size_hist().Sample(&batch);
      em.xcore_residency_hist().Sample(&residency);
    }
    out.emplace_back("event_interrupts", static_cast<double>(total.interrupts));
    out.emplace_back("event_synthetic", static_cast<double>(total.synthetic));
    out.emplace_back("event_idle_passes", static_cast<double>(total.idle_passes));
    out.emplace_back("event_timers", static_cast<double>(total.timers));
    out.emplace_back("event_end_of_event_hooks", static_cast<double>(total.end_of_event));
    out.emplace_back("event_xcore_spawns", static_cast<double>(total.xcore_spawns));
    out.emplace_back("event_xcore_batches", static_cast<double>(total.xcore_batches));
    out.emplace_back("event_xcore_pushes", static_cast<double>(total.xcore_pushes));
    out.emplace_back("event_xcore_wakeups", static_cast<double>(total.xcore_wakeups));
    out.emplace_back("event_control_locks", static_cast<double>(total.control_locks));
    snapshot.hists.emplace_back("event_handler_latency_ns", handler);
    snapshot.hists.emplace_back("event_end_of_event_hook_ns", hook);
    snapshot.hists.emplace_back("interconnect_batch_size", batch);
    snapshot.hists.emplace_back("interconnect_queue_residency_ns", residency);
  });

  AddCollector([](MetricsSnapshot& snapshot) {
    std::vector<Sample>& out = snapshot.samples;
    // Process-global memory-plane counters (benches snapshot deltas; pool_in_use is the
    // absolute count of live network frames).
    mem::Stats& m = mem::stats();
    auto get = [](const std::atomic<std::uint64_t>& a) {
      return static_cast<double>(a.load(std::memory_order_relaxed));
    };
    out.emplace_back("mem_iobuf_allocs", get(m.iobuf_allocs));
    out.emplace_back("mem_iobuf_slab_allocs", get(m.iobuf_slab_allocs));
    out.emplace_back("mem_heap_fallback_allocs", get(m.heap_fallback_allocs));
    out.emplace_back("mem_pool_hits", get(m.pool_hits));
    out.emplace_back("mem_pool_misses", get(m.pool_misses));
    out.emplace_back("mem_pool_remote_frees", get(m.remote_frees));
    out.emplace_back("mem_pool_in_use", get(m.pool_in_use));
  });

  AddCollector([rt](MetricsSnapshot& snapshot) {
    std::vector<Sample>& out = snapshot.samples;
    auto* net = rt->TryGetSubsystem<NetworkManager>(Subsystem::kNetworkManager);
    if (net == nullptr) {
      return;
    }
    const NetworkManager::Stats& s = net->stats();
    auto get = [](const std::atomic<std::uint64_t>& a) {
      return static_cast<double>(a.load(std::memory_order_relaxed));
    };
    out.emplace_back("net_ip_rx", get(s.ip_rx));
    out.emplace_back("net_tcp_rx", get(s.tcp_rx));
    out.emplace_back("net_tcp_tx_segments", get(s.tcp_tx_segments));
    out.emplace_back("net_tcp_tx_data_segments", get(s.tcp_tx_data_segments));
    out.emplace_back("net_tcp_tx_payload_bytes", get(s.tcp_tx_payload_bytes));
    out.emplace_back("net_sends_coalesced", get(s.sends_coalesced));
    out.emplace_back("net_cork_flushes", get(s.cork_flushes));
    out.emplace_back("net_corked_drops", get(s.corked_drops));
    out.emplace_back("net_checksum_drops", get(s.checksum_drops));
  });

  AddCollector([rt](MetricsSnapshot& snapshot) {
    std::vector<Sample>& out = snapshot.samples;
    auto* messenger = rt->TryGetSubsystem<dist::Messenger>(Subsystem::kMessenger);
    if (messenger == nullptr) {
      return;
    }
    const dist::Messenger::Stats& s = messenger->stats();
    auto get = [](const std::atomic<std::uint64_t>& a) {
      return static_cast<double>(a.load(std::memory_order_relaxed));
    };
    out.emplace_back("messenger_messages_sent", get(s.messages_sent));
    out.emplace_back("messenger_messages_received", get(s.messages_received));
    out.emplace_back("messenger_dials", get(s.dials));
    out.emplace_back("messenger_accepts", get(s.accepts));
    out.emplace_back("messenger_reconnects", get(s.reconnects));
    out.emplace_back("messenger_dropped", get(s.dropped));
    out.emplace_back("messenger_bad_frames", get(s.bad_frames));
    out.emplace_back("messenger_control_locks", get(s.control_locks));
    // Per-peer attribution: the misbehaving-client signal (fig12 prerequisite).
    for (const auto& peer : messenger->BadFramesByPeer()) {
      out.emplace_back(
          "messenger_bad_frames{peer=\"" + peer.first.ToString() + "\"}",
          static_cast<double>(peer.second));
    }
  });
}

}  // namespace obs
}  // namespace ebbrt
