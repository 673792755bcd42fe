// obs — the always-on telemetry plane: one metrics surface plus distributed trace plumbing.
//
// Metrics have one surface, pull collectors. Every subsystem keeps plain counters in its own
// stats() struct on its hot path; a collector registered with the machine's ObsRoot samples
// them at snapshot time and appends named series and histograms to a MetricsSnapshot.
// /metrics, the StatsService scrape and the benches all read that one snapshot, in the style
// of eBPF's always-on instrumentation: one counter surface per program, nothing recorded
// twice.
//
//   * ObsRoot is the per-machine root (Subsystem::kObservability): the global level switch
//     (off / metrics / metrics+tracing), the collectors — the defaults re-home the
//     EventManager, mem::stats, NetworkManager and Messenger structs — and the control
//     plane of the span rings.
//   * MetricRegistry is the per-core representative and holds trace state only: the core's
//     ambient {trace id, span id} context, its id sequences and a preallocated span ring.
//   * Tracing: OpenSpan decides each new span's trace and parent, CloseSpan records it, and
//     TraceScope installs it as the core's ambient context. The RPC layer stamps the ids into
//     every frame (rpc.h's RpcHeader) so a trace id survives retries under fresh request ids
//     and ShardRouter failovers. Ids derive from (runtime id, core, sequence) — fully
//     deterministic under SimWorld, so tests assert exact span trees.
#ifndef EBBRT_SRC_OBS_METRICS_H_
#define EBBRT_SRC_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/core/ebb_id.h"
#include "src/core/runtime.h"
#include "src/obs/histogram.h"

namespace ebbrt {
namespace obs {

// Global instrumentation level for one machine. kMetrics enables the event-plane histogram
// recording; kTracing additionally stamps trace ids into RPC frames and writes span records.
// The plane is born at kTracing — "always on" is the design point; benches dial it down to
// measure the plane's own cost.
enum class Level : std::uint8_t { kOff = 0, kMetrics = 1, kTracing = 2 };

enum class SpanKind : std::uint8_t { kLocal = 0, kClient = 1, kServer = 2 };
enum class SpanStatus : std::uint8_t { kOk = 0, kError = 1, kTimeout = 2, kPeerLost = 3 };

// One completed hop of a distributed request. POD, written whole into a preallocated
// per-core ring — recording a span never allocates.
struct SpanRecord {
  std::uint64_t trace_id = 0;
  std::uint32_t span_id = 0;
  std::uint32_t parent_span = 0;  // 0 = root of its trace
  EbbId service = 0;              // target service id (client/server) or logical op owner
  std::uint16_t opcode = 0;
  SpanKind kind = SpanKind::kLocal;
  SpanStatus status = SpanStatus::kOk;
  std::uint64_t start_ns = 0;     // virtual time under SimWorld
  std::uint64_t end_ns = 0;
  std::uint32_t attempts = 0;     // client spans: send attempts (1 = no retry)
  std::uint32_t core = 0;         // recording core
};

// The ids new spans are opened under: a core's ambient context, or what a frame carried.
struct TraceContext {
  std::uint64_t trace_id = 0;  // 0 = untraced
  std::uint32_t span_id = 0;
};

// One open span: its identity and start time. A zero trace_id means untraced, and CloseSpan
// and TraceScope then do nothing.
struct Span {
  std::uint64_t trace_id = 0;
  std::uint32_t span_id = 0;
  std::uint32_t parent_span = 0;  // 0 = root of its trace
  std::uint64_t start_ns = 0;
};

class ObsRoot;

// --- Per-core representative: trace state ----------------------------------------------------
//
// Everything but spans_recorded() is owner-core only (the usual non-preemption argument).
class MetricRegistry {
 public:
  // Span ring capacity per core (power of two). The ring wraps: recent spans win.
  static constexpr std::size_t kSpanRingCap = 4096;

  MetricRegistry(ObsRoot& root, std::size_t machine_core);

  TraceContext current() const { return ctx_; }
  std::uint64_t NewTraceId();
  // Never returns a span id whose sequence bits are 0.
  std::uint32_t NewSpanId();
  // Writes one completed span into this core's ring. Never allocates; the ring wraps.
  void RecordSpan(const SpanRecord& span);
  std::uint64_t spans_recorded() const {
    return span_next_.load(std::memory_order_relaxed);
  }

 private:
  friend class ObsRoot;

  ObsRoot& root_;
  std::size_t machine_core_;

  TraceContext ctx_;               // ambient trace scope
  std::uint64_t trace_seq_ = 0;
  std::uint32_t span_seq_ = 0;
  // Preallocated at rep construction (control plane) — the recording path never allocates.
  std::unique_ptr<SpanRecord[]> span_ring_;
  std::atomic<std::uint64_t> span_next_{0};  // total spans ever recorded; ring index mod cap
};

// --- Per-machine root ------------------------------------------------------------------------
class ObsRoot {
 public:
  // The machine's plane, creating it (Subsystem::kObservability) on first use. Must be
  // called from one of `runtime`'s cores the first time. Construction attaches the level
  // switch to every EventManager rep and installs the default collectors.
  static ObsRoot& For(Runtime& runtime);
  // The plane if it exists, nullptr otherwise — for hot paths that must not force creation.
  static ObsRoot* TryFor(Runtime& runtime) {
    return runtime.TryGetSubsystem<ObsRoot>(Subsystem::kObservability);
  }

  explicit ObsRoot(Runtime& runtime);
  ~ObsRoot();

  ObsRoot(const ObsRoot&) = delete;
  ObsRoot& operator=(const ObsRoot&) = delete;

  Runtime& runtime() { return runtime_; }

  Level level() const { return static_cast<Level>(level_.load(std::memory_order_relaxed)); }
  void SetLevel(Level level) {
    level_.store(static_cast<std::uint8_t>(level), std::memory_order_relaxed);
  }
  bool metrics_on() const { return level() >= Level::kMetrics; }
  bool tracing_on() const { return level() >= Level::kTracing; }

  // --- Metrics: collectors and snapshots -----------------------------------------------------
  // Scalar samples carry their full exposition name, labels included.
  using Sample = std::pair<std::string, double>;
  using HistSample = std::pair<std::string, Histogram::Snapshot>;
  struct MetricsSnapshot {
    std::vector<Sample> samples;    // collector output, then the plane's own two series
    std::vector<HistSample> hists;  // collector histograms, already merged across cores
  };
  // Sampled at snapshot time, never on a hot path: this is how the subsystems' stats()
  // structs (and labeled series such as per-peer bad_frames) reach the exposition surfaces
  // without touching their hot paths.
  using Collector = std::function<void(MetricsSnapshot&)>;
  std::uint64_t AddCollector(Collector collector);
  void RemoveCollector(std::uint64_t handle);

  // Runs every collector in registration order; callable from any of the machine's cores.
  MetricsSnapshot SnapshotNow();
  // The /metrics exposition text for a snapshot (Prometheus-flavored; histograms render as
  // _count/_sum plus q="0.5|0.99|0.999" quantile samples).
  static std::string RenderText(const MetricsSnapshot& snapshot);

  // --- Tracing (control-plane views; recording goes through OpenSpan/CloseSpan) --------------
  // All spans currently held in the per-core rings, oldest first per core. Control plane:
  // tests and debug endpoints, not the datapath.
  std::vector<SpanRecord> Spans() const;
  void ClearSpans();
  // The machine's clock (virtual ns under SimWorld): the executor behind its event loops and
  // timers.
  std::uint64_t NowNs();

  // RAII trace scope for the current core: installs `span` as the ambient context so spans
  // opened inside (an RPC call, a router op) become its children, and restores the previous
  // context on exit. Does nothing for an untraced span.
  class TraceScope {
   public:
    TraceScope(Runtime& runtime, const Span& span);
    ~TraceScope();
    TraceScope(const TraceScope&) = delete;
    TraceScope& operator=(const TraceScope&) = delete;

   private:
    MetricRegistry* rep_ = nullptr;
    TraceContext saved_;
  };

  // The rep for `machine_core`, created on first use (control-plane lock on creation only).
  MetricRegistry& RepFor(std::size_t machine_core);
  MetricRegistry* TryRep(std::size_t machine_core) const {
    std::lock_guard<std::mutex> lock(mu_);
    return reps_[machine_core].get();
  }
  std::size_t num_cores() const { return reps_.size(); }

 private:
  void InstallDefaultCollectors();

  Runtime& runtime_;
  std::atomic<std::uint8_t> level_{static_cast<std::uint8_t>(Level::kTracing)};

  // Collectors, rep creation, and every read of reps_ from another core (snapshots, span
  // export); never on a recording path.
  mutable std::mutex mu_;
  std::uint64_t next_collector_ = 1;
  std::vector<std::pair<std::uint64_t, Collector>> collectors_;

  std::vector<std::unique_ptr<MetricRegistry>> reps_;  // indexed by machine core
};

// Opens a span on the current core. With `carried` (the ids a request frame brought) the span
// is their child, and a zero carried trace means the caller ran untraced, so this span is
// untraced too. Without it the span is a child of the core's ambient context, or the root of
// a new trace when there is none. All-zero when the plane is absent or below kTracing.
Span OpenSpan(Runtime& runtime, std::optional<TraceContext> carried = std::nullopt);

// Records `span`, ending now, into the current core's ring. No-op for an untraced span.
void CloseSpan(Runtime& runtime, const Span& span, SpanKind kind, EbbId service,
               std::uint16_t opcode, SpanStatus status, std::uint32_t attempts = 1);

}  // namespace obs
}  // namespace ebbrt

#endif  // EBBRT_SRC_OBS_METRICS_H_
