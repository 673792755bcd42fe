// Host-time spans recorded from the benchmark's own code: around each call it makes into a
// layer's public functions, and around each callback a layer makes into benchmark code.
//
// The simulated world runs every machine's cores as fibers on ONE host thread, and every
// span opens and closes inside one event handler (nothing wrapped here blocks), so a single
// stack of open spans is exact. A span's self time is its duration minus the durations of
// the spans nested directly inside it. Spans are kept in memory and written out when the
// run ends; totals only accumulate while the measured window is open.
#ifndef PERFBENCH_SRC_TRACE_H_
#define PERFBENCH_SRC_TRACE_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class Layer : std::uint8_t {
  kLoadgen,         // benchmark client code (callbacks from the layers below)
  kNetSend,         // TcpPcb::Send
  kMemcachedParse,  // RequestParser::Feed on the client's response stream
  kDistRouter,      // ShardRouter::MultiGet / ShardRouter::Set
  kCount,
};

const char* LayerName(Layer layer);

inline std::uint64_t WallNs() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

class Tracer {
 public:
  struct Record {
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    std::uint32_t parent;  // index of the enclosing span's record, kNoParent for a root
    std::uint32_t op;      // request id the span served, kNoOp when it served several
    Layer layer;
  };
  static constexpr std::uint32_t kNoParent = 0xffffffffu;
  static constexpr std::uint32_t kNoOp = 0xffffffffu;
  // Records kept per run (a few thousand ops' worth); later spans still count toward the
  // totals.
  static constexpr std::size_t kMaxRecords = 32768;

  // Tracing is off unless enabled; an off tracer costs one branch per span.
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  // Totals accumulate only while the window is open (the measured phase); records are
  // kept only while `keep_records` is set.
  void set_window_open(bool open) { window_open_ = open; }
  void set_keep_records(bool keep) { keep_records_ = keep; }

  void Begin(Layer layer, std::uint32_t op) {
    Open open;
    open.start_ns = WallNs();
    open.layer = layer;
    open.record = kNoParent;
    if (keep_records_ && records_.size() < kMaxRecords) {
      open.record = static_cast<std::uint32_t>(records_.size());
      std::uint32_t parent = stack_.empty() ? kNoParent : stack_.back().record;
      records_.push_back(Record{open.start_ns, 0, parent, op, layer});
    }
    stack_.push_back(open);
  }

  void End() {
    std::uint64_t end = WallNs();
    Open open = stack_.back();
    stack_.pop_back();
    std::uint64_t duration = end - open.start_ns;
    if (window_open_) {
      self_ns_[static_cast<std::size_t>(open.layer)] += duration - open.child_ns;
    }
    if (!stack_.empty()) {
      stack_.back().child_ns += duration;
    }
    if (open.record != kNoParent) {
      records_[open.record].end_ns = end;
    }
  }

  std::uint64_t self_ns(Layer layer) const {
    return self_ns_[static_cast<std::size_t>(layer)];
  }

  // Writes the kept records as Chrome trace-event JSON (chrome://tracing, Perfetto).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Open {
    std::uint64_t start_ns = 0;
    std::uint64_t child_ns = 0;
    std::uint32_t record = kNoParent;
    Layer layer = Layer::kLoadgen;
  };

  bool enabled_ = false;
  bool window_open_ = false;
  bool keep_records_ = false;
  std::vector<Open> stack_;
  std::vector<Record> records_;
  std::array<std::uint64_t, static_cast<std::size_t>(Layer::kCount)> self_ns_{};
};

// The process-wide tracer (one host thread runs the whole simulated world).
Tracer& GlobalTracer();

// RAII span; records nothing when the tracer is off.
class Span {
 public:
  explicit Span(Layer layer, std::uint32_t op = Tracer::kNoOp)
      : tracer_(GlobalTracer().enabled() ? &GlobalTracer() : nullptr) {
    if (tracer_ != nullptr) {
      tracer_->Begin(layer, op);
    }
  }
  ~Span() {
    if (tracer_ != nullptr) {
      tracer_->End();
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRACE_H_
