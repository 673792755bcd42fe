// perfbench — the repository benchmark driver.
//
//   perfbench --workload <etc_open|set_large|sharded_multiget> --seed N --seconds S
//             --trace <0|1> [--trace-out FILE]
//
// Every workload runs on sim::Testbed in SimWorld's fixed-cost mode: each handler costs a
// fixed 500 ns of virtual time plus the cost model's charges, so the modeled schedule is
// identical on every rep of a seed and host noise moves only the host-time figures.
// (Measured-cost mode turns each host stall into virtual queueing: on a 4-vCPU KVM guest,
// p99 at 100k ops/s ranged 25-157 us over five identical runs.)
//
// A run repeats identical reps (fresh testbed, set-up, measured window, drain, teardown
// checks) until --seconds of wall time have passed, and reports medians over reps for the
// host-time figures. Modeled figures come from the first rep; all reps share them.
//
// --trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and traced reps and
// prints the per-layer metrics: work counts over the measured window, host self time of the
// spans the benchmark records around its calls into each layer, the server-side replay
// timings, and the tracing overhead. The last line of stdout is one JSON object.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

constexpr std::size_t kMinReps = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      args->seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (flag == "--trace") {
      args->trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_seed && args->seconds >= 1 &&
         (args->trace == 0 || args->trace == 1) && !args->workload.empty();
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, std::uint64_t seed) {
  if (name == "etc_open") {
    return MakeEtcOpen(seed);
  }
  if (name == "set_large") {
    return MakeSetLarge(seed);
  }
  if (name == "sharded_multiget") {
    return MakeShardedMultiGet(seed);
  }
  return nullptr;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

// Nearest-rank percentile of the exact sample set.
double Percentile(std::vector<std::uint64_t> v, double q) {
  std::sort(v.begin(), v.end());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return static_cast<double>(v[std::max<std::size_t>(rank, 1) - 1]);
}

double PerOp(double total, double ops) { return ops > 0 ? total / ops : 0.0; }

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

class Report {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    metrics_.push_back(Metric{name, value, unit});
  }
  void Print(bool correct, std::uint64_t attempted, std::uint64_t failed) const {
    for (const Metric& m : metrics_) {
      std::fprintf(stderr, "  %-36s %16.4f %s\n", m.name.c_str(), m.value, m.unit);
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                correct ? "true" : "false", static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                  m.name.c_str(), std::isfinite(m.value) ? m.value : 0.0, m.unit);
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  std::vector<Metric> metrics_;
};

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

int Main(int argc, char** argv) {
  std::uint64_t process_start = WallNs();
  double process_cpu_start = ProcessCpuNs();
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <etc_open|set_large|sharded_multiget> "
                 "--seed N --seconds S --trace <0|1> [--trace-out FILE]\n");
    return 2;
  }
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload, args.seed);
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  bool trace = args.trace == 1;
  std::uint64_t deadline =
      process_start + static_cast<std::uint64_t>(args.seconds) * 1'000'000'000ull;
  Tracer& tracer = GlobalTracer();

  RepResult first;  // the first untraced rep: modeled figures and work counts
  std::size_t untraced_reps = 0;
  // Host CPU ns per op of every window slice (see MeasureWindow), untraced and traced,
  // scaled to the reference speed; the unscaled untraced figures and the reference times.
  std::vector<double> untraced_slices;
  std::vector<double> traced_slices;
  std::vector<double> raw_slices;
  std::vector<double> reference_ns;
  std::size_t traced_reps = 0;
  std::vector<double> setup_s;
  double traced_cpu_ns = 0;
  double traced_ops = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> errors;

  for (std::size_t rep = 0;; ++rep) {
    std::size_t min_reps = trace ? 2 * kMinReps : kMinReps;
    if (rep >= min_reps && WallNs() >= deadline) {
      break;
    }
    // Trace mode alternates: even reps untraced, odd reps traced. The first traced rep
    // keeps its span records and its op stream for the replay.
    bool traced = trace && rep % 2 == 1;
    tracer.set_enabled(traced);
    tracer.set_keep_records(traced && rep == 1);
    double rep_cpu_start = rep == 0 ? process_cpu_start : ProcessCpuNs();
    RepResult r = workload->RunRep(rep_cpu_start, /*record=*/traced && rep == 1);
    tracer.set_enabled(false);
    tracer.set_keep_records(false);

    attempted += r.attempted;
    failed += r.failed;
    if (r.failed != 0 || !r.teardown_ok || r.completed == 0) {
      correct = false;
      if (r.completed == 0) {
        errors.push_back("rep " + std::to_string(rep) + " completed no ops in its window");
      }
      for (const std::string& e : r.errors) {
        errors.push_back("rep " + std::to_string(rep) + ": " + e);
      }
      break;  // a failing run stops early; its figures are not reported as valid
    }
    setup_s.push_back(r.setup_s);
    std::vector<double>& slices = traced ? traced_slices : untraced_slices;
    slices.insert(slices.end(), r.slice_ns_per_op.begin(), r.slice_ns_per_op.end());
    if (traced) {
      ++traced_reps;
      traced_cpu_ns += r.cpu_ns;
      traced_ops += static_cast<double>(r.completed);
    } else {
      raw_slices.insert(raw_slices.end(), r.raw_slice_ns_per_op.begin(),
                        r.raw_slice_ns_per_op.end());
      reference_ns.insert(reference_ns.end(), r.reference_ns.begin(), r.reference_ns.end());
      if (untraced_reps++ == 0) {
        first = std::move(r);
      }
    }
  }

  ReplayResult replay;
  if (correct && trace) {
    replay = workload->Replay();
    if (!replay.ok) {
      correct = false;
      errors.push_back("replay: " + replay.error);
    }
  }
  if (correct && !args.trace_out.empty() && !tracer.WriteChromeTrace(args.trace_out)) {
    std::fprintf(stderr, "perfbench: could not write %s\n", args.trace_out.c_str());
  }
  for (const std::string& e : errors) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", e.c_str());
  }

  Report report;
  if (correct) {
    double completed = static_cast<double>(first.completed);
    if (!trace) {
      report.Add("host_ns_per_op", Median(untraced_slices), "ns");
      report.Add("p50_us", Percentile(first.latencies_ns, 0.50) / 1000.0, "us");
      report.Add("p99_us", Percentile(first.latencies_ns, 0.99) / 1000.0, "us");
      report.Add("achieved_ops_per_s", completed * 1e9 / static_cast<double>(first.window_ns),
                 "ops/s");
      report.Add("success_rate",
                 1.0 - static_cast<double>(failed) / static_cast<double>(attempted), "ratio");
      report.Add("setup_s", Median(setup_s), "s");
      report.Add("peak_rss_mb", PeakRssMb(), "MB");
    } else {
      const Counters& c = first.counts;
      double spans_ns = 0;
      for (std::size_t l = 0; l < static_cast<std::size_t>(Layer::kCount); ++l) {
        spans_ns += static_cast<double>(tracer.self_ns(static_cast<Layer>(l)));
      }
      double traced_host = PerOp(traced_cpu_ns, traced_ops);
      auto self = [&](Layer layer) {
        return PerOp(static_cast<double>(tracer.self_ns(layer)), traced_ops);
      };
      report.Add("sim.calendar_entries_per_op", PerOp(c.calendar_entries, completed), "count/op");
      report.Add("sim.frames_per_op", PerOp(c.frames, completed), "count/op");
      report.Add("event.handlers_per_op", PerOp(c.handlers, completed), "count/op");
      report.Add("event.xcore_pushes_per_op", PerOp(c.xcore_pushes, completed), "count/op");
      report.Add("event.control_locks", c.control_locks, "count");
      report.Add("net.tx_segments_per_op", PerOp(c.tx_segments, completed), "count/op");
      report.Add("net.tx_data_segments_per_op", PerOp(c.tx_data_segments, completed),
                 "count/op");
      report.Add("net.payload_bytes_per_op", PerOp(c.payload_bytes, completed), "B/op");
      report.Add("net.rx_coalesced_bytes_per_op", PerOp(c.rx_coalesced_bytes, completed),
                 "B/op");
      report.Add("net.send_ns_per_op", self(Layer::kNetSend), "ns/op");
      report.Add("mem.heap_allocs_per_op", PerOp(c.heap_allocs, completed), "count/op");
      report.Add("mem.pool_hit_rate", PerOp(c.pool_hits, c.pool_hits + c.pool_misses),
                 "ratio");
      report.Add("memcached.parse_ns_per_op", self(Layer::kMemcachedParse), "ns/op");
      report.Add("memcached.replay_parse_ns_per_op", replay.parse_ns_per_op, "ns/op");
      report.Add("memcached.replay_kv_ns_per_op", replay.kv_ns_per_op, "ns/op");
      report.Add("dist.messages_per_op", PerOp(c.messages, completed), "count/op");
      report.Add("dist.router_issue_ns_per_op", self(Layer::kDistRouter), "ns/op");
      report.Add("dist.rpc_retries", c.rpc_retries, "count");
      report.Add("dist.rpc_timeouts", c.rpc_timeouts, "count");
      report.Add("loadgen.host_ns_per_op", self(Layer::kLoadgen), "ns/op");
      report.Add("loadgen.late_max_us", static_cast<double>(first.late_max_ns) / 1000.0, "us");
      report.Add("loadgen.samples", static_cast<double>(first.latencies_ns.size()), "count");
      report.Add("other.host_ns_per_op", traced_host - PerOp(spans_ns, traced_ops), "ns/op");
      report.Add("host.raw_ns_per_op", Median(raw_slices), "ns/op");
      report.Add("host.reference_ns", Median(reference_ns), "ns");
      report.Add("trace.overhead", Median(traced_slices) / Median(untraced_slices) - 1.0,
                 "ratio");
    }
  }
  std::fprintf(stderr,
               "perfbench: %s seed=%llu trace=%d reps=%zu+%zu attempted=%llu failed=%llu %s\n",
               args.workload.c_str(), static_cast<unsigned long long>(args.seed), args.trace,
               untraced_reps, traced_reps,
               static_cast<unsigned long long>(attempted),
               static_cast<unsigned long long>(failed), correct ? "ok" : "FAILED");
  if (!raw_slices.empty()) {
    std::fprintf(stderr, "perfbench: host ns/op raw %.1f, scaled %.1f; reference %.0f ns\n",
                 Median(raw_slices), Median(untraced_slices), Median(reference_ns));
  }
  report.Print(correct, std::max<std::uint64_t>(attempted, 1), failed);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
