// Minimal machine-readable bench output: maintains a single top-level JSON object in a file,
// one named section per bench binary, so fig5/fig6/tab2 can each contribute their depth-sweep
// results to the same BENCH_tx_batching.json. No external JSON dependency: the file format is
// constrained to what this writer itself produces ({"name":value,...} with balanced
// braces/brackets inside values), and anything unparsable is simply rewritten from scratch.
#ifndef EBBRT_BENCH_BENCH_JSON_H_
#define EBBRT_BENCH_BENCH_JSON_H_

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace ebbrt {
namespace bench {

// One pipeline-depth measurement of the TX-batching story. DepthPointsJson and
// AllocPointsJson below are the one definition of the BENCH_tx_batching.json and
// BENCH_alloc_pool.json records; fig5, fig6 and tab2 all write through them. The alloc
// fields carry the zero-malloc-datapath story: counters are measured from the bench's
// steady-state mark (MarkAllocBaseline at end of preload), so startup carving is excluded —
// exactly the "per request in steady state" claim. tx_batcher_test holds the committed
// sweep shapes to heap_allocs == 0 and, at depth >= 8, to coalesced sends and pool hits.
struct DepthPoint {
  std::size_t pipeline = 0;
  std::size_t requests = 0;
  std::uint64_t tx_data_segments = 0;
  std::uint64_t sends_coalesced = 0;
  double bytes_per_segment = 0;
  double segments_per_op = 0;
  std::uint64_t virtual_ns = 0;  // virtual time to serve the whole schedule

  // --- allocation datapath (BENCH_alloc_pool.json) ---
  std::uint64_t iobuf_allocs = 0;   // IOBuf storage blocks allocated (slab or heap)
  std::uint64_t heap_allocs = 0;    // std::malloc fallbacks — the number that must be 0
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;
  double allocs_per_op = 0;         // heap_allocs / requests
  double pool_hit_rate = 0;
};

// Fills a DepthPoint from a server's NetworkManager::Stats (templated to keep this header
// free of net includes). The single place the stats->record mapping lives.
template <typename Stats>
inline DepthPoint FillDepthPoint(const Stats& stats, std::size_t pipeline,
                                 std::size_t requests, std::uint64_t virtual_ns) {
  DepthPoint point;
  point.pipeline = pipeline;
  point.requests = requests;
  point.tx_data_segments = stats.tcp_tx_data_segments.load();
  point.sends_coalesced = stats.sends_coalesced.load();
  point.bytes_per_segment = stats.bytes_per_segment();
  point.segments_per_op =
      requests != 0
          ? static_cast<double>(point.tx_data_segments) / static_cast<double>(requests)
          : 0.0;
  point.virtual_ns = virtual_ns;
  point.iobuf_allocs = stats.iobuf_allocs_since_mark();
  point.heap_allocs = stats.heap_allocs_since_mark();
  point.pool_hits = stats.pool_hits_since_mark();
  point.pool_misses = stats.pool_misses_since_mark();
  point.allocs_per_op = stats.allocs_per_op(requests);
  point.pool_hit_rate = stats.pool_hit_rate_since_mark();
  return point;
}

inline std::string DepthPointsJson(const std::vector<DepthPoint>& points) {
  std::string out = "[";
  char buf[256];
  for (std::size_t i = 0; i < points.size(); ++i) {
    const DepthPoint& p = points[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"pipeline\": %zu, \"requests\": %zu, \"tx_data_segments\": %llu, "
                  "\"sends_coalesced\": %llu, \"bytes_per_segment\": %.1f, "
                  "\"segments_per_op\": %.3f, \"virtual_ns\": %llu}",
                  i == 0 ? "" : ", ", p.pipeline, p.requests,
                  static_cast<unsigned long long>(p.tx_data_segments),
                  static_cast<unsigned long long>(p.sends_coalesced), p.bytes_per_segment,
                  p.segments_per_op, static_cast<unsigned long long>(p.virtual_ns));
    out += buf;
  }
  out += "]";
  return out;
}

// BENCH_alloc_pool.json record: the zero-malloc-datapath evidence per depth point.
inline std::string AllocPointsJson(const std::vector<DepthPoint>& points) {
  std::string out = "[";
  char buf[256];
  for (std::size_t i = 0; i < points.size(); ++i) {
    const DepthPoint& p = points[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"pipeline\": %zu, \"requests\": %zu, \"iobuf_allocs\": %llu, "
                  "\"heap_allocs\": %llu, \"pool_hits\": %llu, \"pool_misses\": %llu, "
                  "\"allocs_per_op\": %.4f, \"pool_hit_rate\": %.4f}",
                  i == 0 ? "" : ", ", p.pipeline, p.requests,
                  static_cast<unsigned long long>(p.iobuf_allocs),
                  static_cast<unsigned long long>(p.heap_allocs),
                  static_cast<unsigned long long>(p.pool_hits),
                  static_cast<unsigned long long>(p.pool_misses), p.allocs_per_op,
                  p.pool_hit_rate);
    out += buf;
  }
  out += "]";
  return out;
}

// The shared latency-quantile JSON fragment (no surrounding braces): every bench that
// reports latency from an obs::Histogram appends these columns to its records, so they
// share ONE schema. Templated on the snapshot (obs::Histogram::Snapshot) to keep
// this header free of src includes, like FillDepthPoint.
template <typename Snapshot>
inline std::string HistogramColumnsJson(const Snapshot& snapshot) {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "\"samples\": %llu, \"mean_ns\": %llu, \"p50_ns\": %llu, \"p99_ns\": %llu, "
                "\"p999_ns\": %llu",
                static_cast<unsigned long long>(snapshot.count),
                static_cast<unsigned long long>(snapshot.Mean()),
                static_cast<unsigned long long>(snapshot.P50()),
                static_cast<unsigned long long>(snapshot.P99()),
                static_cast<unsigned long long>(snapshot.P999()));
  return buf;
}

inline void WriteJsonSection(const std::string& path, const std::string& name,
                             const std::string& value);

// Runs `run_point` per depth, prints the table, and contributes section `section` to
// BENCH_tx_batching.json (segments story) and BENCH_alloc_pool.json (allocation story).
inline void EmitDepthSweep(const char* section, const std::vector<std::size_t>& depths,
                           const std::function<DepthPoint(std::size_t)>& run_point) {
  std::printf("# TX-batching depth sweep (%s)\n", section);
  std::printf("%-10s %10s %18s %16s %18s %16s %14s %14s\n", "pipeline", "requests",
              "tx_data_segments", "sends_coalesced", "bytes_per_segment", "segments_per_op",
              "allocs_per_op", "pool_hit_rate");
  std::vector<DepthPoint> points;
  for (std::size_t depth : depths) {
    DepthPoint p = run_point(depth);
    std::printf("%-10zu %10zu %18llu %16llu %18.1f %16.3f %14.4f %14.4f\n", p.pipeline,
                p.requests, static_cast<unsigned long long>(p.tx_data_segments),
                static_cast<unsigned long long>(p.sends_coalesced), p.bytes_per_segment,
                p.segments_per_op, p.allocs_per_op, p.pool_hit_rate);
    points.push_back(p);
  }
  WriteJsonSection("BENCH_tx_batching.json", section, DepthPointsJson(points));
  WriteJsonSection("BENCH_alloc_pool.json", section, AllocPointsJson(points));
  std::printf("# wrote section \"%s\" to BENCH_tx_batching.json and BENCH_alloc_pool.json\n",
              section);
}

namespace json_detail {

// Splits `{"a":<raw>,"b":<raw>}` into (name, raw-value) pairs by tracking nesting depth.
// Returns false when the content is not a flat object of that shape.
inline bool ParseSections(const std::string& text,
                          std::vector<std::pair<std::string, std::string>>* out) {
  std::size_t i = text.find_first_not_of(" \t\r\n");
  if (i == std::string::npos || text[i] != '{') {
    return false;
  }
  ++i;
  for (;;) {
    i = text.find_first_not_of(" \t\r\n,", i);
    if (i == std::string::npos) {
      return false;
    }
    if (text[i] == '}') {
      return true;
    }
    if (text[i] != '"') {
      return false;
    }
    std::size_t name_end = text.find('"', i + 1);
    if (name_end == std::string::npos) {
      return false;
    }
    std::string name = text.substr(i + 1, name_end - i - 1);
    i = text.find_first_not_of(" \t\r\n", name_end + 1);
    if (i == std::string::npos || text[i] != ':') {
      return false;
    }
    ++i;
    i = text.find_first_not_of(" \t\r\n", i);
    if (i == std::string::npos) {
      return false;
    }
    // Scan the value: balanced {}/[] nesting, string-aware, until a top-level ',' or '}'.
    std::size_t start = i;
    int depth = 0;
    bool in_string = false;
    for (; i < text.size(); ++i) {
      char c = text[i];
      if (in_string) {
        if (c == '\\') {
          ++i;
        } else if (c == '"') {
          in_string = false;
        }
        continue;
      }
      if (c == '"') {
        in_string = true;
      } else if (c == '{' || c == '[') {
        ++depth;
      } else if (c == '}' || c == ']') {
        if (depth == 0 && c == '}') {
          break;  // object close
        }
        --depth;
      } else if (c == ',' && depth == 0) {
        break;
      }
    }
    if (i >= text.size() && depth != 0) {
      return false;
    }
    std::string value = text.substr(start, i - start);
    while (!value.empty() && (value.back() == ' ' || value.back() == '\n' ||
                              value.back() == '\r' || value.back() == '\t')) {
      value.pop_back();
    }
    out->emplace_back(std::move(name), std::move(value));
  }
}

}  // namespace json_detail

// Writes/replaces section `name` with raw JSON `value` in the object stored at `path`.
inline void WriteJsonSection(const std::string& path, const std::string& name,
                             const std::string& value) {
  std::vector<std::pair<std::string, std::string>> sections;
  {
    std::ifstream in(path);
    if (in) {
      std::stringstream buf;
      buf << in.rdbuf();
      std::vector<std::pair<std::string, std::string>> parsed;
      if (json_detail::ParseSections(buf.str(), &parsed)) {
        sections = std::move(parsed);
      }
    }
  }
  bool replaced = false;
  for (auto& section : sections) {
    if (section.first == name) {
      section.second = value;
      replaced = true;
    }
  }
  if (!replaced) {
    sections.emplace_back(name, value);
  }
  std::ofstream out(path, std::ios::trunc);
  out << "{\n";
  for (std::size_t i = 0; i < sections.size(); ++i) {
    out << "  \"" << sections[i].first << "\": " << sections[i].second;
    out << (i + 1 < sections.size() ? ",\n" : "\n");
  }
  out << "}\n";
}

}  // namespace bench
}  // namespace ebbrt

#endif  // EBBRT_BENCH_BENCH_JSON_H_
