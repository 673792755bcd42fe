#include "trace.h"

#include <cstdio>

namespace perfbench {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kLoadgen:
      return "loadgen";
    case Layer::kNetSend:
      return "net.send";
    case Layer::kMemcachedParse:
      return "memcached.parse";
    case Layer::kDistRouter:
      return "dist.router";
    case Layer::kCount:
      break;
  }
  return "?";
}

Tracer& GlobalTracer() {
  static Tracer tracer;
  return tracer;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::uint64_t base = records_.empty() ? 0 : records_.front().start_ns;
  std::fputs("{\"traceEvents\": [\n", f);
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"span\": %zu, \"parent\": %lld, "
                 "\"op\": %lld}}",
                 i == 0 ? "" : ",\n", LayerName(r.layer),
                 static_cast<double>(r.start_ns - base) / 1000.0,
                 static_cast<double>(r.end_ns - r.start_ns) / 1000.0, i,
                 r.parent == kNoParent ? -1LL : static_cast<long long>(r.parent),
                 r.op == kNoOp ? -1LL : static_cast<long long>(r.op));
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
