// The benchmark's workloads. Each one builds its inputs from the seed once, then runs any
// number of identical reps; main.cc owns timing, repetition and reporting.
#ifndef PERFBENCH_SRC_WORKLOAD_H_
#define PERFBENCH_SRC_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common.h"

namespace perfbench {

// Host time per op of server-side layers the benchmark cannot wrap in place, measured by
// replaying one rep's recorded op stream through them outside the simulated network.
struct ReplayResult {
  double parse_ns_per_op = 0;  // RequestParser::Feed over the request byte stream
  double kv_ns_per_op = 0;     // KvStore::Get + MakeValueBuffer / KvStore::Set
  bool ok = true;
  std::string error;
};

class Workload {
 public:
  virtual ~Workload() = default;
  // One rep on a fresh testbed. `cpu_start_ns` is ProcessCpuNs() when its set-up began.
  // With `record`, the rep keeps its measured-window op stream for Replay().
  virtual RepResult RunRep(double cpu_start_ns, bool record) = 0;
  virtual ReplayResult Replay() { return {}; }
};

std::unique_ptr<Workload> MakeEtcOpen(std::uint64_t seed);
std::unique_ptr<Workload> MakeSetLarge(std::uint64_t seed);
std::unique_ptr<Workload> MakeShardedMultiGet(std::uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOAD_H_
