// Figure 7 — V8 benchmark suite scores, EbbRT vs Linux environment (paper §4.3).
//
//   Paper: EbbRT outperforms Linux on all eight benchmarks; +13.9% on the memory-intensive
//   Splay; +4.09% overall. Explanation: aggressive memory mapping (no page faults) and no
//   timer interrupts / scheduler cache pollution.
//
// Scores are inverse runtimes normalized to the Linux environment (Linux = 1.000), geometric
// mean overall — the suite's own scoring rule. See src/apps/v8bench/ for the kernel
// re-implementations and docs/ARCHITECTURE.md (Substitutions) for the V8 substitution.
#include <cmath>
#include <cstdio>

#include "src/apps/v8bench/kernels.h"
#include "src/platform/clock.h"

namespace ebbrt {
namespace {

constexpr int kRepetitions = 3;

double MeasureSeconds(const v8bench::Kernel& kernel, v8bench::Env::Kind kind) {
  double best = 1e30;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    // Fresh environment per repetition: the Linux variant must re-fault its arena each time,
    // as a freshly exec'd process would.
    v8bench::Env env(kind, kernel.arena_bytes);
    env.StartTicks();
    std::uint64_t start = WallNowNs();
    volatile std::uint64_t sink = kernel.fn(env);
    (void)sink;
    double secs = static_cast<double>(WallNowNs() - start) / 1e9;
    env.StopTicks();
    best = std::min(best, secs);
  }
  return best;
}

}  // namespace
}  // namespace ebbrt

int main() {
  using namespace ebbrt;
  std::printf("# Figure 7 reproduction: V8 suite (C++ kernel re-implementations), normalized"
              " score\n");
  std::printf("# score = linux_time / ebbrt_time (Linux = 1.000); paper: EbbRT wins all,"
              " Splay largest, +4.09%% geomean\n");
  std::printf("%-14s %12s %12s %10s\n", "benchmark", "ebbrt(ms)", "linux(ms)", "score");
  double log_sum = 0;
  int count = 0;
  for (const auto& kernel : v8bench::AllKernels()) {
    double ebbrt_secs = MeasureSeconds(kernel, v8bench::Env::Kind::kEbbRT);
    double linux_secs = MeasureSeconds(kernel, v8bench::Env::Kind::kLinux);
    double score = linux_secs / ebbrt_secs;
    log_sum += std::log(score);
    ++count;
    std::printf("%-14s %12.2f %12.2f %10.3f\n", kernel.name, ebbrt_secs * 1000,
                linux_secs * 1000, score);
  }
  std::printf("%-14s %12s %12s %10.3f  (geometric mean)\n", "Overall", "", "",
              std::exp(log_sum / count));
  return 0;
}
