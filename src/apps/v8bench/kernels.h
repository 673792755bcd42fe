// The eight V8-benchmark-suite workloads (version 7), re-implemented in C++ (Figure 7).
//
// We cannot run Google V8 here (see Substitutions in docs/ARCHITECTURE.md), so each kernel
// is a compact, faithful-in-character C++ re-implementation of the suite's member: same
// algorithmic skeleton and memory-allocation behaviour, scaled to run in tens of
// milliseconds. All data structures allocate through Env so the memory-mapping policy (EbbRT
// pre-map vs Linux demand-fault) and the preemption model are what differentiates
// environments, exactly as the paper argues.
// One documented substitution: EarleyBoyer (a Scheme parser+prover pair) is represented by
// its Earley-parser half.
//
// Each kernel returns a checksum (verified across environments by the tests: the environment
// may change *time*, never *results*).
#ifndef EBBRT_SRC_APPS_V8BENCH_KERNELS_H_
#define EBBRT_SRC_APPS_V8BENCH_KERNELS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/apps/v8bench/env.h"

namespace ebbrt {
namespace v8bench {

std::uint64_t RunRichards(Env& env);      // OS task-scheduler simulation
std::uint64_t RunDeltaBlue(Env& env);     // one-way constraint solver
std::uint64_t RunCrypto(Env& env);        // bignum modular exponentiation
std::uint64_t RunRayTrace(Env& env);      // small sphere-scene ray tracer
std::uint64_t RunEarley(Env& env);        // Earley chart parser (EarleyBoyer's parser half)
std::uint64_t RunRegExp(Env& env);        // backtracking regular-expression engine
std::uint64_t RunSplay(Env& env);         // splay-tree churn (memory intensive)
std::uint64_t RunNavierStokes(Env& env);  // 2D incompressible fluid solver

struct Kernel {
  const char* name;
  std::uint64_t (*fn)(Env&);
  std::size_t arena_bytes;
};

inline const std::vector<Kernel>& AllKernels() {
  static const std::vector<Kernel> kernels = {
      {"Crypto", &RunCrypto, 8u << 20},
      {"DeltaBlue", &RunDeltaBlue, 24u << 20},
      {"EarleyBoyer", &RunEarley, 48u << 20},
      {"NavierStokes", &RunNavierStokes, 16u << 20},
      {"RayTrace", &RunRayTrace, 24u << 20},
      {"RegExp", &RunRegExp, 16u << 20},
      {"Richards", &RunRichards, 8u << 20},
      {"Splay", &RunSplay, 96u << 20},
  };
  return kernels;
}

}  // namespace v8bench
}  // namespace ebbrt

#endif  // EBBRT_SRC_APPS_V8BENCH_KERNELS_H_
