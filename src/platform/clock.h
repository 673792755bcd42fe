// Cycle counter and wall-clock helpers.
//
// The paper reports dispatch and allocation costs in cycles on a 2.6 GHz Xeon E5-2690. We
// measure with rdtsc on x86-64 (serialized variants for benchmark boundaries) and fall back to
// steady_clock elsewhere. `kPaperCpuGhz` is the calibration constant used by the simulated
// testbed to convert measured cycles into virtual nanoseconds.
#ifndef EBBRT_SRC_PLATFORM_CLOCK_H_
#define EBBRT_SRC_PLATFORM_CLOCK_H_

#include <chrono>
#include <cstdint>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace ebbrt {

// The paper's server clock rate; used to convert cycles <-> nanoseconds in the simulator.
inline constexpr double kPaperCpuGhz = 2.6;

// Raw cycle counter (not serialized; suitable for coarse measurement of handler runtime).
inline std::uint64_t ReadCycles() {
#if defined(__x86_64__)
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
#endif
}

// Serialized cycle counter for benchmark start/stop boundaries.
inline std::uint64_t ReadCyclesSerialized() {
#if defined(__x86_64__)
  unsigned aux;
  return __rdtscp(&aux);
#else
  return ReadCycles();
#endif
}

inline std::uint64_t CyclesToNs(std::uint64_t cycles) {
  return static_cast<std::uint64_t>(static_cast<double>(cycles) / kPaperCpuGhz);
}

// Monotonic wall clock in nanoseconds (real time, used by the thread executor).
inline std::uint64_t WallNowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace ebbrt

#endif  // EBBRT_SRC_PLATFORM_CLOCK_H_
