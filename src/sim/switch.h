// Switch — the simulated physical network fabric.
//
// Ports connect NICs; frames cross the fabric with per-link serialization (size/bandwidth,
// serialized on the sender's link) plus propagation delay. MAC learning forwards unicast
// frames; unknown/broadcast destinations flood. Every NIC on the fabric carries a testbed MAC
// (MacAddr::FromIndex, prefix 02:00, number below 2^16), so learning and lookup index a flat
// table by that number; learning any other source MAC is a fatal error. Link fault plans sit
// in a per-port vector. A deterministic loss rate can be injected for protocol robustness
// tests (retransmission, reordering under loss).
//
// The switch runs entirely in SimWorld action context — single-threaded, no locks. Frames are
// deep-copied at the fabric boundary: the wire is where payload bytes genuinely leave one
// machine's memory and appear in another's.
#ifndef EBBRT_SRC_SIM_SWITCH_H_
#define EBBRT_SRC_SIM_SWITCH_H_

#include <cstdint>
#include <memory>
#include <random>
#include <vector>

#include "src/event/sim_world.h"
#include "src/iobuf/iobuf.h"
#include "src/net/net_types.h"
#include "src/sim/cost_model.h"

namespace ebbrt {
namespace sim {

class Nic;

class Switch {
 public:
  Switch(SimWorld& world, LinkModel link = {}) : world_(world), link_(link) {}

  // Registers a NIC; returns its port number.
  std::size_t Attach(Nic* nic);

  // Called by a NIC's transmit path (during its machine's core slice). The frame is cloned
  // onto the fabric and delivered to the destination port(s) after link delays, with the
  // sender's TX metadata beside it.
  void Transmit(std::size_t from_port, const IOBuf& frame, PacketInfo info = {});

  // Deterministic packet loss for robustness tests: drops each frame with probability
  // `rate` using the given seed.
  void SetLossRate(double rate, std::uint32_t seed = 1234) {
    loss_rate_ = rate;
    rng_.seed(seed);
  }

  // Per-link fault injection: a plan on a port applies to BOTH directions of that NIC's
  // link (frames it transmits and frames delivered to it), each independently. Drops use
  // the plan's own deterministic RNG so scripted failure scenarios replay bit-identically;
  // blackhole silently eats every frame (the classic partition: TCP sees nothing, only
  // timers); extra_delay_ns defers delivery (reordering/latency spikes). Severing live TCP
  // connections outright is the stack's job — TcpManager::SeverPeer — since the wire model
  // has no per-connection state.
  struct FaultPlan {
    double drop_rate = 0.0;
    std::uint64_t extra_delay_ns = 0;
    bool blackhole = false;
    std::uint32_t seed = 1;
  };
  void SetLinkFault(std::size_t port, const FaultPlan& plan);
  void ClearLinkFault(std::size_t port);

  std::uint64_t frames_forwarded() const { return frames_forwarded_; }
  std::uint64_t frames_dropped() const { return frames_dropped_; }
  // Frames eaten by a FaultPlan (subset of frames_dropped_) / by delivery to a killed
  // machine (also counted in frames_dropped_).
  std::uint64_t faults_injected() const { return faults_injected_; }
  std::uint64_t killed_drops() const { return killed_drops_; }

 private:
  struct LinkFault {
    FaultPlan plan;
    std::mt19937 rng;
  };

  static constexpr std::size_t kNoPort = SIZE_MAX;

  void DeliverTo(std::size_t port, const IOBuf& frame, PacketInfo info, std::uint64_t at);
  // True when the plan says this frame dies on the link (ticks the fault counters).
  bool FaultEats(LinkFault* fault);
  // The MAC's FromIndex number when it is a testbed MAC numbered below 2^16, else kNoPort.
  static std::size_t FlatIndex(const MacAddr& mac);
  void Learn(const MacAddr& mac, std::size_t port);
  std::size_t PortFor(const MacAddr& mac) const;

  SimWorld& world_;
  LinkModel link_;
  std::vector<Nic*> ports_;
  std::vector<std::size_t> flat_macs_;  // FromIndex number -> port (kNoPort: not learned)
  std::vector<std::uint64_t> tx_link_free_;  // per-port sender link availability
  double loss_rate_ = 0.0;
  std::mt19937 rng_{1234};
  std::vector<std::unique_ptr<LinkFault>> link_faults_;  // per port; null: no fault
  std::uint64_t frames_forwarded_ = 0;
  std::uint64_t frames_dropped_ = 0;
  std::uint64_t faults_injected_ = 0;
  std::uint64_t killed_drops_ = 0;
};

}  // namespace sim
}  // namespace ebbrt

#endif  // EBBRT_SRC_SIM_SWITCH_H_
