// Calibrated cost models for the hardware and hypervisor we cannot run (see Substitutions in
// docs/ARCHITECTURE.md).
//
// Values approximate the paper's testbed: 2.6 GHz Xeons, QEMU/KVM with virtio-net + vhost,
// directly-connected 10GbE X520s. The *shape* of every experiment comes from real code-path
// work (copies are real memcpys, parsing is real parsing); these constants encode only the
// environment around it. They are deliberately centralized and documented so a skeptical
// reader can audit or re-calibrate them.
#ifndef EBBRT_SRC_SIM_COST_MODEL_H_
#define EBBRT_SRC_SIM_COST_MODEL_H_

#include <cstddef>
#include <cstdint>

namespace ebbrt {
namespace sim {

// Hypervisor/virtualization overheads applied by the NIC model. Every model offloads the TCP
// checksum (virtio-net VIRTIO_NET_F_CSUM / F_GUEST_CSUM, which Linux negotiates by default;
// the X520 behind Native() in hardware); see PacketInfo. Offload is host-side work removed,
// not a modeled cost, so no field here charges or toggles it.
struct HypervisorModel {
  bool virtualized = true;
  // Guest->host notification (virtio kick): one VM exit + vhost wakeup. Charged per
  // *doorbell*, not per frame: descriptors queued within one event dispatch share one kick
  // (virtio drivers ring once for the whole available-ring batch; vhost drains it all).
  // This is the batched-doorbell behavior the kernel-bypass literature leans on — and what
  // makes the per-segment cost accounting honest: a workload that emits one small segment
  // per event (memcached at pipeline depth 1) pays a kick per segment, while an
  // event-corked burst pays one kick for the whole chain.
  std::uint64_t tx_exit_ns = 1000;
  // Per-frame TX cost paid on EVERY transmitted frame regardless of virtualization:
  // descriptor setup + device descriptor/header DMA fetch. The per-segment overhead that
  // send-side aggregation amortizes (segments-per-op accounting), small enough that bulk
  // MSS-sized streams stay link-bound at 10GbE (~1190ns serialization per frame).
  std::uint64_t tx_frame_ns = 150;
  // Interrupt injection into the guest on RX.
  std::uint64_t irq_inject_ns = 800;
  // Hypervisor copies the packet into guest RX buffers (both systems pay this; §4.1.3:
  // "both systems must suffer a copy on packet reception due to the hypervisor").
  bool rx_copy = true;
  double rx_copy_ns_per_byte = 0.06;  // ~16 GB/s effective memcpy
  std::uint64_t rx_copy_fixed_ns = 150;
  std::size_t max_queues = 8;  // multiqueue virtio; OSv-sim gets 1

  static HypervisorModel Kvm() { return HypervisorModel{}; }
  static HypervisorModel Native() {
    HypervisorModel hv;
    hv.virtualized = false;
    hv.tx_exit_ns = 0;
    // Bare metal: the doorbell is a posted MMIO write the core does not wait on — the
    // native nodes (notably the load generators) keep blasting at wire rate, as the paper's
    // unvirtualized client machine does. The per-frame TX cost that batching amortizes is a
    // guest-side phenomenon here (descriptor + kick + vhost), modeled above.
    hv.tx_frame_ns = 0;
    hv.irq_inject_ns = 300;  // bare-metal MSI-X delivery
    hv.rx_copy = false;
    return hv;
  }
  static HypervisorModel KvmSingleQueue() {
    HypervisorModel hv;
    hv.max_queues = 1;  // the OSv virtio driver's missing multiqueue support (§4.2)
    return hv;
  }
};

// Link model: 10GbE, directly connected.
struct LinkModel {
  double bandwidth_gbps = 10.0;
  std::uint64_t propagation_ns = 500;  // cable + PHY + switch-less direct attach

  std::uint64_t SerializationNs(std::size_t bytes) const {
    // +24 bytes Ethernet overhead (preamble/IFG/FCS).
    return static_cast<std::uint64_t>(static_cast<double>((bytes + 24) * 8) /
                                      bandwidth_gbps);
  }
};

// General-purpose-OS costs paid by the baseline ("Linux") stack but not by EbbRT's
// library-OS paths. See src/baseline/ for where each is charged.
struct GeneralPurposeOsModel {
  std::uint64_t syscall_ns = 250;           // user->kernel crossing (one way ~125ns)
  std::uint64_t softirq_schedule_ns = 500;  // NAPI/softirq bounce before socket delivery
  std::uint64_t context_switch_ns = 1500;   // wakeup of the blocked reader thread
  double copy_ns_per_byte = 0.06;           // copy_to/from_user
  std::uint64_t timer_tick_period_ns = 4'000'000;  // CONFIG_HZ=250
  std::uint64_t timer_tick_cost_ns = 2000;         // tick + scheduler pollution
  std::size_t socket_buffer_bytes = 212'992;       // default rmem/wmem
  bool nagle = true;
};

}  // namespace sim
}  // namespace ebbrt

#endif  // EBBRT_SRC_SIM_COST_MODEL_H_
