// Nic — multiqueue virtio-style NIC model plus its EbbRT driver.
//
// Device side (SimWorld action context): frames arriving from the switch are steered to a
// queue by symmetric RSS over the IP flow; each queue either raises its interrupt vector on
// its target core or, in polling mode, waits for the idle-loop poll.
//
// Driver side (machine core context): implements the paper's adaptive polling policy (§3.2):
// the interrupt handler processes the ring to completion; when the arrival rate (frames per
// interrupt) exceeds a threshold, it masks the interrupt and installs an IdleCallback that
// polls the ring each idle pass; when polls come up empty repeatedly, it re-enables the
// interrupt and stops polling.
//
// Checksum offload (virtio-net's VIRTIO_NET_F_CSUM / F_GUEST_CSUM): a PacketInfo travels
// beside each frame. A frame transmitted with kNeedsCsum is handed to the receiving driver
// with kDataValid, and no other frame is. The mark is sound because the fabric never alters
// bytes: today's faults drop, delay or black-hole frames and never corrupt them. A future
// corruption fault must clear kDataValid on the frames it touches, so the receiver falls
// back to its software sum and drops them. No device completes the TX sum, since every
// receiver takes the mark; the checksum field carries the pseudo-header seed on the wire.
//
// Cost accounting: the transmitting core is charged the virtio kick (VM exit) per
// notification; the receiving core is charged interrupt injection and, under virtualization,
// the hypervisor's RX copy (a real memcpy into a fresh buffer, plus modeled per-byte cost in
// fixed mode).
//
// RX buffers are network frames (IOBuf::CreateFrame) carved from the receiving core's slab,
// exactly like a real driver posting receive descriptors: ServiceQueue (on the queue's
// target core) keeps a ring of MTU-class frames posted per queue; the "DMA engine" (the
// switch's delivery copy) fills the next posted frame, so in steady state every received
// frame lives in memory the slab's per-core freelist recycles and the RX path performs zero
// heap allocations. The hypervisor's RX copy also lands in a frame. When no frame is posted
// (startup), delivery falls back to a DeepClone — correct, just not posted.
#ifndef EBBRT_SRC_SIM_NIC_H_
#define EBBRT_SRC_SIM_NIC_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/runtime.h"
#include "src/event/event_manager.h"
#include "src/event/sim_world.h"
#include "src/iobuf/iobuf.h"
#include "src/net/net_types.h"
#include "src/platform/ring_queue.h"
#include "src/sim/cost_model.h"
#include "src/sim/switch.h"

namespace ebbrt {
namespace sim {

class Nic {
 public:
  struct Config {
    HypervisorModel hv = HypervisorModel::Kvm();
    std::size_t queues = 0;  // 0 => min(cores, hv.max_queues)
    // Adaptive polling thresholds (frames handled per interrupt to enter polling; consecutive
    // empty polls to leave it).
    std::uint32_t poll_enter_threshold = 16;
    std::uint32_t poll_exit_threshold = 64;
  };

  // Receives a frame and the device's RX metadata (PacketInfo::kDataValid or nothing).
  using FrameHandler = MoveFunction<void(std::unique_ptr<IOBuf>, PacketInfo)>;

  Nic(SimWorld& world, Runtime& runtime, MacAddr mac, Switch& fabric, Config config);

  MacAddr mac() const { return mac_; }
  std::size_t num_queues() const { return queues_.size(); }
  Runtime& runtime() { return runtime_; }
  // The switch port this NIC is attached to (the handle Switch::SetLinkFault wants).
  std::size_t port() const { return port_; }

  // --- Driver API ---------------------------------------------------------------------------
  // Installs the stack's receive entry point (invoked on the queue's target core with
  // ownership of the frame).
  void SetReceiveHandler(FrameHandler handler) { rx_handler_ = std::move(handler); }

  // Transmits a frame chain (called from a core of this machine). Charges the virtio kick.
  // `info` carries the TX offload request (PacketInfo::kNeedsCsum) to the receiving device.
  void Transmit(std::unique_ptr<IOBuf> frame, PacketInfo info = {});

  // The machine core that receives traffic for the given flow (RSS steering preview — used by
  // active connectors to pick a source port landing on the desired core).
  std::size_t CoreForFlow(Ipv4Addr a_ip, std::uint16_t a_port, Ipv4Addr b_ip,
                          std::uint16_t b_port) const {
    return QueueForFlow(a_ip, a_port, b_ip, b_port) % runtime_.num_cores();
  }
  std::size_t QueueForFlow(Ipv4Addr a_ip, std::uint16_t a_port, Ipv4Addr b_ip,
                           std::uint16_t b_port) const {
    return RssHash(a_ip, a_port, b_ip, b_port) % queues_.size();
  }

  // --- Device side (called by the switch in world-action context) ----------------------------
  // RSS steering for an incoming frame (non-IP traffic lands on queue 0). The switch
  // computes this once per frame and passes it to both calls below.
  std::size_t QueueForFrame(const IOBuf& frame) const { return SteerFrame(frame); }

  // `info` is the sender's TX metadata; a frame sent with kNeedsCsum reaches the driver
  // marked kDataValid, and no other frame does.
  void DeliverFrame(std::unique_ptr<IOBuf> frame, std::size_t queue, PacketInfo info);

  // Copies `frame` into this NIC's next posted RX buffer for `queue` (the DMA write into a
  // driver-posted descriptor), falling back to a DeepClone when none is posted.
  // Single-threaded SimWorld: touching the posted ring from the sender's slice is safe.
  std::unique_ptr<IOBuf> CopyForDelivery(const IOBuf& frame, std::size_t queue);

  // --- Stats ----------------------------------------------------------------------------------
  std::uint64_t interrupts_raised() const { return interrupts_raised_; }
  std::uint64_t frames_polled() const { return frames_polled_; }
  std::uint64_t frames_received() const { return frames_received_; }
  std::uint64_t frames_transmitted() const { return frames_transmitted_; }
  std::uint64_t bytes_transmitted() const { return bytes_transmitted_; }
  // Doorbell batching: kicks <= frames; the gap is the amortization TX batching buys.
  std::uint64_t tx_kicks() const { return tx_kicks_; }
  // RX frames delivered into a driver-posted frame vs. cloned (posted ring empty).
  std::uint64_t rx_posted_fills() const { return rx_posted_fills_; }
  std::uint64_t rx_clone_fallbacks() const { return rx_clone_fallbacks_; }
  // Frames that arrived after the machine was killed but were already scheduled for delivery
  // (the switch drops pre-schedule; this counts the in-flight race).
  std::uint64_t rx_killed_drops() const { return rx_killed_drops_; }

 private:
  struct RxEntry {
    std::unique_ptr<IOBuf> frame;
    PacketInfo info;
  };

  struct Queue {
    std::size_t index = 0;
    std::size_t target_core = 0;
    std::uint32_t vector = 0;
    RingQueue<RxEntry> ring;
    // Driver-posted RX frames (IOBuf::CreateFrame), filled by the device side in FIFO order and
    // replenished by ServiceQueue on the target core.
    RingQueue<std::unique_ptr<IOBuf>> posted_rx;
    bool interrupts_enabled = true;
    bool irq_pending = false;  // raised but not yet serviced
    std::unique_ptr<EventManager::IdleCallback> poll_callback;
    std::uint32_t empty_polls = 0;
  };

  static constexpr std::size_t kPostedRxDepth = 32;  // descriptors kept posted per queue

  std::size_t SteerFrame(const IOBuf& frame) const;
  void ServiceQueue(Queue& queue, bool from_interrupt);
  void ReplenishPostedRx(Queue& queue);
  void EnterPolling(Queue& queue);
  void LeavePolling(Queue& queue);

  SimWorld& world_;
  Runtime& runtime_;
  MacAddr mac_;
  Switch& fabric_;
  std::size_t port_;
  Config config_;
  FrameHandler rx_handler_;
  std::vector<std::unique_ptr<Queue>> queues_;

  std::uint64_t interrupts_raised_ = 0;
  std::uint64_t frames_polled_ = 0;
  std::uint64_t frames_received_ = 0;
  std::uint64_t frames_transmitted_ = 0;
  std::uint64_t bytes_transmitted_ = 0;
  std::uint64_t tx_kicks_ = 0;
  std::uint64_t rx_posted_fills_ = 0;
  std::uint64_t rx_clone_fallbacks_ = 0;
  std::uint64_t rx_killed_drops_ = 0;
  // Per-core doorbell state: nonzero while this core's current event already kicked (reset
  // by an end-of-event hook). Single-threaded per core; plain bytes.
  std::vector<char> kick_charged_;
};

}  // namespace sim
}  // namespace ebbrt

#endif  // EBBRT_SRC_SIM_NIC_H_
