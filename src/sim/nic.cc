#include "src/sim/nic.h"

#include <algorithm>

namespace ebbrt {
namespace sim {

Nic::Nic(SimWorld& world, Runtime& runtime, MacAddr mac, Switch& fabric, Config config)
    : world_(world), runtime_(runtime), mac_(mac), fabric_(fabric), config_(config),
      kick_charged_(runtime.num_cores(), 0) {
  port_ = fabric.Attach(this);
  std::size_t queues = config.queues != 0 ? config.queues : runtime.num_cores();
  queues = std::min(queues, config.hv.max_queues);
  queues = std::max<std::size_t>(queues, 1);
  auto& em_root = runtime.GetSubsystem<EventManagerRoot>(Subsystem::kEventManager);
  for (std::size_t i = 0; i < queues; ++i) {
    auto queue = std::make_unique<Queue>();
    queue->index = i;
    queue->target_core = i % runtime.num_cores();
    Queue* q = queue.get();
    // Allocate the queue's interrupt vector on its target core; the persistent handler
    // services the ring to completion (the paper's driver pattern).
    queue->vector = em_root.RepFor(queue->target_core)
                        .AllocateVector([this, q] { ServiceQueue(*q, /*from_interrupt=*/true); });
    queues_.push_back(std::move(queue));
  }
}

void Nic::Transmit(std::unique_ptr<IOBuf> frame, PacketInfo info) {
  ++frames_transmitted_;
  bytes_transmitted_ += frame->ComputeChainDataLength();
  // Per-frame TX work (descriptor setup + device descriptor fetch): the fixed cost each
  // wire segment pays, and exactly what event-scoped send batching amortizes.
  world_.Charge(config_.hv.tx_frame_ns);
  // Virtio kick, doorbell-batched: the first frame of an event dispatch traps to the host;
  // descriptors queued before the event ends ride the same kick (vhost drains the whole
  // available ring). The end-of-event hook reopens the doorbell for the next event.
  if (config_.hv.virtualized) {
    std::size_t core = CurrentContext().machine_core;
    if (!kick_charged_[core]) {
      kick_charged_[core] = 1;
      ++tx_kicks_;
      world_.Charge(config_.hv.tx_exit_ns);
      event::Local().QueueEndOfEvent([this, core] { kick_charged_[core] = 0; });
    }
  }
  fabric_.Transmit(port_, *frame, info);
  // The frame's ownership ends here; the fabric cloned what it needed.
}

std::size_t Nic::SteerFrame(const IOBuf& frame) const {
  if (queues_.size() == 1) {
    return 0;
  }
  // Peek ethertype + IPv4 flow fields for RSS; non-IP traffic lands on queue 0.
  if (frame.Length() < sizeof(EthernetHeader) + sizeof(Ipv4Header)) {
    return 0;
  }
  const auto& eth = frame.Get<EthernetHeader>();
  if (NetToHost16(eth.type) != kEthTypeIpv4) {
    return 0;
  }
  const auto& ip = frame.Get<Ipv4Header>(sizeof(EthernetHeader));
  if (ip.protocol != kIpProtoTcp && ip.protocol != kIpProtoUdp) {
    return 0;
  }
  std::size_t l4_off = sizeof(EthernetHeader) + ip.HeaderLength();
  if (frame.Length() < l4_off + 4) {
    return 0;
  }
  std::uint16_t src_port = NetToHost16(frame.Get<std::uint16_t>(l4_off));
  std::uint16_t dst_port = NetToHost16(frame.Get<std::uint16_t>(l4_off + 2));
  return QueueForFlow(ip.SrcAddr(), src_port, ip.DstAddr(), dst_port);
}

std::unique_ptr<IOBuf> Nic::CopyForDelivery(const IOBuf& frame, std::size_t queue_index) {
  Queue& queue = *queues_[queue_index];
  if (!queue.posted_rx.empty()) {
    std::unique_ptr<IOBuf> buf = std::move(queue.posted_rx.front());
    queue.posted_rx.pop_front();
    std::size_t len = frame.ComputeChainDataLength();
    if (len <= buf->Tailroom()) {
      frame.CopyOut(buf->WritableTail(), len);
      buf->Append(len);
      ++rx_posted_fills_;
      return buf;
    }
    // Frame larger than a posted buffer (not reachable with MTU-bounded traffic): repost and
    // take the clone path rather than dropping.
    queue.posted_rx.push_front(std::move(buf));
  }
  ++rx_clone_fallbacks_;
  return frame.DeepClone();
}

void Nic::ReplenishPostedRx(Queue& queue) {
  // Runs on the queue's target core (interrupt or poll context), so every frame is a pop
  // from this core's slab freelist.
  while (queue.posted_rx.size() < kPostedRxDepth) {
    queue.posted_rx.push_back(IOBuf::CreateFrame());
  }
}

void Nic::DeliverFrame(std::unique_ptr<IOBuf> frame, std::size_t queue_index,
                       PacketInfo info) {
  if (world_.MachineKilled(runtime_)) {
    // Kill-after-schedule race: the frame was already in flight (calendar action queued)
    // when the machine died. It dies at the device boundary — no ring push, no interrupt.
    ++rx_killed_drops_;
    return;
  }
  Queue& queue = *queues_[queue_index];
  // RX checksum offload: vouch for exactly the frames sent with kNeedsCsum (see nic.h).
  PacketInfo rx;
  if (info.flags & PacketInfo::kNeedsCsum) {
    rx.flags = PacketInfo::kDataValid;
  }
  queue.ring.push_back(RxEntry{std::move(frame), rx});
  if (queue.interrupts_enabled && !queue.irq_pending) {
    queue.irq_pending = true;
    ++interrupts_raised_;
    runtime_.GetSubsystem<EventManagerRoot>(Subsystem::kEventManager)
        .RepFor(queue.target_core)
        .RaiseVector(queue.vector);
  }
  // Polling mode: the idle callback will find the frame.
}

void Nic::ServiceQueue(Queue& queue, bool from_interrupt) {
  if (from_interrupt) {
    queue.irq_pending = false;
    world_.Charge(config_.hv.irq_inject_ns);  // Native(): bare-metal MSI-X, smaller
  }
  std::size_t handled = 0;
  while (!queue.ring.empty()) {
    std::unique_ptr<IOBuf> frame = std::move(queue.ring.front().frame);
    PacketInfo info = queue.ring.front().info;
    queue.ring.pop_front();
    ++handled;
    ++frames_received_;
    if (config_.hv.virtualized && config_.hv.rx_copy) {
      // The hypervisor copies the packet into guest receive buffers: a real copy, plus the
      // modeled per-byte cost for fixed-time determinism. The guest buffer is a frame from
      // this core's slab, so the copy lands in recycled memory (zero-alloc steady state).
      std::size_t len = frame->ComputeChainDataLength();
      world_.Charge(config_.hv.rx_copy_fixed_ns +
                    static_cast<std::uint64_t>(config_.hv.rx_copy_ns_per_byte *
                                               static_cast<double>(len)));
      std::unique_ptr<IOBuf> guest = IOBuf::CreateFrame();
      if (len <= guest->Tailroom()) {
        frame->CopyOut(guest->WritableTail(), len);
        guest->Append(len);
        frame = std::move(guest);
      } else {
        frame = frame->DeepClone();
      }
    }
    if (!from_interrupt) {
      ++frames_polled_;
    }
    if (rx_handler_) {
      rx_handler_(std::move(frame), info);
    }
  }
  // Re-post RX descriptors for the buffers this pass consumed (the driver half of the
  // posted-ring lifecycle; frames freed by the application this event recycle right back).
  ReplenishPostedRx(queue);
  if (from_interrupt) {
    // Adaptive policy: a big batch behind one interrupt means the rate is high — switch to
    // polling (§3.2's driver example).
    if (handled >= config_.poll_enter_threshold && queue.poll_callback == nullptr) {
      EnterPolling(queue);
    }
  } else {
    if (handled == 0) {
      if (++queue.empty_polls >= config_.poll_exit_threshold) {
        LeavePolling(queue);
      }
    } else {
      queue.empty_polls = 0;
    }
  }
}

void Nic::EnterPolling(Queue& queue) {
  queue.interrupts_enabled = false;
  queue.empty_polls = 0;
  auto& em = runtime_.GetSubsystem<EventManagerRoot>(Subsystem::kEventManager)
                 .RepFor(queue.target_core);
  Queue* q = &queue;
  queue.poll_callback = std::make_unique<EventManager::IdleCallback>(
      em, [this, q] { ServiceQueue(*q, /*from_interrupt=*/false); });
  queue.poll_callback->Start();
}

void Nic::LeavePolling(Queue& queue) {
  queue.interrupts_enabled = true;
  if (queue.poll_callback != nullptr) {
    queue.poll_callback->Stop();
    // Defer destruction: we are executing inside this very callback's invocation.
    EventManager::IdleCallback* raw = queue.poll_callback.release();
    runtime_.GetSubsystem<EventManagerRoot>(Subsystem::kEventManager)
        .RepFor(queue.target_core)
        .Spawn([raw] { delete raw; });
  }
  // Frames that raced in while we were disabling: raise an interrupt for them.
  if (!queue.ring.empty() && !queue.irq_pending) {
    queue.irq_pending = true;
    ++interrupts_raised_;
    runtime_.GetSubsystem<EventManagerRoot>(Subsystem::kEventManager)
        .RepFor(queue.target_core)
        .RaiseVector(queue.vector);
  }
}

}  // namespace sim
}  // namespace ebbrt
