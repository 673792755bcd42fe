#include "src/sim/switch.h"

#include "src/sim/nic.h"

namespace ebbrt {
namespace sim {

std::size_t Switch::Attach(Nic* nic) {
  ports_.push_back(nic);
  tx_link_free_.push_back(0);
  link_faults_.emplace_back();
  return ports_.size() - 1;
}

void Switch::SetLinkFault(std::size_t port, const FaultPlan& plan) {
  Kassert(port < ports_.size(), "Switch: bad port");
  auto fault = std::make_unique<LinkFault>();
  fault->plan = plan;
  fault->rng.seed(plan.seed);
  link_faults_[port] = std::move(fault);
}

void Switch::ClearLinkFault(std::size_t port) {
  if (port < link_faults_.size()) {
    link_faults_[port].reset();
  }
}

bool Switch::FaultEats(LinkFault* fault) {
  if (fault == nullptr) {
    return false;
  }
  if (fault->plan.blackhole) {
    ++frames_dropped_;
    ++faults_injected_;
    return true;
  }
  if (fault->plan.drop_rate > 0.0) {
    std::uniform_real_distribution<double> dist(0.0, 1.0);
    if (dist(fault->rng) < fault->plan.drop_rate) {
      ++frames_dropped_;
      ++faults_injected_;
      return true;
    }
  }
  return false;
}

std::size_t Switch::FlatIndex(const MacAddr& mac) {
  const auto& b = mac.bytes;
  if (b[0] != 0x02 || b[1] != 0x00 || b[2] != 0 || b[3] != 0) {
    return kNoPort;
  }
  return (std::size_t{b[4]} << 8) | b[5];
}

void Switch::Learn(const MacAddr& mac, std::size_t port) {
  std::size_t index = FlatIndex(mac);
  Kassert(index != kNoPort, "Switch: source MAC is not a testbed MAC (FromIndex below 2^16)");
  if (index >= flat_macs_.size()) {
    flat_macs_.resize(index + 1, kNoPort);
  }
  flat_macs_[index] = port;
}

std::size_t Switch::PortFor(const MacAddr& mac) const {
  std::size_t index = FlatIndex(mac);
  return index < flat_macs_.size() ? flat_macs_[index] : kNoPort;
}

void Switch::Transmit(std::size_t from_port, const IOBuf& frame, PacketInfo info) {
  Kassert(from_port < ports_.size(), "Switch: bad port");
  if (loss_rate_ > 0.0) {
    std::uniform_real_distribution<double> dist(0.0, 1.0);
    if (dist(rng_) < loss_rate_) {
      ++frames_dropped_;
      return;
    }
  }
  LinkFault* egress = link_faults_[from_port].get();
  if (FaultEats(egress)) {
    return;  // egress fault on the sender's link
  }
  std::size_t frame_len = frame.ComputeChainDataLength();
  if (frame_len < sizeof(EthernetHeader)) {
    ++frames_dropped_;
    return;
  }
  // Learn the source MAC, resolve the destination port.
  EthernetHeader eth;
  frame.CopyOut(&eth, sizeof(eth));
  Learn(eth.src, from_port);

  // Serialize on the sender's link: the link is busy until the frame's bits are on the wire.
  std::uint64_t now = world_.Now();
  std::uint64_t start = std::max(now, tx_link_free_[from_port]);
  std::uint64_t done = start + link_.SerializationNs(frame_len);
  tx_link_free_[from_port] = done;
  std::uint64_t arrival =
      done + link_.propagation_ns + (egress != nullptr ? egress->plan.extra_delay_ns : 0);

  ++frames_forwarded_;
  if (!eth.dst.IsBroadcast()) {
    std::size_t port = PortFor(eth.dst);
    if (port != kNoPort) {
      DeliverTo(port, frame, info, arrival);
      return;
    }
  }
  // Flood: broadcast or unknown destination.
  for (std::size_t port = 0; port < ports_.size(); ++port) {
    if (port != from_port) {
      DeliverTo(port, frame, info, arrival);
    }
  }
}

void Switch::DeliverTo(std::size_t port, const IOBuf& frame, PacketInfo info,
                       std::uint64_t at) {
  // Ingress fault on the receiver's link, then killed-machine drop: a dead machine's NIC
  // neither fills posted descriptors nor raises interrupts, so the frame dies here without
  // consuming the posted ring (which must survive intact for revival).
  LinkFault* ingress = link_faults_[port].get();
  if (FaultEats(ingress)) {
    return;
  }
  Nic* nic = ports_[port];
  if (world_.MachineKilled(nic->runtime())) {
    ++frames_dropped_;
    ++killed_drops_;
    return;
  }
  if (ingress != nullptr) {
    at += ingress->plan.extra_delay_ns;
  }
  // Copy at the fabric boundary: bytes physically leave the sender's memory. The destination
  // NIC writes them into its next driver-posted RX frame (recycled slab memory, flattened —
  // receivers see one contiguous DMA buffer, as a real NIC would present), falling back to a
  // fresh DeepClone when nothing is posted yet. RSS steering is computed once and shared by
  // the copy (posted ring) and the delivery.
  std::size_t queue = nic->QueueForFrame(frame);
  auto copy = nic->CopyForDelivery(frame, queue);
  world_.At(at, [nic, queue, info, copy = std::move(copy)]() mutable {
    nic->DeliverFrame(std::move(copy), queue, info);
  });
}

}  // namespace sim
}  // namespace ebbrt
