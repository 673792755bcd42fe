#include "src/net/tcp.h"

#include <atomic>

#include "src/event/event_manager.h"
#include "src/event/timer.h"
#include "src/net/network_manager.h"
#include "src/net/tx_batcher.h"

namespace ebbrt {

namespace {

constexpr std::uint64_t kRtxTimeoutNs = 5'000'000;    // 5 ms base RTO (LAN-scale sim)
constexpr std::uint32_t kMaxRtxBackoff = 8;           // then abort
constexpr std::uint64_t kTimeWaitNs = 20'000'000;     // shortened 2MSL for the simulator

std::atomic<std::uint32_t> g_iss{0x1000};

std::uint32_t NextIss() { return g_iss.fetch_add(64000, std::memory_order_relaxed); }

// Non-owning view chain over [offset, offset+len) of `owner` — the zero-copy transmit path.
// Validity: the views are consumed synchronously by the NIC/switch (which clones at the
// fabric boundary), and `owner` is retained by the retransmission queue until acked.
std::unique_ptr<IOBuf> SliceView(const IOBuf& owner, std::size_t offset, std::size_t len) {
  std::unique_ptr<IOBuf> head;
  const IOBuf* buf = &owner;
  while (buf != nullptr && offset >= buf->Length()) {
    offset -= buf->Length();
    buf = buf->Next();
  }
  while (len > 0) {
    Kassert(buf != nullptr, "SliceView: range exceeds chain");
    std::size_t here = buf->Length() - offset;
    std::size_t take = here < len ? here : len;
    auto view = IOBuf::WrapBuffer(buf->Data() + offset, take);
    if (head == nullptr) {
      head = std::move(view);
    } else {
      head->AppendChain(std::move(view));
    }
    len -= take;
    offset = 0;
    buf = buf->Next();
  }
  return head;
}

}  // namespace

TcpEntry::TcpEntry(TcpManager& mgr, Interface& ifc, FourTuple t, std::size_t core)
    : manager(mgr), iface(ifc), tuple(t), owner_core(core) {}

// --- TcpPcb --------------------------------------------------------------------------------

namespace {

// Releases the entry's reference to its current handler — deferred to a fresh event, never
// synchronous: handlers are routinely replaced or removed from inside their own callbacks,
// and destroying one under its own frame is use-after-free. (See the matching deferral in
// RemoveEntry.) Moving the reference out also detaches the handler: no callbacks follow.
void DeferHandlerRelease(TcpEntry& entry) {
  if (entry.handler == nullptr) {
    return;
  }
  // A smart-pointer capture: if the world stops before the event runs, the lambda's
  // destructor still drops the reference.
  event::Local().Spawn([handler = std::move(entry.handler)]() mutable { handler.reset(); });
}

}  // namespace

void TcpPcb::InstallHandler(std::shared_ptr<TcpHandler> handler) {
  DeferHandlerRelease(*entry_);
  entry_->handler = std::move(handler);
  if (entry_->handler != nullptr) {
    entry_->handler->pcb_ = *this;
  }
}

namespace {

// Window space the peer currently grants beyond in-flight data, ignoring corked bytes (the
// flush path's budget — corked bytes are exactly what it is about to spend the budget on).
std::size_t RawWindowRemaining(const TcpEntry& e) {
  std::uint32_t inflight = e.snd_nxt - e.snd_una;
  return inflight >= e.snd_wnd ? 0 : e.snd_wnd - inflight;
}

}  // namespace

std::size_t TcpPcb::SendWindowRemaining() const {
  std::size_t raw = RawWindowRemaining(*entry_);
  std::size_t corked = entry_->cork_queue.ChainLength();
  return raw > corked ? raw - corked : 0;
}

void TcpPcb::SetReceiveWindow(std::uint16_t window) {
  entry_->rcv_wnd = window;
  if (entry_->state == TcpState::kEstablished) {
    // Notify the peer of the window change immediately (it may be blocked on zero window).
    entry_->manager.TransmitSegment(*entry_, kTcpAck, nullptr, entry_->snd_nxt,
                                    /*queue_rtx=*/false);
  }
}

bool TcpPcb::Send(std::unique_ptr<IOBuf> chain) {
  TcpEntry& e = *entry_;
  Kassert(CurrentContext().machine_core == e.owner_core, "TcpPcb::Send: wrong core");
  if (e.state != TcpState::kEstablished && e.state != TcpState::kCloseWait) {
    return false;
  }
  if (e.app_closed || e.close_after_flush) {
    return false;  // the application already closed its side
  }
  std::size_t len = chain->ComputeChainDataLength();
  if (len == 0) {
    return true;
  }
  // Paper contract: the application checked SendWindowRemaining; the stack has no send
  // buffer, so an out-of-window Send is refused rather than queued. Corked bytes count
  // against the window (SendWindowRemaining subtracts them), so corking never accumulates
  // more than one window of data.
  if (len > SendWindowRemaining()) {
    return false;
  }
  if (e.auto_cork) {
    if (!e.cork_queue.Empty()) {
      e.manager.network().stats().sends_coalesced.fetch_add(1, std::memory_order_relaxed);
    }
    e.cork_queue.Append(std::move(chain));
    e.manager.batcher(e.owner_core).Enroll(entry_);  // the event-boundary flush drains it
    return true;
  }
  e.manager.SendPayload(e, std::move(chain), len);
  return true;
}

std::size_t TcpPcb::CorkedBytes() const { return entry_->cork_queue.ChainLength(); }

void TcpPcb::SetAutoCork(bool enabled) { entry_->auto_cork = enabled; }

void TcpPcb::Close() {
  TcpEntry& e = *entry_;
  if (e.app_closed || e.close_after_flush) {
    return;
  }
  if (!e.cork_queue.Empty() &&
      (e.state == TcpState::kEstablished || e.state == TcpState::kCloseWait)) {
    // Data is corked ahead of the FIN: it must occupy earlier sequence space, so the close
    // completes when the chain drains (event-boundary or ACK-driven flush).
    e.close_after_flush = true;
    e.manager.FlushCorked(e);
    return;
  }
  e.manager.FinishClose(e);
}

void TcpPcb::Abort() {
  TcpEntry& e = *entry_;
  if (e.removed || e.state == TcpState::kClosed) {
    return;
  }
  e.manager.TransmitSegment(e, kTcpRst | kTcpAck, nullptr, e.snd_nxt, /*queue_rtx=*/false);
  e.state = TcpState::kClosed;
  // RemoveEntry drops any corked chain (counted in corked_drops) — never flushed.
  e.manager.RemoveEntry(e);
}

// --- TcpManager ------------------------------------------------------------------------------

TcpManager::TcpManager(NetworkManager& network)
    : network_(network), table_(network.rcu(), 10), listeners_(network.rcu(), 4),
      batchers_(network.runtime().num_cores(),
                [this](std::size_t) { return std::make_unique<TxBatcher>(*this); }) {}

// A connection and its handler keep each other alive (the handler holds its pcb) until
// removal releases the handler. Connections still open when the stack dies (Messenger peer
// links) are removed with it: release their handlers here, inline, as no event is left.
TcpManager::~TcpManager() {
  table_.ForEach([](const FourTuple&, const std::shared_ptr<TcpEntry>& entry) {
    entry->handler.reset();
  });
}

TxBatcher& TcpManager::batcher(std::size_t core) { return batchers_[core]; }

// The pre-cork TcpPcb::Send body: slice into MSS segments, transmit zero-copy views, retain
// the chain for retransmission.
void TcpManager::SendPayload(TcpEntry& e, std::unique_ptr<IOBuf> chain, std::size_t len) {
  std::size_t offset = 0;
  while (offset < len) {
    std::size_t seg_len = std::min(kTcpMss, len - offset);
    std::uint32_t seq = e.snd_nxt;
    auto views = SliceView(*chain, offset, seg_len);
    e.snd_nxt += static_cast<std::uint32_t>(seg_len);
    TcpEntry::RtxSeg seg;
    seg.seq = seq;
    seg.len = static_cast<std::uint32_t>(seg_len);
    seg.flags = static_cast<std::uint8_t>(kTcpAck | kTcpPsh);
    // Retain the application chain for retransmission: zero-copy now, copy only on loss.
    seg.payload = SliceView(*chain, offset, seg_len);
    offset += seg_len;
    if (offset == len) {
      seg.owner = std::move(chain);  // acked last of this send's segments: outlives their views
    }
    e.rtx_queue.push_back(std::move(seg));
    TransmitSegment(e, kTcpAck | kTcpPsh, std::move(views), seq, /*queue_rtx=*/false);
  }
  ArmRtxTimer(e);
}

void TcpManager::FlushCorked(TcpEntry& e) {
  if (e.removed || (e.state != TcpState::kEstablished && e.state != TcpState::kCloseWait)) {
    // Torn down (or tearing down) before the flush: the corked chain must never reach the
    // wire — RemoveEntry already dropped and counted it, or drops it when it runs.
    if (!e.cork_queue.Empty()) {
      network_.stats().corked_drops.fetch_add(1, std::memory_order_relaxed);
      e.cork_queue.Move();
    }
    return;
  }
  if (!e.cork_queue.Empty()) {
    // Window-limited partial flush: emit what the peer allows now; the remainder stays
    // corked and drains from the ACK path as the window reopens.
    std::size_t flush_len = std::min(RawWindowRemaining(e), e.cork_queue.ChainLength());
    if (flush_len > 0) {
      network_.stats().cork_flushes.fetch_add(1, std::memory_order_relaxed);
      std::unique_ptr<IOBuf> chain = e.cork_queue.Split(flush_len);
      SendPayload(e, std::move(chain), flush_len);
    }
  }
  if (e.close_after_flush && e.cork_queue.Empty()) {
    e.close_after_flush = false;
    FinishClose(e);
  }
}

void TcpManager::FinishClose(TcpEntry& e) {
  if (e.app_closed) {
    return;
  }
  e.app_closed = true;
  if (e.state == TcpState::kEstablished) {
    e.state = TcpState::kFinWait1;
  } else if (e.state == TcpState::kCloseWait) {
    e.state = TcpState::kLastAck;
  } else {
    e.state = TcpState::kClosed;
    RemoveEntry(e);
    return;
  }
  e.fin_sent = true;
  std::uint32_t seq = e.snd_nxt;
  e.snd_nxt += 1;  // FIN occupies one sequence number
  TcpEntry::RtxSeg seg;
  seg.seq = seq;
  seg.len = 1;
  seg.flags = kTcpFin | kTcpAck;
  e.rtx_queue.push_back(std::move(seg));
  TransmitSegment(e, kTcpFin | kTcpAck, nullptr, seq, /*queue_rtx=*/false);
  ArmRtxTimer(e);
}

void TcpManager::Listen(std::uint16_t port, AcceptFn accept) {
  auto listener = std::make_shared<Listener>();
  listener->accept = std::move(accept);
  listeners_.InsertOrReplace(port, std::move(listener));
}

std::uint16_t TcpManager::PickEphemeralPort(Interface& iface, Ipv4Addr dst,
                                            std::uint16_t dst_port,
                                            std::size_t desired_core) {
  for (int tries = 0; tries < 20000; ++tries) {
    std::uint16_t port = next_ephemeral_.fetch_add(1, std::memory_order_relaxed);
    if (port < 32768) {
      next_ephemeral_.store(33000, std::memory_order_relaxed);
      continue;
    }
    FourTuple tuple{iface.addr(), port, dst, dst_port};
    if (table_.Find(tuple) != nullptr) {
      continue;
    }
    if (iface.nic().CoreForFlow(iface.addr(), port, dst, dst_port) == desired_core) {
      return port;
    }
  }
  Kabort("TcpManager: no ephemeral port hashes to core %zu", desired_core);
}

Future<TcpPcb> TcpManager::Connect(Interface& iface, Ipv4Addr dst, std::uint16_t dst_port) {
  std::size_t core = CurrentContext().machine_core;
  std::uint16_t sport = PickEphemeralPort(iface, dst, dst_port, core);
  FourTuple tuple{iface.addr(), sport, dst, dst_port};
  auto entry = std::make_shared<TcpEntry>(*this, iface, tuple, core);
  std::uint32_t iss = NextIss();
  entry->state = TcpState::kSynSent;
  entry->snd_una = iss;
  entry->snd_nxt = iss + 1;
  entry->connect_pending = true;
  table_.Insert(tuple, entry);

  Future<TcpPcb> result =
      entry->connected.GetFuture().Then([entry](Future<void> f) {
        f.Get();
        return TcpPcb(entry);
      });

  TcpEntry::RtxSeg seg;
  seg.seq = iss;
  seg.len = 1;
  seg.flags = kTcpSyn;
  entry->rtx_queue.push_back(std::move(seg));
  TransmitSegment(*entry, kTcpSyn, nullptr, iss, /*queue_rtx=*/false);
  ArmRtxTimer(*entry);
  return result;
}

void TcpManager::TransmitSegment(TcpEntry& entry, std::uint8_t flags,
                                 std::unique_ptr<IOBuf> payload, std::uint32_t seq,
                                 bool /*queue_rtx*/) {
  std::size_t payload_len = payload ? payload->ComputeChainDataLength() : 0;
  auto packet = net_internal::BuildIpv4<sizeof(TcpHeader)>(
      entry.tuple.local_ip, entry.tuple.remote_ip, kIpProtoTcp, payload_len);
  auto& tcp = packet->Get<TcpHeader>(sizeof(Ipv4Header));
  tcp.src_port = HostToNet16(entry.tuple.local_port);
  tcp.dst_port = HostToNet16(entry.tuple.remote_port);
  tcp.seq = HostToNet32(seq);
  tcp.ack = (flags & kTcpAck) ? HostToNet32(entry.rcv_nxt) : 0;
  tcp.SetHeaderWords(5);
  tcp.flags = flags;
  tcp.window = HostToNet16(entry.rcv_wnd);
  tcp.urgent = 0;
  // Checksum offload (kNeedsCsum): the sum over header and payload is the device's. The
  // field holds the pseudo-header sum a completing device starts from (CHECKSUM_PARTIAL);
  // no payload byte is read here.
  tcp.checksum = net_internal::PseudoHeaderSum(
      entry.tuple.local_ip, entry.tuple.remote_ip, kIpProtoTcp,
      static_cast<std::uint16_t>(sizeof(TcpHeader) + payload_len));
  if (payload) {
    packet->AppendChain(std::move(payload));
  }
  if (flags & kTcpAck) {
    entry.pending_ack = false;  // this segment carries the acknowledgment
  }
  auto& stats = network_.stats();
  stats.tcp_tx_segments.fetch_add(1, std::memory_order_relaxed);
  if (payload_len > 0) {
    stats.tcp_tx_data_segments.fetch_add(1, std::memory_order_relaxed);
    stats.tcp_tx_payload_bytes.fetch_add(payload_len, std::memory_order_relaxed);
  }
  entry.iface.EthArpSend(kEthTypeIpv4, std::move(packet),
                         PacketInfo{PacketInfo::kNeedsCsum});
}

void TcpManager::ArmRtxTimer(TcpEntry& entry) {
  if (entry.rtx_timer != 0 || entry.rtx_queue.empty()) {
    return;
  }
  auto self = table_.Find(entry.tuple);
  Kassert(self != nullptr, "ArmRtxTimer: entry not in table");
  std::shared_ptr<TcpEntry> shared = *self;
  std::uint64_t timeout = kRtxTimeoutNs << entry.rtx_backoff;
  entry.rtx_timer = Timer::Instance()->Start(
      timeout, [this, shared] { RtxTimeout(shared); });
}

void TcpManager::RtxTimeout(std::shared_ptr<TcpEntry> entry) {
  entry->rtx_timer = 0;
  if (entry->rtx_queue.empty() || entry->state == TcpState::kClosed) {
    return;
  }
  if (++entry->rtx_backoff > kMaxRtxBackoff) {
    // Peer unreachable: abort.
    entry->state = TcpState::kClosed;
    if (entry->handler != nullptr) {
      entry->handler->Abort();
    }
    if (entry->connect_pending) {
      entry->connect_pending = false;
      entry->connected.SetException(
          std::make_exception_ptr(std::runtime_error("tcp: connect timed out")));
    }
    RemoveEntry(*entry);
    return;
  }
  // Go-back-N: retransmit the oldest unacked segment.
  TcpEntry::RtxSeg& seg = entry->rtx_queue.front();
  std::unique_ptr<IOBuf> payload;
  if (seg.payload != nullptr) {
    payload = seg.payload->Clone();
  }
  TransmitSegment(*entry, seg.flags | (entry->state != TcpState::kSynSent ? kTcpAck : 0),
                  std::move(payload), seg.seq, false);
  ArmRtxTimer(*entry);
}

std::size_t TcpManager::SeverPeer(Ipv4Addr peer) {
  // Collect first: severing mutates the table, and ForEach is read-side iteration.
  std::vector<std::shared_ptr<TcpEntry>> victims;
  table_.ForEach([&](const FourTuple& tuple, const std::shared_ptr<TcpEntry>& entry) {
    if (tuple.remote_ip == peer) {
      victims.push_back(entry);
    }
  });
  for (auto& victim : victims) {
    auto sever = [this, entry = victim] {
      TcpEntry& e = *entry;
      if (e.removed || e.state == TcpState::kClosed) {
        return;  // lost a race with a concurrent close/abort
      }
      // Mirror the RST-receive path (ProcessSegment), plus the courtesy RST out so the
      // peer's state dies too instead of lingering until retransmission give-up.
      TransmitSegment(e, kTcpRst | kTcpAck, nullptr, e.snd_nxt, /*queue_rtx=*/false);
      e.state = TcpState::kClosed;
      if (e.connect_pending) {
        e.connect_pending = false;
        e.connected.SetException(
            std::make_exception_ptr(std::runtime_error("tcp: connection severed")));
      }
      if (e.handler != nullptr) {
        e.handler->Abort();
      }
      RemoveEntry(e);
    };
    if (CurrentContext().machine_core == victim->owner_core) {
      sever();
    } else {
      event::Local().SpawnRemote(std::move(sever), victim->owner_core);
    }
  }
  return victims.size();
}

void TcpManager::RemoveEntry(TcpEntry& entry) {
  // Idempotent: the abort paths reach here twice when a handler's Abort() itself calls
  // Pcb().Close() (handler -> Close -> RemoveEntry, then the stack's own RemoveEntry).
  if (entry.removed) {
    return;
  }
  entry.removed = true;
  // Flush-after-close hazard, handled generically: any corked chain dies with the entry —
  // the event-boundary / ACK flush paths see removed==true (the batcher's shared_ptr keeps
  // the entry inspectable) and must never transmit it.
  if (!entry.cork_queue.Empty()) {
    network_.stats().corked_drops.fetch_add(1, std::memory_order_relaxed);
    entry.cork_queue.Move();
  }
  entry.close_after_flush = false;
  if (entry.rtx_timer != 0) {
    Timer::Instance()->Stop(entry.rtx_timer);
    entry.rtx_timer = 0;
  }
  if (entry.time_wait_timer != 0) {
    Timer::Instance()->Stop(entry.time_wait_timer);
    entry.time_wait_timer = 0;
  }
  // Detach the handler now (no callbacks after removal); releasing the reference is deferred
  // to a fresh event — RemoveEntry is routinely reached from *inside* a handler callback (an
  // application calling Close() within Receive()). Run-to-completion guarantees the current
  // event finishes before the release event runs.
  DeferHandlerRelease(entry);
  table_.Erase(entry.tuple);
}

void TcpManager::HandleSegment(Interface& iface, const Ipv4Header& ip,
                               std::unique_ptr<IOBuf> segment, PacketInfo info) {
  if (segment->Length() < sizeof(TcpHeader)) {
    return;
  }
  // Verify the TCP checksum over pseudo-header + segment unless the device already did.
  if (!(info.flags & PacketInfo::kDataValid)) {
    ChecksumAccumulator acc;
    net_internal::AddPseudoHeader(acc, ip.SrcAddr(), ip.DstAddr(), kIpProtoTcp,
                                  static_cast<std::uint16_t>(segment->ComputeChainDataLength()));
    acc.AddChain(*segment);
    if (acc.Finish() != 0) {
      network_.stats().checksum_drops.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  TcpHeader tcp = segment->Get<TcpHeader>();
  std::size_t header_len = tcp.HeaderLength();
  if (header_len < sizeof(TcpHeader) || header_len > segment->Length()) {
    return;
  }
  segment->Advance(header_len);

  FourTuple tuple{ip.DstAddr(), NetToHost16(tcp.dst_port), ip.SrcAddr(),
                  NetToHost16(tcp.src_port)};
  auto* found = table_.Find(tuple);
  if (found != nullptr) {
    std::shared_ptr<TcpEntry> entry = *found;  // own it within this event
    if (CurrentContext().machine_core != entry->owner_core) {
      // RSS normally guarantees affinity; fall back to shipping the segment to the owner.
      auto shared_seg = std::make_shared<std::unique_ptr<IOBuf>>(std::move(segment));
      event::Local().SpawnRemote(
          [this, entry, tcp, shared_seg]() mutable {
            ProcessSegment(entry, tcp, std::move(*shared_seg));
          },
          entry->owner_core);
      return;
    }
    ProcessSegment(std::move(entry), tcp, std::move(segment));
    return;
  }
  if ((tcp.flags & kTcpSyn) && !(tcp.flags & kTcpAck)) {
    HandleSyn(iface, ip, tcp);
    return;
  }
  // No state, not a SYN: silently drop (stale segment after close).
}

void TcpManager::HandleSyn(Interface& iface, const Ipv4Header& ip, const TcpHeader& tcp) {
  auto* listener = listeners_.Find(NetToHost16(tcp.dst_port));
  if (listener == nullptr) {
    return;  // no RST machinery needed for closed ports in the testbed
  }
  std::shared_ptr<Listener> l = *listener;
  FourTuple tuple{ip.DstAddr(), NetToHost16(tcp.dst_port), ip.SrcAddr(),
                  NetToHost16(tcp.src_port)};
  // The connection's state is owned by the core the SYN landed on (RSS steering): this core.
  auto entry = std::make_shared<TcpEntry>(*this, iface, tuple,
                                          CurrentContext().machine_core);
  std::uint32_t iss = NextIss();
  entry->state = TcpState::kSynReceived;
  entry->snd_una = iss;
  entry->snd_nxt = iss + 1;
  entry->rcv_nxt = NetToHost32(tcp.seq) + 1;
  entry->snd_wnd = NetToHost16(tcp.window);
  entry->on_established = [l](TcpPcb pcb) { l->accept(std::move(pcb)); };
  if (!table_.Insert(tuple, entry)) {
    return;  // duplicate SYN racing an existing connection
  }
  TcpEntry::RtxSeg seg;
  seg.seq = iss;
  seg.len = 1;
  seg.flags = kTcpSyn | kTcpAck;
  entry->rtx_queue.push_back(std::move(seg));
  TransmitSegment(*entry, kTcpSyn | kTcpAck, nullptr, iss, false);
  ArmRtxTimer(*entry);
}

void TcpManager::DeliverInOrder(TcpEntry& entry, std::unique_ptr<IOBuf> payload,
                                std::uint8_t flags) {
  std::size_t len = payload ? payload->ComputeChainDataLength() : 0;
  if (len > 0) {
    entry.rcv_nxt += static_cast<std::uint32_t>(len);
    entry.pending_ack = true;
    if (entry.handler != nullptr) {
      // Zero-copy delivery: the application receives the device-filled buffer, header-
      // stripped, synchronously from the driver event (§3.6: no stack buffering).
      entry.handler->Receive(std::move(payload));
    }
  }
  // Drain any parked out-of-order segments that are now in order.
  while (!entry.ooo.empty()) {
    auto it = entry.ooo.begin();
    if (it->first != entry.rcv_nxt) {
      if (SeqLt(it->first, entry.rcv_nxt)) {
        entry.ooo.erase(it);  // stale overlap
        continue;
      }
      break;
    }
    std::unique_ptr<IOBuf> next = std::move(it->second);
    entry.ooo.erase(it);
    std::size_t next_len = next->ComputeChainDataLength();
    entry.rcv_nxt += static_cast<std::uint32_t>(next_len);
    entry.pending_ack = true;
    if (entry.handler != nullptr) {
      entry.handler->Receive(std::move(next));
    }
  }
  (void)flags;
}

void TcpManager::EnterTimeWait(std::shared_ptr<TcpEntry> entry) {
  entry->state = TcpState::kTimeWait;
  if (entry->time_wait_timer != 0) {
    return;
  }
  entry->time_wait_timer = Timer::Instance()->Start(kTimeWaitNs, [this, entry] {
    entry->time_wait_timer = 0;
    entry->state = TcpState::kClosed;
    RemoveEntry(*entry);
  });
}

void TcpManager::SendAckIfPending(TcpEntry& entry) {
  if (entry.pending_ack && entry.state != TcpState::kClosed) {
    TransmitSegment(entry, kTcpAck, nullptr, entry.snd_nxt, false);
  }
}

void TcpManager::ProcessSegment(std::shared_ptr<TcpEntry> entry, const TcpHeader& tcp,
                                std::unique_ptr<IOBuf> payload) {
  TcpEntry& e = *entry;
  if (e.state == TcpState::kClosed) {
    return;
  }
  std::uint32_t seq = NetToHost32(tcp.seq);
  std::uint32_t ack = NetToHost32(tcp.ack);
  std::size_t payload_len = payload->ComputeChainDataLength();

  if (tcp.flags & kTcpRst) {
    e.state = TcpState::kClosed;
    if (e.connect_pending) {
      e.connect_pending = false;
      e.connected.SetException(
          std::make_exception_ptr(std::runtime_error("tcp: connection reset")));
    }
    if (e.handler != nullptr) {
      e.handler->Abort();
    }
    RemoveEntry(e);
    return;
  }

  // --- ACK processing -------------------------------------------------------------------
  if (tcp.flags & kTcpAck) {
    if (SeqLt(e.snd_una, ack) && SeqLe(ack, e.snd_nxt)) {
      e.snd_una = ack;
      while (!e.rtx_queue.empty()) {
        TcpEntry::RtxSeg& seg = e.rtx_queue.front();
        if (SeqLe(seg.seq + seg.len, ack)) {
          e.rtx_queue.pop_front();
        } else {
          break;
        }
      }
      e.rtx_backoff = 0;
      if (e.rtx_timer != 0) {
        Timer::Instance()->Stop(e.rtx_timer);
        e.rtx_timer = 0;
      }
      ArmRtxTimer(e);
      e.snd_wnd = NetToHost16(tcp.window);
      // A window-limited flush left corked data behind: ACK progress is the signal to drain
      // more of it (ahead of SendReady, so the application observes bytes in flight order).
      // Skip while the entry awaits its event-boundary flush (batcher_enrolled) — an ACK
      // carried by a later frame of the SAME event must not flush mid-event.
      if (!e.cork_queue.Empty() && !e.batcher_enrolled) {
        FlushCorked(e);
      }
      if (e.handler != nullptr && (e.snd_nxt - e.snd_una) < e.snd_wnd) {
        // Acknowledgment progress: give the application (or the baseline kernel pump, which
        // implements Nagle on top of this) a send opportunity.
        e.handler->SendReady();
      }
    } else {
      e.snd_wnd = NetToHost16(tcp.window);  // window update on duplicate ACK
      if (!e.cork_queue.Empty() && !e.batcher_enrolled) {
        FlushCorked(e);  // a pure window update can reopen a clamped window
      }
    }

    // Handshake / close-sequence transitions driven by this ACK.
    switch (e.state) {
      case TcpState::kSynSent:
        if ((tcp.flags & kTcpSyn) && ack == e.snd_nxt) {
          e.rcv_nxt = seq + 1;
          e.state = TcpState::kEstablished;
          e.snd_wnd = NetToHost16(tcp.window);
          e.rtx_queue.clear();
          TransmitSegment(e, kTcpAck, nullptr, e.snd_nxt, false);
          if (e.connect_pending) {
            e.connect_pending = false;
            e.connected.SetValue();
          }
        }
        return;  // SYN-ACK carries no data
      case TcpState::kSynReceived:
        if (ack == e.snd_nxt) {
          e.state = TcpState::kEstablished;
          e.rtx_queue.clear();
          if (e.on_established) {
            auto fn = std::move(e.on_established);
            e.on_established = nullptr;
            fn(TcpPcb(entry));
          }
        }
        break;
      case TcpState::kFinWait1:
        if (e.fin_sent && ack == e.snd_nxt) {
          e.state = TcpState::kFinWait2;
        }
        break;
      case TcpState::kClosing:
        if (e.fin_sent && ack == e.snd_nxt) {
          EnterTimeWait(entry);
        }
        break;
      case TcpState::kLastAck:
        if (e.fin_sent && ack == e.snd_nxt) {
          e.state = TcpState::kClosed;
          RemoveEntry(e);
          return;
        }
        break;
      default:
        break;
    }
  }

  // --- Data / FIN processing -------------------------------------------------------------
  bool fin = (tcp.flags & kTcpFin) != 0;
  if (payload_len == 0 && !fin) {
    SendAckIfPending(e);
    return;
  }
  if (seq == e.rcv_nxt) {
    DeliverInOrder(e, payload_len > 0 ? std::move(payload) : nullptr, tcp.flags);
    if (fin) {
      // Only honor the FIN once all preceding data has been consumed (in-order point).
      e.rcv_nxt += 1;
      e.pending_ack = true;
      switch (e.state) {
        case TcpState::kEstablished:
          e.state = TcpState::kCloseWait;
          if (e.handler != nullptr) {
            e.handler->Close();
          }
          break;
        case TcpState::kFinWait1:
          if (e.fin_sent && SeqLe(e.snd_nxt, e.snd_una)) {
            EnterTimeWait(entry);
          } else {
            e.state = TcpState::kClosing;
          }
          break;
        case TcpState::kFinWait2:
          EnterTimeWait(entry);
          break;
        default:
          break;
      }
    }
  } else if (SeqLt(e.rcv_nxt, seq)) {
    // Out of order: park (bounded) and duplicate-ACK to prompt retransmission.
    if (payload_len > 0 && e.ooo.size() < TcpEntry::kMaxOoo) {
      e.ooo.emplace(seq, std::move(payload));
    }
    e.pending_ack = true;
  } else {
    // Duplicate/overlapping old data: re-acknowledge.
    e.pending_ack = true;
  }
  SendAckIfPending(e);
}

}  // namespace ebbrt
