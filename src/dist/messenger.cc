#include "src/dist/messenger.h"

#include <utility>

#include "src/event/event_manager.h"
#include "src/platform/context.h"
#include "src/rcu/rcu.h"

namespace ebbrt {
namespace dist {

Messenger& Messenger::For(Runtime& runtime) {
  return runtime.GetOrCreateSubsystem<Messenger>(
      Subsystem::kMessenger, [&] { return std::make_shared<Messenger>(runtime); });
}

Messenger::Messenger(Runtime& runtime)
    : runtime_(runtime), net_(NetworkManager::For(runtime)),
      peers_(RcuManagerRoot::For(runtime), /*bucket_bits=*/6),
      receivers_(RcuManagerRoot::For(runtime), /*bucket_bits=*/6) {
  // Inbound connections: the peer object is the connection's handler, owned by the
  // connection (shared anchor), and cached under the peer's address so replies ride the
  // same connection instead of dialing back.
  net_.tcp().Listen(kMessengerPort, [this](TcpPcb pcb) {
    Ipv4Addr addr = pcb.tuple().remote_ip;
    auto peer = std::make_shared<Peer>(*this, addr, CurrentContext().machine_core);
    pcb.InstallHandler(peer);
    pcb.SetAutoCork(true);
    peer->Established(pcb);
    std::lock_guard<std::mutex> lock(control_mu_);
    stats_.control_locks++;
    stats_.accepts++;
    // Simultaneous open: if a dialed connection already owns the cache slot, Insert keeps
    // it for sending — this accepted connection still receives until the remote closes it.
    peers_.Insert(addr.raw, std::move(peer));
  });
}

// No Unlisten here: the Messenger is adopted by its Runtime and destroyed during machine
// teardown, after the event loops (and the RCU machinery a listener erase would ride) are
// already gone. The listen socket dies with the machine's network stack, and the two RCU
// tables free their remaining nodes directly (their destructors never defer — by teardown
// there are no event-borne readers left to wait for).
Messenger::~Messenger() = default;

void Messenger::RegisterReceiver(EbbId target, Receiver receiver) {
  std::lock_guard<std::mutex> lock(control_mu_);
  stats_.control_locks++;
  bool inserted = receivers_.Insert(target, std::move(receiver));
  Kassert(inserted, "Messenger: target already has a receiver on this machine");
}

void Messenger::UnregisterReceiver(EbbId target) {
  std::lock_guard<std::mutex> lock(control_mu_);
  stats_.control_locks++;
  receivers_.Erase(target);
}

std::uint64_t Messenger::AddPeerObserver(PeerObserver observer) {
  std::lock_guard<std::mutex> lock(control_mu_);
  stats_.control_locks++;
  std::uint64_t handle = next_peer_observer_++;
  peer_observers_.emplace_back(handle, std::make_shared<PeerObserver>(std::move(observer)));
  return handle;
}

void Messenger::RemovePeerObserver(std::uint64_t handle) {
  std::lock_guard<std::mutex> lock(control_mu_);
  stats_.control_locks++;
  for (auto it = peer_observers_.begin(); it != peer_observers_.end(); ++it) {
    if (it->first == handle) {
      peer_observers_.erase(it);
      return;
    }
  }
}

void Messenger::Send(Ipv4Addr dst, EbbId target, std::unique_ptr<IOBuf> payload) {
  std::shared_ptr<Peer> peer = PeerFor(dst);
  if (CurrentContext().machine_core == peer->core()) {
    peer->Deliver(target, std::move(payload));
    return;
  }
  // The connection's state lives on its owner core; forward the message there. SpawnRemote
  // rides the lock-free interconnect: one slab-carved continuation node, one CAS onto the
  // owner core's exchange list, and a WakeCore only if that core had actually halted — the
  // per-message forward takes no lock anywhere.
  event::Local().SpawnRemote(
      [peer, target, payload = std::move(payload)]() mutable {
        peer->Deliver(target, std::move(payload));
      },
      peer->core());
}

std::shared_ptr<Messenger::Peer> Messenger::PeerFor(Ipv4Addr addr) {
  // Steady state: one lock-free table read per message. The shared_ptr copy is safe against
  // a concurrent erase — the node a reader observes is not reclaimed until every core
  // passes an event boundary, and this whole function runs inside one event.
  if (std::shared_ptr<Peer>* cached = peers_.Find(addr.raw)) {
    return *cached;
  }
  // Slow path: create the peer under the control mutex (the insert must be paired with the
  // dial exactly once). The dial itself happens after the lock is released — Connect can
  // run a fair amount of stack synchronously and must not nest under control_mu_.
  auto peer = std::make_shared<Peer>(*this, addr, CurrentContext().machine_core);
  {
    std::lock_guard<std::mutex> lock(control_mu_);
    stats_.control_locks++;
    if (std::shared_ptr<Peer>* raced = peers_.Find(addr.raw)) {
      return *raced;  // another core raced the dial; use theirs
    }
    peers_.Insert(addr.raw, peer);
    stats_.dials++;
  }
  net_.tcp().Connect(net_.interface(), addr, kMessengerPort).Then([peer](Future<TcpPcb> f) {
    try {
      TcpPcb pcb = f.Get();
      pcb.InstallHandler(peer);
      pcb.SetAutoCork(true);
      peer->Established(pcb);
    } catch (...) {
      peer->DialFailed();
    }
  });
  return peer;
}

void Messenger::DropPeer(Peer& peer, bool was_established) {
  bool erased = false;
  std::vector<std::shared_ptr<PeerObserver>> observers;
  {
    std::lock_guard<std::mutex> lock(control_mu_);
    stats_.control_locks++;
    std::shared_ptr<Peer>* cached = peers_.Find(peer.addr().raw);
    if (cached != nullptr && cached->get() == &peer) {
      peers_.Erase(peer.addr().raw);
      erased = true;
      if (was_established) {
        stats_.reconnects++;  // the next Send to this address re-dials
      }
      observers.reserve(peer_observers_.size());
      for (auto& entry : peer_observers_) {
        observers.push_back(entry.second);
      }
    }
  }
  // Only the CANONICAL connection's death notifies: a stale peer dying while a newer
  // connection owns the cache slot (simultaneous-open losers, superseded dials) changes
  // nothing for senders. Observers run outside control_mu_ — failing a pending call may
  // re-enter Send/PeerFor inline.
  if (erased && !observers.empty()) {
    stats_.peer_down_notifications++;
    Ipv4Addr addr = peer.addr();
    for (auto& observer : observers) {
      (*observer)(addr);
    }
  }
}

void Messenger::NoteBadFrame(Ipv4Addr peer) {
  stats_.bad_frames++;
  std::lock_guard<std::mutex> lock(control_mu_);
  stats_.control_locks++;
  for (auto& entry : bad_frames_by_peer_) {
    if (entry.first == peer.raw) {
      entry.second++;
      return;
    }
  }
  bad_frames_by_peer_.emplace_back(peer.raw, 1);
}

std::vector<std::pair<Ipv4Addr, std::uint64_t>> Messenger::BadFramesByPeer() {
  std::lock_guard<std::mutex> lock(control_mu_);
  stats_.control_locks++;
  std::vector<std::pair<Ipv4Addr, std::uint64_t>> out;
  out.reserve(bad_frames_by_peer_.size());
  for (const auto& entry : bad_frames_by_peer_) {
    out.emplace_back(Ipv4Addr{entry.first}, entry.second);
  }
  return out;
}

bool Messenger::Dispatch(Ipv4Addr from, EbbId target, std::unique_ptr<IOBuf> payload) {
  // Lock-free receiver lookup: the hot half of the receive path. The node Find returns
  // stays allocated until this event ends (epoch reclamation), so the receiver outlives the
  // callback even against a concurrent Unregister, or one the callback makes itself.
  Receiver* receiver = receivers_.Find(target);
  if (receiver == nullptr) {
    return false;  // unregistered target: the caller counts it and drops the peer
  }
  stats_.messages_received++;
  stats_.payload_bytes_received += payload->ComputeChainDataLength();
  (*receiver)(from, std::move(payload));
  return true;
}

// --- Peer -------------------------------------------------------------------------------------

void Messenger::Peer::Deliver(EbbId target, std::unique_ptr<IOBuf> payload) {
  if (dead_) {
    messenger_.stats_.dropped++;
    return;
  }
  std::size_t len = payload != nullptr ? payload->ComputeChainDataLength() : 0;
  auto frame = IOBuf::CreateReserveFor<sizeof(MsgHeader)>(0);
  frame->Append(sizeof(MsgHeader));
  auto& header = frame->Get<MsgHeader>();
  header.length = HostToNet32(static_cast<std::uint32_t>(len));
  header.target = HostToNet32(target);
  if (len != 0) {
    frame->AppendChain(std::move(payload));
  }
  messenger_.stats_.messages_sent++;
  messenger_.stats_.payload_bytes_sent += len;
  backlog_lens_.push_back(sizeof(MsgHeader) + len);
  backlog_.Append(std::move(frame));
  Drain();
}

void Messenger::Peer::Drain() {
  if (!established_ || dead_) {
    return;
  }
  while (!backlog_.Empty()) {
    // Sendability is checked BEFORE splitting bytes out of the backlog: Send() consumes
    // its chain even when it refuses, so a split-then-fail would silently drop bytes from
    // the middle of the length-prefixed stream and desynchronize the peer's framing.
    TcpState state = Pcb().state();
    if (state != TcpState::kEstablished && state != TcpState::kCloseWait) {
      return;  // teardown in progress: the Close/Abort edge drops the backlog intact
    }
    std::size_t window = Pcb().SendWindowRemaining();
    if (window == 0) {
      return;  // SendReady resumes when ACKs open the window
    }
    std::size_t n = std::min(window, backlog_.ChainLength());
    bool sent = Pcb().Send(backlog_.Split(n));
    // With the state verified, !dead_ (so our side never closed first), and n bounded by
    // the window, Send cannot refuse — anything else would lose the split bytes.
    Kassert(sent, "Messenger::Peer::Drain: Send refused after state/window check");
    // Advance the per-message ledger past every message boundary the sent bytes crossed,
    // so only messages that never fully reached TCP count as dropped on teardown.
    while (n > 0) {
      std::size_t need = backlog_lens_.front() - front_sent_;
      if (n < need) {
        front_sent_ += n;
        break;
      }
      n -= need;
      front_sent_ = 0;
      backlog_lens_.pop_front();
    }
  }
}

void Messenger::Peer::Established(TcpPcb) {
  established_ = true;
  Drain();
}

void Messenger::Peer::DropBacklog() {
  // A partially-sent front message counts as dropped too: the peer cannot reassemble it.
  messenger_.stats_.dropped += backlog_lens_.size();
  backlog_ = IOBufQueue();
  backlog_lens_.clear();
  front_sent_ = 0;
}

void Messenger::Peer::DialFailed() {
  dead_ = true;
  DropBacklog();
  messenger_.DropPeer(*this, /*was_established=*/false);
}

void Messenger::Peer::FailFraming() {
  messenger_.DropPeer(*this, established_);
  dead_ = true;
  DropBacklog();
  rx_ = IOBufQueue();  // whatever else is queued is unframeable by definition
  Pcb().Close();
}

void Messenger::Peer::Receive(std::unique_ptr<IOBuf> buf) {
  if (dead_) {
    return;  // already failed validation; late segments from the dying connection
  }
  rx_.Append(std::move(buf));
  // Header validation (the length word and target id are remote input — never trust
  // them). An oversize length means the framing itself is garbage: fail immediately,
  // nothing behind it can be parsed. An unknown target means the peer is talking to a
  // service this machine does not run: the frame is dropped and the peer closed too, but
  // the framing is still intact — so the rest of the already-received bytes are delivered
  // first (a stale frame corked into a segment must not discard its well-formed
  // neighbors). Both paths are a stat and a close, never an assert: a remote machine's
  // bytes must never be able to bring this one down.
  bool unknown_target = false;
  for (;;) {
    MsgHeader header;
    if (!rx_.Peek(&header, sizeof(header))) {
      break;  // incomplete header
    }
    std::size_t len = NetToHost32(header.length);
    if (len > kMaxMessageBytes) {
      messenger_.NoteBadFrame(addr_);
      FailFraming();
      return;
    }
    if (rx_.ChainLength() < sizeof(header) + len) {
      break;  // incomplete payload: wait for more segments
    }
    rx_.TrimStart(sizeof(header));
    std::unique_ptr<IOBuf> payload =
        len != 0 ? rx_.Split(len) : IOBuf::Create(0);
    if (!messenger_.Dispatch(addr_, NetToHost32(header.target), std::move(payload))) {
      messenger_.NoteBadFrame(addr_);
      unknown_target = true;  // keep carving: later frames in this queue still deliver
    }
  }
  if (unknown_target) {
    FailFraming();
  }
}

void Messenger::Peer::Close() {
  messenger_.DropPeer(*this, established_);
  dead_ = true;
  DropBacklog();
  Pcb().Close();
}

void Messenger::Peer::SendReady() { Drain(); }

void Messenger::Peer::Abort() {
  messenger_.DropPeer(*this, established_);
  dead_ = true;
  DropBacklog();
}

}  // namespace dist
}  // namespace ebbrt
