// Messenger — typed inter-machine messaging for the hybrid structure (paper §2.1, §4.3).
//
// The paper's distinguishing claim is that a native library-OS instance stays lean by
// offloading generality (naming, POSIX I/O, global id allocation) to a hosted EbbRT frontend
// inside Linux, through *distributed Ebbs* whose per-machine representatives message each
// other. The Messenger is the transport those representatives share: one per-machine Ebb
// (static id kMessengerId) that ships length-prefixed, EbbId-addressed messages over the
// existing zero-copy TCP datapath.
//
// Properties, all inherited from the datapath rather than re-invented here:
//
//   * Zero-copy end-to-end: a payload is an IOBuf chain. Send prepends one 8-byte framing
//     header buffer and scatter/gathers the chain into TCP (no flattening); Receive carves
//     each message back out of the segment stream with IOBufQueue::Split, so a message that
//     fits one segment is delivered as a view of the very buffer the (simulated) DMA engine
//     filled.
//   * Event-scoped batching: connections run with SetAutoCork(true), so a burst of Sends
//     issued inside one event — e.g. a pipelined window of RPCs — leaves as a single wire
//     segment (the PR 2 corking machinery, now exercised by a second real protocol).
//   * Lazy connection management: one cached connection per peer pair. The first Send to a
//     peer dials it (messages queue while the handshake runs); an inbound connection is
//     cached under the peer's address so replies reuse it instead of dialing back. A closed
//     or aborted connection is dropped from the cache and the next Send re-dials.
//   * Flow control: sends beyond the TCP window are queued per-peer and drained from
//     SendReady (the stack never buffers; the Messenger is the application here and does its
//     own pacing, exactly as §3.6 prescribes).
//   * Lock-free dispatch plane: the per-message lookups — peer connection on Send, receiver
//     on Dispatch — read RcuHashTables, the same structure (and the same read-side rules) as
//     the TCP connection table (§3.6). Every core demultiplexes concurrently without a
//     single atomic on the steady-state path; only control-plane transitions
//     (connect/accept/register/drop) serialize, on `control_mu_`, and retired entries are
//     reclaimed after an epoch grace period (every core past an event boundary).
//
// Delivery is at-most-once and unordered across peers (ordered per peer, as TCP is); RPC
// semantics (request ids, response matching, error propagation) live one layer up in
// dist::rpc.
#ifndef EBBRT_SRC_DIST_MESSENGER_H_
#define EBBRT_SRC_DIST_MESSENGER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "src/core/ebb_id.h"
#include "src/core/runtime.h"
#include "src/iobuf/iobuf.h"
#include "src/iobuf/iobuf_queue.h"
#include "src/net/network_manager.h"
#include "src/net/tcp.h"
#include "src/platform/ring_queue.h"
#include "src/rcu/rcu_hash_table.h"

namespace ebbrt {
namespace dist {

// The well-known port every machine's Messenger listens on (0xebb, naturally).
inline constexpr std::uint16_t kMessengerPort = 0x0ebb;

// Hard ceiling on one message's payload. The length word is remote input: without a bound, a
// corrupt or hostile peer could park the receiver waiting for gigabytes that never come (and
// pin the reassembly queue while it waits). A frame claiming more is invalid by definition —
// the connection's framing can no longer be trusted, so the peer is dropped.
inline constexpr std::size_t kMaxMessageBytes = 16 * 1024 * 1024;

// Wire framing: one header per message, network byte order, payload chained behind.
struct MsgHeader {
  std::uint32_t length;  // payload bytes following this header
  std::uint32_t target;  // destination Ebb id on the receiving machine
} __attribute__((packed));
static_assert(sizeof(MsgHeader) == 8);

class Messenger {
 public:
  // Invoked on the receiving machine with the sender's address and the payload chain
  // (ownership transferred). Runs on the core the connection's RSS steering chose, from the
  // device event — run-to-completion rules apply.
  using Receiver = std::function<void(Ipv4Addr from, std::unique_ptr<IOBuf> payload)>;

  // The per-machine instance, created on first use (Subsystem::kMessenger): brings up the
  // listen socket on kMessengerPort.
  // Must first be called from one of `runtime`'s cores.
  static Messenger& For(Runtime& runtime);

  explicit Messenger(Runtime& runtime);
  ~Messenger();

  Messenger(const Messenger&) = delete;
  Messenger& operator=(const Messenger&) = delete;

  // Routes messages addressed to `target`: one receiver per id per machine, and registering
  // an id that already has one asserts. Distributed Ebbs register their rep's dispatch here
  // during construction.
  void RegisterReceiver(EbbId target, Receiver receiver);
  void UnregisterReceiver(EbbId target);

  // Ships `payload` to `target` on the machine at `dst`. Fire-and-forget: undeliverable
  // messages (connect failure, connection torn down with data queued) are counted and
  // dropped — reliability above delivery order is the RPC layer's job. May be called from
  // any of this machine's cores; the message is forwarded to the peer connection's owner
  // core when needed.
  void Send(Ipv4Addr dst, EbbId target, std::unique_ptr<IOBuf> payload);

  // Peer-death notification. Observers run whenever the cached connection to a peer dies —
  // close, abort, framing failure, or dial failure — AFTER the cache entry is gone (so an
  // observer that re-sends dials fresh). Invoked on the core that owned the dying
  // connection; observers must tolerate any core. This is how the RPC layer fails pending
  // calls routed through a dead peer instead of leaking them (rpc.h's RpcPeerLost).
  using PeerObserver = std::function<void(Ipv4Addr peer)>;
  std::uint64_t AddPeerObserver(PeerObserver observer);
  void RemovePeerObserver(std::uint64_t handle);

  Runtime& runtime() { return runtime_; }

  // Counters are atomics: Deliver/teardown tick them from whichever core owns a peer's
  // connection, concurrently with control-path updates and lock-free readers.
  struct Stats {
    std::atomic<std::uint64_t> messages_sent{0};
    std::atomic<std::uint64_t> messages_received{0};
    std::atomic<std::uint64_t> payload_bytes_sent{0};
    std::atomic<std::uint64_t> payload_bytes_received{0};
    std::atomic<std::uint64_t> dials{0};       // outbound connections initiated
    std::atomic<std::uint64_t> accepts{0};     // inbound connections cached
    std::atomic<std::uint64_t> reconnects{0};  // cache drops after an established conn died
    std::atomic<std::uint64_t> peer_down_notifications{0};  // observer fan-outs (per peer death)
    std::atomic<std::uint64_t> dropped{0};     // undeliverable messages (see Send)
    // Invalid frames. The Messenger's own header checks (length above kMaxMessageBytes,
    // or a target EbbId with no registered receiver) tick here and drop the offending peer
    // connection: an unframeable stream cannot be resynchronized, and an unknown target
    // means the two sides disagree about what this machine serves. A receiver that rejects
    // a well-framed message (an RPC runt or wrong-direction frame) ticks it through
    // NoteBadFrame and keeps the peer.
    std::atomic<std::uint64_t> bad_frames{0};
    // Control-plane mutex acquisitions (connect/accept/register/drop). The steady-state
    // receive and send paths take ZERO locks — tests pin that by asserting this counter
    // stays flat while message counters climb.
    std::atomic<std::uint64_t> control_locks{0};
  };
  const Stats& stats() const { return stats_; }

  // Per-peer bad-frame attribution (control plane, for the obs registry's
  // messenger_bad_frames{peer="..."} series): which remote machine keeps sending frames
  // that fail validation. Entries survive the peer's connection teardown — the signal IS
  // the history of misbehavior.
  std::vector<std::pair<Ipv4Addr, std::uint64_t>> BadFramesByPeer();
  // Ticks stats_.bad_frames and `peer`'s ledger entry without dropping the peer. Takes
  // control_mu_: a bad frame is a control-plane event, never a steady-state lock.
  void NoteBadFrame(Ipv4Addr peer);

 private:
  // One cached connection to a peer machine. A Peer IS the TcpHandler for its connection;
  // it owns the RX reassembly queue and the not-yet-sendable TX backlog. All Peer state is
  // touched only on `core` (the dialing core, or the RSS core for accepted connections).
  class Peer final : public TcpHandler {
   public:
    Peer(Messenger& messenger, Ipv4Addr addr, std::size_t core)
        : messenger_(messenger), addr_(addr), core_(core) {}

    // TcpHandler edges (connection's owner core, from the device event).
    void Receive(std::unique_ptr<IOBuf> buf) override;
    void Close() override;
    void SendReady() override;
    void Abort() override;

    // Frames and sends (or queues) one message. Owner core only.
    void Deliver(EbbId target, std::unique_ptr<IOBuf> payload);
    // Dial completion: attach the established pcb and drain everything queued.
    void Established(TcpPcb pcb);
    void DialFailed();

    Ipv4Addr addr() const { return addr_; }
    std::size_t core() const { return core_; }

   private:
    void Drain();          // push backlog into the window
    void DropBacklog();    // teardown: count undelivered (incl. partially-sent) messages
    // Invalid frame: drop this peer (bad_frames already ticked by the caller). The
    // connection closes, the cache entry is erased, and the next Send re-dials fresh.
    void FailFraming();

    Messenger& messenger_;
    Ipv4Addr addr_;
    std::size_t core_;
    bool established_ = false;
    bool dead_ = false;
    IOBufQueue rx_;       // inbound byte stream awaiting complete messages
    IOBufQueue backlog_;  // framed messages awaiting connection / send window
    // Frame lengths of the backlog's messages, popped as Drain's byte stream crosses each
    // boundary — so teardown counts only messages that never fully reached TCP as dropped.
    // A RingQueue: every message passes through it, and a deque would allocate a chunk
    // every few dozen.
    RingQueue<std::size_t> backlog_lens_;
    std::size_t front_sent_ = 0;  // bytes of backlog_lens_.front() already sent
  };

  // Returns (creating + dialing if absent) the cached peer for `addr`.
  std::shared_ptr<Peer> PeerFor(Ipv4Addr addr);
  void DropPeer(Peer& peer, bool was_established);
  // Delivers one received message to its registered receiver. Returns false when `target`
  // has no receiver — the caller treats the frame as invalid.
  bool Dispatch(Ipv4Addr from, EbbId target, std::unique_ptr<IOBuf> payload);

  Runtime& runtime_;
  NetworkManager& net_;

  // The dispatch plane. Per-message lookups (PeerFor's fast path, Dispatch) are lock-free
  // RcuHashTable::Find on every core; an entry observed by a reader stays valid until that
  // reader's event ends (epoch reclamation, shared with the TCP connection table). Writers
  // — dial/accept inserts, teardown erases, receiver (un)registration — serialize on
  // `control_mu_` so compound read-modify-write transitions (e.g. "erase only if the cached
  // peer is still me") stay atomic; each acquisition ticks stats_.control_locks.
  std::mutex control_mu_;
  RcuHashTable<std::uint32_t, std::shared_ptr<Peer>> peers_;
  RcuHashTable<EbbId, Receiver> receivers_;
  // Peer-death observers (control plane: registration at endpoint construction, fan-out at
  // connection teardown — never on the per-message path). Guarded by control_mu_; DropPeer
  // snapshots the table and invokes outside the lock so observers may Send/dial freely.
  std::uint64_t next_peer_observer_ = 1;
  std::vector<std::pair<std::uint64_t, std::shared_ptr<PeerObserver>>> peer_observers_;

  std::vector<std::pair<std::uint32_t, std::uint64_t>> bad_frames_by_peer_;  // addr.raw -> count

  Stats stats_;
};

}  // namespace dist
}  // namespace ebbrt

#endif  // EBBRT_SRC_DIST_MESSENGER_H_
