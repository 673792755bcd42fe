// Function-shipping RPC on top of dist::Messenger (paper §4.3).
//
// A distributed Ebb's native representative doesn't execute generality locally — it marshals
// the call and ships it to the hosted frontend's representative, which executes it for real
// and ships the result back. This header is the one place the call/return machinery lives:
//
//   * RpcHeader — 32-byte request/response frame rode inside a Messenger message.
//   * RpcClient — the caller side. Every call resolves through an RpcCompletion the caller
//     owns: exactly one of OnResponse / OnFailure runs, exactly once. The Future-returning
//     Call wraps a promise-backed completion (errors cross the wire as flagged responses and
//     surface as std::runtime_error through Future::Get, so a caller's continuation chain
//     handles remote failures exactly like local exceptions, §3.5). Every call carries
//     CallOptions{deadline_ns, RetryPolicy}: expired attempts are re-sent with bounded
//     backoff and finally fail with RpcTimeout; a dead peer connection fails everything
//     routed through it with RpcPeerLost.
//   * RpcServer — the callee side: dispatches requests to a subclass's HandleCall and sends
//     Reply/ReplyError back to the requesting machine.
//
// Pending calls live in per-core slot tables (one lane per issuing core). A request id names
// its slot directly — [core:16][slot:16][generation:32] — so a response finds its call with
// one index, no hash table and no per-call allocation: slots are recycled through the lane's
// free list, and a lane only grows (by a chunk as large as the lane so far, which never
// moves) when more calls are in flight than ever before. Exactly-once completion is a CAS on the slot's claim word, from
// the id's generation to zero: the response, the deadline timer, peer-down fan-out and
// teardown all claim through it, and a duplicate or straggling response (its generation is
// stale once the slot is reused) finds nothing. A claim won on a core other than the lane's
// pushes the slot onto the lane's lock-free return stack; only the home core touches its
// free list.
//
// The response body is carried as an IOBuf chain end-to-end: the server appends its result
// chain behind the header buffer, and the client receives the chain that Messenger carved
// straight out of the TCP segment stream. Small scalar arguments/results ride the header's
// `aux` field and cost no body at all.
//
// One client and/or one server per (machine, service id). Both ends are ordinary Messenger
// receivers: a server registers the service id S, a client registers S | kRpcReplyTarget.
// Requests travel to S and replies to S | kRpcReplyTarget, so the Messenger's one lock-free
// lookup finds the endpoint, and a machine may be client and server of the same service
// simultaneously. Each end still checks the frame's direction flag: a request that arrives
// at a client's target, or a reply at a server's, is dropped.
#ifndef EBBRT_SRC_DIST_RPC_H_
#define EBBRT_SRC_DIST_RPC_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "src/dist/messenger.h"
#include "src/dist/retry.h"
#include "src/future/future.h"
#include "src/obs/metrics.h"

namespace ebbrt {

namespace dist {

// Transport-failure taxonomy. A server-side exception still crosses as a flagged response
// and surfaces as plain std::runtime_error; these subclasses mean the TRANSPORT failed —
// no response will ever come — which is exactly the distinction a replicated router needs
// (fail over on transport loss, propagate application errors untouched).
class RpcTransportError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// The per-attempt deadline expired with no response (and no retry budget left).
class RpcTimeout : public RpcTransportError {
 public:
  using RpcTransportError::RpcTransportError;
};

// The connection carrying the call died (peer close/abort/dial failure) or the client was
// torn down with the call outstanding.
class RpcPeerLost : public RpcTransportError {
 public:
  using RpcTransportError::RpcTransportError;
};

// Default per-attempt deadline (virtual ns). Generous against every in-tree round trip —
// whole discovery retry ladders finish well inside one deadline — while still bounded: no
// call outlives its peer silently.
inline constexpr std::uint64_t kDefaultRpcDeadlineNs = 50'000'000;

// Per-call deadline/retry contract. `deadline_ns` bounds each ATTEMPT; 0 disables expiry
// (the call still resolves on peer death or client teardown — nothing is ever pending
// forever). `retry.max_attempts` counts total sends: the default re-sends once, with the
// shared dist::RetryPolicy backoff schedule (retry.h), before failing with RpcTimeout.
// Retried attempts use fresh request ids, so a straggling response to an abandoned attempt
// is dropped (stats().late_drops), never double-resolved.
struct CallOptions {
  std::uint64_t deadline_ns = kDefaultRpcDeadlineNs;
  RetryPolicy retry{/*max_attempts=*/2, /*initial_backoff_ns=*/500'000,
                    /*max_backoff_ns=*/8'000'000};
};

inline constexpr std::uint8_t kRpcResponse = 0x1;  // frame is a response, not a request
inline constexpr std::uint8_t kRpcError = 0x2;     // response body is an error message

// Replies to service S travel to the Messenger target S | kRpcReplyTarget, where the
// service's client is registered; requests travel to S itself. Service ids stay below it.
inline constexpr EbbId kRpcReplyTarget = EbbId{1} << 31;

struct RpcHeader {
  std::uint64_t request_id;  // pairs a response to its caller's promise (network order)
  std::uint16_t opcode;      // service-defined operation (network order)
  std::uint8_t flags;        // kRpcResponse / kRpcError
  std::uint8_t reserved;
  std::uint32_t aux;         // service-defined scalar argument/result (network order)
  // Distributed-trace propagation (obs layer; all-zero when tracing is off). The trace id
  // names the end-to-end operation; span_id names THIS hop's span, which the receiving
  // server adopts as the parent of its own span — so a MultiGet fan-out that fails over
  // still stitches into one tree. Retries and failover re-issues travel under fresh
  // request ids but the SAME trace id (network order).
  std::uint64_t trace_id;
  std::uint32_t span_id;
  std::uint32_t parent_span;
} __attribute__((packed));
static_assert(sizeof(RpcHeader) == 32);

inline std::uint64_t HostToNet64(std::uint64_t v) { return __builtin_bswap64(v); }
inline std::uint64_t NetToHost64(std::uint64_t v) { return __builtin_bswap64(v); }

// Builds [RpcHeader | body...] with the body chained zero-copy behind the header buffer.
// The header carries `span`'s ids (all-zero for an untraced span).
std::unique_ptr<IOBuf> BuildRpcFrame(std::uint64_t request_id, std::uint16_t opcode,
                                     std::uint8_t flags, std::uint32_t aux,
                                     std::unique_ptr<IOBuf> body,
                                     const obs::Span& span = obs::Span{});

// Flattens an IOBuf chain into a std::string (marshalling convenience for string-valued
// results; the zero-copy representation stays available to callers that keep the chain).
std::string ChainToString(const IOBuf* chain);

// The chain's bytes as one contiguous view: a single-element chain is viewed in place; a
// chain spanning elements is flattened into `*scratch` (whose capacity is reused call to
// call) and the view points there. Valid while the chain and the scratch are untouched.
std::string_view ContiguousView(const IOBuf* chain, std::vector<char>* scratch);

// The services' shared two-string body marshal: [u32 head_len][head][rest...], network
// order. `rest` rides as its own chain element (never flattened into the head buffer).
std::unique_ptr<IOBuf> BuildLenPrefixedBody(std::string_view head, std::string_view rest);
// Splits a received body back into views of (head, rest) over `raw`. False on a malformed
// (truncated) body.
bool ParseLenPrefixedBody(std::string_view raw, std::string_view* head,
                          std::string_view* rest);

// --- Vectored (batch) body marshaling ---------------------------------------------------------
//
// Batch ops ship many small records under ONE RpcHeader — the whole point of bulk RPC is
// that the header and the per-frame dispatch are paid once per shard, not once per key. The
// request direction is a packed key vector (keys are tiny; one buffer, one copy is the
// marshal itself). The response direction is where zero-copy matters: a vectored reply is
// an IOBuf chain of [scalar word][payload view] pairs, and ChainSplitter lets the caller
// carve the payloads back out as shared views of the received segment — scalars are
// chain-copied out (they may straddle segment boundaries), payload bytes never are.

// A key count above this is malformed by definition (bad_frames discipline: bound every
// remote-supplied count before trusting it).
inline constexpr std::size_t kMaxVectorKeys = 4096;

// Writes [u32 count][count x (u16 klen)(key bytes)], network order, into one buffer sized
// up front: construct with the key count and their total bytes, Add each key in order, then
// Finish.
class KeyVectorBuilder {
 public:
  KeyVectorBuilder(std::size_t count, std::size_t key_bytes);
  void Add(std::string_view key);
  std::unique_ptr<IOBuf> Finish();

 private:
  std::unique_ptr<IOBuf> body_;
  std::uint8_t* cursor_;
  std::size_t remaining_keys_;
};

// Unpacks a received key-vector body into views (see ContiguousView: a body spanning
// segments is flattened into `*scratch` first; the views point into the body or the
// scratch). `keys` is cleared first and keeps its capacity. False when malformed: count
// above kMaxVectorKeys, truncated entries, or trailing bytes beyond the declared keys (an
// exact-consumption rule, so a corrupt length can't smuggle payload past validation).
bool ParseKeyVectorBody(const IOBuf* chain, std::vector<std::string_view>* keys,
                        std::vector<char>* scratch);

// Consuming reader over an owned reply chain. Scalars are Peek-copied (headers, not
// payload); SplitBytes carves payload off as a zero-copy shared view (IOBufQueue::Split).
class ChainSplitter {
 public:
  explicit ChainSplitter(std::unique_ptr<IOBuf> chain) {
    if (chain != nullptr) {
      queue_.Append(std::move(chain));
    }
  }

  std::size_t Remaining() const { return queue_.ChainLength(); }

  // Network-order scalar reads; false when the chain is exhausted (truncated reply).
  bool ReadU32(std::uint32_t* out) {
    if (!queue_.Peek(out, sizeof(*out))) {
      return false;
    }
    queue_.TrimStart(sizeof(*out));
    *out = NetToHost32(*out);
    return true;
  }

  // The next `n` bytes as an owned zero-copy subchain (nullptr for n == 0 — an empty
  // payload has no bytes to view — or when fewer than `n` bytes remain, after which the
  // splitter is poisoned so a truncated record can't half-parse).
  std::unique_ptr<IOBuf> SplitBytes(std::size_t n) {
    if (n == 0 || n > queue_.ChainLength()) {
      return nullptr;
    }
    return queue_.Split(n);
  }

 private:
  IOBufQueue queue_;
};

// A call's response: the scalar result from the header and the result bytes (a chain; may
// be empty).
struct RpcResponse {
  std::uint32_t aux = 0;
  std::unique_ptr<IOBuf> body;
};

// Caller-owned completion target of one call. Exactly one of the two runs, exactly once:
// OnResponse with the server's answer, or OnFailure with the server's error
// (std::runtime_error), RpcTimeout, or RpcPeerLost. It runs on the core that resolved the
// call (the response's connection core, the issuing core's deadline timer, the dead
// connection's core, or wherever the client is destroyed), after the client has released
// the call — so it may issue new calls. The object must stay alive until it runs.
class RpcCompletion {
 public:
  virtual void OnResponse(RpcResponse response) = 0;
  virtual void OnFailure(std::exception_ptr error) = 0;

 protected:
  ~RpcCompletion() = default;
};

class RpcClient {
 public:
  using Response = RpcResponse;

  // Registers this machine's client half of `service` with its Messenger (as the target
  // service | kRpcReplyTarget). `server` is the machine whose representative executes the
  // calls (the hosted frontend).
  RpcClient(Runtime& runtime, EbbId service, Ipv4Addr server);
  ~RpcClient();

  RpcClient(const RpcClient&) = delete;
  RpcClient& operator=(const RpcClient&) = delete;

  // Ships opcode(aux, body) to the server and resolves `completion` with the outcome.
  // Requests issued in one event are auto-corked into as few wire segments as fit (the
  // Messenger's batching). Callable from any core; the pending slot lands in the calling
  // core's lane.
  //
  // No call with a deadline can stay pending forever: exactly one of response, deadline
  // expiry (RpcTimeout, after `options.retry` re-sends), peer death (RpcPeerLost, via the
  // Messenger's peer-down observers), or client teardown (RpcPeerLost) resolves it. All four
  // paths claim the slot through one CAS, so "exactly once" is that CAS, not a convention.
  void Call(std::uint16_t opcode, std::uint32_t aux, std::unique_ptr<IOBuf> body,
            const CallOptions& options, RpcCompletion* completion);
  // Future flavour of the same call: the future fulfills with the response or throws what
  // OnFailure would have received.
  Future<Response> Call(std::uint16_t opcode, std::uint32_t aux, std::unique_ptr<IOBuf> body,
                        const CallOptions& options);
  Future<Response> Call(std::uint16_t opcode, std::uint32_t aux,
                        std::unique_ptr<IOBuf> body) {
    return Call(opcode, aux, std::move(body), CallOptions{});
  }

  Ipv4Addr server() const { return server_; }
  // Calls issued and not yet resolved, including calls waiting out a retry backoff.
  std::size_t pending_calls() const;

  // Fault-path observability (atomics: deadline timers run per issuing core, peer-down
  // fan-out on the dead connection's core).
  struct Stats {
    std::atomic<std::uint64_t> timeouts{0};       // attempts that expired undelivered
    std::atomic<std::uint64_t> retries{0};        // expired attempts re-sent
    std::atomic<std::uint64_t> late_drops{0};     // responses whose id was already claimed
    std::atomic<std::uint64_t> peer_failures{0};  // calls failed by peer-connection death
  };
  const Stats& stats() const { return stats_; }

 private:
  // A received reply (the Messenger receiver of service_ | kRpcReplyTarget).
  void HandleFrame(Ipv4Addr from, std::unique_ptr<IOBuf> message);

  // One pending call's slot. The claim word `armed` holds the generation a response may
  // claim (0: nothing to claim — free, parked for a retry, or already claimed). Everything
  // else is written by the lane's home core while it owns the slot, and read by whichever
  // core wins the claim.
  struct PendingCall {
    std::atomic<std::uint32_t> armed{0};
    std::uint32_t generation = 0;  // last generation issued (home core only)
    std::uint32_t index = 0;       // slot number within its lane
    RpcCompletion* completion = nullptr;
    std::uint16_t opcode = 0;
    std::uint32_t aux = 0;
    CallOptions options;
    int attempts = 1;                     // sends so far
    std::uint64_t backoff_ns = 0;         // delay before the NEXT re-send
    // The armed attempt's deadline Timer (0: none). A claim on the home core stops it at
    // once; a claim won elsewhere cannot (timers are core-local), so that timer fires
    // later, finds its generation claimed, and does nothing.
    std::uint64_t deadline_timer = 0;
    std::unique_ptr<IOBuf> retry_body;    // master copy, cloned per re-send (null: no retry)
    // The LOGICAL call's client span, opened at the first send: one span covers every
    // attempt (the record's `attempts` says how many), so retries re-send these same ids.
    obs::Span span;
    PendingCall* next_returned = nullptr;  // link on the lane's return stack
  };

  // Request id layout: [core:16][slot:16][generation:32]. A generation is never 0, so a
  // zero claim word never matches a live id.
  static constexpr unsigned kCoreShift = 48;
  static constexpr unsigned kSlotShift = 32;
  // Chunk c holds kFirstChunkSlots << c slots, so a lane's table doubles as it grows and a
  // lightly used lane stays small; kChunks of them cover the 16-bit slot space.
  static constexpr std::uint32_t kFirstChunkSlots = 16;
  static constexpr std::uint32_t kMaxSlots = std::uint32_t{1} << 16;
  static constexpr std::size_t kChunks = 13;
  static_assert(kFirstChunkSlots * ((std::uint64_t{1} << kChunks) - 1) >= kMaxSlots);

  // The lane is shared_ptr-anchored so a deadline timer or parked re-send that fires after
  // the client died locks a dead weak_ptr and does nothing.
  struct alignas(kCacheLineSize) CoreLane {
    ~CoreLane();
    // Slot storage: chunks published once (release) and never moved, so a claimant on any
    // core indexes them while the home core grows the table.
    std::array<std::atomic<PendingCall*>, kChunks> chunks{};
    std::atomic<std::uint32_t> num_slots{0};
    std::atomic<std::size_t> in_use{0};  // slots off the free list (pending or parked)
    // Home core only: the free list (LIFO, so a recycled slot is cache-warm) and the next
    // sequence of work. Slots claimed on other cores come home through `returned`.
    std::vector<std::uint32_t> free_slots;
    std::atomic<PendingCall*> returned{nullptr};
    // Slots claimed on expiry and awaiting their backoff re-send; drained by teardown.
    std::vector<std::uint32_t> parked;

    // Slots [kFirstChunkSlots * (2^c - 1), kFirstChunkSlots * (2^(c+1) - 1)) live in chunk c.
    static std::size_t ChunkOf(std::uint32_t index) {
      return std::bit_width(index / kFirstChunkSlots + 1) - 1;
    }
    PendingCall& Slot(std::uint32_t index) const {
      std::size_t chunk = ChunkOf(index);
      return chunks[chunk].load(std::memory_order_acquire)
          [index - kFirstChunkSlots * ((std::uint32_t{1} << chunk) - 1)];
    }
  };

  // Takes a slot off the home core's free list (growing the lane when none is free).
  PendingCall& AcquireSlot(CoreLane& lane);
  // Arms `call` under a fresh generation and returns its request id.
  std::uint64_t Arm(std::size_t core, PendingCall& call);
  // The exactly-once gate: the call `request_id` names, if this caller won it.
  PendingCall* Claim(std::uint64_t request_id);
  // Claims every armed call in every lane (peer-down fan-out and teardown), as (lane core,
  // call) pairs.
  std::vector<std::pair<std::size_t, PendingCall*>> ClaimAll();
  // Releases a claimed call's slot to its lane and returns the completion to run. On the
  // home core the slot goes straight onto the free list; elsewhere onto the return stack.
  RpcCompletion* Release(std::size_t core, PendingCall& call);
  // Arms the attempt's deadline on the home core's Timer (see PendingCall::deadline_timer).
  void StartDeadline(std::size_t core, PendingCall& call, std::uint64_t request_id);
  // The attempt `request_id` reached its deadline: re-send after a backoff or fail.
  void Expire(std::size_t core, std::uint64_t request_id);
  void Resend(std::size_t core, std::uint32_t index);
  void OnPeerDown();

  Runtime& runtime_;
  Messenger& messenger_;
  EbbId service_;
  Ipv4Addr server_;
  std::vector<std::shared_ptr<CoreLane>> cores_;
  std::uint64_t peer_observer_ = 0;
  Stats stats_;
};

class RpcServer {
 public:
  // Registers this machine's server half of `service` with its Messenger.
  RpcServer(Runtime& runtime, EbbId service);
  virtual ~RpcServer();

  RpcServer(const RpcServer&) = delete;
  RpcServer& operator=(const RpcServer&) = delete;

 protected:
  // Executes one shipped call; implementations answer with Reply or ReplyError (exactly one,
  // synchronously or from a later event). Runs on the core the request's connection owns.
  virtual void HandleCall(Ipv4Addr from, std::uint64_t request_id, std::uint16_t opcode,
                          std::uint32_t aux, std::unique_ptr<IOBuf> body) = 0;

  void Reply(Ipv4Addr to, std::uint64_t request_id, std::uint32_t aux,
             std::unique_ptr<IOBuf> body);
  void ReplyError(Ipv4Addr to, std::uint64_t request_id, std::string_view message);

  Messenger& messenger_;
  EbbId service_;

 private:
  // A received request (the Messenger receiver of service_).
  void HandleFrame(Ipv4Addr from, std::unique_ptr<IOBuf> message);
};

}  // namespace dist
}  // namespace ebbrt

#endif  // EBBRT_SRC_DIST_RPC_H_
