#include "src/dist/rpc.h"

#include <stdexcept>
#include <utility>

#include "src/event/timer.h"
#include "src/obs/metrics.h"
#include "src/platform/context.h"

namespace ebbrt {
namespace dist {

namespace {

// Splits a received message into (header, body chain). The header may straddle chain
// elements (a message that crossed segment boundaries), so it is chain-copied out. False for
// a runt frame, or one whose direction flag is not `response` (a request at a client's
// target, or a reply at a server's): the caller counts it (Messenger::NoteBadFrame) and
// drops it.
bool ParseFrame(std::unique_ptr<IOBuf> message, bool response, RpcHeader* header,
                std::unique_ptr<IOBuf>* body) {
  IOBufQueue queue;
  queue.Append(std::move(message));
  if (queue.ChainLength() < sizeof(RpcHeader)) {
    return false;
  }
  queue.Peek(header, sizeof(RpcHeader));
  if (((header->flags & kRpcResponse) != 0) != response) {
    return false;
  }
  queue.TrimStart(sizeof(RpcHeader));
  *body = queue.Move();
  header->request_id = NetToHost64(header->request_id);
  header->opcode = NetToHost16(header->opcode);
  header->aux = NetToHost32(header->aux);
  header->trace_id = NetToHost64(header->trace_id);
  header->span_id = NetToHost32(header->span_id);
  header->parent_span = NetToHost32(header->parent_span);
  return true;
}

}  // namespace

std::unique_ptr<IOBuf> BuildRpcFrame(std::uint64_t request_id, std::uint16_t opcode,
                                     std::uint8_t flags, std::uint32_t aux,
                                     std::unique_ptr<IOBuf> body, const obs::Span& span) {
  auto frame = IOBuf::CreateReserveFor<sizeof(RpcHeader)>(0);
  frame->Append(sizeof(RpcHeader));
  auto& header = frame->Get<RpcHeader>();
  header.request_id = HostToNet64(request_id);
  header.opcode = HostToNet16(opcode);
  header.flags = flags;
  header.reserved = 0;
  header.aux = HostToNet32(aux);
  header.trace_id = HostToNet64(span.trace_id);
  header.span_id = HostToNet32(span.span_id);
  header.parent_span = HostToNet32(span.parent_span);
  if (body != nullptr) {
    frame->AppendChain(std::move(body));
  }
  return frame;
}

std::string ChainToString(const IOBuf* chain) {
  std::string out;
  if (chain == nullptr) {
    return out;
  }
  out.reserve(chain->ComputeChainDataLength());
  for (const IOBuf* buf = chain; buf != nullptr; buf = buf->Next()) {
    out.append(reinterpret_cast<const char*>(buf->Data()), buf->Length());
  }
  return out;
}

std::string_view ContiguousView(const IOBuf* chain, std::vector<char>* scratch) {
  if (chain == nullptr) {
    return {};
  }
  if (chain->Next() == nullptr) {
    return chain->AsStringView();
  }
  scratch->resize(chain->ComputeChainDataLength());
  chain->CopyOut(scratch->data(), scratch->size());
  return {scratch->data(), scratch->size()};
}

std::unique_ptr<IOBuf> BuildLenPrefixedBody(std::string_view head, std::string_view rest) {
  std::uint32_t head_len = HostToNet32(static_cast<std::uint32_t>(head.size()));
  auto body = IOBuf::Create(sizeof(head_len) + head.size());
  std::uint8_t* p = body->WritableData();
  std::memcpy(p, &head_len, sizeof(head_len));
  std::memcpy(p + sizeof(head_len), head.data(), head.size());
  if (!rest.empty()) {
    body->AppendChain(IOBuf::CopyBuffer(rest));
  }
  return body;
}

bool ParseLenPrefixedBody(std::string_view raw, std::string_view* head,
                          std::string_view* rest) {
  std::uint32_t head_len = 0;
  if (raw.size() < sizeof(head_len)) {
    return false;
  }
  std::memcpy(&head_len, raw.data(), sizeof(head_len));
  head_len = NetToHost32(head_len);
  if (raw.size() - sizeof(head_len) < head_len) {
    return false;
  }
  *head = raw.substr(sizeof(head_len), head_len);
  *rest = raw.substr(sizeof(head_len) + head_len);
  return true;
}

KeyVectorBuilder::KeyVectorBuilder(std::size_t count, std::size_t key_bytes)
    : body_(IOBuf::Create(sizeof(std::uint32_t) + count * sizeof(std::uint16_t) + key_bytes)),
      cursor_(body_->WritableData()), remaining_keys_(count) {
  Kassert(count <= kMaxVectorKeys, "KeyVectorBuilder: too many keys");
  std::uint32_t net_count = HostToNet32(static_cast<std::uint32_t>(count));
  std::memcpy(cursor_, &net_count, sizeof(net_count));
  cursor_ += sizeof(net_count);
}

void KeyVectorBuilder::Add(std::string_view key) {
  Kassert(remaining_keys_ != 0, "KeyVectorBuilder: more keys than declared");
  Kassert(key.size() <= 0xffff, "KeyVectorBuilder: key too long");
  Kassert(cursor_ + sizeof(std::uint16_t) + key.size() <= body_->WritableTail(),
          "KeyVectorBuilder: more key bytes than declared");
  std::uint16_t klen = HostToNet16(static_cast<std::uint16_t>(key.size()));
  std::memcpy(cursor_, &klen, sizeof(klen));
  cursor_ += sizeof(klen);
  std::memcpy(cursor_, key.data(), key.size());
  cursor_ += key.size();
  --remaining_keys_;
}

std::unique_ptr<IOBuf> KeyVectorBuilder::Finish() {
  Kassert(remaining_keys_ == 0 && cursor_ == body_->WritableTail(),
          "KeyVectorBuilder: fewer keys or bytes than declared");
  return std::move(body_);
}

bool ParseKeyVectorBody(const IOBuf* chain, std::vector<std::string_view>* keys,
                        std::vector<char>* scratch) {
  keys->clear();
  if (chain == nullptr) {
    return false;
  }
  std::uint32_t count = 0;
  if (chain->ComputeChainDataLength() < sizeof(count)) {
    return false;
  }
  // Bound the count before flattening anything: a hostile count never sizes a buffer.
  chain->CopyOut(&count, sizeof(count));
  count = NetToHost32(count);
  if (count > kMaxVectorKeys) {
    return false;
  }
  std::string_view raw = ContiguousView(chain, scratch);
  raw.remove_prefix(sizeof(count));
  keys->reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint16_t klen = 0;
    if (raw.size() < sizeof(klen)) {
      return false;
    }
    std::memcpy(&klen, raw.data(), sizeof(klen));
    klen = NetToHost16(klen);
    raw.remove_prefix(sizeof(klen));
    if (raw.size() < klen) {
      return false;
    }
    keys->push_back(raw.substr(0, klen));
    raw.remove_prefix(klen);
  }
  return raw.empty();  // exact consumption: trailing bytes are malformed
}

// --- RpcClient --------------------------------------------------------------------------------

namespace {

// The completion behind the Future flavour of Call: owns the promise, frees itself once it
// has handed the outcome over.
class PromiseCompletion final : public RpcCompletion {
 public:
  Future<RpcResponse> GetFuture() { return promise_.GetFuture(); }

  void OnResponse(RpcResponse response) override {
    Promise<RpcResponse> promise = std::move(promise_);
    delete this;
    promise.SetValue(std::move(response));
  }

  void OnFailure(std::exception_ptr error) override {
    Promise<RpcResponse> promise = std::move(promise_);
    delete this;
    promise.SetException(std::move(error));
  }

 private:
  Promise<RpcResponse> promise_;
};

}  // namespace

RpcClient::CoreLane::~CoreLane() {
  for (std::atomic<PendingCall*>& chunk : chunks) {
    delete[] chunk.load(std::memory_order_relaxed);
  }
}

RpcClient::RpcClient(Runtime& runtime, EbbId service, Ipv4Addr server)
    : runtime_(runtime), messenger_(Messenger::For(runtime)), service_(service),
      server_(server), cores_(std::max<std::size_t>(1, runtime.num_cores())) {
  Kassert(service < kRpcReplyTarget, "RpcClient: service id collides with kRpcReplyTarget");
  for (std::shared_ptr<CoreLane>& lane : cores_) {
    lane = std::make_shared<CoreLane>();
  }
  RpcClient* self = this;
  messenger_.RegisterReceiver(service | kRpcReplyTarget,
                              [self](Ipv4Addr from, std::unique_ptr<IOBuf> message) {
                                self->HandleFrame(from, std::move(message));
                              });
  // Peer death fails everything in flight to that peer: no call waits out a deadline for a
  // response whose connection is already gone (and calls WITHOUT a deadline still resolve).
  peer_observer_ = messenger_.AddPeerObserver([self](Ipv4Addr peer) {
    if (peer == self->server_) {
      self->OnPeerDown();
    }
  });
}

RpcClient::~RpcClient() {
  // Unhook the resolution sources first — observer fan-out and frame dispatch must not see
  // a half-dead client — then orphan whatever is still unresolved: every armed call through
  // the same claim the other paths use, and every call parked between retry attempts (a
  // backoff timer that fires later finds its lane gone). Destruction while another core of
  // this machine may be dispatching a frame to this client is a use-after-free: the
  // Messenger keeps its receiver NODE alive for the rest of that event, not the client the
  // node points at. Armed deadline timers outlive us harmlessly — they hold weak lane
  // references.
  messenger_.RemovePeerObserver(peer_observer_);
  messenger_.UnregisterReceiver(service_ | kRpcReplyTarget);
  std::vector<RpcCompletion*> orphaned;
  for (auto& [core, call] : ClaimAll()) {
    orphaned.push_back(call->completion);
  }
  for (std::shared_ptr<CoreLane>& lane : cores_) {
    for (std::uint32_t index : lane->parked) {
      orphaned.push_back(lane->Slot(index).completion);
    }
    lane->parked.clear();
  }
  for (RpcCompletion* completion : orphaned) {
    completion->OnFailure(std::make_exception_ptr(RpcPeerLost("rpc: client torn down")));
  }
}

std::size_t RpcClient::pending_calls() const {
  std::size_t total = 0;
  for (const std::shared_ptr<CoreLane>& lane : cores_) {
    total += lane->in_use.load(std::memory_order_relaxed);
  }
  return total;
}

RpcClient::PendingCall& RpcClient::AcquireSlot(CoreLane& lane) {
  if (lane.free_slots.empty()) {
    // Slots claimed on other cores came home through the return stack: take them all.
    for (PendingCall* call = lane.returned.exchange(nullptr, std::memory_order_acquire);
         call != nullptr; call = call->next_returned) {
      lane.free_slots.push_back(call->index);
    }
  }
  if (lane.free_slots.empty()) {
    // More calls in flight on this core than ever before: publish the next chunk, as large
    // as all the earlier ones together.
    std::uint32_t base = lane.num_slots.load(std::memory_order_relaxed);
    Kassert(base < kMaxSlots, "RpcClient: too many calls in flight");
    std::size_t c = CoreLane::ChunkOf(base);
    std::uint32_t slots = std::min(kFirstChunkSlots << c, kMaxSlots - base);
    auto* chunk = new PendingCall[slots];
    for (std::uint32_t i = 0; i < slots; ++i) {
      chunk[i].index = base + i;
    }
    lane.chunks[c].store(chunk, std::memory_order_release);
    lane.num_slots.store(base + slots, std::memory_order_release);
    for (std::uint32_t i = slots; i-- > 0;) {
      lane.free_slots.push_back(base + i);
    }
  }
  std::uint32_t index = lane.free_slots.back();
  lane.free_slots.pop_back();
  lane.in_use.fetch_add(1, std::memory_order_relaxed);
  return lane.Slot(index);
}

std::uint64_t RpcClient::Arm(std::size_t core, PendingCall& call) {
  if (++call.generation == 0) {
    call.generation = 1;  // 0 is the claim word's "nothing to claim"
  }
  // Release: a claimant on another core that wins this generation sees every field above.
  call.armed.store(call.generation, std::memory_order_release);
  return (static_cast<std::uint64_t>(core) << kCoreShift) |
         (static_cast<std::uint64_t>(call.index) << kSlotShift) | call.generation;
}

RpcClient::PendingCall* RpcClient::Claim(std::uint64_t request_id) {
  auto core = static_cast<std::size_t>(request_id >> kCoreShift);
  auto index = static_cast<std::uint32_t>((request_id >> kSlotShift) & 0xffff);
  auto generation = static_cast<std::uint32_t>(request_id);
  if (core >= cores_.size() || generation == 0) {
    return nullptr;
  }
  CoreLane& lane = *cores_[core];
  if (index >= lane.num_slots.load(std::memory_order_acquire)) {
    return nullptr;  // a slot this lane never had: stale or corrupt
  }
  PendingCall& call = lane.Slot(index);
  std::uint32_t expected = generation;
  if (!call.armed.compare_exchange_strong(expected, 0, std::memory_order_acq_rel)) {
    return nullptr;
  }
  return &call;
}

std::vector<std::pair<std::size_t, RpcClient::PendingCall*>> RpcClient::ClaimAll() {
  std::vector<std::pair<std::size_t, PendingCall*>> claimed;
  for (std::size_t core = 0; core < cores_.size(); ++core) {
    CoreLane& lane = *cores_[core];
    std::uint32_t slots = lane.num_slots.load(std::memory_order_acquire);
    for (std::uint32_t index = 0; index < slots; ++index) {
      PendingCall& call = lane.Slot(index);
      std::uint32_t generation = call.armed.load(std::memory_order_acquire);
      if (generation != 0 &&
          call.armed.compare_exchange_strong(generation, 0, std::memory_order_acq_rel)) {
        claimed.emplace_back(core, &call);
      }
    }
  }
  return claimed;
}

RpcCompletion* RpcClient::Release(std::size_t core, PendingCall& call) {
  RpcCompletion* completion = call.completion;
  call.completion = nullptr;
  call.retry_body.reset();
  CoreLane& lane = *cores_[core];
  lane.in_use.fetch_sub(1, std::memory_order_relaxed);
  if (HaveContext() && &CurrentRuntime() == &runtime_ &&
      CurrentContext().machine_core == core) {
    if (call.deadline_timer != 0) {
      Timer::Instance()->Stop(call.deadline_timer);
      call.deadline_timer = 0;
    }
    lane.free_slots.push_back(call.index);
  } else {
    // Route the slot home: the free list is the home core's alone.
    PendingCall* head = lane.returned.load(std::memory_order_relaxed);
    do {
      call.next_returned = head;
    } while (!lane.returned.compare_exchange_weak(head, &call, std::memory_order_release,
                                                  std::memory_order_relaxed));
  }
  return completion;
}

Future<RpcClient::Response> RpcClient::Call(std::uint16_t opcode, std::uint32_t aux,
                                            std::unique_ptr<IOBuf> body,
                                            const CallOptions& options) {
  auto* completion = new PromiseCompletion();
  Future<Response> result = completion->GetFuture();
  Call(opcode, aux, std::move(body), options, completion);
  return result;
}

void RpcClient::Call(std::uint16_t opcode, std::uint32_t aux, std::unique_ptr<IOBuf> body,
                     const CallOptions& options, RpcCompletion* completion) {
  // The slot lives in the ISSUING core's lane, and the request id names the core and slot
  // so the response (arriving on whichever core owns the server connection) claims it with
  // one CAS. Same-core issue/complete is the steady state — symmetric RSS brings the reply
  // back to the dialing core.
  std::size_t core = CurrentContext().machine_core;
  PendingCall& call = AcquireSlot(*cores_[core]);
  call.completion = completion;
  call.opcode = opcode;
  call.aux = aux;
  call.options = options;
  call.attempts = 1;
  call.backoff_ns = options.retry.initial_backoff_ns;
  if (options.deadline_ns != 0 && options.retry.max_attempts > 1 && body != nullptr) {
    // Keep a master copy for re-sends: Clone is a refcounted view of the same storage, so
    // this is descriptor cost, not a byte copy.
    call.retry_body = body->Clone();
  }
  // The span joins the core's ambient trace (a router fan-out, a traced handler) or starts
  // a fresh one. Its ids name the LOGICAL call for its whole life: every retry re-sends
  // them, so the server's spans parent into the same tree no matter how many attempts it
  // took.
  call.span = obs::OpenSpan(runtime_);
  obs::Span span = call.span;
  std::uint64_t request_id = Arm(core, call);
  StartDeadline(core, call, request_id);
  messenger_.Send(server_, service_,
                  BuildRpcFrame(request_id, opcode, /*flags=*/0, aux, std::move(body), span));
}

void RpcClient::StartDeadline(std::size_t core, PendingCall& call, std::uint64_t request_id) {
  if (call.deadline_timer != 0) {
    // Left armed by a claim won on another core; this is the home core, so stop it now.
    Timer::Instance()->Stop(call.deadline_timer);
    call.deadline_timer = 0;
  }
  if (call.options.deadline_ns == 0) {
    return;
  }
  std::weak_ptr<CoreLane> weak = cores_[core];
  RpcClient* self = this;
  call.deadline_timer =
      Timer::Instance()->Start(call.options.deadline_ns, [self, weak, core, request_id] {
        if (weak.lock() == nullptr) {
          return;  // client torn down; its teardown already resolved everything
        }
        self->Expire(core, request_id);
      });
}

void RpcClient::Expire(std::size_t core, std::uint64_t request_id) {
  PendingCall* call = Claim(request_id);
  if (call == nullptr) {
    return;  // resolved on another core first, which could not stop this timer
  }
  call->deadline_timer = 0;  // this timer is the one firing
  stats_.timeouts.fetch_add(1, std::memory_order_relaxed);
  if (call->attempts < call->options.retry.max_attempts) {
    // Park the slot (still owned, claim word 0) for the backoff, then re-send under a FRESH
    // generation: a straggler response to this attempt must find nothing (late_drops), not
    // the retry.
    stats_.retries.fetch_add(1, std::memory_order_relaxed);
    std::uint64_t delay = call->backoff_ns;
    call->backoff_ns = call->options.retry.NextBackoff(call->backoff_ns);
    call->attempts++;
    cores_[core]->parked.push_back(call->index);
    std::weak_ptr<CoreLane> weak = cores_[core];
    RpcClient* self = this;
    std::uint32_t index = call->index;
    Timer::Instance()->Start(delay, [self, weak, core, index] {
      if (weak.lock() == nullptr) {
        return;  // client torn down; teardown failed the parked call
      }
      self->Resend(core, index);
    });
    return;
  }
  obs::CloseSpan(runtime_, call->span, obs::SpanKind::kClient, service_, call->opcode,
                 obs::SpanStatus::kTimeout, static_cast<std::uint32_t>(call->attempts));
  std::exception_ptr error = std::make_exception_ptr(RpcTimeout(
      "rpc: deadline expired (service " + std::to_string(service_) + ", opcode " +
      std::to_string(call->opcode) + ", " + std::to_string(call->attempts) + " attempt(s))"));
  Release(core, *call)->OnFailure(std::move(error));
}

void RpcClient::Resend(std::size_t core, std::uint32_t index) {
  CoreLane& lane = *cores_[core];
  for (auto it = lane.parked.begin(); it != lane.parked.end(); ++it) {
    if (*it == index) {
      lane.parked.erase(it);
      break;
    }
  }
  PendingCall& call = lane.Slot(index);
  std::unique_ptr<IOBuf> body =
      call.retry_body != nullptr ? call.retry_body->Clone() : nullptr;
  std::uint64_t request_id = Arm(core, call);
  StartDeadline(core, call, request_id);
  // Fresh request id, SAME trace ids: the retry is the same logical call on the wire.
  messenger_.Send(server_, service_,
                  BuildRpcFrame(request_id, call.opcode, /*flags=*/0, call.aux,
                                std::move(body), call.span));
}

void RpcClient::OnPeerDown() {
  // The connection carrying every outstanding call just died: no response is coming. Claim
  // each armed call — concurrent deadlines/responses on other cores race safely, exactly one
  // path wins each generation — and only then resolve, so a completion that re-issues on
  // this client is not swept up by this same fan-out. Calls parked for a retry backoff are
  // left alone: their re-send dials a fresh connection, which is the desired recovery.
  std::vector<std::pair<std::size_t, PendingCall*>> lost = ClaimAll();
  stats_.peer_failures.fetch_add(lost.size(), std::memory_order_relaxed);
  std::vector<RpcCompletion*> completions;
  completions.reserve(lost.size());
  for (auto& [core, call] : lost) {
    obs::CloseSpan(runtime_, call->span, obs::SpanKind::kClient, service_, call->opcode,
                   obs::SpanStatus::kPeerLost, static_cast<std::uint32_t>(call->attempts));
    completions.push_back(Release(core, *call));
  }
  for (RpcCompletion* completion : completions) {
    completion->OnFailure(std::make_exception_ptr(
        RpcPeerLost("rpc: connection to " + server_.ToString() + " lost (service " +
                    std::to_string(service_) + ")")));
  }
}

void RpcClient::HandleFrame(Ipv4Addr from, std::unique_ptr<IOBuf> message) {
  RpcHeader header;
  std::unique_ptr<IOBuf> body;
  if (!ParseFrame(std::move(message), /*response=*/true, &header, &body)) {
    messenger_.NoteBadFrame(from);  // runt or misdirected frame: counted, then dropped
    return;
  }
  // The claim resolves the call exactly once: a duplicate response — or a straggler whose
  // attempt already timed out, failed over, or was re-sent under a fresh generation — finds
  // the claim word moved on and is dropped WITH A STAT, never double-resolved.
  PendingCall* call = Claim(header.request_id);
  if (call == nullptr) {
    stats_.late_drops.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  auto core = static_cast<std::size_t>(header.request_id >> kCoreShift);
  bool error = (header.flags & kRpcError) != 0;
  obs::CloseSpan(runtime_, call->span, obs::SpanKind::kClient, service_, call->opcode,
                 error ? obs::SpanStatus::kError : obs::SpanStatus::kOk,
                 static_cast<std::uint32_t>(call->attempts));
  if (error) {
    Release(core, *call)->OnFailure(
        std::make_exception_ptr(std::runtime_error(ChainToString(body.get()))));
    return;
  }
  Release(core, *call)->OnResponse(RpcResponse{header.aux, std::move(body)});
}

// --- RpcServer --------------------------------------------------------------------------------

RpcServer::RpcServer(Runtime& runtime, EbbId service)
    : messenger_(Messenger::For(runtime)), service_(service) {
  Kassert(service < kRpcReplyTarget, "RpcServer: service id collides with kRpcReplyTarget");
  messenger_.RegisterReceiver(service, [this](Ipv4Addr from, std::unique_ptr<IOBuf> message) {
    HandleFrame(from, std::move(message));
  });
}

RpcServer::~RpcServer() { messenger_.UnregisterReceiver(service_); }

void RpcServer::Reply(Ipv4Addr to, std::uint64_t request_id, std::uint32_t aux,
                      std::unique_ptr<IOBuf> body) {
  messenger_.Send(to, service_ | kRpcReplyTarget,
                  BuildRpcFrame(request_id, /*opcode=*/0, kRpcResponse, aux, std::move(body)));
}

void RpcServer::ReplyError(Ipv4Addr to, std::uint64_t request_id, std::string_view message) {
  messenger_.Send(to, service_ | kRpcReplyTarget,
                  BuildRpcFrame(request_id, /*opcode=*/0, kRpcResponse | kRpcError,
                                /*aux=*/0, IOBuf::CopyBuffer(message)));
}

void RpcServer::HandleFrame(Ipv4Addr from, std::unique_ptr<IOBuf> message) {
  RpcHeader header;
  std::unique_ptr<IOBuf> body;
  if (!ParseFrame(std::move(message), /*response=*/false, &header, &body)) {
    messenger_.NoteBadFrame(from);
    return;
  }
  // A traced request gets its own span on this hop, parented on the caller's (the span id
  // the frame carried), and the handler runs under it as the ambient context — so any RPC
  // the handler issues in turn stitches into the same trace. An untraced frame opens none.
  Runtime& runtime = messenger_.runtime();
  EbbId service = service_;  // the span outlives the handler, which may tear this server down
  obs::Span span = obs::OpenSpan(runtime, obs::TraceContext{header.trace_id, header.span_id});
  {
    obs::ObsRoot::TraceScope scope(runtime, span);
    HandleCall(from, header.request_id, header.opcode, header.aux, std::move(body));
  }
  // The span closes when the handler returns (every in-tree handler replies synchronously;
  // an async handler's span would cover dispatch, not the eventual reply).
  obs::CloseSpan(runtime, span, obs::SpanKind::kServer, service, header.opcode,
                 obs::SpanStatus::kOk);
}

}  // namespace dist
}  // namespace ebbrt
