#include "src/apps/memcached/shard.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "src/apps/memcached/protocol.h"
#include "src/event/timer.h"
#include "src/rcu/rcu.h"

namespace ebbrt {
namespace memcached {

std::string ShardRecordKey(std::size_t shard_index) {
  return "service/memcached/" + std::to_string(shard_index);
}

std::string EncodeShardRecord(Ipv4Addr addr, EbbId service) {
  return addr.ToString() + "#" + std::to_string(service);
}

bool ParseShardRecord(const std::string& record, ShardEndpoint* out) {
  unsigned a, b, c, d;
  unsigned long service = 0;
  if (std::sscanf(record.c_str(), "%u.%u.%u.%u#%lu", &a, &b, &c, &d, &service) != 5 ||
      a > 255 || b > 255 || c > 255 || d > 255 || service == 0 ||
      service > 0xffffffffull) {
    return false;
  }
  out->addr = Ipv4Addr::Of(a, b, c, d);
  out->service = static_cast<EbbId>(service);
  return true;
}

// --- ShardService -----------------------------------------------------------------------------

ShardService::ShardService(Runtime& runtime, std::size_t shard_index, Config config)
    : dist::RpcServer(runtime, kShardServiceBase + static_cast<EbbId>(shard_index)),
      shard_index_(shard_index), config_(std::move(config)),
      store_(RcuManagerRoot::For(runtime)),
      scratch_(std::max<std::size_t>(1, runtime.num_cores())) {
  Kassert(shard_index < kMaxShards, "ShardService: shard index out of range");
}

void ShardService::HandleCall(Ipv4Addr from, std::uint64_t request_id, std::uint16_t opcode,
                              std::uint32_t /*aux*/, std::unique_ptr<IOBuf> body) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  if (config_.on_request) {
    config_.on_request();
  }
  Scratch& scratch = scratch_[CurrentContext().machine_core];
  switch (opcode) {
    case kShardOpGet: {
      std::size_t body_len = body != nullptr ? body->ComputeChainDataLength() : 0;
      if (body_len > kMaxKeyLen) {
        bad_frames_.fetch_add(1, std::memory_order_relaxed);
        ReplyError(from, request_id, "shard: oversized key");
        return;
      }
      // A single-segment body (the common case) is looked up as a view straight over the
      // wire buffer; only a key that straddled segments pays the flatten.
      ItemPtr item = store_.Get(dist::ContiguousView(body.get(), &scratch.flat));
      if (item == nullptr) {
        Reply(from, request_id, /*aux=*/0, nullptr);
        return;
      }
      // The reply body is a refcounted view of the stored item — no copy between the
      // store and the wire, exactly like the single-node GET path.
      Reply(from, request_id, /*aux=*/1, MakeValueBuffer(std::move(item)));
      return;
    }
    case kShardOpSet: {
      // Bounds come straight off the wire lengths ([u32 klen][key][value]) before any byte
      // of the body is flattened: an oversized item is rejected without sizing a buffer.
      std::size_t body_len = body != nullptr ? body->ComputeChainDataLength() : 0;
      std::uint32_t klen_net = 0;
      if (body_len >= sizeof(klen_net)) {
        body->CopyOut(&klen_net, sizeof(klen_net));
      }
      std::size_t klen = NetToHost32(klen_net);
      if (body_len >= sizeof(klen_net) && sizeof(klen_net) + klen <= body_len &&
          (klen > kMaxKeyLen || body_len - sizeof(klen_net) - klen > kMaxValueLen)) {
        bad_frames_.fetch_add(1, std::memory_order_relaxed);
        ReplyError(from, request_id, "shard: oversized item");
        return;
      }
      std::string_view key;
      std::string_view value;
      if (!dist::ParseLenPrefixedBody(dist::ContiguousView(body.get(), &scratch.flat), &key,
                                      &value)) {
        ReplyError(from, request_id, "shard: malformed SET body");
        return;
      }
      store_.Set(key, value, 0);
      Reply(from, request_id, /*aux=*/1, nullptr);
      return;
    }
    case kShardOpMultiGet: {
      if (!dist::ParseKeyVectorBody(body.get(), &scratch.keys, &scratch.flat)) {
        // Malformed batch body: reject through the normal RPC error path (the caller's
        // whole-batch future fails), never assert — the frame itself was sound.
        ReplyError(from, request_id, "shard: malformed MULTIGET body");
        return;
      }
      MultiGetReplyBuilder reply;
      std::uint32_t hits = 0;
      store_.GetEach(scratch.keys.data(), scratch.keys.size(), [&](std::size_t i, ItemPtr item) {
        // The batch is N logical requests under one frame: charge modeled service time per
        // KEY, not per frame (the top-of-function on_request covered key 0) — the bulk win
        // measured by benches is header/dispatch amortization, not discounted work.
        if (i > 0 && config_.on_request) {
          config_.on_request();
        }
        if (scratch.keys[i].size() > kMaxKeyLen) {
          // Per-item bound inside a batch: an oversized key can't be stored, so it simply
          // misses — but it is counted, since a conforming client never sends one.
          bad_frames_.fetch_add(1, std::memory_order_relaxed);
          reply.Add(nullptr);
          return;
        }
        if (item == nullptr) {
          reply.Add(nullptr);
          return;
        }
        hits++;
        reply.Add(MakeValueBuffer(std::move(item)));
      });
      Reply(from, request_id, /*aux=*/hits, reply.Finish());
      return;
    }
  }
  ReplyError(from, request_id, "shard: unknown opcode");
}

// --- kShardOpMultiGet reply marshaling --------------------------------------------------------

void MultiGetReplyBuilder::Add(std::unique_ptr<IOBuf> value) {
  auto word_buf = IOBuf::CreateReserveFor<sizeof(std::uint32_t)>(0);
  word_buf->Append(sizeof(std::uint32_t));
  std::uint32_t word = 0;
  if (value != nullptr) {
    word = HostToNet32(kMultiGetFoundBit |
                       static_cast<std::uint32_t>(value->ComputeChainDataLength()));
  }
  std::memcpy(word_buf->WritableData(), &word, sizeof(word));
  Link(std::move(word_buf));
  if (value != nullptr) {
    Link(std::move(value));
  }
}

void MultiGetReplyBuilder::Link(std::unique_ptr<IOBuf> chain) {
  IOBuf* last = chain.get();
  while (last->Next() != nullptr) {
    last = last->Next();
  }
  if (tail_ == nullptr) {
    head_ = std::move(chain);
  } else {
    tail_->AppendChain(std::move(chain));  // tail_ is the last element: no walk
  }
  tail_ = last;
}

bool ParseMultiGetReply(std::unique_ptr<IOBuf> body, const std::uint32_t* slots,
                        std::size_t count, ShardRouter::GetResult* results) {
  dist::ChainSplitter splitter(std::move(body));
  for (std::size_t j = 0; j < count; ++j) {
    std::uint32_t word = 0;
    if (!splitter.ReadU32(&word)) {
      return false;  // fewer records than the request had keys
    }
    ShardRouter::GetResult& result = results[slots[j]];
    result.found = (word & kMultiGetFoundBit) != 0;
    result.value = nullptr;
    std::uint32_t len = word & ~kMultiGetFoundBit;
    if (result.found && len != 0) {
      // Zero-copy: the value is split off as a shared view of the reply chain's storage.
      result.value = splitter.SplitBytes(len);
      if (result.value == nullptr) {
        return false;  // value bytes ran short of the declared length
      }
    }
  }
  return splitter.Remaining() == 0;  // exact consumption: trailing bytes are malformed
}

// --- Discovery --------------------------------------------------------------------------------

Future<void> AnnounceShard(Runtime& runtime, Ipv4Addr frontend, std::size_t shard_index,
                           Ipv4Addr self) {
  EbbId service = kShardServiceBase + static_cast<EbbId>(shard_index);
  return dist::GlobalIdMap::For(runtime, frontend)
      .Set(ShardRecordKey(shard_index), EncodeShardRecord(self, service));
}

Future<std::vector<ShardEndpoint>> DiscoverShards(Runtime& runtime, Ipv4Addr frontend,
                                                  std::size_t num_shards) {
  // Shards announce concurrently with clients discovering, so a missing record is the
  // normal bring-up race: GetWithRetry absorbs it with bounded backoff (a shard that never
  // announces surfaces as a clean error through the future). A record that exists but
  // fails to parse never heals, so it fails immediately.
  struct Discovery {
    dist::GlobalIdMap* map = nullptr;
    std::size_t num_shards = 0;
    std::vector<ShardEndpoint> endpoints;
    Promise<std::vector<ShardEndpoint>> done;
    std::function<void(std::size_t)> next;
  };
  auto state = std::make_shared<Discovery>();
  state->map = &dist::GlobalIdMap::For(runtime, frontend);
  state->num_shards = num_shards;
  state->endpoints.resize(num_shards);
  Future<std::vector<ShardEndpoint>> result = state->done.GetFuture();
  // Resolve sequentially (N is small and this runs once at bring-up).
  state->next = [state](std::size_t index) {
    if (index == state->num_shards) {
      state->done.SetValue(std::move(state->endpoints));
      state->next = nullptr;  // break the self-capture cycle
      return;
    }
    dist::GlobalIdMap::RetryPolicy policy;
    policy.initial_backoff_ns = 100'000;  // announces land within a handful of RTTs
    policy.max_backoff_ns = 4'000'000;
    state->map->GetWithRetry(ShardRecordKey(index), policy)
        .Then([state, index](Future<std::string> f) {
          std::string record;
          try {
            record = f.Get();
            if (!ParseShardRecord(record, &state->endpoints[index])) {
              throw std::runtime_error("DiscoverShards: malformed record for " +
                                       ShardRecordKey(index) + ": " + record);
            }
          } catch (...) {
            state->done.SetException(std::current_exception());
            state->next = nullptr;
            return;
          }
          state->next(index + 1);
        });
  };
  state->next(0);
  return result;
}

// --- Versioned ring record --------------------------------------------------------------------

std::string EncodeRingRecord(const RingRecord& record) {
  std::string out = std::to_string(record.epoch) + "|";
  for (std::size_t i = 0; i < record.shards.size(); ++i) {
    if (i > 0) {
      out += ",";
    }
    out += EncodeShardRecord(record.shards[i].addr, record.shards[i].service);
  }
  return out;
}

bool ParseRingRecord(const std::string& record, RingRecord* out) {
  std::size_t bar = record.find('|');
  if (bar == std::string::npos || bar == 0) {
    return false;
  }
  std::uint64_t epoch = 0;
  for (std::size_t i = 0; i < bar; ++i) {
    char c = record[i];
    if (c < '0' || c > '9') {
      return false;
    }
    std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (epoch > (~std::uint64_t{0} - digit) / 10) {
      return false;  // epoch overflows u64: nonsense record
    }
    epoch = epoch * 10 + digit;
  }
  std::vector<ShardEndpoint> shards;
  std::size_t pos = bar + 1;
  while (pos <= record.size()) {
    std::size_t comma = record.find(',', pos);
    std::size_t end = (comma == std::string::npos) ? record.size() : comma;
    ShardEndpoint endpoint;
    if (end == pos || !ParseShardRecord(record.substr(pos, end - pos), &endpoint)) {
      return false;  // empty or malformed endpoint entry
    }
    shards.push_back(endpoint);
    if (comma == std::string::npos) {
      break;
    }
    pos = comma + 1;
  }
  if (shards.empty()) {
    return false;  // an empty shard list can never be routed to
  }
  out->epoch = epoch;
  out->shards = std::move(shards);
  return true;
}

Future<void> PublishRing(Runtime& runtime, Ipv4Addr frontend, const RingRecord& record) {
  return dist::GlobalIdMap::For(runtime, frontend)
      .Set(kRingRecordKey, EncodeRingRecord(record));
}

Future<RingRecord> FetchRing(Runtime& runtime, Ipv4Addr frontend) {
  return dist::GlobalIdMap::For(runtime, frontend)
      .GetWithRetry(kRingRecordKey)
      .Then([](Future<std::string> f) {
        std::string raw = f.Get();
        RingRecord record;
        if (!ParseRingRecord(raw, &record)) {
          throw std::runtime_error("FetchRing: malformed ring record: " + raw);
        }
        return record;
      });
}

// --- ShardRouter ------------------------------------------------------------------------------

ShardRouter::ShardRouter(Runtime& runtime, std::vector<ShardEndpoint> shards,
                         std::size_t vnodes_per_shard)
    : ShardRouter(runtime, RingRecord{/*epoch=*/0, std::move(shards)},
                  Config{vnodes_per_shard, /*replication=*/1, dist::CallOptions{},
                         dist::CallOptions{}, /*ring_refresh_ns=*/0, Ipv4Addr::Any()}) {}

ShardRouter::ShardRouter(Runtime& runtime, RingRecord ring, Config config)
    : runtime_(runtime), config_(std::move(config)) {
  Kassert(!ring.shards.empty(), "ShardRouter: no shards");
  Kassert(ring.shards.size() <= kMaxShards, "ShardRouter: too many shards");
  Kassert(config_.replication >= 1, "ShardRouter: replication must be >= 1");
  ring_ = BuildRing(ring, config_.vnodes_per_shard, config_.replication);
  suspect_.assign(ring_->shards.size(), 0);
  per_shard_ops_.assign(ring_->shards.size(), 0);
  // Dial every shard up front (the pre-ring behavior); later epochs dial lazily on first
  // routed op.
  for (const ShardEndpoint& endpoint : ring_->shards) {
    ClientFor(endpoint);
  }
  StartRingWatcher();  // no-op unless Config asked for a periodic refresh
  // Join the machine's telemetry plane: the router's failover state machine and its RPC
  // clients' fault counters become collector series, sampled only at snapshot time. The
  // router is per-core client state, so samples are a benign racy read of plain counters.
  obs_collector_ = obs::ObsRoot::For(runtime_).AddCollector(
      [this](obs::ObsRoot::MetricsSnapshot& snapshot) {
        std::vector<obs::ObsRoot::Sample>& out = snapshot.samples;
        out.emplace_back("router_failovers", static_cast<double>(stats_.failovers));
        out.emplace_back("router_suspects_marked",
                         static_cast<double>(stats_.suspects_marked));
        out.emplace_back("router_ring_swaps", static_cast<double>(stats_.ring_swaps));
        out.emplace_back("router_stale_rings", static_cast<double>(stats_.stale_rings));
        out.emplace_back("router_malformed_rings",
                         static_cast<double>(stats_.malformed_rings));
        out.emplace_back("router_refresh_failures",
                         static_cast<double>(stats_.refresh_failures));
        out.emplace_back("router_write_skips", static_cast<double>(stats_.write_skips));
        out.emplace_back("router_ring_epoch", static_cast<double>(ring_->epoch));
        std::uint64_t timeouts = 0, retries = 0, late_drops = 0, peer_failures = 0;
        for (const auto& entry : clients_) {
          const dist::RpcClient::Stats& s = entry.second->stats();
          timeouts += s.timeouts.load(std::memory_order_relaxed);
          retries += s.retries.load(std::memory_order_relaxed);
          late_drops += s.late_drops.load(std::memory_order_relaxed);
          peer_failures += s.peer_failures.load(std::memory_order_relaxed);
        }
        out.emplace_back("rpc_timeouts", static_cast<double>(timeouts));
        out.emplace_back("rpc_retries", static_cast<double>(retries));
        out.emplace_back("rpc_late_drops", static_cast<double>(late_drops));
        out.emplace_back("rpc_peer_failures", static_cast<double>(peer_failures));
        out.emplace_back("rpc_pending_calls", static_cast<double>(pending_calls()));
      });
}

ShardRouter::~ShardRouter() {
  StopRingWatcher();
  if (obs::ObsRoot* obs_root = obs::ObsRoot::TryFor(runtime_)) {
    obs_root->RemoveCollector(obs_collector_);
  }
  // Tearing the clients down fails their pending calls, and so the ops waiting on them,
  // while the batch pool is still alive. The map is swapped out first: nothing a completion
  // runs may find it half-destroyed, and closing_ keeps the failures from re-issuing.
  closing_ = true;
  std::unordered_map<EbbId, std::unique_ptr<dist::RpcClient>> clients;
  clients.swap(clients_);
  clients.clear();
  Kassert(clients_.empty(), "ShardRouter: a shard client was dialed during teardown");
}

std::size_t ShardRouter::pending_calls() const {
  std::size_t pending = 0;
  for (const auto& entry : clients_) {
    pending += entry.second->pending_calls();
  }
  return pending;
}

std::shared_ptr<const ShardRouter::Ring> ShardRouter::BuildRing(
    const RingRecord& record, std::size_t vnodes_per_shard, std::size_t replication) {
  auto ring = std::make_shared<Ring>();
  ring->epoch = record.epoch;
  ring->shards = record.shards;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> points;  // (point, shard)
  points.reserve(record.shards.size() * vnodes_per_shard);
  for (std::size_t i = 0; i < record.shards.size(); ++i) {
    for (std::size_t v = 0; v < vnodes_per_shard; ++v) {
      // Ring points are named by shard INDEX, not address: the same shard count always
      // yields the same placement, so rebuilding a router (or a second client machine
      // building its own) routes identically.
      std::uint64_t point =
          ShardHash("shard/" + std::to_string(i) + "/vnode/" + std::to_string(v));
      points.emplace_back(point, static_cast<std::uint32_t>(i));
    }
  }
  std::sort(points.begin(), points.end());
  // Each point's replica row: walk clockwise from it (wrapping past the top) collecting
  // DISTINCT shards until `width` are found.
  ring->width = std::min(replication, record.shards.size());
  ring->points.reserve(points.size());
  ring->replicas.reserve(points.size() * ring->width);
  for (std::size_t p = 0; p < points.size(); ++p) {
    ring->points.push_back(points[p].first);
    std::size_t row = ring->replicas.size();
    for (std::size_t walked = 0;
         walked < points.size() && ring->replicas.size() - row < ring->width; ++walked) {
      auto shard = static_cast<std::uint8_t>(points[(p + walked) % points.size()].second);
      if (std::find(ring->replicas.begin() + static_cast<std::ptrdiff_t>(row),
                    ring->replicas.end(), shard) == ring->replicas.end()) {
        ring->replicas.push_back(shard);
      }
    }
  }
  return ring;
}

ShardRouter::ReplicaSet ShardRouter::Ring::ReplicasFor(std::uint64_t hash,
                                                       std::size_t r) const {
  // First ring point clockwise from the key's hash, wrapping past the top.
  std::size_t point = static_cast<std::size_t>(
      std::upper_bound(points.begin(), points.end(), hash) - points.begin());
  if (point == points.size()) {
    point = 0;
  }
  ReplicaSet set;
  set.size = std::min(r, width);
  std::memcpy(set.shards.data(), replicas.data() + point * width, set.size);
  return set;
}

std::size_t ShardRouter::ShardFor(std::string_view key) const {
  return *ring_->ReplicasFor(ShardHash(key), 1).begin();
}

dist::RpcClient* ShardRouter::ClientFor(const ShardEndpoint& endpoint) {
  auto it = clients_.find(endpoint.service);
  if (it != clients_.end()) {
    if (it->second->server() == endpoint.addr) {
      return it->second.get();
    }
    // The service moved machines across an epoch: re-dial. Calls pending on the old client
    // fail with RpcPeerLost through its teardown — they were addressed to a dead home.
    clients_.erase(it);
  }
  auto client =
      std::make_unique<dist::RpcClient>(runtime_, endpoint.service, endpoint.addr);
  dist::RpcClient* raw = client.get();
  clients_.emplace(endpoint.service, std::move(client));
  return raw;
}

void ShardRouter::MarkSuspect(const std::shared_ptr<const Ring>& ring,
                              std::uint32_t shard) {
  if (ring != ring_) {
    return;  // stale snapshot: the swap that replaced it already cleared suspicion
  }
  if (suspect_[shard] == 0) {
    suspect_[shard] = 1;
    ++stats_.suspects_marked;
  }
  // A transport failure is the best hint that membership moved: poll the ring now instead
  // of waiting out the watcher period.
  RefreshRing();
}

ShardRouter::Batch& ShardRouter::AcquireBatch(std::uint16_t opcode) {
  if (free_batches_.empty()) {
    batches_.push_back(std::make_unique<Batch>());
    batches_.back()->router = this;
    free_batches_.push_back(batches_.back().get());
  }
  Batch& batch = *free_batches_.back();
  free_batches_.pop_back();
  batch.ring = ring_;  // op-wide snapshot (RCU read side)
  batch.opcode = opcode;
  batch.span = obs::OpenSpan(runtime_);
  batch.outstanding = 1;  // the issuing call's hold, dropped by its Done()
  return batch;
}

ShardRouter::Group& ShardRouter::NewGroup(Batch& batch, std::uint32_t shard) {
  if (batch.groups_used == batch.groups.size()) {
    batch.groups.push_back(std::make_unique<Group>());
    batch.groups.back()->batch = &batch;
  }
  Group& group = *batch.groups[batch.groups_used++];
  group.shard = shard;
  group.begin = 0;
  group.count = 0;
  ++batch.outstanding;
  return group;
}

Future<void> ShardRouter::Set(std::string_view key, std::string_view value) {
  Batch& batch = AcquireBatch(kShardOpSet);
  batch.set_done.emplace();
  Future<void> result = batch.set_done->GetFuture();
  ReplicaSet replicas = batch.ring->ReplicasFor(ShardHash(key), config_.replication);
  bool all_suspect = std::all_of(replicas.begin(), replicas.end(),
                                 [this](std::uint8_t shard) { return Suspect(shard); });
  ReplicaSet targets;
  for (std::uint8_t shard : replicas) {
    if (!all_suspect && Suspect(shard)) {
      ++stats_.write_skips;  // don't burn a deadline on a replica believed dead
      continue;
    }
    targets.shards[targets.size++] = shard;
  }
  {
    obs::ObsRoot::TraceScope scope(runtime_, batch.span);
    // One body for every replica: the others ride clones (views of the same bytes).
    std::unique_ptr<IOBuf> body = dist::BuildLenPrefixedBody(key, value);
    for (std::size_t i = 0; i < targets.size; ++i) {
      std::uint8_t shard = targets.shards[i];
      per_shard_ops_[shard]++;
      Group& group = NewGroup(batch, shard);
      ClientFor(batch.ring->shards[shard])
          ->Call(kShardOpSet, 0, i + 1 < targets.size ? body->Clone() : std::move(body),
                 config_.write_options, &group);
    }
  }
  Done(batch);
  return result;
}

Future<ShardRouter::GetResult> ShardRouter::Get(std::string_view key) {
  Batch& batch = AcquireBatch(kShardOpGet);
  batch.get_done.emplace();
  Future<GetResult> result = batch.get_done->GetFuture();
  Read(batch, {&key, 1});
  return result;
}

Future<std::vector<ShardRouter::GetResult>> ShardRouter::MultiGet(
    const std::vector<std::string_view>& keys) {
  if (keys.empty()) {
    return MakeReadyFuture<std::vector<GetResult>>(std::vector<GetResult>{});
  }
  Batch& batch = AcquireBatch(kShardOpMultiGet);
  batch.multiget_done.emplace();
  Future<std::vector<GetResult>> result = batch.multiget_done->GetFuture();
  batch.results.resize(keys.size());
  Read(batch, keys);
  return result;
}

void ShardRouter::Read(Batch& batch, std::span<const std::string_view> keys) {
  // Keys are copied once into the batch's arena: a group re-issued after a replica failure
  // runs long after the caller's string_views died.
  std::size_t bytes = 0;
  for (std::string_view key : keys) {
    bytes += key.size();
  }
  batch.arena.resize(bytes);
  batch.keys.resize(keys.size());
  batch.order.resize(keys.size());
  std::size_t offset = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    std::memcpy(batch.arena.data() + offset, keys[i].data(), keys[i].size());
    batch.keys[i] = KeySpan{ShardHash(keys[i]), static_cast<std::uint32_t>(offset),
                            static_cast<std::uint32_t>(keys[i].size())};
    batch.order[i] = static_cast<std::uint32_t>(i);
    offset += keys[i].size();
  }
  Scatter(batch, 0, keys.size());
  Done(batch);
}

bool ShardRouter::Scatter(Batch& batch, std::size_t begin, std::size_t count) {
  // Choose: each key goes to its first replica that hasn't failed THIS batch, preferring
  // non-suspect ones (suspect_ alone can't keep a re-issue off the replica that just failed
  // — a ring swap between rounds clears it). Count keys and key bytes per shard as we go.
  constexpr std::uint8_t kNoShard = 0xff;
  std::array<std::uint32_t, kMaxShards> counts{};
  std::array<std::size_t, kMaxShards> bytes{};
  batch.chosen.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::uint32_t slot = batch.order[begin + i];
    ReplicaSet replicas =
        batch.ring->ReplicasFor(batch.keys[slot].hash, config_.replication);
    std::uint8_t chosen = kNoShard;
    for (std::uint8_t shard : replicas) {
      if ((batch.excluded >> shard & 1) == 0 && !Suspect(shard)) {
        chosen = shard;
        break;
      }
    }
    if (chosen == kNoShard) {
      for (std::uint8_t shard : replicas) {
        if ((batch.excluded >> shard & 1) == 0) {
          chosen = shard;
          break;
        }
      }
    }
    if (chosen == kNoShard) {
      if (!batch.error) {
        batch.error = std::make_exception_ptr(dist::RpcPeerLost(
            "shard: every replica of '" + std::string(batch.Key(slot)) + "' failed"));
      }
      return false;
    }
    batch.chosen[i] = chosen;
    counts[chosen]++;
    bytes[chosen] += batch.keys[slot].length;
  }
  // Group: a counting sort by shard appends the slots to `order`, one run per shard, so the
  // gather writes each reply straight into request-order result slots (duplicate keys
  // simply occupy two slots of a run).
  std::size_t shards = batch.ring->shards.size();
  std::array<std::uint32_t, kMaxShards> cursor{};
  auto base = static_cast<std::uint32_t>(batch.order.size());
  for (std::size_t shard = 0, run = base; shard < shards; ++shard) {
    cursor[shard] = static_cast<std::uint32_t>(run);
    run += counts[shard];
  }
  batch.order.resize(base + count);
  for (std::size_t i = 0; i < count; ++i) {
    batch.order[cursor[batch.chosen[i]]++] = batch.order[begin + i];
  }
  // Scatter under the batch's root span: every per-shard RPC — first round or a failover
  // re-issue rounds later — records its client span as a child of the same root.
  obs::ObsRoot::TraceScope scope(runtime_, batch.span);
  std::uint32_t run = base;
  for (std::uint32_t shard = 0; shard < shards; ++shard) {
    if (counts[shard] == 0) {
      continue;
    }
    if (shard < per_shard_ops_.size()) {
      per_shard_ops_[shard] += counts[shard];
    }
    Group& group = NewGroup(batch, shard);
    group.begin = run;
    group.count = counts[shard];
    run += counts[shard];
    std::unique_ptr<IOBuf> body;
    std::uint32_t aux = 0;
    if (batch.opcode == kShardOpGet) {
      body = IOBuf::CopyBuffer(batch.Key(batch.order[group.begin]));  // the raw key
    } else {
      // ONE RPC per shard touched: the whole sub-batch rides a single kShardOpMultiGet
      // frame (and, via the Messenger's auto-cork, the whole fan-out leaves this event as
      // at most one wire segment per shard).
      dist::KeyVectorBuilder builder(group.count, bytes[shard]);
      for (std::uint32_t j = 0; j < group.count; ++j) {
        builder.Add(batch.Key(batch.order[group.begin + j]));
      }
      body = builder.Finish();
      aux = group.count;
    }
    ClientFor(batch.ring->shards[shard])
        ->Call(batch.opcode, aux, std::move(body), config_.read_options, &group);
  }
  return true;
}

void ShardRouter::Group::OnResponse(dist::RpcResponse response) {
  if (batch->opcode == kShardOpGet) {
    batch->result.found = response.aux != 0;
    batch->result.value = std::move(response.body);
  } else if (batch->opcode == kShardOpMultiGet &&
             !ParseMultiGetReply(std::move(response.body), batch->order.data() + begin, count,
                                 batch->results.data()) &&
             !batch->error) {
    batch->error =
        std::make_exception_ptr(std::runtime_error("shard: malformed MULTIGET reply"));
  }
  batch->router->Done(*batch);
}

void ShardRouter::Group::OnFailure(std::exception_ptr error) {
  ShardRouter& router = *batch->router;
  bool transport = false;
  try {
    std::rethrow_exception(error);
  } catch (const dist::RpcTransportError&) {
    transport = true;
  } catch (...) {
  }
  if (transport && !router.closing_) {
    router.MarkSuspect(batch->ring, shard);
    if (batch->opcode != kShardOpSet) {
      // Exactly this group's keys re-scatter to their next replicas; groups that answered
      // keep their results (the read fails only when some key exhausts its replica set).
      batch->excluded |= std::uint32_t{1} << shard;
      if (router.Scatter(*batch, begin, count)) {
        ++router.stats_.failovers;
      }
      router.Done(*batch);
      return;
    }
  }
  // Application errors, failed writes, and everything once the router is closing are final.
  if (!batch->error) {
    batch->error = std::move(error);
  }
  router.Done(*batch);
}

void ShardRouter::Done(Batch& batch) {
  if (--batch.outstanding != 0) {
    return;
  }
  // Take the outcome out and recycle the batch BEFORE resolving: the caller's continuation
  // usually issues its next op synchronously, and that op reuses this (cache-warm) state.
  std::exception_ptr error = std::exchange(batch.error, nullptr);
  obs::CloseSpan(runtime_, batch.span, obs::SpanKind::kLocal, kNullEbbId, batch.opcode,
                 error ? obs::SpanStatus::kError : obs::SpanStatus::kOk);
  auto resolve = [&](auto& promise, auto... value) {
    auto done = std::move(*promise);
    Recycle(batch);
    if (error) {
      done.SetException(std::move(error));
    } else {
      done.SetValue(std::move(value)...);
    }
  };
  switch (batch.opcode) {
    case kShardOpGet:
      return resolve(batch.get_done, std::move(batch.result));
    case kShardOpMultiGet:
      return resolve(batch.multiget_done, std::move(batch.results));
    default:
      return resolve(batch.set_done);
  }
}

void ShardRouter::Recycle(Batch& batch) {
  batch.get_done.reset();
  batch.multiget_done.reset();
  batch.set_done.reset();
  batch.ring.reset();
  batch.excluded = 0;
  batch.arena.clear();
  batch.keys.clear();
  batch.results.clear();
  batch.order.clear();
  batch.groups_used = 0;
  free_batches_.push_back(&batch);
}

bool ShardRouter::AdoptRing(const RingRecord& record) {
  if (record.shards.empty()) {
    return false;  // never adopt an unroutable ring (ParseRingRecord rejects these anyway)
  }
  if (record.shards.size() > kMaxShards) {
    ++stats_.malformed_rings;  // more shards than there are shard service ids
    return false;
  }
  if (record.epoch < ring_->epoch) {
    ++stats_.stale_rings;
    std::fprintf(stderr,
                 "ShardRouter: stale ring record (epoch %llu < installed %llu), keeping "
                 "last good ring\n",
                 static_cast<unsigned long long>(record.epoch),
                 static_cast<unsigned long long>(ring_->epoch));
    return false;
  }
  if (record.epoch == ring_->epoch) {
    return false;  // the watcher re-reading the installed epoch: the quiet steady state
  }
  bool same_shards = record.shards.size() == ring_->shards.size();
  for (std::size_t i = 0; same_shards && i < record.shards.size(); ++i) {
    same_shards = record.shards[i].addr == ring_->shards[i].addr &&
                  record.shards[i].service == ring_->shards[i].service;
  }
  // The swap: in-flight ops drain against the snapshot they captured; everything issued
  // after this line routes on the new epoch with a clean slate of suspicion.
  ring_ = BuildRing(record, config_.vnodes_per_shard, config_.replication);
  suspect_.assign(ring_->shards.size(), 0);
  if (!same_shards) {
    per_shard_ops_.assign(ring_->shards.size(), 0);
  }
  ++stats_.ring_swaps;
  return true;
}

void ShardRouter::RefreshRing() {
  if (config_.frontend.IsAny() || refresh_inflight_) {
    return;
  }
  refresh_inflight_ = true;
  // Plain Get, no retry ladder: the watcher (or the next suspect mark) IS the retry.
  dist::GlobalIdMap::For(runtime_, config_.frontend)
      .Get(kRingRecordKey)
      .Then([this](Future<std::string> f) {
        refresh_inflight_ = false;
        std::string raw;
        try {
          raw = f.Get();
        } catch (...) {
          ++stats_.refresh_failures;  // no record / frontend unreachable: keep last good
          return;
        }
        RingRecord record;
        if (!ParseRingRecord(raw, &record)) {
          ++stats_.malformed_rings;
          std::fprintf(stderr,
                       "ShardRouter: malformed ring record '%s', keeping last good ring "
                       "(epoch %llu)\n",
                       raw.c_str(), static_cast<unsigned long long>(ring_->epoch));
          return;
        }
        AdoptRing(record);
      });
}

void ShardRouter::StartRingWatcher() {
  if (watcher_timer_ != 0 || config_.ring_refresh_ns == 0 || config_.frontend.IsAny()) {
    return;
  }
  watcher_timer_ = Timer::Instance()->Start(
      config_.ring_refresh_ns, [this] { RefreshRing(); }, /*periodic=*/true);
}

void ShardRouter::StopRingWatcher() {
  if (watcher_timer_ == 0) {
    return;
  }
  Timer::Instance()->Stop(watcher_timer_);
  watcher_timer_ = 0;
}

double ShardRouter::Imbalance() const {
  std::uint64_t total = 0;
  std::uint64_t max = 0;
  for (std::uint64_t ops : per_shard_ops_) {
    total += ops;
    max = std::max(max, ops);
  }
  if (total == 0) {
    return 0.0;
  }
  double mean = static_cast<double>(total) / static_cast<double>(per_shard_ops_.size());
  return static_cast<double>(max) / mean - 1.0;
}

}  // namespace memcached
}  // namespace ebbrt
