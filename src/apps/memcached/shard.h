// Sharded memcached over the hybrid structure (paper §2.1 scaled out).
//
// One memcached instance per machine is where the paper stops; the natural next step for a
// production deployment is to consistent-hash the key space across N backend shards and let
// clients route per key. Everything here rides the distributed dispatch plane:
//
//   * ShardService — a backend shard: an RpcServer wrapping the same RCU-backed KvStore the
//     single-node server uses. A MULTIGET reply copies values of at most kCopyBreak bytes
//     into a few shared tail buffers and references larger ones zero-copy (MakeValueBuffer):
//     below the threshold a descriptor, a control block and an item reference per value
//     cost more than the bytes. The reply ships through the Messenger's corked, pooled TCP
//     datapath.
//   * ShardRouter — the client-side router Ebb: a consistent-hash ring over the shard set
//     and one RpcClient per shard. Each shard has its OWN service id (kShardServiceBase +
//     index), so concurrent responses from different shards resolve through distinct
//     Messenger receiver entries and per-core pending tables — fan-IN from N shards never
//     meets a shared lock.
//   * Discovery — shard i registers itself in the hosted frontend's GlobalIdMap under
//     "service/memcached/<i>" (AnnounceShard); routers resolve the records by name
//     (DiscoverShards), exactly how kv_cache discovers its single server.
//
// The ring hashes with FNV-1a (implemented here, NOT std::hash) so shard placement is
// deterministic across standard libraries — the per-shard balance gates in CI depend on it.
#ifndef EBBRT_SRC_APPS_MEMCACHED_SHARD_H_
#define EBBRT_SRC_APPS_MEMCACHED_SHARD_H_

#include <array>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/apps/memcached/kvstore.h"
#include "src/dist/global_id_map.h"
#include "src/dist/rpc.h"
#include "src/obs/metrics.h"

namespace ebbrt {
namespace memcached {

// One service id per shard: responses from different shards resolve through different
// Messenger receiver entries (see header comment). 24 shard slots above the test/example static range.
inline constexpr EbbId kShardServiceBase = kFirstStaticUserId + 8;
inline constexpr std::size_t kMaxShards = 24;

// Shard RPC opcodes; `aux` carries the found flag on GET responses.
inline constexpr std::uint16_t kShardOpGet = 1;
inline constexpr std::uint16_t kShardOpSet = 2;
// Bulk GET: one RPC carries a whole key batch to a shard — the 16-byte RpcHeader, the
// pending-table entry, and the per-frame dispatch are paid once per SHARD instead of once
// per KEY. Request body is dist::KeyVectorBuilder's packed key vector (aux = key count);
// the reply is one IOBuf chain of per-key records in request order (aux = hit count), each
// [u32 status word][value bytes if found] — see MultiGetReplyBuilder/ParseMultiGetReply.
inline constexpr std::uint16_t kShardOpMultiGet = 3;

// Per-key reply status word: top bit = found, low 31 bits = value length. A miss is a bare
// word (no value bytes follow) — distinguishing "key absent from a healthy shard" from a
// transport error, which crosses as an RPC error frame and fails the whole batch future.
inline constexpr std::uint32_t kMultiGetFoundBit = 0x80000000u;

// FNV-1a 64-bit with a murmur-style finalizer: small and deterministic everywhere. The
// finalizer matters — raw FNV-1a of short strings differing only in their final digits
// ("user:0", "user:1", ...) leaves the HIGH bits nearly untouched, which collapses a
// consistent-hash ring (keyed on full 64-bit order) into one arc. fmix64 avalanches every
// input bit across the word.
inline std::uint64_t ShardHash(std::string_view s) {
  std::uint64_t h = 14695981039346656037ull;
  for (char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ull;
  }
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}

struct ShardEndpoint {
  Ipv4Addr addr;
  EbbId service = kNullEbbId;
};

// GlobalIdMap record plumbing: key "service/memcached/<i>", value "<a.b.c.d>#<service-id>".
std::string ShardRecordKey(std::size_t shard_index);
std::string EncodeShardRecord(Ipv4Addr addr, EbbId service);
// False on a malformed record, including a service id an RpcClient cannot take (0, or at or
// above dist::kRpcReplyTarget).
bool ParseShardRecord(const std::string& record, ShardEndpoint* out);

class ShardService final : public dist::RpcServer {
 public:
  struct Config {
    // Invoked once per request before it executes — benches charge modeled per-op service
    // time here (the store lookup itself is real host work, but the simulated clock charges
    // each handler a fixed cost, whatever it does). Leave empty for none.
    std::function<void()> on_request;
  };

  ShardService(Runtime& runtime, std::size_t shard_index, Config config = {});

  KvStore& store() { return store_; }
  std::size_t shard_index() const { return shard_index_; }
  std::uint64_t requests() const { return requests_.load(std::memory_order_relaxed); }
  // Well-framed RPCs rejected for violating per-item bounds (kMaxKeyLen / kMaxValueLen) —
  // checked from the wire lengths BEFORE any key/value is materialized, so an oversized
  // request never sizes an allocation. Same discipline as the TCP servers: count, reply an
  // error, keep serving.
  std::uint64_t bad_frames() const { return bad_frames_.load(std::memory_order_relaxed); }

 private:
  void HandleCall(Ipv4Addr from, std::uint64_t request_id, std::uint16_t opcode,
                  std::uint32_t aux, std::unique_ptr<IOBuf> body) override;

  // Per-core parse scratch (HandleCall runs on the request connection's core): key views of
  // the batch being served, and the flattened body when it spanned segments. Capacity is
  // kept across requests, so the steady state parses without allocating.
  struct alignas(kCacheLineSize) Scratch {
    std::vector<std::string_view> keys;
    std::vector<char> flat;
  };

  std::size_t shard_index_;
  Config config_;
  KvStore store_;
  std::vector<Scratch> scratch_;
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> bad_frames_{0};
};

// Publishes this machine's shard under its GlobalIdMap record (the frontend at `frontend`
// must be serving GlobalIdMap). The future resolves when the name is durable.
Future<void> AnnounceShard(Runtime& runtime, Ipv4Addr frontend, std::size_t shard_index,
                           Ipv4Addr self);

// Resolves shard records 0..num_shards-1 from the frontend. Fails (through the future) if
// any record is missing or malformed — discovery is all-or-nothing.
Future<std::vector<ShardEndpoint>> DiscoverShards(Runtime& runtime, Ipv4Addr frontend,
                                                  std::size_t num_shards);

// --- Versioned ring ---------------------------------------------------------------------------
//
// The per-shard records above bootstrap a FIXED shard set. The versioned ring makes
// membership dynamic: whoever operates the cluster publishes the authoritative shard list
// under ONE GlobalIdMap record ("service/memcached/ring") with a monotonically increasing
// epoch. Routers poll it (or are told to refresh) and RCU-swap their routing state; shards
// announce/retire at runtime by appearing in / vanishing from the next epoch's record.

inline constexpr const char* kRingRecordKey = "service/memcached/ring";

struct RingRecord {
  std::uint64_t epoch = 0;
  std::vector<ShardEndpoint> shards;
};

// Wire format: "<epoch>|a.b.c.d#svc,a.b.c.d#svc,...". ParseRingRecord returns false on any
// malformation (non-numeric epoch, bad endpoint, empty shard list) — a router NEVER adopts
// a record it can't fully parse (keep-last-good discipline, see ShardRouter::RefreshRing).
std::string EncodeRingRecord(const RingRecord& record);
bool ParseRingRecord(const std::string& record, RingRecord* out);

// Publishes the authoritative ring record through the frontend's GlobalIdMap.
Future<void> PublishRing(Runtime& runtime, Ipv4Addr frontend, const RingRecord& record);

// A consistent-hash ring's point hashes, sorted, with an index over their top bits:
// bucket b of the 2^k buckets holds the hashes whose top k bits are b, and starts[b] is its
// first point. k is chosen so there are more buckets than points, so Successor is one indexed
// load and a forward scan of about one point rather than a binary search.
class RingPoints {
 public:
  RingPoints() = default;
  explicit RingPoints(std::vector<std::uint64_t> sorted);

  // The first point clockwise from `hash`: the first one strictly above it, wrapping past
  // the top point to point 0 (std::upper_bound's answer, with the wrap).
  std::size_t Successor(std::uint64_t hash) const {
    std::size_t point = starts_[hash >> shift_];
    while (point < points_.size() && points_[point] <= hash) {
      ++point;
    }
    return point == points_.size() ? 0 : point;
  }

 private:
  std::vector<std::uint64_t> points_;
  std::vector<std::uint32_t> starts_ = {0, 0};
  unsigned shift_ = 63;  // 64 - k, k >= 1
};

class ShardRouter {
 public:
  struct GetResult {
    bool found = false;
    std::unique_ptr<IOBuf> value;  // zero-copy chain straight off the wire
  };

  struct Config {
    // Virtual points per shard smooth the ring (more points, better balance, slower build —
    // lookups stay O(1), see RingPoints).
    std::size_t vnodes_per_shard = 128;
    // R-way replication: each key maps to the first R DISTINCT shards clockwise from its
    // hash. Reads go to one replica and fail over along the set on transport errors; writes
    // go to every non-suspect replica (write-all / read-one).
    std::size_t replication = 2;
    // Per-op RPC deadline/retry contracts. Reads default to a single attempt — the router's
    // failover IS the retry, and re-sending to a dead replica only delays it.
    dist::CallOptions read_options{dist::kDefaultRpcDeadlineNs,
                                   dist::RetryPolicy{/*max_attempts=*/1}};
    dist::CallOptions write_options{};
    // Ring watcher period (virtual ns); 0 disables the periodic refresh (the router still
    // refreshes opportunistically whenever it marks a replica suspect).
    std::uint64_t ring_refresh_ns = 0;
    // Frontend serving GlobalIdMap; Any() (the default) disables ring refresh entirely.
    Ipv4Addr frontend = Ipv4Addr::Any();
  };

  // Failover/refresh observability. The router is per-core client state (one issuing core),
  // so these are plain counters.
  struct Stats {
    std::uint64_t failovers = 0;        // failed read RPCs re-routed to another replica
    std::uint64_t suspects_marked = 0;  // replica transitions healthy -> suspect
    std::uint64_t ring_swaps = 0;       // epochs adopted
    std::uint64_t stale_rings = 0;      // fetched records with epoch <= current (ignored)
    std::uint64_t malformed_rings = 0;  // fetched records that failed to parse (kept last good)
    std::uint64_t refresh_failures = 0; // ring fetches that errored (kept last good)
    std::uint64_t write_skips = 0;      // replica writes skipped because the target was suspect
  };

  // Static single-replica router over a fixed shard set (epoch 0) — the pre-ring behavior,
  // used by balance tests and benches that don't exercise failover.
  ShardRouter(Runtime& runtime, std::vector<ShardEndpoint> shards,
              std::size_t vnodes_per_shard = 128);
  // Replicated router over a versioned ring.
  ShardRouter(Runtime& runtime, RingRecord ring, Config config);
  // Fails every op still in flight exactly once with RpcPeerLost and re-issues nothing:
  // tearing the RPC clients down resolves their pending calls, and a closing router treats
  // those failures as final instead of failing over.
  ~ShardRouter();

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  // Key-routed operations: hash the key onto the ring, ship the op to that shard's service
  // over the Messenger. Ops issued inside one event cork per shard (a fanned-out round
  // leaves as at most one wire segment per shard touched).
  //
  // Miss vs. failure, both ops: a key absent from a healthy shard resolves found=false —
  // only a transport/shard error (connection lost, malformed reply, remote exception)
  // surfaces through the future as an exception. Transport errors (RpcTimeout /
  // RpcPeerLost) additionally drive failover: the replica is marked suspect, reads fail
  // over to the key's next replica, and the read's future only fails — with RpcPeerLost
  // "every replica of '<key>' failed", whatever the replicas' own errors were — when EVERY
  // replica has failed. Application-level errors from a shard propagate untouched — a
  // shard that answers wrongly is not a dead shard.
  //
  // Get is a one-key read on MultiGet's pooled batch (one replica choice, one failover
  // rule, one root span for every read), sent as a raw-key kShardOpGet RPC: the future's
  // state is its only allocation.
  Future<GetResult> Get(std::string_view key);
  // Write-all: the value goes to every non-suspect replica of the key (all of them when
  // every replica is suspect — total blindness must not wedge writes); skipped replicas
  // tick stats().write_skips. A transport failure marks the replica suspect and fails the
  // future (the caller decides whether a partially applied write is worth retrying). Like
  // MultiGet, it runs on pooled batch state: the future's state is its only allocation.
  Future<void> Set(std::string_view key, std::string_view value);

  // Bulk scatter-gather GET. Partitions `keys` per shard on the ring, ships EXACTLY ONE
  // kShardOpMultiGet RPC per shard touched (requests issued in one event cork per shard:
  // the whole fan-out leaves as at most one wire segment per shard), and joins the partial
  // replies zero-copy — each per-key value is a shared view carved out of its shard's
  // reply chain (IOBufQueue::Split), never memcpy'd — straight into request order.
  // Duplicate keys are answered per occurrence. Partial-failure policy: per-key misses are
  // found=false results; a shard group's transport error marks that replica suspect and
  // RE-ISSUES exactly that group's keys against their next replicas (the batch only fails
  // when some key runs out of replicas); application errors fail the whole batch. The first
  // error wins, reported only once every group has finished.
  //
  // Steady state allocates nothing but the returned future's state and result vector: the
  // op's keys, slot lists and per-shard completions live in a batch state recycled through
  // the router's pool.
  Future<std::vector<GetResult>> MultiGet(const std::vector<std::string_view>& keys);

  // Adopts `record` if its epoch is newer than the installed ring's: routing state is
  // RCU-swapped (in-flight ops drain against the ring snapshot they captured) and every
  // suspect mark is cleared — the new epoch is the operator's word on who's alive. Stale
  // (epoch <= current) and malformed records are rejected with a stat, keeping the last
  // good ring. Returns whether the ring was swapped.
  bool AdoptRing(const RingRecord& record);
  // Fetches the ring record from the frontend and AdoptRing()s it. Failures (absent key,
  // transport error, malformed record) leave the last good ring serving and tick stats.
  // At most one fetch is in flight at a time. No-op without a configured frontend.
  void RefreshRing();
  // Periodic RefreshRing driver (needs Config{ring_refresh_ns > 0, frontend}). The watcher
  // must be stopped — from the router's core — before a simulated world can drain; the
  // destructor also stops it.
  void StartRingWatcher();
  void StopRingWatcher();

  std::uint64_t ring_epoch() const { return ring_->epoch; }
  bool suspect(std::size_t shard) const { return suspect_[shard] != 0; }

  // Primary replica (first ring point clockwise). Reads may be served by any replica.
  std::size_t ShardFor(std::string_view key) const;
  std::size_t shard_count() const { return ring_->shards.size(); }

  const Stats& stats() const { return stats_; }
  // Shard RPCs issued and not yet resolved, summed over this router's clients.
  std::size_t pending_calls() const;

  // Per-shard request counters (routing balance), indexed into the CURRENT ring's shard
  // list (reset when a swap changes the shard set). The router is per-core client state
  // like the rest of the dispatch plane: one core issues through one router, so these are
  // plain counters — give each issuing core its own router to fan out from many cores.
  const std::vector<std::uint64_t>& per_shard_ops() const { return per_shard_ops_; }
  // max/mean - 1 over per_shard_ops (0 == perfectly balanced).
  double Imbalance() const;

 private:
  // A key's replica set: up to kMaxShards distinct shard indices, inline (no allocation).
  struct ReplicaSet {
    std::array<std::uint8_t, kMaxShards> shards{};
    std::size_t size = 0;
    const std::uint8_t* begin() const { return shards.data(); }
    const std::uint8_t* end() const { return shards.data() + size; }
    std::uint8_t* begin() { return shards.data(); }
    std::uint8_t* end() { return shards.data() + size; }
  };

  // One immutable routing snapshot per epoch, RCU-published through `ring_`: ops capture
  // the shared_ptr once and use that snapshot end-to-end, so a concurrent AdoptRing never
  // yanks state out from under an in-flight failover chain (the old Ring lives until its
  // last op drains — the read-side discipline, with shared_ptr as the grace period).
  struct Ring {
    std::uint64_t epoch = 0;
    std::vector<ShardEndpoint> shards;
    RingPoints points;
    // For each ring point, the first `width` DISTINCT shards clockwise from it (width =
    // min(replication, shards)), precomputed so a lookup is one Successor and a copy.
    std::vector<std::uint8_t> replicas;
    std::size_t width = 0;

    // The key's replica set: first min(r, width) DISTINCT shards clockwise from `hash`.
    ReplicaSet ReplicasFor(std::uint64_t hash, std::size_t r) const;
  };

  struct Batch;
  // One shard RPC of a batch, and its completion target: a read group carries the slots
  // [begin, begin + count) of the batch's `order` list; a Set group carries none.
  struct Group final : dist::RpcCompletion {
    Batch* batch = nullptr;
    std::uint32_t shard = 0;
    std::uint32_t begin = 0;
    std::uint32_t count = 0;
    void OnResponse(dist::RpcResponse response) override;
    void OnFailure(std::exception_ptr error) override;
  };
  // One read key's bytes within its batch's arena.
  struct KeySpan {
    std::uint64_t hash;
    std::uint32_t offset;
    std::uint32_t length;
  };
  // Per-op state of a Get, MultiGet or Set, recycled through the router's pool (every vector
  // keeps its capacity). `outstanding` counts groups in flight plus one hold while a
  // scatter issues; the op finishes when it reaches zero.
  struct Batch {
    ShardRouter* router = nullptr;
    std::shared_ptr<const Ring> ring;
    // The op's kLocal root span: every shard RPC of the op, failover re-issues included,
    // is issued under it and so parents into it.
    obs::Span span;
    std::uint16_t opcode = 0;
    std::uint32_t excluded = 0;  // shards that failed THIS batch (bit per ring index)
    std::size_t outstanding = 0;
    std::exception_ptr error;    // first error observed
    std::vector<char> arena;     // key bytes (reads): owned, so re-issues outlive the caller
    std::vector<KeySpan> keys;   // request order
    GetResult result;            // a Get's answer
    std::vector<GetResult> results;  // a MultiGet's answers in request order (the caller's)
    // Slot lists grouped by shard: the first keys.size() entries are the request order,
    // then each scatter appends its slots sorted by chosen shard (a counting sort).
    std::vector<std::uint32_t> order;
    std::vector<std::uint8_t> chosen;  // scatter scratch: each slot's shard
    std::vector<std::unique_ptr<Group>> groups;  // stable: clients hold Group* completions
    std::size_t groups_used = 0;
    std::optional<Promise<GetResult>> get_done;
    std::optional<Promise<std::vector<GetResult>>> multiget_done;
    std::optional<Promise<void>> set_done;

    std::string_view Key(std::uint32_t slot) const {
      return {arena.data() + keys[slot].offset, keys[slot].length};
    }
  };

  static std::shared_ptr<const Ring> BuildRing(const RingRecord& record,
                                               std::size_t vnodes_per_shard,
                                               std::size_t replication);
  bool Suspect(std::uint32_t shard) const {
    return shard < suspect_.size() && suspect_[shard] != 0;
  }
  dist::RpcClient* ClientFor(const ShardEndpoint& endpoint);
  void MarkSuspect(const std::shared_ptr<const Ring>& ring, std::uint32_t shard);

  Batch& AcquireBatch(std::uint16_t opcode);
  Group& NewGroup(Batch& batch, std::uint32_t shard);
  // Copies a read's keys into the batch, scatters them all, and drops the issuing hold.
  void Read(Batch& batch, std::span<const std::string_view> keys);
  // Routes order[begin, begin + count) to each slot's first replica not excluded from the
  // batch (non-suspect first) and issues one RPC per shard chosen: kShardOpMultiGet, or a
  // Get batch's raw-key kShardOpGet. When some key has no replica left, records the batch
  // error, issues nothing and returns false.
  bool Scatter(Batch& batch, std::size_t begin, std::size_t count);
  // Drops one `outstanding` reference; the last one returns the batch to the pool and then
  // resolves the op (the caller's continuation usually issues the next op at once).
  void Done(Batch& batch);
  void Recycle(Batch& batch);

  Runtime& runtime_;
  Config config_;
  std::shared_ptr<const Ring> ring_;
  // Suspect flags parallel to ring_->shards (plain bytes: single issuing core). Cleared
  // whole on every ring swap.
  std::vector<char> suspect_;
  // Clients persist across ring swaps keyed by service id (a shard that stays through an
  // epoch change keeps its connection and pending calls).
  std::unordered_map<EbbId, std::unique_ptr<dist::RpcClient>> clients_;
  std::vector<std::uint64_t> per_shard_ops_;
  Stats stats_;
  std::uint64_t watcher_timer_ = 0;
  bool refresh_inflight_ = false;
  bool closing_ = false;  // set by the destructor: failures are final, nothing re-issues
  // The batch pool: every batch ever made (owned), and the ones not in flight.
  std::vector<std::unique_ptr<Batch>> batches_;
  std::vector<Batch*> free_batches_;
  // Re-homes the router's failover stats and its RpcClients' fault counters (timeouts,
  // retries, late drops, peer failures) into the machine's metric registry as a pull-style
  // collector — sampled at snapshot time only, removed in the destructor.
  std::uint64_t obs_collector_ = 0;
};

// --- kShardOpMultiGet reply marshaling --------------------------------------------------------
// Exposed (rather than buried in the service/router) so both ends and the zero-copy tests
// share one wire definition.

// Builds the reply chain record by record: per entry one status word, then the value bytes
// when the item is non-null (null = miss). Small values go by copy, large ones by reference
// (Linux NICs' rx_copybreak): status words and every value of at most kCopyBreak bytes
// are copied into the open tail buffer, one GP slab block of kTailCapacity bytes, and a new
// one opens when a record does not fit. A larger value is linked as a MakeValueBuffer view
// that pins its item, and the next record opens a fresh tail buffer. ETC values average
// about 300 B: a descriptor, a control block and an item reference per value, each cloned
// per TCP segment and freed later, cost more than copying the bytes. A copied value takes
// no reference: the item only has to stay valid for the Add call, which the caller's RCU
// read side guarantees. The wire bytes are the same whichever way a value goes.
class MultiGetReplyBuilder {
 public:
  // Of 256, 512 and 1024 B, 1024 measured fastest on sharded_multiget (host ns/op; 512 was
  // 6% and 256 10% slower). ETC values there are clamped to 1 KiB, so that workload copies
  // every value; values past the clamp still go by reference.
  static constexpr std::size_t kCopyBreak = 1024;
  // 64-byte storage header + 2880 data bytes: a 3 KiB-class slab block.
  static constexpr std::size_t kTailCapacity = 2880;

  void Add(const Item* item);
  std::unique_ptr<IOBuf> Finish() {
    tail_ = nullptr;
    open_ = nullptr;
    return std::move(head_);
  }

 private:
  // `len` writable bytes at the end of the open tail buffer, opening one if it lacks room.
  std::uint8_t* Reserve(std::size_t len);
  void Link(std::unique_ptr<IOBuf> buf);

  std::unique_ptr<IOBuf> head_;
  IOBuf* tail_ = nullptr;  // last element of the chain
  IOBuf* open_ = nullptr;  // tail buffer taking copies; null once a referenced value follows it
};

// Parses a received reply chain of `count` records, writing record j into
// results[slots[j]] (the request-order slot of the j-th key sent). Zero-copy: status words
// are chain-copied out (scalars), value bytes are Split off as shared views of the reply
// chain's storage. False on a truncated/malformed reply (too few records, short value,
// trailing bytes); slots already written then hold partial results.
bool ParseMultiGetReply(std::unique_ptr<IOBuf> body, const std::uint32_t* slots,
                        std::size_t count, ShardRouter::GetResult* results);

}  // namespace memcached
}  // namespace ebbrt

#endif  // EBBRT_SRC_APPS_MEMCACHED_SHARD_H_
