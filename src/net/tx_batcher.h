// TxBatcher — event-scoped TX send aggregation (the paper's §5 argument, built in).
//
// EbbRT's TCP is deliberately Nagle-free: Send() puts segments on the wire immediately, and
// aggregation is the application's decision. A run-to-completion server, though, produces its
// aggregation opportunity *structurally*: every response generated while handling one device
// event (a pipelined request burst parsed from one segment) is known to be ready by the time
// that event ends. The TxBatcher exploits exactly that boundary — no timers, no heuristic
// delay, no added latency:
//
//   * A connection opts in with TcpPcb::SetAutoCork(true). Its Send() calls append to a
//     per-connection cork chain instead of emitting a segment each.
//   * The first corked send of an event enrolls the connection here; the batcher queues ONE
//     EventManager end-of-event hook for the dispatch in progress.
//   * When the handler returns control to the loop, the hook flushes every enrolled
//     connection once: the cork chain goes through the normal segmenting path, so k small
//     writes leave as ceil(bytes/MSS) wire segments instead of k.
//
// One batcher per (machine, core): enrollment and flush both run on the connection's owner
// core, so there is no synchronization anywhere — the pending list is plain core-local state.
// The batcher holds shared_ptr references to enrolled entries, so a connection torn down
// between enrollment and flush is still safe to inspect; FlushCorked then *drops* its corked
// chain rather than transmitting into a dead connection.
#ifndef EBBRT_SRC_NET_TX_BATCHER_H_
#define EBBRT_SRC_NET_TX_BATCHER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/net/tcp.h"

namespace ebbrt {

class TxBatcher {
 public:
  explicit TxBatcher(TcpManager& tcp) : tcp_(tcp) {}

  TxBatcher(const TxBatcher&) = delete;
  TxBatcher& operator=(const TxBatcher&) = delete;

  // Registers `entry` for the event-boundary flush (idempotent per event). Called by
  // TcpPcb::Send on the entry's owner core, from within the dispatching event.
  void Enroll(std::shared_ptr<TcpEntry> entry);

  // The end-of-event hook body: flushes every enrolled connection exactly once.
  void Flush();

  // Observability for the flush-once-per-event invariant.
  std::uint64_t flushes() const { return flushes_; }
  std::uint64_t enrollments() const { return enrollments_; }

 private:
  TcpManager& tcp_;
  std::vector<std::shared_ptr<TcpEntry>> pending_;
  std::vector<std::shared_ptr<TcpEntry>> spare_;  // the previous flush's emptied batch
  bool hook_queued_ = false;
  std::uint64_t flushes_ = 0;
  std::uint64_t enrollments_ = 0;
};

}  // namespace ebbrt

#endif  // EBBRT_SRC_NET_TX_BATCHER_H_
