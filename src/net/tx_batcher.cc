#include "src/net/tx_batcher.h"

#include <utility>

#include "src/event/event_manager.h"

namespace ebbrt {

void TxBatcher::Enroll(std::shared_ptr<TcpEntry> entry) {
  Kassert(CurrentContext().machine_core == entry->owner_core, "TxBatcher: wrong core");
  if (entry->batcher_enrolled) {
    return;
  }
  entry->batcher_enrolled = true;
  pending_.push_back(std::move(entry));
  if (!hook_queued_) {
    hook_queued_ = true;
    event::Local().QueueEndOfEvent([this] { Flush(); });
  }
}

void TxBatcher::Flush() {
  hook_queued_ = false;
  // Swap out the batch: FlushCorked can run application-visible paths (a deferred Close's
  // FIN) that might Send again; those re-enroll into a fresh list and get their own hook
  // (drained in the same event-boundary pass by the EventManager). The two vectors trade
  // roles each flush, so their capacity is reused and steady state allocates nothing.
  std::vector<std::shared_ptr<TcpEntry>> batch = std::move(spare_);
  batch.swap(pending_);
  for (std::shared_ptr<TcpEntry>& entry : batch) {
    entry->batcher_enrolled = false;
    tcp_.FlushCorked(*entry);
  }
  batch.clear();
  spare_ = std::move(batch);
}

}  // namespace ebbrt
