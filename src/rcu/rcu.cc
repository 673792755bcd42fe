#include "src/rcu/rcu.h"

#include <memory>
#include <new>
#include <utility>

#include "src/event/event_manager.h"
#include "src/event/interconnect.h"
#include "src/mem/gp_allocator.h"

namespace ebbrt {

// One queued callback. Carved from the per-core allocator (heap fallback outside a machine
// context) and linked intrusively into its core's batch, so the datapath cost of deferring
// a reclamation is one slab pop — never a generic-heap allocation, never a vector growth.
// The MoveFunction's own small buffer holds the typical capture (a victim pointer) inline.
struct RcuManagerRoot::CallbackNode {
  explicit CallbackNode(MoveFunction<void()> f) : fn(std::move(f)) {}

  static CallbackNode* New(MoveFunction<void()> fn) {
    void* p = mem::AllocRouted(sizeof(CallbackNode));
    return new (p) CallbackNode(std::move(fn));
  }
  static void Delete(CallbackNode* node) {
    node->~CallbackNode();
    mem::FreeRouted(node);
  }

  MoveFunction<void()> fn;
  CallbackNode* next = nullptr;
};

// One grace period in flight: the coalesced callback batch plus one embedded interconnect
// marker per core — a single slab-carved block per (core, event boundary), however many
// callbacks the event issued (markers trail the struct in the same allocation). A marker
// firing on its core's dispatch loop IS that core's event boundary; the last core to fire
// runs the batch (FIFO, so an erase's reclamation precedes a later-queued check) and frees
// the epoch. FreeRouted routes the block home from whichever core completes the grace
// period — the same cross-core free discipline the item blocks themselves ride.
struct RcuManagerRoot::Epoch {
  struct Marker final : InterconnectNode {
    void Fire(EventManager&) override { epoch->Complete(); }
    // Teardown drain: no event loops remain, so no reader can still hold a reference —
    // completing (rather than dropping) the epoch lets pending reclamations run instead of
    // leaking.
    void Discard() override { epoch->Complete(); }
    Epoch* epoch = nullptr;
  };

  static Epoch* New(std::size_t cores, CallbackNode* head) {
    static_assert(alignof(Epoch) >= alignof(Marker), "markers trail the Epoch in one block");
    void* p = mem::AllocRouted(sizeof(Epoch) + cores * sizeof(Marker));
    auto* epoch = new (p) Epoch;
    epoch->remaining.store(cores, std::memory_order_relaxed);
    epoch->head = head;
    epoch->cores = cores;
    live_epochs_.fetch_add(1, std::memory_order_relaxed);
    for (std::size_t i = 0; i < cores; ++i) {
      Marker* m = new (epoch->markers() + i) Marker;
      m->epoch = epoch;
    }
    return epoch;
  }

  Marker* markers() { return reinterpret_cast<Marker*>(this + 1); }

  void Complete() {
    if (remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      CallbackNode* node = head;
      while (node != nullptr) {
        CallbackNode* next = node->next;
        node->fn();
        CallbackNode::Delete(node);
        node = next;
      }
      std::size_t n = cores;
      for (std::size_t i = 0; i < n; ++i) {
        markers()[i].~Marker();
      }
      this->~Epoch();
      mem::FreeRouted(this);
      live_epochs_.fetch_sub(1, std::memory_order_relaxed);
    }
  }

  std::atomic<std::size_t> remaining{0};
  CallbackNode* head = nullptr;
  std::size_t cores = 0;
};

void RcuManagerRoot::CallRcu(MoveFunction<void()> fn) {
  auto* em_root = runtime_.TryGetSubsystem<EventManagerRoot>(Subsystem::kEventManager);
  if (em_root == nullptr || em_root->num_cores() == 0) {
    // No event loops: no concurrent event-borne readers exist, run immediately.
    fn();
    return;
  }
  callbacks_.fetch_add(1, std::memory_order_relaxed);
  if (HaveContext() && CurrentContext().runtime == &runtime_) {
    std::size_t core = CurrentContext().machine_core;
    if (core < em_root->num_cores()) {
      EventManager& rep = em_root->RepFor(core);
      if (rep.dispatching_event()) {
        // Inside an event on this machine: join (or open) this event's batch. One epoch per
        // (core, boundary) replaces one broadcast per callback.
        CoreBatch& batch = batches_[core];
        if (batch.hook_armed) {
          coalesced_.fetch_add(1, std::memory_order_relaxed);
        } else {
          batch.hook_armed = true;
          rep.QueueEndOfEvent([this, &batch, em_root] {
            batch.hook_armed = false;
            CallbackNode* head = batch.head;
            batch.head = nullptr;
            batch.tail = nullptr;
            StartEpoch(head, *em_root);
          });
        }
        CallbackNode* node = CallbackNode::New(std::move(fn));
        if (batch.tail != nullptr) {
          batch.tail->next = node;
        } else {
          batch.head = node;
        }
        batch.tail = node;
        return;
      }
    }
  }
  // Not inside an event (world action, loop-stack hook, bring-up): broadcast right away.
  StartEpoch(CallbackNode::New(std::move(fn)), *em_root);
}

void RcuManagerRoot::StartEpoch(CallbackNode* head, EventManagerRoot& em_root) {
  if (head == nullptr) {
    return;
  }
  std::size_t cores = em_root.num_cores();
  Epoch* epoch = Epoch::New(cores, head);
  epochs_.fetch_add(1, std::memory_order_relaxed);
  // The issuing core's marker must not overtake events it already queued locally (they ride
  // the local synthetic queue, which drains after the interconnect): send it through Spawn so
  // it lines up behind them. Everyone else gets the embedded node on the lock-free mesh —
  // it fires on their loop, i.e. at their next event boundary.
  std::size_t self = cores;  // sentinel: no self rep
  if (HaveContext() && CurrentContext().runtime == &runtime_ &&
      CurrentContext().machine_core < cores) {
    self = CurrentContext().machine_core;
  }
  for (std::size_t core = 0; core < cores; ++core) {
    if (core == self) {
      em_root.RepFor(core).Spawn([epoch] { epoch->Complete(); });
    } else {
      em_root.interconnect().Push(core, &epoch->markers()[core]);
    }
  }
}

RcuManagerRoot& RcuManagerRoot::For(Runtime& runtime) {
  return runtime.GetOrCreateSubsystem<RcuManagerRoot>(
      Subsystem::kRcuManager, [&] { return std::make_shared<RcuManagerRoot>(runtime); });
}

}  // namespace ebbrt
