// EbbId — the system-wide 32-bit name of an Elastic Building Block instance.
//
// Ids below kFirstFreeId are statically assigned to the runtime's core Ebbs so that boot-time
// components (memory allocator, event manager) can be invoked before any allocator exists —
// the same bootstrapping trick the native EbbRT kernel uses.
#ifndef EBBRT_SRC_CORE_EBB_ID_H_
#define EBBRT_SRC_CORE_EBB_ID_H_

#include <cstdint>

namespace ebbrt {

using EbbId = std::uint32_t;

inline constexpr EbbId kNullEbbId = 0;

// Static ids for the default runtime Ebbs (paper §3.1: "Every EbbRT library OS must be
// deployed with some implementation of these Ebbs").
enum StaticEbbIds : EbbId {
  kEbbManagerId = 1,          // EbbAllocator
  kEventManagerId = 2,        // per-core event loops
  kTimerId = 3,               // timeout dispatch
  kPageAllocatorId = 4,       // buddy allocator
  kSlabRootId = 5,            // slab allocator root directory
  kGeneralPurposeAllocatorId = 6,
  kVMemAllocatorId = 7,       // virtual-region allocator with app fault handlers
  kNetworkManagerId = 8,      // interfaces + protocol dispatch
  kMessengerId = 9,           // inter-machine typed messaging
  kGlobalIdMapId = 10,        // distributed naming
  kFileSystemId = 11,         // offloaded to the hosted instance
  kRcuManagerId = 12,         // epoch tracking
  kNodeAllocatorId = 13,      // machine bring-up bookkeeping
  kFirstStaticUserId = 32,    // first id tests/examples may claim statically
  kFirstFreeId = 0x100,       // first dynamically allocated id
};

}  // namespace ebbrt

#endif  // EBBRT_SRC_CORE_EBB_ID_H_
