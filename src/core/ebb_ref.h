// EbbRef<T> — the typed handle used to invoke an Elastic Building Block.
//
// The paper (§3.3): "An EbbId provides an offset into a virtual memory region backed with
// distinct per-core pages which holds a pointer to the per-core representative... When a
// function is called on an EbbRef, it checks the per-core representative pointer — in the
// common case where it is non-null, it is dereferenced and the call is made... If the pointer
// is null, then a type specific fault handler is invoked."
//
// Our per-core "virtual memory region" is a flat per-core array reached through one TLS load;
// the fast path is exactly one predictable conditional branch over a plain pointer call, and
// because EbbRef is templated by the representative type, calls dispatch statically and can be
// inlined by the compiler (Table 1 measures this). Hosted runtimes install an always-null
// table, so every invocation there faults into the type's handler, which consults a per-core
// hash map — reproducing the paper's ~19x hosted dispatch cost.
#ifndef EBBRT_SRC_CORE_EBB_REF_H_
#define EBBRT_SRC_CORE_EBB_REF_H_

#include "src/core/ebb_id.h"
#include "src/platform/context.h"

namespace ebbrt {

template <typename T>
class EbbRef {
 public:
  constexpr EbbRef() : id_(kNullEbbId) {}
  constexpr explicit EbbRef(EbbId id) : id_(id) {}

  T* operator->() const { return &GetRep(); }
  T& operator*() const { return GetRep(); }

  T& GetRep() const {
    void* rep = context_internal::local_ebb_table[id_];
    if (__builtin_expect(rep != nullptr, true)) {
      return *static_cast<T*>(rep);
    }
    // Miss path: the type's fault handler returns this core's representative and caches it
    // (ebb_internal::FaultIn, src/core/multicore_ebb.h), so later calls take the fast path.
    return T::HandleFault(id_);
  }

  constexpr EbbId id() const { return id_; }
  constexpr explicit operator bool() const { return id_ != kNullEbbId; }

  friend constexpr bool operator==(const EbbRef& a, const EbbRef& b) { return a.id_ == b.id_; }

 private:
  EbbId id_;
};

}  // namespace ebbrt

#endif  // EBBRT_SRC_CORE_EBB_REF_H_
