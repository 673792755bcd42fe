#include "src/platform/context.h"

#include <array>
#include <cstring>
#include <mutex>

namespace ebbrt {
namespace context_internal {

constinit thread_local void** local_ebb_table = nullptr;
constinit thread_local Context current;
void* const all_null_table[kMaxFastEbbIds] = {};

namespace {
// Lazily-allocated per-core tables. Allocation is control-plane (machine bring-up) so a mutex
// is fine; the data-plane only reads the returned pointer.
std::array<void**, kMaxCores> tables = {};
std::mutex tables_mu;
}  // namespace

void** CoreEbbTable(std::size_t core) {
  Kassert(core < kMaxCores, "CoreEbbTable: core out of range");
  std::lock_guard<std::mutex> lock(tables_mu);
  if (tables[core] == nullptr) {
    tables[core] = new void*[kMaxFastEbbIds]();
  }
  return tables[core];
}

}  // namespace context_internal

void InstallContext(const Context& ctx, bool hosted) {
  context_internal::current = ctx;
  if (ctx.runtime == nullptr) {
    context_internal::local_ebb_table = nullptr;
    return;
  }
  if (hosted) {
    context_internal::local_ebb_table =
        const_cast<void**>(context_internal::all_null_table);
  } else {
    context_internal::local_ebb_table = context_internal::CoreEbbTable(ctx.core);
  }
}

ScopedContext::ScopedContext(Runtime& runtime, std::size_t core, std::size_t machine_core,
                             bool hosted) {
  saved_ = context_internal::current;
  saved_table_ = context_internal::local_ebb_table;
  Context ctx;
  ctx.runtime = &runtime;
  ctx.core = core;
  ctx.machine_core = machine_core;
  InstallContext(ctx, hosted);
}

ScopedContext::~ScopedContext() {
  context_internal::current = saved_;
  context_internal::local_ebb_table = saved_table_;
}

}  // namespace ebbrt
