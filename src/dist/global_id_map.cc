#include "src/dist/global_id_map.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "src/event/timer.h"

namespace ebbrt {
namespace dist {

namespace {

// The hosted representative: the map and the id-block authority.
class GlobalIdMapServer final : public RpcServer {
 public:
  explicit GlobalIdMapServer(Runtime& runtime) : RpcServer(runtime, kGlobalIdMapId) {}

 private:
  void HandleCall(Ipv4Addr from, std::uint64_t request_id, std::uint16_t opcode,
                  std::uint32_t aux, std::unique_ptr<IOBuf> body) override {
    switch (static_cast<GlobalIdMap::Opcode>(opcode)) {
      case GlobalIdMap::kSet: {
        std::string raw = ChainToString(body.get());
        std::string_view key;
        std::string_view value;
        if (!ParseLenPrefixedBody(raw, &key, &value)) {
          ReplyError(from, request_id, "GlobalIdMap::Set: malformed request");
          return;
        }
        {
          // HandleCall runs on whichever core owns the inbound connection; two clients'
          // connections RSS-steer to different frontend cores, so the authority state is
          // locked (a name lookup is not a datapath).
          std::lock_guard<std::mutex> lock(mu_);
          map_[std::string(key)] = std::string(value);
        }
        Reply(from, request_id, 0, nullptr);
        return;
      }
      case GlobalIdMap::kGet: {
        std::string key = ChainToString(body.get());
        bool found = false;
        std::string value;
        {
          std::lock_guard<std::mutex> lock(mu_);
          auto it = map_.find(key);
          if (it != map_.end()) {
            found = true;
            value = it->second;
          }
        }
        if (!found) {
          ReplyError(from, request_id, "GlobalIdMap::Get: no such key: " + key);
          return;
        }
        Reply(from, request_id, 0, IOBuf::CopyBuffer(value));
        return;
      }
      case GlobalIdMap::kAllocateIdBlock: {
        EbbId count = aux;
        if (count == 0) {
          ReplyError(from, request_id, "GlobalIdMap::AllocateIdBlock: zero count");
          return;
        }
        EbbId first;
        {
          std::lock_guard<std::mutex> lock(mu_);
          // Blocks must stay below the fast-path translation bound (the promise in the
          // header): a block crossing kMaxFastEbbIds would install ids the per-core flat
          // tables cannot hold, aborting the installing machine on first use. `count` is
          // a remote input — bound it, don't trust it.
          if (count > kMaxFastEbbIds - next_block_) {
            first = kNullEbbId;
          } else {
            first = next_block_;
            next_block_ += count;
          }
        }
        if (first == kNullEbbId) {
          ReplyError(from, request_id,
                     "GlobalIdMap::AllocateIdBlock: global id space exhausted");
          return;
        }
        Reply(from, request_id, first, nullptr);
        return;
      }
    }
    ReplyError(from, request_id, "GlobalIdMap: unknown opcode");
  }

  std::mutex mu_;  // serializes the authority state across the frontend's cores
  std::unordered_map<std::string, std::string> map_;
  EbbId next_block_ = kGlobalIdBlockBase;
};

}  // namespace

GlobalIdMap::GlobalIdMap(Runtime& runtime, Ipv4Addr frontend)
    : client_(runtime, kGlobalIdMapId, frontend) {}

GlobalIdMap& GlobalIdMap::For(Runtime& runtime, Ipv4Addr frontend) {
  GlobalIdMap& map = runtime.GetOrCreateSubsystem<GlobalIdMap>(
      Subsystem::kGlobalIdMap, [&] { return std::make_shared<GlobalIdMap>(runtime, frontend); });
  // The frontend binding is fixed at first use; a different address later would silently
  // resolve names against the wrong authority — fail fast instead.
  Kassert(map.client_.server() == frontend, "GlobalIdMap::For: frontend already bound");
  return map;
}

void GlobalIdMap::ServeOn(Runtime& runtime) {
  Kassert(runtime.hosted(),
          "GlobalIdMap::ServeOn: the naming authority runs on the hosted frontend");
  runtime.Adopt(std::make_shared<GlobalIdMapServer>(runtime));
}

Future<void> GlobalIdMap::Set(std::string key, std::string value) {
  return client_.Call(kSet, 0, BuildLenPrefixedBody(key, value))
      .Then([](Future<RpcClient::Response> f) { f.Get(); });
}

Future<std::string> GlobalIdMap::Get(std::string key) {
  return client_.Call(kGet, 0, IOBuf::CopyBuffer(key))
      .Then([](Future<RpcClient::Response> f) { return ChainToString(f.Get().body.get()); });
}

Future<std::string> GlobalIdMap::GetWithRetry(std::string key, RetryPolicy policy) {
  struct Retry {
    GlobalIdMap* map = nullptr;
    std::string key;
    RetryPolicy policy;
    Promise<std::string> done;
    std::function<void(int, std::uint64_t)> attempt_fn;
  };
  auto state = std::make_shared<Retry>();
  state->map = this;
  state->key = std::move(key);
  state->policy = policy;
  Future<std::string> result = state->done.GetFuture();
  state->attempt_fn = [state](int attempt, std::uint64_t backoff_ns) {
    state->map->Get(state->key).Then([state, attempt, backoff_ns](Future<std::string> f) {
      std::string value;
      try {
        value = f.Get();
      } catch (const std::runtime_error& e) {
        // Retry ONLY the lookup-miss error, and only while event machinery exists. Any
        // other failure — notably "rpc: client torn down", which the client destructor
        // raises INLINE through this continuation during machine teardown — must
        // propagate immediately: arming a Timer from a dying machine (or for an error
        // that will never heal) would crash or spin instead of failing cleanly.
        bool missing_key = std::string_view(e.what()).find("no such key") !=
                           std::string_view::npos;
        if (!missing_key || !HaveContext() || attempt >= state->policy.max_attempts) {
          state->done.SetException(
              !missing_key
                  ? std::current_exception()
                  : std::make_exception_ptr(std::runtime_error(
                        "GlobalIdMap::GetWithRetry: " + state->key +
                        " not registered after " + std::to_string(attempt) +
                        " lookups (last error: " + e.what() + ")")));
          state->attempt_fn = nullptr;  // break the self-capture cycle
          return;
        }
        std::uint64_t next_backoff = state->policy.NextBackoff(backoff_ns);
        Timer::Instance()->Start(backoff_ns, [state, attempt, next_backoff] {
          state->attempt_fn(attempt + 1, next_backoff);
        });
        return;
      }
      state->done.SetValue(std::move(value));
      state->attempt_fn = nullptr;
    });
  };
  state->attempt_fn(1, policy.initial_backoff_ns);
  return result;
}

Future<EbbId> GlobalIdMap::AllocateIdBlock(EbbId count) {
  return client_.Call(kAllocateIdBlock, count, nullptr)
      .Then([](Future<RpcClient::Response> f) { return f.Get().aux; });
}

}  // namespace dist
}  // namespace ebbrt
