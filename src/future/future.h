// Monadic futures (paper §3.5).
//
// EbbRT's futures differ from std::future in exactly the ways the paper calls out:
//
//   * `Then(f)` chains a continuation and returns a new future for f's result (monadic bind);
//     when f itself returns a Future<U>, the result flattens to Future<U>.
//   * When the value is already available, `Then` runs the continuation *synchronously* — the
//     ARP-cache-hit path in Figure 2 never bounces through the event loop.
//   * Exceptions flow: `Get()` rethrows a stored exception; a continuation that does not catch
//     leaves the exception in the returned future, so only the *final* `Then` must handle
//     errors, mirroring synchronous try/catch structure.
//
// The state word + continuation install/fire handshake is the "sometimes subtle
// synchronization code" the paper centralizes here: SetValue and Then may race from different
// cores. One atomic state word decides the race. The setter publishes its outcome with one
// exchange and runs the continuation if it finds one installed; Then installs the continuation
// with one compare-exchange from pending and runs it itself if the outcome was already there.
#ifndef EBBRT_SRC_FUTURE_FUTURE_H_
#define EBBRT_SRC_FUTURE_FUTURE_H_

#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "src/platform/debug.h"
#include "src/platform/move_function.h"

namespace ebbrt {

template <typename T>
class Future;
template <typename T>
class Promise;

namespace future_internal {

template <typename T>
struct Flatten {
  using type = T;
};
template <typename T>
struct Flatten<Future<T>> {
  using type = typename Flatten<T>::type;
};

template <typename T>
using flatten_t = typename Flatten<T>::type;

template <typename T>
struct IsFuture : std::false_type {};
template <typename T>
struct IsFuture<Future<T>> : std::true_type {};

template <typename T>
class SharedState {
 public:
  using Continuation = MoveFunction<void()>;

  template <typename... Args>
  void SetValue(Args&&... args) {
    value_.emplace(std::forward<Args>(args)...);
    Resolve(kReady);
  }

  void SetException(std::exception_ptr eptr) {
    exception_ = std::move(eptr);
    Resolve(kFailed);
  }

  // Installs `cont` to run when the state resolves; runs it immediately (synchronously, on
  // this core) if it already has.
  void SetContinuation(Continuation cont) {
    std::uint8_t state = state_.load(std::memory_order_acquire);
    Kassert(state != kWaiting, "Future: Then called twice");
    if (state == kPending) {
      continuation_ = std::move(cont);
      // Release publishes continuation_ to the setter; on failure, acquire sees its outcome.
      if (state_.compare_exchange_strong(state, kWaiting, std::memory_order_acq_rel)) {
        return;
      }
      cont = std::move(continuation_);
    }
    cont();
  }

  bool Ready() const { return state_.load(std::memory_order_acquire) >= kReady; }

  // Pre: ready. Moves the value out / rethrows the failure.
  T Take() {
    std::uint8_t state = state_.load(std::memory_order_acquire);
    Kassert(state >= kReady, "Future: Get before ready");
    if (state == kFailed) {
      std::rethrow_exception(exception_);
    }
    if constexpr (!std::is_void_v<T>) {
      return std::move(*value_);
    }
  }

 private:
  static constexpr std::uint8_t kPending = 0;
  static constexpr std::uint8_t kWaiting = 1;  // pending, continuation installed
  static constexpr std::uint8_t kReady = 2;
  static constexpr std::uint8_t kFailed = 3;

  // Publishes the outcome written just before (release) and, if Then got there first, takes
  // its continuation (acquire) and runs it. The continuation holds a reference to this state,
  // so it is moved out and dies after running instead of keeping the state alive.
  void Resolve(std::uint8_t outcome) {
    std::uint8_t old = state_.exchange(outcome, std::memory_order_acq_rel);
    Kassert(old < kReady, "Future: value set twice");
    if (old == kWaiting) {
      Continuation cont = std::move(continuation_);
      cont();
    }
  }

  std::atomic<std::uint8_t> state_{kPending};
  std::optional<std::conditional_t<std::is_void_v<T>, std::monostate, T>> value_;
  std::exception_ptr exception_;
  Continuation continuation_;
};

// Fulfills `promise` with the result of the nullary `g`, unwrapping a returned future and
// capturing a thrown exception.
template <typename G>
void FulfillWith(Promise<flatten_t<std::invoke_result_t<G&>>> promise, G&& g) {
  using R = std::invoke_result_t<G&>;
  try {
    if constexpr (IsFuture<R>::value) {
      g().Then([promise = std::move(promise)](R done) mutable {
        FulfillWith(std::move(promise), [&done] { return done.Get(); });
      });
    } else if constexpr (std::is_void_v<R>) {
      g();
      promise.SetValue();
    } else {
      promise.SetValue(g());
    }
  } catch (...) {
    promise.SetException(std::current_exception());
  }
}

}  // namespace future_internal

template <typename T>
class Promise {
 public:
  Promise() : state_(std::make_shared<future_internal::SharedState<T>>()) {}

  Future<T> GetFuture();

  template <typename... Args>
  void SetValue(Args&&... args) {
    state_->SetValue(std::forward<Args>(args)...);
  }

  void SetException(std::exception_ptr eptr) { state_->SetException(std::move(eptr)); }

 private:
  std::shared_ptr<future_internal::SharedState<T>> state_;
};

template <typename T>
class Future {
 public:
  using ValueType = T;

  Future() = default;
  explicit Future(std::shared_ptr<future_internal::SharedState<T>> state)
      : state_(std::move(state)) {}

  Future(Future&&) noexcept = default;
  Future& operator=(Future&&) noexcept = default;
  Future(const Future&) = delete;
  Future& operator=(const Future&) = delete;

  bool Valid() const { return state_ != nullptr; }
  bool Ready() const { return state_ && state_->Ready(); }

  // Pre: Ready(). Moves the value out or rethrows the stored exception. A continuation passed
  // to Then receives a fulfilled future and calls Get() on it (Figure 2 line 9).
  T Get() {
    Kassert(state_ != nullptr, "Future: Get on invalid future");
    return state_->Take();
  }

  // Monadic bind. F is invoked with the fulfilled Future<T>; returns Future of F's (flattened)
  // result. Runs synchronously when this future is already fulfilled.
  template <typename F>
  Future<future_internal::flatten_t<std::invoke_result_t<F, Future<T>>>> Then(F f) {
    using Flat = future_internal::flatten_t<std::invoke_result_t<F, Future<T>>>;
    Kassert(state_ != nullptr, "Future: Then on invalid future");
    Promise<Flat> promise;
    Future<Flat> result = promise.GetFuture();
    auto state = std::move(state_);  // consumed; the continuation keeps the state alive
    state->SetContinuation([state, f = std::move(f), promise = std::move(promise)]() mutable {
      future_internal::FulfillWith(std::move(promise), [&] { return f(Future<T>(state)); });
    });
    return result;
  }

 private:
  std::shared_ptr<future_internal::SharedState<T>> state_;
};

template <typename T>
Future<T> Promise<T>::GetFuture() {
  return Future<T>(state_);
}

// --- Constructors ----------------------------------------------------------------------------

template <typename T, typename... Args>
Future<T> MakeReadyFuture(Args&&... args) {
  Promise<T> promise;
  promise.SetValue(std::forward<Args>(args)...);
  return promise.GetFuture();
}

template <typename T>
Future<T> MakeFailedFuture(std::exception_ptr eptr) {
  Promise<T> promise;
  promise.SetException(std::move(eptr));
  return promise.GetFuture();
}

// Runs `f()` and captures its (flattened) result or exception into a future. Convenient at
// async API boundaries: callers get exception flow through the future instead of a throw.
template <typename F>
auto AsyncHelper(F&& f) -> Future<future_internal::flatten_t<std::invoke_result_t<F>>> {
  Promise<future_internal::flatten_t<std::invoke_result_t<F>>> promise;
  auto result = promise.GetFuture();
  future_internal::FulfillWith(std::move(promise), f);
  return result;
}

// --- WhenAll ---------------------------------------------------------------------------------

// Collects the results of all futures (in order): a Future<std::vector<T>>, or a Future<void>
// for void members. If any fails, the aggregate fails with the first error observed (others'
// errors are swallowed, matching EbbRT's semantics).
//
// Join discipline (the scatter-gather RPC hot path rides this):
//   * already-ready members run their join step synchronously inside this call (Then's
//     ready fast path) — a fan-out whose replies all arrived returns a ready future without
//     bouncing through the event loop;
//   * the completion count is a lock-free atomic countdown: each member writes only its own
//     slot, so N replies landing on N cores join without a shared lock (the fetch_sub's
//     acq_rel ordering publishes every slot to whichever member finishes last). The issuing
//     loop holds one extra count, so an empty vector resolves when the loop drops it;
//   * failure policy: the aggregate fails with the FIRST error observed, but only after
//     every member has completed — straggler continuations still have their slots and
//     promises, nothing is abandoned mid-flight or leaked (the shared gather state dies
//     with the last member's continuation).
template <typename T>
Future<std::conditional_t<std::is_void_v<T>, void, std::vector<T>>> WhenAll(
    std::vector<Future<T>> futures) {
  using Result = std::conditional_t<std::is_void_v<T>, void, std::vector<T>>;
  struct Gather {
    std::conditional_t<std::is_void_v<T>, std::monostate, std::vector<T>> values;
    std::atomic<std::size_t> remaining;
    std::atomic<bool> failed{false};  // set once, by the member that writes first_error
    std::exception_ptr first_error;
    Promise<Result> promise;

    void Arrive() {
      if (remaining.fetch_sub(1, std::memory_order_acq_rel) != 1) {
        return;
      }
      if (first_error) {
        promise.SetException(first_error);
      } else if constexpr (std::is_void_v<T>) {
        promise.SetValue();
      } else {
        promise.SetValue(std::move(values));
      }
    }
  };
  auto gather = std::make_shared<Gather>();
  if constexpr (!std::is_void_v<T>) {
    gather->values.resize(futures.size());
  }
  gather->remaining.store(futures.size() + 1, std::memory_order_relaxed);
  Future<Result> result = gather->promise.GetFuture();
  for (std::size_t i = 0; i < futures.size(); ++i) {
    futures[i].Then([gather, i](Future<T> f) {
      try {
        if constexpr (std::is_void_v<T>) {
          f.Get();
        } else {
          gather->values[i] = f.Get();  // distinct slots: no lock needed
        }
      } catch (...) {
        if (!gather->failed.exchange(true, std::memory_order_relaxed)) {
          gather->first_error = std::current_exception();
        }
      }
      gather->Arrive();
    });
  }
  gather->Arrive();
  return result;
}

}  // namespace ebbrt

#endif  // EBBRT_SRC_FUTURE_FUTURE_H_
