// uv:: — a libuv-shaped callback API implemented over EbbRT events (§4.3).
//
// The paper's node.js port maps libuv's loop/handle/callback model onto EbbRT's per-core
// event loops: "Our approach allows the libuv callbacks to be invoked directly from the
// hardware interrupt in the same way that the memcached application was able to." This module
// is that mapping — the surface node-style applications (our webserver) program against.
// There is no uv_run(): the EbbRT event loop is already the loop; handles simply register
// callbacks that fire from device events.
//
// A TcpStream IS a TcpHandler: the stream object itself is installed on the connection, so
// uv callbacks dispatch through the unified zero-copy datapath with no intermediate
// std::function forwarding layer.
#ifndef EBBRT_SRC_UV_UV_H_
#define EBBRT_SRC_UV_UV_H_

#include <functional>
#include <memory>
#include <string>

#include "src/event/event_manager.h"
#include "src/net/network_manager.h"
#include "src/net/tcp.h"

namespace ebbrt {
namespace uv {

// uv_stream_t/uv_tcp_t analogue bound to an EbbRT TCP connection. The stream is the
// connection's TcpHandler; the connection anchors a shared reference until teardown, so a
// stream stays alive as long as its connection even if the application drops its handle.
class TcpStream final : public TcpHandler,
                        public std::enable_shared_from_this<TcpStream> {
 public:
  using ReadCallback = std::function<void(std::unique_ptr<IOBuf>)>;
  using CloseCallback = std::function<void()>;
  using DrainCallback = std::function<void()>;

  // uv_read_start: data callbacks fire directly from the driver's event.
  void ReadStart(ReadCallback on_read) { on_read_ = std::move(on_read); }
  void ReadStop() { on_read_ = nullptr; }
  // Fires when the peer closes or the connection aborts.
  void OnClose(CloseCallback on_close) { on_close_ = std::move(on_close); }
  // Fires when previously-exhausted send window reopens (uv_write_cb analogue for the
  // application-paced send path).
  void OnDrain(DrainCallback on_drain) { on_drain_ = std::move(on_drain); }

  // uv_write (the callback-less common case). Returns false when the peer's window forbids
  // writing `data` right now — callers at this scale (small responses) treat that as fatal.
  bool Write(std::unique_ptr<IOBuf> data) { return Pcb().Send(std::move(data)); }
  bool Write(std::string_view s) { return Write(IOBuf::CopyBuffer(s)); }

  // The inverse of uv_tcp_nodelay: opt the stream into event-scoped TX batching — all
  // Writes issued while handling one event leave as a single chain at the event boundary
  // (merged into as few wire segments as the window allows). This is the stream's only
  // batching control.
  void SetAutoCork(bool enabled) { Pcb().SetAutoCork(enabled); }

  // uv_shutdown analogue: closes our side of the connection. The stack never calls the
  // handler back on an application-initiated close, so the callbacks (which typically
  // capture this stream) are dropped here to break the reference cycle.
  void Shutdown();

 private:
  // --- TcpHandler (invoked by the stack, through the base interface, from the device
  // event). Private so application code cannot call the peer-close notification by mistake
  // where it means "close the connection" — that is Shutdown().
  void Receive(std::unique_ptr<IOBuf> data) override {
    if (on_read_) {
      on_read_(std::move(data));
    }
  }
  void Close() override;
  void SendReady() override {
    if (on_drain_) {
      on_drain_();
    }
  }

  ReadCallback on_read_;
  CloseCallback on_close_;
  DrainCallback on_drain_;
};

// uv_tcp_t server side.
class TcpServer {
 public:
  using ConnectionCallback = std::function<void(std::shared_ptr<TcpStream>)>;

  TcpServer(NetworkManager& network) : network_(network) {}

  void Listen(std::uint16_t port, ConnectionCallback on_connection);

 private:
  static std::shared_ptr<TcpStream> MakeStream(TcpPcb pcb);

  NetworkManager& network_;
};

}  // namespace uv
}  // namespace ebbrt

#endif  // EBBRT_SRC_UV_UV_H_
