#include "src/uv/uv.h"

namespace ebbrt {
namespace uv {

void TimerHandle::Start(std::uint64_t timeout_ns, std::uint64_t repeat_ns, Callback cb) {
  Stop();
  cb_ = std::move(cb);
  repeat_ = repeat_ns;
  if (repeat_ns != 0 && timeout_ns == repeat_ns) {
    handle_ = Timer::Instance()->Start(repeat_ns, [this] { cb_(); }, /*periodic=*/true);
    return;
  }
  handle_ = Timer::Instance()->Start(timeout_ns, [this] {
    handle_ = 0;
    cb_();
    if (repeat_ != 0) {
      handle_ = Timer::Instance()->Start(repeat_, [this] { cb_(); }, /*periodic=*/true);
    }
  });
}

void TimerHandle::Stop() {
  if (handle_ != 0) {
    Timer::Instance()->Stop(handle_);
    handle_ = 0;
  }
}

std::size_t TcpStream::SendWindowRemaining() const {
  return Pcb().SendWindowRemaining();
}

void TcpStream::Close() {
  // Detach the data/drain callbacks first: they commonly capture this stream, and dropping
  // them here breaks the reference cycle once the connection releases its anchor.
  on_read_ = nullptr;
  on_drain_ = nullptr;
  CloseCallback cb = std::move(on_close_);
  on_close_ = nullptr;
  if (cb) {
    cb();
  }
}

void TcpStream::Shutdown() {
  Pcb().Close();
  on_read_ = nullptr;
  on_drain_ = nullptr;
  on_close_ = nullptr;
}

std::shared_ptr<TcpStream> TcpServer::MakeStream(TcpPcb pcb) {
  auto stream = std::make_shared<TcpStream>();
  // The stream is the connection's handler; the connection holds a reference until teardown.
  pcb.InstallHandler(stream);
  return stream;
}

void TcpServer::Listen(std::uint16_t port, ConnectionCallback on_connection) {
  network_.tcp().Listen(port, [on_connection = std::move(on_connection)](TcpPcb pcb) {
    on_connection(MakeStream(std::move(pcb)));
  });
}

Future<std::shared_ptr<TcpStream>> TcpServer::Connect(Ipv4Addr dst, std::uint16_t port) {
  return network_.tcp().Connect(network_.interface(), dst, port).Then([](Future<TcpPcb> f) {
    return MakeStream(f.Get());
  });
}

}  // namespace uv
}  // namespace ebbrt
