#include "src/uv/uv.h"

namespace ebbrt {
namespace uv {

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

}  // namespace uv
}  // namespace ebbrt
