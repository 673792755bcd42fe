// baseline:: — the general-purpose-OS comparator stack ("Linux" / "OSv" in the paper's
// evaluation), built over the same simulated NIC and the same TCP protocol machinery as the
// EbbRT stack. What differs is everything the paper says differs:
//
//   * a socket API with KERNEL BUFFERING on both sides (fixed-size socket buffers pace
//     connections instead of the application),
//   * copy-in/copy-out at the API boundary — Write() genuinely memcpys into a kernel buffer
//     and Read() genuinely memcpys out (the copies Figure 4's throughput gap comes from),
//   * per-syscall cost and a softirq + thread-wakeup indirection on receive, instead of
//     running the application directly from the device interrupt,
//   * Nagle's algorithm on small writes (on by default, as in a stock kernel),
//   * periodic scheduler ticks charging preemption/cache-pollution cost to every core.
//
// Parameterisations (see sim::GeneralPurposeOsModel and the factory functions below):
//   LinuxVm     — all of the above + KVM hypervisor model on the NIC
//   LinuxNative — all of the above, bare-metal NIC model
//   Osv         — library OS: no syscall crossing, but the Linux-ABI socket layer (buffering +
//                 copies + Nagle) remains, and the NIC is single-queue (the missing multiqueue
//                 support the paper calls out) with an extra per-packet driver overhead.
#ifndef EBBRT_SRC_BASELINE_SOCKET_H_
#define EBBRT_SRC_BASELINE_SOCKET_H_

#include <deque>
#include <functional>
#include <memory>

#include "src/event/sim_world.h"
#include "src/event/timer.h"
#include "src/net/network_manager.h"
#include "src/net/tcp.h"
#include "src/sim/cost_model.h"

namespace ebbrt {
namespace baseline {

class SocketStack;

// A connected stream socket. All methods must be called on the socket's core.
class Socket {
 public:
  using DataReadyFn = std::function<void()>;

  Socket(SocketStack& stack, TcpPcb pcb);

  // epoll-style readiness: invoked (as a separate event, after the kernel's softirq and
  // wakeup path) when the receive buffer has data.
  void SetDataReadyHandler(DataReadyFn fn) { data_ready_ = std::move(fn); }
  // EPOLLOUT analogue: invoked when kernel send-buffer space frees up after a short write.
  void SetWritableHandler(DataReadyFn fn) { writable_ = std::move(fn); }

  // Copies up to `len` bytes out of the kernel receive buffer (syscall + copy_to_user).
  // Returns bytes read; 0 when the buffer is empty (EWOULDBLOCK).
  std::size_t Read(void* buf, std::size_t len);

  // Copies `len` bytes into the kernel send buffer (syscall + copy_from_user) and lets the
  // kernel pace them onto the wire (window + Nagle). Returns bytes accepted; fewer when the
  // send buffer is full.
  std::size_t Write(const void* buf, std::size_t len);

  std::size_t rx_available() const { return rx_buffer_bytes_; }
  std::size_t core() const { return pcb_.core(); }
  void Close();

 private:
  friend class SocketStack;

  // The kernel half of the socket: the connection's TcpHandler. Receives segments and window
  // openings from the unified datapath and feeds the socket buffers — the buffering/copy
  // indirection a socket API imposes, expressed over the same handler abstraction the
  // zero-copy applications use. Holds a shared reference so the socket lives as long as its
  // connection even if the application drops its handle early.
  class KernelSide final : public TcpHandler {
   public:
    explicit KernelSide(std::shared_ptr<Socket> socket) : socket_(std::move(socket)) {}
    void Receive(std::unique_ptr<IOBuf> data) override {
      socket_->OnSegment(std::move(data));
    }
    void SendReady() override { socket_->OnAcked(); }
    void Close() override {}  // peer FIN/RST: no socket-API caller observes it

   private:
    std::shared_ptr<Socket> socket_;
  };

  void OnSegment(std::unique_ptr<IOBuf> data);  // kernel-side rx
  void OnAcked();                               // window opened: pump tx
  void PumpTx();                                // send from the kernel buffer as allowed
  void MaybeUpdateWindow();

  SocketStack& stack_;
  TcpPcb pcb_;
  DataReadyFn data_ready_;
  DataReadyFn writable_;

  // Kernel receive buffer: IOBuf segments queued until the app Read()s them out.
  std::deque<std::unique_ptr<IOBuf>> rx_buffer_;
  std::size_t rx_buffer_bytes_ = 0;
  std::size_t rx_read_offset_ = 0;  // partially-consumed head segment
  bool wakeup_scheduled_ = false;
  std::size_t window_consumed_ = 0;  // bytes read since the last window update we advertised

  // Kernel send buffer (flat ring of copied user data).
  std::deque<std::uint8_t> tx_buffer_;
};

class SocketStack {
 public:
  SocketStack(SimWorld& world, NetworkManager& net, sim::GeneralPurposeOsModel model);
  ~SocketStack();

  using AcceptFn = std::function<void(std::shared_ptr<Socket>)>;
  void Listen(std::uint16_t port, AcceptFn accept);
  Future<std::shared_ptr<Socket>> Connect(Ipv4Addr dst, std::uint16_t port);

  const sim::GeneralPurposeOsModel& model() const { return model_; }
  SimWorld& world() { return world_; }
  NetworkManager& net() { return net_; }

  // Cost charging helpers (no-ops when the model zeroes them).
  void ChargeSyscall() { world_.Charge(model_.syscall_ns); }
  void ChargeCopy(std::size_t bytes) {
    world_.Charge(static_cast<std::uint64_t>(model_.copy_ns_per_byte *
                                             static_cast<double>(bytes)));
  }

  static sim::GeneralPurposeOsModel LinuxModel() { return sim::GeneralPurposeOsModel{}; }
  static sim::GeneralPurposeOsModel OsvModel() {
    sim::GeneralPurposeOsModel m;
    m.syscall_ns = 0;           // library OS: the "syscall" is a function call
    m.context_switch_ns = 800;  // cheaper wakeup, same address space
    m.timer_tick_cost_ns = 1000;
    // The paper measured OSv as "not competitive with either Linux or EbbRT" on a single
    // core (§4.2); consistent with their unoptimized virtio-net driver and younger stack,
    // modeled as extra per-packet receive-path cost on top of the Linux-ABI socket layer.
    m.softirq_schedule_ns = 3500;
    return m;
  }

 private:
  void StartTicks();

  SimWorld& world_;
  NetworkManager& net_;
  sim::GeneralPurposeOsModel model_;
  bool ticks_started_ = false;
};

}  // namespace baseline
}  // namespace ebbrt

#endif  // EBBRT_SRC_BASELINE_SOCKET_H_
