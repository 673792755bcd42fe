#include "src/baseline/socket.h"

#include <cstring>

#include "src/event/event_manager.h"

namespace ebbrt {
namespace baseline {

SocketStack::SocketStack(SimWorld& world, NetworkManager& net,
                         sim::GeneralPurposeOsModel model)
    : world_(world), net_(net), model_(model) {
  StartTicks();
}

SocketStack::~SocketStack() = default;

void SocketStack::StartTicks() {
  if (ticks_started_ || model_.timer_tick_period_ns == 0) {
    return;
  }
  ticks_started_ = true;
  // The scheduler tick: periodic interrupt + runqueue processing + cache pollution on every
  // core — the preemption noise a non-preemptive library OS simply does not have.
  for (std::size_t core = 0; core < net_.runtime().num_cores(); ++core) {
    SimWorld::SpawnOn(net_.runtime(), core, [this] {
      Timer::Instance()->Start(
          model_.timer_tick_period_ns,
          [this] { world_.Charge(model_.timer_tick_cost_ns); },
          /*periodic=*/true);
    });
  }
}

void SocketStack::Listen(std::uint16_t port, AcceptFn accept) {
  net_.tcp().Listen(port, [this, accept](TcpPcb pcb) {
    auto socket = std::make_shared<Socket>(*this, std::move(pcb));
    // Wire the kernel side onto the connection while still in the accept event.
    socket->pcb_.InstallHandler(std::make_shared<Socket::KernelSide>(socket));
    accept(std::move(socket));
  });
}

Future<std::shared_ptr<Socket>> SocketStack::Connect(Ipv4Addr dst, std::uint16_t port) {
  ChargeSyscall();  // connect(2)
  return net_.tcp().Connect(net_.interface(), dst, port).Then([this](Future<TcpPcb> f) {
    auto socket = std::make_shared<Socket>(*this, f.Get());
    socket->pcb_.InstallHandler(std::make_shared<Socket::KernelSide>(socket));
    return socket;
  });
}

Socket::Socket(SocketStack& stack, TcpPcb pcb) : stack_(stack), pcb_(std::move(pcb)) {}

void Socket::OnSegment(std::unique_ptr<IOBuf> data) {
  // Kernel receive path: softirq processing, then queue into the socket buffer and wake the
  // reader. The application does NOT run here — that is precisely the indirection EbbRT
  // removes.
  stack_.world().Charge(stack_.model().softirq_schedule_ns);
  rx_buffer_bytes_ += data->ComputeChainDataLength();
  rx_buffer_.push_back(std::move(data));
  if (!wakeup_scheduled_ && data_ready_) {
    wakeup_scheduled_ = true;
    // Thread wakeup + schedule-in: delivered as a separate event with its cost charged.
    auto self = this;
    event::Local().Spawn([self] {
      self->wakeup_scheduled_ = false;
      self->stack_.world().Charge(self->stack_.model().context_switch_ns);
      if (self->data_ready_) {
        self->data_ready_();
      }
    });
  }
}

std::size_t Socket::Read(void* buf, std::size_t len) {
  stack_.ChargeSyscall();  // read(2)/recv(2)
  auto* out = static_cast<std::uint8_t*>(buf);
  std::size_t copied = 0;
  while (copied < len && !rx_buffer_.empty()) {
    IOBuf& head = *rx_buffer_.front();
    std::size_t avail = head.Length() - rx_read_offset_;
    std::size_t take = std::min(avail, len - copied);
    std::memcpy(out + copied, head.Data() + rx_read_offset_, take);  // copy_to_user
    copied += take;
    rx_read_offset_ += take;
    if (rx_read_offset_ == head.Length()) {
      rx_buffer_.pop_front();
      rx_read_offset_ = 0;
    }
  }
  stack_.ChargeCopy(copied);
  rx_buffer_bytes_ -= copied;
  window_consumed_ += copied;
  MaybeUpdateWindow();
  return copied;
}

void Socket::MaybeUpdateWindow() {
  // The kernel advertises window as free socket-buffer space; update the peer when a quarter
  // of the buffer has been drained (receive-window moderation).
  std::size_t sock_buf = stack_.model().socket_buffer_bytes;
  if (window_consumed_ >= sock_buf / 4 || rx_buffer_bytes_ == 0) {
    window_consumed_ = 0;
    std::size_t free_space = sock_buf > rx_buffer_bytes_ ? sock_buf - rx_buffer_bytes_ : 0;
    pcb_.SetReceiveWindow(
        static_cast<std::uint16_t>(std::min<std::size_t>(free_space, 65535)));
  }
}

std::size_t Socket::Write(const void* buf, std::size_t len) {
  stack_.ChargeSyscall();  // write(2)/send(2)
  std::size_t sock_buf = stack_.model().socket_buffer_bytes;
  std::size_t room = sock_buf > tx_buffer_.size() ? sock_buf - tx_buffer_.size() : 0;
  std::size_t accepted = std::min(room, len);
  auto* in = static_cast<const std::uint8_t*>(buf);
  tx_buffer_.insert(tx_buffer_.end(), in, in + accepted);  // copy_from_user
  stack_.ChargeCopy(accepted);
  PumpTx();
  return accepted;
}

void Socket::PumpTx() {
  // Kernel send pacing: transmit from the socket buffer while the peer's window allows;
  // Nagle holds back sub-MSS tails while data is in flight.
  for (;;) {
    if (tx_buffer_.empty()) {
      return;
    }
    std::size_t window = pcb_.SendWindowRemaining();
    if (window == 0) {
      return;
    }
    std::size_t chunk = std::min({tx_buffer_.size(), window, kTcpMss});
    if (stack_.model().nagle && chunk < kTcpMss && pcb_.BytesInFlight() > 0) {
      return;  // Nagle: hold the sub-MSS tail until the in-flight data is acknowledged
    }
    auto payload = IOBuf::Create(chunk);
    std::copy(tx_buffer_.begin(), tx_buffer_.begin() + static_cast<long>(chunk),
              payload->WritableData());
    tx_buffer_.erase(tx_buffer_.begin(), tx_buffer_.begin() + static_cast<long>(chunk));
    if (!pcb_.Send(std::move(payload))) {
      return;
    }
  }
}

void Socket::OnAcked() {
  PumpTx();
  if (writable_ && tx_buffer_.size() < stack_.model().socket_buffer_bytes) {
    writable_();
  }
}

void Socket::Close() {
  stack_.ChargeSyscall();
  PumpTx();
  pcb_.Close();
}

}  // namespace baseline
}  // namespace ebbrt
