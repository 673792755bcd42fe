// Echo server over the EbbRT network stack on the simulated testbed.
//
// Demonstrates the paper's data path: a per-connection TcpHandler invoked synchronously from
// the (simulated) device interrupt, zero-copy receive buffers echoed straight back,
// application-checked send windows, per-connection core affinity via RSS, and the virtual-
// time world that hosts it all.
//
// Run: ./examples/echo_server
#include <cstdio>

#include "src/sim/testbed.h"

namespace {

using namespace ebbrt;

// The server side of a connection: the very buffer the device filled is echoed straight
// back — no copies anywhere in the stack.
class EchoHandler final : public TcpHandler {
 public:
  void Receive(std::unique_ptr<IOBuf> data) override { Pcb().Send(std::move(data)); }
  void Close() override { Pcb().Close(); }
};

// The client side: sends one message, prints the echo, closes.
class ClientHandler final : public TcpHandler {
 public:
  ClientHandler(sim::Testbed& bed, std::uint64_t sent_at) : bed_(bed), sent_at_(sent_at) {}

  void Receive(std::unique_ptr<IOBuf> data) override {
    std::printf("[client] echoed %zu bytes: \"%.*s\" (rtt %.1f us)\n", data->Length(),
                static_cast<int>(data->Length()), data->Data(),
                (bed_.world().Now() - sent_at_) / 1000.0);
    Pcb().Close();
  }

 private:
  sim::Testbed& bed_;
  std::uint64_t sent_at_;
};

}  // namespace

int main() {
  using namespace ebbrt;
  sim::Testbed bed;
  sim::TestbedNode server = bed.AddNode("server", 2, Ipv4Addr::Of(10, 0, 0, 2));
  sim::TestbedNode client = bed.AddNode("client", 1, Ipv4Addr::Of(10, 0, 0, 3));

  server.Spawn(0, [&] {
    server.net->tcp().Listen(7, [](TcpPcb pcb) {
      std::printf("[server core %zu] accepted connection from %s:%u\n",
                  CurrentContext().machine_core,
                  pcb.tuple().remote_ip.ToString().c_str(), pcb.tuple().remote_port);
      pcb.InstallHandler(std::make_shared<EchoHandler>());
    });
  });

  client.Spawn(0, [&] {
    client.net->tcp().Connect(*client.iface, Ipv4Addr::Of(10, 0, 0, 2), 7)
        .Then([&bed](Future<TcpPcb> f) {
          TcpPcb pcb = f.Get();
          std::printf("[client] connected on core %zu; sending\n", pcb.core());
          pcb.InstallHandler(std::make_shared<ClientHandler>(bed, bed.world().Now()));
          pcb.Send(IOBuf::CopyBuffer("echo through a library OS"));
        });
  });

  bed.world().Run();
  std::printf("echo example done at virtual t=%.3f ms\n", bed.world().Now() / 1e6);
  return 0;
}
