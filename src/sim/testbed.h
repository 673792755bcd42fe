// Testbed — convenience assembly of the paper's experimental setup: machines with NICs on a
// common fabric, each running the EbbRT stack. Used by the networked tests and by every bench
// harness (the client machine plays the role of the paper's 20-core load-generation server).
#ifndef EBBRT_SRC_SIM_TESTBED_H_
#define EBBRT_SRC_SIM_TESTBED_H_

#include <memory>
#include <string>
#include <vector>

#include "src/event/sim_world.h"
#include "src/net/dhcp.h"
#include "src/net/network_manager.h"
#include "src/net/tcp.h"
#include "src/sim/cost_model.h"
#include "src/sim/nic.h"
#include "src/sim/switch.h"

namespace ebbrt {
namespace sim {

struct TestbedNode {
  Runtime* runtime = nullptr;
  Nic* nic = nullptr;
  NetworkManager* net = nullptr;
  Interface* iface = nullptr;

  // Queue work on one of this node's cores.
  void Spawn(std::size_t core, MoveFunction<void()> fn) {
    SimWorld::SpawnOn(*runtime, core, std::move(fn));
  }
};

class Testbed {
 public:
  explicit Testbed(std::uint64_t fixed_cost_ns = 500, LinkModel link = {})
      : world_(fixed_cost_ns), fabric_(world_, link) {}

  SimWorld& world() { return world_; }
  Switch& fabric() { return fabric_; }

  // Adds a machine running the EbbRT stack with a statically configured interface.
  TestbedNode AddNode(const std::string& name, std::size_t cores, Ipv4Addr addr,
                      HypervisorModel hv = HypervisorModel::Kvm(),
                      RuntimeKind kind = RuntimeKind::kNative) {
    TestbedNode node;
    node.runtime = &world_.AddMachine(name, cores, kind);
    Nic::Config config;
    config.hv = hv;
    auto nic = std::make_unique<Nic>(world_, *node.runtime,
                                     MacAddr::FromIndex(next_mac_++), fabric_, config);
    node.nic = nic.get();
    nics_.push_back(std::move(nic));
    node.net = &NetworkManager::For(*node.runtime);
    Interface::IpConfig ip;
    ip.addr = addr;
    ip.netmask = Ipv4Addr::Of(255, 255, 255, 0);
    ip.gateway = Ipv4Addr::Of(10, 0, 0, 1);
    node.iface = &node.net->AddInterface(*node.nic, ip);
    return node;
  }

 private:
  SimWorld world_;
  Switch fabric_;
  std::vector<std::unique_ptr<Nic>> nics_;
  std::uint64_t next_mac_ = 1;
};

}  // namespace sim
}  // namespace ebbrt

#endif  // EBBRT_SRC_SIM_TESTBED_H_
