// The hybrid structure (paper §2.1 / §4.3): a native library-OS instance offloads filesystem
// access to a hosted frontend running inside "Linux", through the FileSystem Ebb — messages
// cross the (simulated) network, the hosted representative runs real POSIX I/O.
//
// Run: ./examples/hosted_offload
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <system_error>

#include "src/dist/file_system.h"
#include "src/sim/testbed.h"

int main() {
  using namespace ebbrt;
  sim::Testbed bed;
  // The hosted frontend: a user-space EbbRT library instance in a Linux process (hosted
  // runtimes translate Ebb calls through hash tables; EbbIds still resolve identically).
  sim::TestbedNode frontend = bed.AddNode("frontend", 1, Ipv4Addr::Of(10, 0, 0, 2),
                                          sim::HypervisorModel::Native(),
                                          RuntimeKind::kHosted);
  // The native library OS instance where the performance-critical work would run.
  sim::TestbedNode native = bed.AddNode("native", 2, Ipv4Addr::Of(10, 0, 0, 3));

  std::string sandbox = "/tmp/ebbrt_offload_example_" + std::to_string(::getpid());

  frontend.Spawn(0, [&] {
    dist::FileSystem::ServeOn(*frontend.runtime, sandbox);
    dist::GlobalIdMap::ServeOn(*frontend.runtime);
    std::printf("[frontend] serving FileSystem (root %s) and GlobalIdMap\n",
                sandbox.c_str());
  });

  native.Spawn(0, [&] {
    auto& fs = dist::FileSystem::For(*native.runtime, Ipv4Addr::Of(10, 0, 0, 2));
    auto& ids = dist::GlobalIdMap::For(*native.runtime, Ipv4Addr::Of(10, 0, 0, 2));
    std::printf("[native] writing config through the FileSystem Ebb...\n");
    fs.WriteFile("config.txt", "threads=4\nport=11211\n").Then([&fs, &ids](Future<void> f) {
      f.Get();
      return fs.ReadFile("config.txt").Then([&fs, &ids](Future<std::string> rf) {
        std::string contents = rf.Get();
        std::printf("[native] read back %zu bytes:\n%s", contents.size(),
                    contents.c_str());
        return fs.GetFileSize("config.txt").Then([&ids](Future<std::uint64_t> sf) {
          std::printf("[native] GetFileSize -> %llu\n",
                      static_cast<unsigned long long>(sf.Get()));
          // Naming + global id allocation, also served by the frontend.
          return ids.AllocateIdBlock(128).Then([](Future<EbbId> bf) {
            std::printf("[native] got global EbbId block starting at 0x%x\n", bf.Get());
          });
        });
      });
    });
  });

  bed.world().Run();
  // The frontend's real POSIX I/O created the sandbox; leave nothing behind in /tmp.
  std::error_code ec;
  std::filesystem::remove_all(sandbox, ec);
  std::printf("hosted offload example done\n");
  return 0;
}
