// FileSystem — the function-shipping file I/O Ebb of the hybrid structure (paper §2.1, §4.3).
//
// A native EbbRT instance has no POSIX filesystem (and wants none: that generality is what
// it sheds for performance). When an application on the native instance needs file access —
// configuration, logs, a model checkpoint — it invokes this Ebb like any local object; the
// native representative marshals the call into a Messenger RPC and ships it to the hosted
// frontend, whose representative executes *real* POSIX I/O inside Linux under a sandbox root
// and ships the result back. "The generality lives in the general-purpose OS; the native
// instance keeps only the fast path."
//
// Failure semantics: remote errors (missing file, I/O failure, path escape attempts) travel
// back as flagged RPC responses and re-throw as std::runtime_error from Future::Get in the
// caller's continuation — the §3.5 property that only the final Then of a chain needs a
// try/catch, even when the failing step ran on another machine.
#ifndef EBBRT_SRC_DIST_FILE_SYSTEM_H_
#define EBBRT_SRC_DIST_FILE_SYSTEM_H_

#include <cstdint>
#include <string>

#include "src/dist/global_id_map.h"
#include "src/dist/rpc.h"

namespace ebbrt {
namespace dist {

class FileSystem {
 public:
  enum Opcode : std::uint16_t {
    kWriteFile = 1,
    kReadFile = 2,
    kGetFileSize = 3,
  };

  // The machine's client representative, created on first use (Subsystem::kFileSystem);
  // calls ship to the frontend at `frontend`, fixed at first use.
  static FileSystem& For(Runtime& runtime, Ipv4Addr frontend);

  // Brings up the hosted representative: real POSIX I/O confined to the directory `root`
  // (created if absent). `runtime` must be a hosted instance.
  static void ServeOn(Runtime& runtime, std::string root);

  // Paths are relative to the frontend's sandbox root; absolute paths and ".." components
  // are rejected by the server.
  Future<void> WriteFile(std::string path, std::string contents);
  Future<std::string> ReadFile(std::string path);
  Future<std::uint64_t> GetFileSize(std::string path);

  FileSystem(Runtime& runtime, Ipv4Addr frontend);

 private:
  RpcClient client_;
};

}  // namespace dist
}  // namespace ebbrt

#endif  // EBBRT_SRC_DIST_FILE_SYSTEM_H_
