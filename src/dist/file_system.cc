#include "src/dist/file_system.h"

#include <sys/stat.h>
#include <sys/types.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

namespace ebbrt {
namespace dist {

namespace {

// WriteFile request body: the shared [u32 path_len][path][contents...] marshal
// (BuildLenPrefixedBody). Read/size request body: the path itself. GetFileSize response
// body: u64 size, network order.

// Rejects paths that could escape the sandbox root: absolute, empty, any ".." component,
// or an embedded NUL (which would truncate at the C-string boundary and sidestep the
// component check). (The frontend is the trusted side; this guards against native-side
// bugs.)
bool SafeRelativePath(const std::string& path) {
  if (path.empty() || path.front() == '/' || path.find('\0') != std::string::npos) {
    return false;
  }
  std::size_t i = 0;
  while (i < path.size()) {
    std::size_t next = path.find('/', i);
    std::string_view component(path.data() + i, (next == std::string::npos ? path.size() : next) - i);
    if (component == "..") {
      return false;
    }
    i = next == std::string::npos ? path.size() : next + 1;
  }
  return true;
}

class FileSystemServer final : public RpcServer {
 public:
  FileSystemServer(Runtime& runtime, std::string root)
      : RpcServer(runtime, kFileSystemId), root_(std::move(root)) {
    ::mkdir(root_.c_str(), 0755);  // EEXIST is fine: reuse the sandbox
  }

 private:
  void HandleCall(Ipv4Addr from, std::uint64_t request_id, std::uint16_t opcode,
                  std::uint32_t /*aux*/, std::unique_ptr<IOBuf> body) override {
    switch (static_cast<FileSystem::Opcode>(opcode)) {
      case FileSystem::kWriteFile:
        HandleWrite(from, request_id, std::move(body));
        return;
      case FileSystem::kReadFile:
        HandleRead(from, request_id, ChainToString(body.get()));
        return;
      case FileSystem::kGetFileSize:
        HandleSize(from, request_id, ChainToString(body.get()));
        return;
    }
    ReplyError(from, request_id, "FileSystem: unknown opcode");
  }

  // Resolves a shipped path against the sandbox; empty result means rejection.
  std::string Resolve(const std::string& path) const {
    if (!SafeRelativePath(path)) {
      return {};
    }
    return root_ + "/" + path;
  }

  void HandleWrite(Ipv4Addr from, std::uint64_t request_id, std::unique_ptr<IOBuf> body) {
    std::string raw = ChainToString(body.get());
    std::string_view path_view;
    std::string_view contents;
    if (!ParseLenPrefixedBody(raw, &path_view, &contents)) {
      ReplyError(from, request_id, "FileSystem::WriteFile: malformed request");
      return;
    }
    std::string path(path_view);
    std::string full = Resolve(path);
    if (full.empty()) {
      ReplyError(from, request_id, "FileSystem::WriteFile: rejected path: " + path);
      return;
    }
    std::FILE* f = std::fopen(full.c_str(), "wb");
    if (f == nullptr) {
      ReplyError(from, request_id,
                 "FileSystem::WriteFile: cannot open " + path + ": " + std::strerror(errno));
      return;
    }
    bool ok = contents.empty() ||
              std::fwrite(contents.data(), 1, contents.size(), f) == contents.size();
    ok = std::fclose(f) == 0 && ok;
    if (!ok) {
      ReplyError(from, request_id, "FileSystem::WriteFile: short write: " + path);
      return;
    }
    Reply(from, request_id, 0, nullptr);
  }

  void HandleRead(Ipv4Addr from, std::uint64_t request_id, const std::string& path) {
    std::string full = Resolve(path);
    if (full.empty()) {
      ReplyError(from, request_id, "FileSystem::ReadFile: rejected path: " + path);
      return;
    }
    std::FILE* f = std::fopen(full.c_str(), "rb");
    if (f == nullptr) {
      ReplyError(from, request_id, "FileSystem::ReadFile: no such file: " + path);
      return;
    }
    std::string contents;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      contents.append(buf, n);
    }
    bool bad = std::ferror(f) != 0;
    std::fclose(f);
    if (bad) {
      ReplyError(from, request_id, "FileSystem::ReadFile: read error: " + path);
      return;
    }
    Reply(from, request_id, 0,
          contents.empty() ? nullptr : IOBuf::CopyBuffer(contents));
  }

  void HandleSize(Ipv4Addr from, std::uint64_t request_id, const std::string& path) {
    std::string full = Resolve(path);
    struct ::stat st;
    if (full.empty() || ::stat(full.c_str(), &st) != 0) {
      ReplyError(from, request_id, "FileSystem::GetFileSize: no such file: " + path);
      return;
    }
    std::uint64_t size = HostToNet64(static_cast<std::uint64_t>(st.st_size));
    auto body = IOBuf::Create(sizeof(size));
    std::memcpy(body->WritableData(), &size, sizeof(size));
    Reply(from, request_id, 0, std::move(body));
  }

  std::string root_;
};

}  // namespace

FileSystem::FileSystem(Runtime& runtime, Ipv4Addr frontend)
    : client_(runtime, kFileSystemId, frontend) {}

FileSystem& FileSystem::For(Runtime& runtime, Ipv4Addr frontend) {
  FileSystem& fs = runtime.GetOrCreateSubsystem<FileSystem>(
      Subsystem::kFileSystem, [&] { return std::make_shared<FileSystem>(runtime, frontend); });
  // The frontend binding is fixed at first use; a different address later would silently
  // ship calls to the wrong machine — fail fast instead.
  Kassert(fs.client_.server() == frontend, "FileSystem::For: frontend already bound");
  return fs;
}

void FileSystem::ServeOn(Runtime& runtime, std::string root) {
  Kassert(runtime.hosted(),
          "FileSystem::ServeOn: POSIX I/O runs on the hosted frontend");
  runtime.Adopt(std::make_shared<FileSystemServer>(runtime, std::move(root)));
}

Future<void> FileSystem::WriteFile(std::string path, std::string contents) {
  return client_.Call(kWriteFile, 0, BuildLenPrefixedBody(path, contents))
      .Then([](Future<RpcClient::Response> f) { f.Get(); });
}

Future<std::string> FileSystem::ReadFile(std::string path) {
  return client_.Call(kReadFile, 0, IOBuf::CopyBuffer(path))
      .Then([](Future<RpcClient::Response> f) { return ChainToString(f.Get().body.get()); });
}

Future<std::uint64_t> FileSystem::GetFileSize(std::string path) {
  return client_.Call(kGetFileSize, 0, IOBuf::CopyBuffer(path))
      .Then([](Future<RpcClient::Response> f) {
        RpcClient::Response response = f.Get();
        std::uint64_t size = 0;
        if (response.body != nullptr &&
            response.body->ComputeChainDataLength() >= sizeof(size)) {
          response.body->CopyOut(&size, sizeof(size));
        }
        return NetToHost64(size);
      });
}

}  // namespace dist
}  // namespace ebbrt
