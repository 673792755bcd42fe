#include "src/apps/memcached/server.h"

namespace ebbrt {
namespace memcached {

std::unique_ptr<IOBuf> BuildResponseHeader(const BinaryHeader& req, Status status,
                                           std::size_t extras_len, std::size_t key_len,
                                           std::size_t value_len) {
  auto buf = IOBuf::Create(sizeof(BinaryHeader) + extras_len, /*zero=*/true);
  auto& hdr = buf->Get<BinaryHeader>();
  hdr.magic = kMagicResponse;
  hdr.opcode = req.opcode;
  hdr.key_length = HostToNet16(static_cast<std::uint16_t>(key_len));
  hdr.extras_length = static_cast<std::uint8_t>(extras_len);
  hdr.status_vbucket = HostToNet16(static_cast<std::uint16_t>(status));
  hdr.total_body =
      HostToNet32(static_cast<std::uint32_t>(extras_len + key_len + value_len));
  hdr.opaque = req.opaque;
  hdr.cas = req.cas;
  return buf;
}

// --- EbbRT-native server ----------------------------------------------------------------------

MemcachedServer::MemcachedServer(NetworkManager& network, std::uint16_t port)
    : network_(network), store_(network.rcu()) {
  network_.tcp().Listen(port, [this](TcpPcb pcb) {
    pcb.InstallHandler(std::make_shared<Connection>(*this));
    // Event-scoped TX batching (§5: application-level aggregation): every response produced
    // while parsing one device event's worth of requests goes out as one chain — a pipelined
    // GET burst costs one wire segment instead of one per response.
    pcb.SetAutoCork(true);
  });
}

// SET/ADD/REPLACE client flags, when the request carried SetExtras (0 otherwise).
static std::uint32_t RequestFlags(const RequestParser::Request& req) {
  if (req.extras.size() < sizeof(SetExtras)) {
    return 0;
  }
  SetExtras extras;
  std::memcpy(&extras, req.extras.data(), sizeof(extras));
  return NetToHost32(extras.flags);
}

void MemcachedServer::HandleRequest(Connection& conn, const RequestParser::Request& req) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  if (req.oversized) {
    // Framed but beyond the per-item bounds: the parser already dropped the body without
    // buffering it; answer and keep serving (the bad_frames discipline).
    bad_frames_.fetch_add(1, std::memory_order_relaxed);
    conn.Pcb().Send(BuildResponseHeader(req.header, Status::kInvalidArguments, 0, 0, 0));
    return;
  }
  switch (static_cast<Opcode>(req.header.opcode)) {
    case Opcode::kGet:
    case Opcode::kGetK: {
      bool with_key = static_cast<Opcode>(req.header.opcode) == Opcode::kGetK;
      ItemPtr item = store_.Get(req.key);
      if (item == nullptr) {
        conn.Pcb().Send(BuildResponseHeader(req.header, Status::kKeyNotFound, 0, 0, 0));
        return;
      }
      std::size_t key_len = with_key ? req.key.size() : 0;
      auto response = BuildResponseHeader(req.header, Status::kOk, sizeof(GetExtras),
                                          key_len, item->value().size());
      // Extras live in the header buffer; append key (copied — tiny) and the value as a
      // zero-copy reference-counted view of the stored item block.
      auto& extras = response->Get<GetExtras>(sizeof(BinaryHeader));
      extras.flags = HostToNet32(item->flags());
      response->Get<BinaryHeader>().cas = item->cas();
      if (with_key) {
        response->AppendChain(IOBuf::CopyBuffer(req.key));
      }
      response->AppendChain(MakeValueBuffer(std::move(item)));
      conn.Pcb().Send(std::move(response));
      return;
    }
    case Opcode::kSet: {
      store_.Set(req.key, req.value, RequestFlags(req));
      conn.Pcb().Send(BuildResponseHeader(req.header, Status::kOk, 0, 0, 0));
      return;
    }
    case Opcode::kAdd: {
      bool ok = store_.Add(req.key, req.value, RequestFlags(req));
      conn.Pcb().Send(BuildResponseHeader(
          req.header, ok ? Status::kOk : Status::kKeyExists, 0, 0, 0));
      return;
    }
    case Opcode::kReplace: {
      bool ok = store_.Replace(req.key, req.value, RequestFlags(req));
      conn.Pcb().Send(BuildResponseHeader(
          req.header, ok ? Status::kOk : Status::kItemNotStored, 0, 0, 0));
      return;
    }
    case Opcode::kDelete: {
      bool ok = store_.Delete(req.key);
      conn.Pcb().Send(BuildResponseHeader(
          req.header, ok ? Status::kOk : Status::kKeyNotFound, 0, 0, 0));
      return;
    }
    case Opcode::kMultiGet: {
      HandleMultiGet(conn, req);
      return;
    }
    case Opcode::kNoop:
    case Opcode::kVersion: {
      conn.Pcb().Send(BuildResponseHeader(req.header, Status::kOk, 0, 0, 0));
      return;
    }
    case Opcode::kQuit: {
      conn.Pcb().Close();
      return;
    }
    default:
      conn.Pcb().Send(BuildResponseHeader(req.header, Status::kUnknownCommand, 0, 0, 0));
  }
}

// MULTIGET k1..kN: one request frame, one response frame, one response-header's worth of
// overhead for the whole batch. The batch body is remote input and is validated like the
// Messenger validates its framing: the declared key_count is bounded BEFORE it sizes
// anything, each packed key must fit the bytes that actually arrived, and the keys must
// consume the body exactly. A bad batch costs one kInvalidArguments response and a
// bad_frames tick; the outer BinaryHeader framing is still sound, so the connection keeps
// serving (no wedge, no assert).
void MemcachedServer::HandleMultiGet(Connection& conn, const RequestParser::Request& req) {
  const char* p = req.value.data();
  std::size_t remaining = req.value.size();
  std::uint32_t count = 0;
  bool ok = req.header.KeyLength() == 0 && req.extras.size() == sizeof(MultiGetExtras);
  if (ok) {
    MultiGetExtras extras;
    std::memcpy(&extras, req.extras.data(), sizeof(extras));
    count = NetToHost32(extras.key_count);
    ok = count <= kMaxMultiGetKeys;
  }
  // Per key: [MultiGetEntry][value view] — entry words are tiny slab buffers, values are
  // refcounted views of the stored items (the single-GET zero-copy path, N times under one
  // header). Parts are spliced once at the end (JoinChains: no quadratic tail walks).
  std::vector<std::unique_ptr<IOBuf>> parts;
  parts.reserve(ok ? 1 + 2 * count : 1);
  parts.push_back(nullptr);  // response header placeholder, built once sizes are known
  std::size_t value_section = 0;
  for (std::uint32_t i = 0; ok && i < count; ++i) {
    std::uint16_t klen = 0;
    if (remaining < sizeof(klen)) {
      ok = false;
      break;
    }
    std::memcpy(&klen, p, sizeof(klen));
    klen = NetToHost16(klen);
    p += sizeof(klen);
    remaining -= sizeof(klen);
    if (remaining < klen) {
      ok = false;  // truncated batch: fewer key bytes than the count promised
      break;
    }
    if (klen > kMaxKeyLen) {
      ok = false;  // per-item key bound applies inside a batch too
      break;
    }
    std::string_view key{p, klen};
    p += klen;
    remaining -= klen;
    auto entry_buf = IOBuf::CreateReserveFor<sizeof(MultiGetEntry)>(0);
    entry_buf->Append(sizeof(MultiGetEntry));
    auto& entry = entry_buf->Get<MultiGetEntry>();
    ItemPtr item = store_.Get(key);
    if (item == nullptr) {
      entry.status = HostToNet16(static_cast<std::uint16_t>(Status::kKeyNotFound));
      entry.value_length = 0;
      value_section += sizeof(MultiGetEntry);
      parts.push_back(std::move(entry_buf));
      continue;
    }
    entry.status = HostToNet16(static_cast<std::uint16_t>(Status::kOk));
    entry.value_length = HostToNet32(static_cast<std::uint32_t>(item->value().size()));
    value_section += sizeof(MultiGetEntry) + item->value().size();
    parts.push_back(std::move(entry_buf));
    parts.push_back(MakeValueBuffer(std::move(item)));
  }
  if (!ok || remaining != 0) {  // exact consumption: trailing bytes are malformed too
    bad_frames_.fetch_add(1, std::memory_order_relaxed);
    conn.Pcb().Send(BuildResponseHeader(req.header, Status::kInvalidArguments, 0, 0, 0));
    return;
  }
  auto header = BuildResponseHeader(req.header, Status::kOk, sizeof(MultiGetExtras), 0,
                                    value_section);
  header->Get<MultiGetExtras>(sizeof(BinaryHeader)).key_count = HostToNet32(count);
  parts[0] = std::move(header);
  conn.Pcb().Send(IOBuf::JoinChains(std::move(parts)));
}

// --- Baseline (socket API) server ---------------------------------------------------------------

BaselineMemcachedServer::BaselineMemcachedServer(baseline::SocketStack& stack,
                                                 std::uint16_t port)
    : stack_(stack), store_(stack.net().rcu()) {
  stack_.Listen(port, [this](std::shared_ptr<baseline::Socket> socket) {
    auto conn = std::make_shared<Connection>();
    conn->socket = std::move(socket);
    conn->server = this;
    conn->socket->SetDataReadyHandler([this, conn] { OnReadable(conn); });
  });
}

void BaselineMemcachedServer::OnReadable(std::shared_ptr<Connection> conn) {
  char buf[16384];
  for (;;) {
    std::size_t n = conn->socket->Read(buf, sizeof(buf));
    if (n == 0) {
      break;
    }
    conn->out.clear();
    conn->parser.FeedBytes(buf, n, [&conn](const RequestParser::Request& req) {
      conn->server->HandleRequest(*conn, req);
    });
    if (!conn->out.empty()) {
      conn->socket->Write(conn->out.data(), conn->out.size());
    }
  }
}

void BaselineMemcachedServer::HandleRequest(Connection& conn,
                                            const RequestParser::Request& req) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  auto append_response = [&conn](const BinaryHeader& hdr, Status status,
                                 std::string_view extras, std::string_view key,
                                 std::string_view value) {
    BinaryHeader out;
    std::memset(&out, 0, sizeof(out));
    out.magic = kMagicResponse;
    out.opcode = hdr.opcode;
    out.key_length = HostToNet16(static_cast<std::uint16_t>(key.size()));
    out.extras_length = static_cast<std::uint8_t>(extras.size());
    out.status_vbucket = HostToNet16(static_cast<std::uint16_t>(status));
    out.total_body =
        HostToNet32(static_cast<std::uint32_t>(extras.size() + key.size() + value.size()));
    out.opaque = hdr.opaque;
    // Staged into a user-space buffer, then write(2) copies it into the kernel — the copy
    // chain a socket API imposes.
    conn.out.append(reinterpret_cast<const char*>(&out), sizeof(out));
    conn.out.append(extras.data(), extras.size());
    conn.out.append(key.data(), key.size());
    conn.out.append(value.data(), value.size());
  };

  if (req.oversized) {
    bad_frames_.fetch_add(1, std::memory_order_relaxed);
    append_response(req.header, Status::kInvalidArguments, {}, {}, {});
    return;
  }
  switch (static_cast<Opcode>(req.header.opcode)) {
    case Opcode::kGet: {
      ItemPtr item = store_.Get(req.key);
      if (item == nullptr) {
        append_response(req.header, Status::kKeyNotFound, {}, {}, {});
        return;
      }
      GetExtras extras;
      extras.flags = HostToNet32(item->flags());
      append_response(req.header, Status::kOk,
                      {reinterpret_cast<const char*>(&extras), sizeof(extras)}, {},
                      item->value());
      return;
    }
    case Opcode::kSet: {
      store_.Set(req.key, req.value, 0);
      append_response(req.header, Status::kOk, {}, {}, {});
      return;
    }
    case Opcode::kDelete: {
      bool ok = store_.Delete(req.key);
      append_response(req.header, ok ? Status::kOk : Status::kKeyNotFound, {}, {}, {});
      return;
    }
    case Opcode::kNoop:
    case Opcode::kVersion: {
      append_response(req.header, Status::kOk, {}, {}, {});
      return;
    }
    default:
      append_response(req.header, Status::kUnknownCommand, {}, {}, {});
  }
}

}  // namespace memcached
}  // namespace ebbrt
