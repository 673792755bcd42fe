// Wire-format types for the EbbRT network stack: addresses, packed protocol headers, and the
// symmetric RSS hash used by the multiqueue NIC to steer flows to cores.
//
// Headers are packed structs read/written in place inside IOBuf views (Figure 2's
// `buf->Get<EthernetHeader>()` pattern); all multi-byte fields are big-endian on the wire.
#ifndef EBBRT_SRC_NET_NET_TYPES_H_
#define EBBRT_SRC_NET_NET_TYPES_H_

#include <array>
#include <cstdint>
#include <cstring>
#include <string>

namespace ebbrt {

// --- Byte order (x86-64 is little-endian) ----------------------------------------------------
inline constexpr std::uint16_t HostToNet16(std::uint16_t v) { return __builtin_bswap16(v); }
inline constexpr std::uint16_t NetToHost16(std::uint16_t v) { return __builtin_bswap16(v); }
inline constexpr std::uint32_t HostToNet32(std::uint32_t v) { return __builtin_bswap32(v); }
inline constexpr std::uint32_t NetToHost32(std::uint32_t v) { return __builtin_bswap32(v); }

// --- Addresses -------------------------------------------------------------------------------

struct MacAddr {
  std::array<std::uint8_t, 6> bytes = {};

  static MacAddr Broadcast() { return {{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}}; }
  static MacAddr FromIndex(std::uint64_t index) {
    // Locally-administered unicast prefix 02:xx:...
    MacAddr mac;
    mac.bytes = {0x02, 0x00,
                 static_cast<std::uint8_t>(index >> 24), static_cast<std::uint8_t>(index >> 16),
                 static_cast<std::uint8_t>(index >> 8), static_cast<std::uint8_t>(index)};
    return mac;
  }
  bool IsBroadcast() const { return *this == Broadcast(); }
  friend bool operator==(const MacAddr& a, const MacAddr& b) { return a.bytes == b.bytes; }
  std::string ToString() const {
    char buf[18];
    std::snprintf(buf, sizeof(buf), "%02x:%02x:%02x:%02x:%02x:%02x", bytes[0], bytes[1],
                  bytes[2], bytes[3], bytes[4], bytes[5]);
    return buf;
  }
} __attribute__((packed));

// IPv4 address held in host byte order; converted at the wire boundary.
struct Ipv4Addr {
  std::uint32_t raw = 0;  // host order

  static constexpr Ipv4Addr Any() { return {0}; }
  static constexpr Ipv4Addr BroadcastAll() { return {0xffffffff}; }
  static constexpr Ipv4Addr Of(std::uint8_t a, std::uint8_t b, std::uint8_t c,
                               std::uint8_t d) {
    return {(std::uint32_t{a} << 24) | (std::uint32_t{b} << 16) | (std::uint32_t{c} << 8) | d};
  }
  constexpr bool IsAny() const { return raw == 0; }
  constexpr bool IsBroadcast() const { return raw == 0xffffffff; }
  friend constexpr bool operator==(Ipv4Addr a, Ipv4Addr b) { return a.raw == b.raw; }
  friend constexpr bool operator!=(Ipv4Addr a, Ipv4Addr b) { return a.raw != b.raw; }
  std::string ToString() const {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%u.%u.%u.%u", raw >> 24, (raw >> 16) & 0xff,
                  (raw >> 8) & 0xff, raw & 0xff);
    return buf;
  }
};

// --- Ethernet --------------------------------------------------------------------------------

inline constexpr std::uint16_t kEthTypeIpv4 = 0x0800;
inline constexpr std::uint16_t kEthTypeArp = 0x0806;

struct EthernetHeader {
  MacAddr dst;
  MacAddr src;
  std::uint16_t type;  // network order
} __attribute__((packed));
static_assert(sizeof(EthernetHeader) == 14);

// --- ARP -------------------------------------------------------------------------------------

inline constexpr std::uint16_t kArpOpRequest = 1;
inline constexpr std::uint16_t kArpOpReply = 2;

struct ArpPacket {
  std::uint16_t htype;  // 1 = Ethernet
  std::uint16_t ptype;  // 0x0800 = IPv4
  std::uint8_t hlen;    // 6
  std::uint8_t plen;    // 4
  std::uint16_t oper;
  MacAddr sha;
  std::uint32_t spa;  // network order
  MacAddr tha;
  std::uint32_t tpa;  // network order
} __attribute__((packed));
static_assert(sizeof(ArpPacket) == 28);

// --- IPv4 ------------------------------------------------------------------------------------

inline constexpr std::uint8_t kIpProtoIcmp = 1;
inline constexpr std::uint8_t kIpProtoTcp = 6;
inline constexpr std::uint8_t kIpProtoUdp = 17;

struct Ipv4Header {
  std::uint8_t version_ihl;     // 0x45: v4, 20-byte header
  std::uint8_t dscp_ecn;
  std::uint16_t total_length;   // network order
  std::uint16_t identification;
  std::uint16_t flags_fragment;
  std::uint8_t ttl;
  std::uint8_t protocol;
  std::uint16_t checksum;
  std::uint32_t src;  // network order
  std::uint32_t dst;  // network order

  Ipv4Addr SrcAddr() const { return {NetToHost32(src)}; }
  Ipv4Addr DstAddr() const { return {NetToHost32(dst)}; }
  std::size_t HeaderLength() const { return (version_ihl & 0x0f) * 4u; }
} __attribute__((packed));
static_assert(sizeof(Ipv4Header) == 20);

// --- UDP -------------------------------------------------------------------------------------

struct UdpHeader {
  std::uint16_t src_port;  // network order
  std::uint16_t dst_port;
  std::uint16_t length;
  std::uint16_t checksum;
} __attribute__((packed));
static_assert(sizeof(UdpHeader) == 8);

// --- TCP -------------------------------------------------------------------------------------

inline constexpr std::uint8_t kTcpFin = 0x01;
inline constexpr std::uint8_t kTcpSyn = 0x02;
inline constexpr std::uint8_t kTcpRst = 0x04;
inline constexpr std::uint8_t kTcpPsh = 0x08;
inline constexpr std::uint8_t kTcpAck = 0x10;

struct TcpHeader {
  std::uint16_t src_port;  // network order
  std::uint16_t dst_port;
  std::uint32_t seq;
  std::uint32_t ack;
  std::uint8_t data_offset;  // high nibble: header words
  std::uint8_t flags;
  std::uint16_t window;
  std::uint16_t checksum;
  std::uint16_t urgent;

  std::size_t HeaderLength() const { return (data_offset >> 4) * 4u; }
  void SetHeaderWords(std::uint8_t words) { data_offset = static_cast<std::uint8_t>(words << 4); }
} __attribute__((packed));
static_assert(sizeof(TcpHeader) == 20);

// Sequence-number arithmetic with wraparound (RFC 793 style).
inline constexpr bool SeqLt(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(a - b) < 0;
}
inline constexpr bool SeqLe(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(a - b) <= 0;
}

// --- Device offload metadata -----------------------------------------------------------------

// Side-band metadata passed by value beside a frame between the stack and the NIC; the name
// and flag values are virtio_net_hdr's, as in EbbRT. Only checksum offload is modeled.
//   * TX, kNeedsCsum: the L4 checksum is left to the device. The stack has written the
//     folded pseudo-header sum into the checksum field (Linux's CHECKSUM_PARTIAL).
//   * RX, kDataValid: the device vouches for the L4 checksum, so the stack skips its sum.
// The flags stay out of IOBuf: a field there would grow every buffer descriptor.
struct PacketInfo {
  static constexpr std::uint8_t kNeedsCsum = 1;  // VIRTIO_NET_HDR_F_NEEDS_CSUM
  static constexpr std::uint8_t kDataValid = 2;  // VIRTIO_NET_HDR_F_DATA_VALID
  std::uint8_t flags = 0;
};

// --- Flow identification ---------------------------------------------------------------------

struct FourTuple {
  Ipv4Addr local_ip;
  std::uint16_t local_port = 0;
  Ipv4Addr remote_ip;
  std::uint16_t remote_port = 0;

  friend bool operator==(const FourTuple& a, const FourTuple& b) {
    return a.local_ip == b.local_ip && a.local_port == b.local_port &&
           a.remote_ip == b.remote_ip && a.remote_port == b.remote_port;
  }
};

struct FourTupleHash {
  std::size_t operator()(const FourTuple& t) const {
    std::uint64_t a = (std::uint64_t{t.local_ip.raw} << 16) | t.local_port;
    std::uint64_t b = (std::uint64_t{t.remote_ip.raw} << 16) | t.remote_port;
    std::uint64_t x = a * 0x9E3779B97F4A7C15ull ^ b * 0xC2B2AE3D27D4EB4Full;
    x ^= x >> 29;
    x *= 0xBF58476D1CE4E5B9ull;
    x ^= x >> 32;
    return static_cast<std::size_t>(x);
  }
};

// Symmetric RSS hash: both directions of a flow map to the same queue, so a connection's
// receive processing always lands on the core chosen at establishment (§3.6: "Connection
// state is only manipulated on a single core which is chosen by the application").
inline std::uint32_t RssHash(Ipv4Addr a_ip, std::uint16_t a_port, Ipv4Addr b_ip,
                             std::uint16_t b_port) {
  std::uint64_t lo = (std::uint64_t{a_ip.raw} << 16) | a_port;
  std::uint64_t hi = (std::uint64_t{b_ip.raw} << 16) | b_port;
  if (lo > hi) {
    std::swap(lo, hi);
  }
  std::uint64_t x = lo * 0x9E3779B97F4A7C15ull + hi;
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDull;
  x ^= x >> 33;
  return static_cast<std::uint32_t>(x);
}

}  // namespace ebbrt

#endif  // EBBRT_SRC_NET_NET_TYPES_H_
