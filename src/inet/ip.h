// IPv4: header construction/validation, identification, TTL, routing via
// RouteTable, output fragmentation and input reassembly with timeout, and
// protocol demultiplexing to ICMP/UDP/TCP handlers.
#ifndef PSD_SRC_INET_IP_H_
#define PSD_SRC_INET_IP_H_

#include <cstdint>
#include <functional>
#include <map>
#include <tuple>

#include "src/base/result.h"
#include "src/inet/addr.h"
#include "src/inet/ether_layer.h"
#include "src/inet/route.h"
#include "src/inet/stack_env.h"
#include "src/mbuf/mbuf.h"

namespace psd {

constexpr size_t kIpHeaderLen = 20;
constexpr uint8_t kDefaultTtl = 30;  // 4.3BSD default

struct IpStats {
  uint64_t sent = 0;
  uint64_t received = 0;
  uint64_t delivered = 0;
  uint64_t fragments_sent = 0;
  uint64_t fragments_received = 0;
  uint64_t reassembled = 0;
};

class IpLayer {
 public:
  // Transport payload positioned after the IP header.
  using Handler = std::function<void(Chain payload, Ipv4Addr src, Ipv4Addr dst)>;

  IpLayer(StackEnv* env, EtherLayer* ether, RouteTable* routes, Ipv4Addr my_ip);

  void Register(IpProto proto, Handler h) { handlers_[static_cast<uint8_t>(proto)] = std::move(h); }

  // Optional hook fired when no route matches `dst`; may install one (the
  // protocol library fetches routes from the OS server on demand, §3.3).
  // Return true to retry the lookup.
  void SetRouteMissHook(std::function<bool(Ipv4Addr)> hook) { route_miss_ = std::move(hook); }

  Result<void> Output(Chain payload, IpProto proto, Ipv4Addr src, Ipv4Addr dst,
                      uint8_t ttl = kDefaultTtl);

  // Input of a complete IP packet (chain positioned at the IP header).
  void Input(Chain pkt);

  // Reassembly timeouts. Called from the stack's slow timer.
  void SlowTick();
  // True if SlowTick at `t` would time out a reassembly.
  bool SlowTickDue(SimTime t) const;
  // True while some datagram is partly reassembled.
  bool reassembling() const { return !reasm_.empty(); }

  Ipv4Addr addr() const { return my_ip_; }
  const IpStats& stats() const { return stats_; }
  RouteTable* routes() { return routes_; }

  // Builds the 20-byte header in `hdr` (checksummed). Exposed for tests.
  static void BuildHeader(uint8_t* hdr, size_t total_len, uint16_t id, uint16_t frag_field,
                          uint8_t ttl, IpProto proto, Ipv4Addr src, Ipv4Addr dst);

 private:
  struct ReasmKey {
    uint32_t src;
    uint32_t dst;
    uint16_t id;
    uint8_t proto;
    auto operator<=>(const ReasmKey&) const = default;
  };
  struct ReasmState {
    std::map<uint16_t, Chain> fragments;  // offset(bytes) -> data
    int total_len = -1;                   // known once the last fragment arrives
    SimTime deadline = 0;
  };

  void DeliverLocal(Chain payload, IpProto proto, Ipv4Addr src, Ipv4Addr dst);
  void InputFragment(Chain payload, const ReasmKey& key, uint16_t frag_field);
  Result<void> SendOne(Chain payload, IpProto proto, Ipv4Addr src, Ipv4Addr dst, uint8_t ttl,
                       uint16_t id, uint16_t frag_field, Ipv4Addr next_hop);

  static constexpr SimDuration kReassemblyTtl = Seconds(30);

  StackEnv* env_;
  EtherLayer* ether_;
  RouteTable* routes_;
  Ipv4Addr my_ip_;
  uint16_t next_id_ = 1;
  std::function<bool(Ipv4Addr)> route_miss_;
  std::map<uint8_t, Handler> handlers_;
  std::map<ReasmKey, ReasmState> reasm_;
  IpStats stats_;
};

}  // namespace psd

#endif  // PSD_SRC_INET_IP_H_
