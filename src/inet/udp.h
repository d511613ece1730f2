// UDP (RFC 768): datagram transport with real checksums (including the
// pseudo-header), BSD-style PCB demultiplexing with wildcard matching, and
// ICMP port-unreachable generation/consumption.
#ifndef PSD_SRC_INET_UDP_H_
#define PSD_SRC_INET_UDP_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/base/result.h"
#include "src/inet/addr.h"
#include "src/inet/icmp.h"
#include "src/inet/ip.h"
#include "src/inet/ports.h"
#include "src/inet/sockbuf.h"
#include "src/inet/stack_env.h"

namespace psd {

constexpr size_t kUdpHeaderLen = 8;
// Per-frame maximum unfragmented UDP payload on Ethernet (the paper's
// largest UDP latency point: 1472 bytes).
constexpr size_t kUdpMaxUnfragmented = kEtherMtu - kIpHeaderLen - kUdpHeaderLen;

// BSD 4.3 defaults.
constexpr size_t kUdpRecvSpace = 41600;
constexpr size_t kUdpSendSpace = 9216;

struct UdpPcb {
  SockAddrIn local;
  SockAddrIn remote;  // connected iff remote.port != 0
  SockBuf rcv{kUdpRecvSpace};
  size_t snd_limit = kUdpSendSpace;
  Err so_error = Err::kOk;
  bool port_owned = false;  // release to PortAlloc on destroy
  std::function<void()> rcv_wakeup;
};

struct UdpStats {
  uint64_t sent = 0;
  uint64_t received = 0;
};

class UdpLayer {
 public:
  UdpLayer(StackEnv* env, IpLayer* ip, IcmpLayer* icmp, PortAlloc* ports);

  UdpPcb* Create();
  void Destroy(UdpPcb* pcb);

  // Binds the local endpoint; port 0 allocates an ephemeral port.
  Result<void> Bind(UdpPcb* pcb, SockAddrIn local);
  // Adopts a server-assigned endpoint without touching the local allocator
  // (library placement: the OS server owns the port namespace).
  void AdoptBinding(UdpPcb* pcb, SockAddrIn local);

  Result<void> Connect(UdpPcb* pcb, SockAddrIn remote);

  // Sends one datagram; dst==nullptr uses the connected remote. The data
  // chain may reference caller-owned storage (library send path sends
  // without a copy, Table 4 entry/copyin: 6us, no per-byte cost).
  Result<void> Output(UdpPcb* pcb, Chain data, const SockAddrIn* dst);

  const UdpStats& stats() const { return stats_; }
  // Exposed for the packet-filter/session machinery.
  const std::vector<std::unique_ptr<UdpPcb>>& pcbs() const { return pcbs_; }

 private:
  void Input(Chain dgram, Ipv4Addr src, Ipv4Addr dst);
  UdpPcb* Demux(const SockAddrIn& local, const SockAddrIn& remote);
  void OnUnreach(IcmpUnreachCode code, IpProto proto, SockAddrIn orig_dst,
                 uint16_t orig_src_port);

  StackEnv* env_;
  IpLayer* ip_;
  IcmpLayer* icmp_;
  PortAlloc* ports_;
  std::vector<std::unique_ptr<UdpPcb>> pcbs_;
  UdpStats stats_;
};

}  // namespace psd

#endif  // PSD_SRC_INET_UDP_H_
