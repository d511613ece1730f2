// ICMP: echo replies, and destination-unreachable generation and
// notification (UDP maps port-unreachable onto ECONNREFUSED for connected
// sockets, as BSD does).
#ifndef PSD_SRC_INET_ICMP_H_
#define PSD_SRC_INET_ICMP_H_

#include <cstdint>
#include <functional>

#include "src/inet/addr.h"
#include "src/inet/ip.h"
#include "src/inet/stack_env.h"

namespace psd {

enum class IcmpType : uint8_t {
  kEchoReply = 0,
  kUnreachable = 3,
  kEchoRequest = 8,
};

enum class IcmpUnreachCode : uint8_t {
  kNet = 0,
  kHost = 1,
  kProtocol = 2,
  kPort = 3,
};

class IcmpLayer {
 public:
  IcmpLayer(StackEnv* env, IpLayer* ip);

  void Input(Chain payload, Ipv4Addr src, Ipv4Addr dst);

  // Sends type-3 carrying the original IP header + 8 payload bytes, as the
  // protocol requires. `orig_packet` is the transport payload of the
  // offending packet; `orig_src`/`orig_dst`/`proto` come from its header.
  void SendUnreachable(IcmpUnreachCode code, const Chain& orig_transport, IpProto proto,
                       Ipv4Addr orig_src, Ipv4Addr orig_dst);

  // Fired on received unreachable: (code, original dst endpoint, original
  // src port). Transports register to map this onto socket errors.
  using UnreachHandler =
      std::function<void(IcmpUnreachCode, IpProto, SockAddrIn orig_dst, uint16_t orig_src_port)>;
  void SetUnreachHandler(UnreachHandler h) { on_unreach_ = std::move(h); }

  uint64_t echoes_answered() const { return echoes_answered_; }
  uint64_t unreachables_sent() const { return unreachables_sent_; }

 private:
  StackEnv* env_;
  IpLayer* ip_;
  UnreachHandler on_unreach_;
  uint64_t echoes_answered_ = 0;
  uint64_t unreachables_sent_ = 0;
};

}  // namespace psd

#endif  // PSD_SRC_INET_ICMP_H_
