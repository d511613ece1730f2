// Ethernet framing layer: builds outgoing frames (resolving next-hop MACs
// through the configured MacResolver) and parses incoming ones.
#ifndef PSD_SRC_INET_ETHER_LAYER_H_
#define PSD_SRC_INET_ETHER_LAYER_H_

#include <cstdint>

#include "src/base/result.h"
#include "src/inet/addr.h"
#include "src/inet/stack_env.h"
#include "src/mbuf/mbuf.h"
#include "src/netsim/ether.h"

namespace psd {

class EtherLayer {
 public:
  EtherLayer(StackEnv* env, MacAddr self) : env_(env), self_(self) {}

  void SetResolver(MacResolver* r) { resolver_ = r; }
  MacAddr mac() const { return self_; }

  // Sends an IP packet to `next_hop`. May return kHostUnreach; may hand the
  // packet to the resolver to transmit later (ARP pending).
  Result<void> OutputIp(Chain pkt, Ipv4Addr next_hop);

  // Sends a payload to a known MAC (ARP requests/replies, resolved holds).
  void OutputRaw(MacAddr dst, uint16_t ethertype, Chain payload);

  struct RxFrame {
    uint16_t ethertype = 0;
    MacAddr src;
    MacAddr dst;
    Chain payload;
  };
  // Parses a received frame into its payload chain. Returns false if the
  // frame is malformed.
  static bool Parse(const Frame& f, RxFrame* out);

  uint64_t tx_frames() const { return tx_frames_; }

 private:
  StackEnv* env_;
  MacAddr self_;
  MacResolver* resolver_ = nullptr;
  uint64_t tx_frames_ = 0;
};

}  // namespace psd

#endif  // PSD_SRC_INET_ETHER_LAYER_H_
