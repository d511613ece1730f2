#include "src/inet/ether_layer.h"

#include <cstring>

#include "src/base/bytes.h"
#include "src/obs/journey.h"

namespace psd {

Result<void> EtherLayer::OutputIp(Chain pkt, Ipv4Addr next_hop) {
  ProbeSpan span(env_->obs->tracer, env_->sim, Stage::kEtherOutput);
  env_->Charge(env_->prof->arp_fixed);  // resolver/cache lookup
  MacAddr dst;
  if (resolver_ == nullptr) {
    return Err::kHostUnreach;
  }
  switch (resolver_->Resolve(next_hop, &dst, &pkt)) {
    case MacResolver::Status::kResolved:
      break;
    case MacResolver::Status::kPending:
      return OkResult();  // resolver owns the packet now
    case MacResolver::Status::kFail:
      unresolved_drops_++;
      // Tx-side: the packet dies before a frame (and its id) exists.
      env_->Drop(0, TraceLayer::kInet, DropReason::kEtherUnresolved);
      return Err::kHostUnreach;
  }
  OutputRaw(dst, kEtherTypeIpv4, std::move(pkt));
  return OkResult();
}

void EtherLayer::OutputRaw(MacAddr dst, uint16_t ethertype, Chain payload) {
  env_->Charge(env_->prof->ether_out_fixed);
  env_->sync->ChargeSyncPair();
  uint8_t* h = payload.Prepend(kEtherHeaderLen);
  std::memcpy(h, dst.b.data(), 6);
  std::memcpy(h + 6, self_.b.data(), 6);
  Store16(h + 12, ethertype);
  tx_frames_++;
  // Origin of every stack-emitted frame: mint the packet id here so the
  // whole delivery chain (wire, kernel, peer stack) correlates on it.
  // Flatten the chain straight into a pooled buffer.
  Frame f = Frame::OfSize(payload.len());
  payload.CopyOut(0, f.data(), f.size());
  f.pkt_id = env_->obs->journey.Mint();
  if (f.pkt_id != 0) {
    env_->obs->journey.Hop(f.pkt_id, TraceLayer::kInet, env_->tx_node.id(), env_->Now(),
                           f.size());
  }
  env_->send_frame(std::move(f));
}

bool EtherLayer::Parse(const Frame& f, RxFrame* out) {
  if (f.size() < kEtherHeaderLen) {
    return false;
  }
  std::memcpy(out->dst.b.data(), f.data(), 6);
  std::memcpy(out->src.b.data(), f.data() + 6, 6);
  out->ethertype = Load16(f.data() + 12);
  out->payload = Chain::FromBytes(f.data() + kEtherHeaderLen, f.size() - kEtherHeaderLen);
  return true;
}

}  // namespace psd
