#include "src/inet/ip.h"

#include <cassert>

#include "src/base/bytes.h"
#include "src/base/checksum.h"
#include "src/base/log.h"
#include "src/obs/journey.h"

namespace psd {

namespace {
constexpr uint16_t kFlagMoreFragments = 0x2000;
constexpr uint16_t kFlagDontFragment = 0x4000;
constexpr uint16_t kFragOffsetMask = 0x1fff;
}  // namespace

IpLayer::IpLayer(StackEnv* env, EtherLayer* ether, RouteTable* routes, Ipv4Addr my_ip)
    : env_(env), ether_(ether), routes_(routes), my_ip_(my_ip) {}

void IpLayer::BuildHeader(uint8_t* hdr, size_t total_len, uint16_t id, uint16_t frag_field,
                          uint8_t ttl, IpProto proto, Ipv4Addr src, Ipv4Addr dst) {
  hdr[0] = 0x45;  // v4, 20-byte header (no options)
  hdr[1] = 0;     // TOS
  Store16(hdr + 2, static_cast<uint16_t>(total_len));
  Store16(hdr + 4, id);
  Store16(hdr + 6, frag_field);
  hdr[8] = ttl;
  hdr[9] = static_cast<uint8_t>(proto);
  Store16(hdr + 10, 0);
  Store32(hdr + 12, src.v);
  Store32(hdr + 16, dst.v);
  Store16(hdr + 10, InternetChecksum(hdr, kIpHeaderLen));
}

Result<void> IpLayer::Output(Chain payload, IpProto proto, Ipv4Addr src, Ipv4Addr dst,
                             uint8_t ttl) {
  ProbeSpan span(env_->obs->tracer, env_->sim, Stage::kIpOutput);
  env_->Charge(env_->prof->ip_out_fixed);

  auto next_hop = routes_->NextHop(dst);
  if (!next_hop && route_miss_ && route_miss_(dst)) {
    next_hop = routes_->NextHop(dst);
  }
  if (!next_hop) {
    // Tx-side: dies before a frame exists, so no packet id yet.
    env_->Drop(0, TraceLayer::kInet, DropReason::kIpNoRoute);
    return Err::kNetUnreach;
  }

  uint16_t id = next_id_++;
  size_t max_payload = kEtherMtu - kIpHeaderLen;
  if (payload.len() <= max_payload) {
    return SendOne(std::move(payload), proto, src, dst, ttl, id, 0, *next_hop);
  }

  // Fragment: offsets in 8-byte units.
  size_t frag_data = max_payload & ~size_t{7};
  size_t off = 0;
  size_t total = payload.len();
  while (off < total) {
    size_t n = std::min(frag_data, total - off);
    bool last = off + n >= total;
    uint16_t field = static_cast<uint16_t>((off / 8) & kFragOffsetMask);
    if (!last) {
      field |= kFlagMoreFragments;
    }
    Chain piece = payload.CopyRange(off, n);
    stats_.fragments_sent++;
    Result<void> r = SendOne(std::move(piece), proto, src, dst, ttl, id, field, *next_hop);
    if (!r.ok()) {
      return r;
    }
    off += n;
  }
  return OkResult();
}

Result<void> IpLayer::SendOne(Chain payload, IpProto proto, Ipv4Addr src, Ipv4Addr dst,
                              uint8_t ttl, uint16_t id, uint16_t frag_field, Ipv4Addr next_hop) {
  size_t total_len = payload.len() + kIpHeaderLen;
  uint8_t* hdr = payload.Prepend(kIpHeaderLen);
  BuildHeader(hdr, total_len, id, frag_field, ttl, proto, src, dst);
  // Header checksum cost (data checksums belong to the transports).
  env_->Charge(kIpHeaderLen * env_->prof->checksum_per_byte);
  stats_.sent++;
  return ether_->OutputIp(std::move(payload), next_hop);
}

void IpLayer::Input(Chain pkt) {
  ProbeSpan span(env_->obs->tracer, env_->sim, Stage::kIpIntr);
  env_->Charge(env_->prof->ipintr_fixed);
  env_->sync->ChargeSyncPair();
  stats_.received++;

  const uint8_t* h = pkt.Pullup(kIpHeaderLen);
  if (h == nullptr || h[0] != 0x45) {
    env_->Drop(env_->cur_rx_pkt, TraceLayer::kInet, DropReason::kIpBadHeader);
    return;
  }
  env_->Charge(kIpHeaderLen * env_->prof->checksum_per_byte);
  if (InternetChecksum(h, kIpHeaderLen) != 0) {
    env_->Drop(env_->cur_rx_pkt, TraceLayer::kInet, DropReason::kIpBadChecksum);
    return;
  }
  uint16_t total_len = Load16(h + 2);
  if (total_len < kIpHeaderLen || total_len > pkt.len()) {
    env_->Drop(env_->cur_rx_pkt, TraceLayer::kInet, DropReason::kIpBadHeader);
    return;
  }
  uint16_t id = Load16(h + 4);
  uint16_t frag_field = Load16(h + 6);
  IpProto proto = static_cast<IpProto>(h[9]);
  Ipv4Addr src(Load32(h + 12));
  Ipv4Addr dst(Load32(h + 16));

  if (!(dst == my_ip_) && !(dst == Ipv4Addr::Broadcast())) {
    env_->Drop(env_->cur_rx_pkt, TraceLayer::kInet, DropReason::kIpNotOurs);
    return;
  }

  // Trim link-layer padding and the header.
  if (pkt.len() > total_len) {
    pkt.TrimBack(pkt.len() - total_len);
  }
  pkt.TrimFront(kIpHeaderLen);

  if ((frag_field & (kFlagMoreFragments | kFragOffsetMask)) != 0) {
    stats_.fragments_received++;
    InputFragment(std::move(pkt), ReasmKey{src.v, dst.v, id, h[9]}, frag_field);
    return;
  }
  DeliverLocal(std::move(pkt), proto, src, dst);
}

void IpLayer::InputFragment(Chain payload, const ReasmKey& key, uint16_t frag_field) {
  ReasmState& st = reasm_[key];
  if (st.deadline == 0) {
    st.deadline = env_->Now() + kReassemblyTtl;
  }
  uint16_t off = (frag_field & kFragOffsetMask) * 8;
  bool more = (frag_field & kFlagMoreFragments) != 0;
  if (!more) {
    st.total_len = off + static_cast<int>(payload.len());
  }
  st.fragments[off] = std::move(payload);

  if (st.total_len < 0) {
    return;
  }
  // Complete iff contiguous coverage of [0, total_len).
  size_t covered = 0;
  for (const auto& [o, c] : st.fragments) {
    if (o > covered) {
      return;  // hole
    }
    covered = std::max(covered, o + c.len());
  }
  if (covered < static_cast<size_t>(st.total_len)) {
    return;
  }
  Chain whole;
  size_t want = 0;
  for (auto& [o, c] : st.fragments) {
    if (o + c.len() <= want) {
      continue;  // fully duplicate fragment
    }
    Chain piece = c.CopyRange(want - o, c.len() - (want - o));
    want += piece.len();
    whole.AppendChain(std::move(piece));
    if (want >= static_cast<size_t>(st.total_len)) {
      break;
    }
  }
  if (whole.len() > static_cast<size_t>(st.total_len)) {
    whole.TrimBack(whole.len() - st.total_len);
  }
  IpProto proto = static_cast<IpProto>(key.proto);
  Ipv4Addr src(key.src);
  Ipv4Addr dst(key.dst);
  reasm_.erase(key);
  stats_.reassembled++;
  DeliverLocal(std::move(whole), proto, src, dst);
}

void IpLayer::DeliverLocal(Chain payload, IpProto proto, Ipv4Addr src, Ipv4Addr dst) {
  auto it = handlers_.find(static_cast<uint8_t>(proto));
  if (it == handlers_.end()) {
    env_->Drop(env_->cur_rx_pkt, TraceLayer::kInet, DropReason::kIpNoProto);
    return;
  }
  stats_.delivered++;
  it->second(std::move(payload), src, dst);
}

void IpLayer::SlowTick() {
  for (auto it = reasm_.begin(); it != reasm_.end();) {
    if (env_->Now() >= it->second.deadline) {
      // Timer context: the fragments' own ids were consumed at input; the
      // timeout is a whole-datagram loss with no single frame to blame.
      env_->Drop(0, TraceLayer::kInet, DropReason::kIpReassemblyTimeout);
      it = reasm_.erase(it);
    } else {
      ++it;
    }
  }
}

bool IpLayer::SlowTickDue(SimTime t) const {
  for (const auto& [key, r] : reasm_) {
    if (t >= r.deadline) {
      return true;
    }
  }
  return false;
}

}  // namespace psd
