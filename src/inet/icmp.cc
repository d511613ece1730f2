#include "src/inet/icmp.h"

#include <cstring>

#include "src/base/bytes.h"
#include "src/base/checksum.h"

namespace psd {

namespace {
constexpr size_t kIcmpHeaderLen = 8;

void FinishChecksum(Chain* c) {
  ChecksumAccumulator acc;
  c->Checksum(0, c->len(), &acc);
  uint16_t sum = acc.Finish();
  uint8_t* h = c->MutablePullup(kIcmpHeaderLen);
  Store16(h + 2, sum);
}
}  // namespace

IcmpLayer::IcmpLayer(StackEnv* env, IpLayer* ip) : env_(env), ip_(ip) {
  ip_->Register(IpProto::kIcmp,
                [this](Chain c, Ipv4Addr src, Ipv4Addr dst) { Input(std::move(c), src, dst); });
}

void IcmpLayer::Input(Chain payload, Ipv4Addr src, Ipv4Addr dst) {
  (void)dst;
  if (payload.len() < kIcmpHeaderLen) {
    return;
  }
  env_->Charge(static_cast<SimDuration>(payload.len()) * env_->prof->checksum_per_byte);
  ChecksumAccumulator acc;
  payload.Checksum(0, payload.len(), &acc);
  if (acc.Finish() != 0) {
    return;
  }
  const uint8_t* h = payload.Pullup(kIcmpHeaderLen);
  IcmpType type = static_cast<IcmpType>(h[0]);
  switch (type) {
    case IcmpType::kEchoRequest: {
      Chain reply;
      std::vector<uint8_t> bytes = payload.ToVector();
      bytes[0] = static_cast<uint8_t>(IcmpType::kEchoReply);
      Store16(bytes.data() + 2, 0);
      reply.Append(bytes.data(), bytes.size());
      FinishChecksum(&reply);
      ip_->Output(std::move(reply), IpProto::kIcmp, ip_->addr(), src);
      break;
    }
    case IcmpType::kEchoReply:
      break;  // this stack never sends an echo request
    case IcmpType::kUnreachable: {
      // Payload: unused(4) + original IP header(20) + first 8 bytes of the
      // original transport header.
      if (payload.len() < kIcmpHeaderLen + kIpHeaderLen + 8 || !on_unreach_) {
        return;
      }
      const uint8_t* p = payload.Pullup(kIcmpHeaderLen + kIpHeaderLen + 8);
      const uint8_t* oip = p + kIcmpHeaderLen;
      IpProto oproto = static_cast<IpProto>(oip[9]);
      Ipv4Addr odst(Load32(oip + 16));
      uint16_t osport = Load16(oip + kIpHeaderLen);      // original src port
      uint16_t odport = Load16(oip + kIpHeaderLen + 2);  // original dst port
      on_unreach_(static_cast<IcmpUnreachCode>(h[1]), oproto, SockAddrIn{odst, odport}, osport);
      break;
    }
  }
}

void IcmpLayer::SendUnreachable(IcmpUnreachCode code, const Chain& orig_transport, IpProto proto,
                                Ipv4Addr orig_src, Ipv4Addr orig_dst) {
  Chain c;
  uint8_t hdr[kIcmpHeaderLen] = {};
  hdr[0] = static_cast<uint8_t>(IcmpType::kUnreachable);
  hdr[1] = static_cast<uint8_t>(code);
  c.Append(hdr, sizeof(hdr));
  // Reconstruct the original IP header as the receiver saw it.
  uint8_t oip[kIpHeaderLen];
  IpLayer::BuildHeader(oip, kIpHeaderLen + orig_transport.len(), 0, 0, kDefaultTtl, proto,
                       orig_src, orig_dst);
  c.Append(oip, sizeof(oip));
  size_t n = std::min<size_t>(8, orig_transport.len());
  std::vector<uint8_t> first8(n);
  orig_transport.CopyOut(0, first8.data(), n);
  c.Append(first8.data(), n);
  FinishChecksum(&c);
  unreachables_sent_++;
  ip_->Output(std::move(c), IpProto::kIcmp, ip_->addr(), orig_src);
}

}  // namespace psd
