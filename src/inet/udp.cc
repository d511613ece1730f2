#include "src/inet/udp.h"

#include <algorithm>
#include <cassert>

#include "src/base/bytes.h"
#include "src/base/checksum.h"
#include "src/base/log.h"
#include "src/obs/journey.h"

namespace psd {

namespace {

// Pseudo-header + UDP checksum over the real bytes.
uint16_t UdpChecksum(const Chain& seg, Ipv4Addr src, Ipv4Addr dst) {
  ChecksumAccumulator acc;
  acc.AddWord(static_cast<uint16_t>(src.v >> 16));
  acc.AddWord(static_cast<uint16_t>(src.v));
  acc.AddWord(static_cast<uint16_t>(dst.v >> 16));
  acc.AddWord(static_cast<uint16_t>(dst.v));
  acc.AddWord(static_cast<uint16_t>(IpProto::kUdp));
  acc.AddWord(static_cast<uint16_t>(seg.len()));
  seg.Checksum(0, seg.len(), &acc);
  return acc.Finish();
}

}  // namespace

UdpLayer::UdpLayer(StackEnv* env, IpLayer* ip, IcmpLayer* icmp, PortAlloc* ports)
    : env_(env), ip_(ip), icmp_(icmp), ports_(ports) {
  ip_->Register(IpProto::kUdp,
                [this](Chain c, Ipv4Addr src, Ipv4Addr dst) { Input(std::move(c), src, dst); });
  icmp_->SetUnreachHandler(
      [this](IcmpUnreachCode code, IpProto proto, SockAddrIn orig_dst, uint16_t orig_src_port) {
        OnUnreach(code, proto, orig_dst, orig_src_port);
      });
}

UdpPcb* UdpLayer::Create() {
  pcbs_.push_back(std::make_unique<UdpPcb>());
  return pcbs_.back().get();
}

void UdpLayer::Destroy(UdpPcb* pcb) {
  if (pcb->port_owned && pcb->local.port != 0) {
    ports_->Release(pcb->local.port);
  }
  pcbs_.erase(std::remove_if(pcbs_.begin(), pcbs_.end(),
                             [pcb](const std::unique_ptr<UdpPcb>& p) { return p.get() == pcb; }),
              pcbs_.end());
}

Result<void> UdpLayer::Bind(UdpPcb* pcb, SockAddrIn local) {
  if (pcb->local.port != 0) {
    return Err::kInval;
  }
  Result<uint16_t> port = ports_->Acquire(local.port);
  if (!port.ok()) {
    return port.error();
  }
  pcb->local = SockAddrIn{local.addr.IsAny() ? ip_->addr() : local.addr, *port};
  pcb->port_owned = true;
  return OkResult();
}

void UdpLayer::AdoptBinding(UdpPcb* pcb, SockAddrIn local) {
  pcb->local = local;
  pcb->port_owned = false;
}

Result<void> UdpLayer::Connect(UdpPcb* pcb, SockAddrIn remote) {
  if (pcb->local.port == 0) {
    Result<void> r = Bind(pcb, SockAddrIn{ip_->addr(), 0});
    if (!r.ok()) {
      return r;
    }
  }
  pcb->remote = remote;
  return OkResult();
}

Result<void> UdpLayer::Output(UdpPcb* pcb, Chain data, const SockAddrIn* dst) {
  ProbeSpan span(env_->obs->tracer, env_->sim, Stage::kProtoOutput);
  env_->Charge(env_->prof->udp_out_fixed);
  if (env_->placement != Placement::kLibrary) {
    // The in-kernel/server udp_output carries the full in_pcb machinery
    // (Table 4: kernel 70us vs library 18us at 1 byte).
    env_->Charge(Micros(50));
  }
  env_->sync->ChargeSyncPair();

  SockAddrIn to = dst != nullptr ? *dst : pcb->remote;
  if (to.port == 0) {
    return Err::kNotConn;
  }
  if (pcb->local.port == 0) {
    Result<void> r = Bind(pcb, SockAddrIn{ip_->addr(), 0});
    if (!r.ok()) {
      return r;
    }
  }
  if (data.len() > pcb->snd_limit) {
    return Err::kMsgSize;
  }
  if (pcb->so_error != Err::kOk) {
    Err e = pcb->so_error;
    pcb->so_error = Err::kOk;
    return e;
  }

  size_t dlen = data.len();
  uint8_t* h = data.Prepend(kUdpHeaderLen);
  Store16(h + 0, pcb->local.port);
  Store16(h + 2, to.port);
  Store16(h + 4, static_cast<uint16_t>(dlen + kUdpHeaderLen));
  Store16(h + 6, 0);
  uint16_t sum = UdpChecksum(data, pcb->local.addr, to.addr);
  if (sum == 0) {
    sum = 0xffff;
  }
  // Rebuild the header word (Prepend gave us contiguous header space).
  Store16(data.MutablePullup(kUdpHeaderLen) + 6, sum);
  env_->Charge(static_cast<SimDuration>(data.len()) * env_->prof->checksum_per_byte);

  stats_.sent++;
  return ip_->Output(std::move(data), IpProto::kUdp, pcb->local.addr, to.addr);
}

UdpPcb* UdpLayer::Demux(const SockAddrIn& local, const SockAddrIn& remote) {
  UdpPcb* best = nullptr;
  int best_score = -1;
  for (const auto& p : pcbs_) {
    if (p->local.port != local.port) {
      continue;
    }
    if (!p->local.addr.IsAny() && !(p->local.addr == local.addr)) {
      continue;
    }
    int score = 0;
    if (p->remote.port != 0) {
      if (!(p->remote == remote)) {
        continue;
      }
      score = 2;
    }
    if (!p->local.addr.IsAny()) {
      score++;
    }
    if (score > best_score) {
      best = p.get();
      best_score = score;
    }
  }
  return best;
}

void UdpLayer::Input(Chain dgram, Ipv4Addr src, Ipv4Addr dst) {
  ProbeSpan span(env_->obs->tracer, env_->sim, Stage::kProtoInput);
  env_->Charge(env_->prof->udp_in_fixed);
  env_->sync->ChargeSyncPair();
  if (env_->placement == Placement::kLibrary) {
    env_->Charge(env_->prof->lib_input_extra / 3);
  }

  if (dgram.len() < kUdpHeaderLen) {
    env_->Drop(env_->cur_rx_pkt, TraceLayer::kInet, DropReason::kUdpBadLength);
    return;
  }
  const uint8_t* h = dgram.Pullup(kUdpHeaderLen);
  uint16_t sport = Load16(h + 0);
  uint16_t dport = Load16(h + 2);
  uint16_t ulen = Load16(h + 4);
  uint16_t sum = Load16(h + 6);
  if (ulen < kUdpHeaderLen || ulen > dgram.len()) {
    env_->Drop(env_->cur_rx_pkt, TraceLayer::kInet, DropReason::kUdpBadLength);
    return;
  }
  if (dgram.len() > ulen) {
    dgram.TrimBack(dgram.len() - ulen);
  }
  env_->Charge(static_cast<SimDuration>(dgram.len()) * env_->prof->checksum_per_byte);
  if (sum != 0 && UdpChecksum(dgram, src, dst) != 0) {
    env_->Drop(env_->cur_rx_pkt, TraceLayer::kInet, DropReason::kUdpBadChecksum);
    return;
  }
  stats_.received++;

  UdpPcb* pcb = Demux(SockAddrIn{dst, dport}, SockAddrIn{src, sport});
  if (pcb == nullptr) {
    env_->Drop(env_->cur_rx_pkt, TraceLayer::kInet, DropReason::kUdpNoPort);
    if (!(dst == Ipv4Addr::Broadcast())) {
      icmp_->SendUnreachable(IcmpUnreachCode::kPort, dgram, IpProto::kUdp, src, dst);
    }
    return;
  }
  dgram.TrimFront(kUdpHeaderLen);
  env_->Charge(env_->prof->sbqueue_fixed);
  if (!pcb->rcv.AppendDgram(SockAddrIn{src, sport}, std::move(dgram))) {
    env_->Drop(env_->cur_rx_pkt, TraceLayer::kSock, DropReason::kUdpBufferFull);
    return;
  }
  env_->obs->journey.Deliver(env_->cur_rx_pkt, TraceLayer::kSock, env_->node.id(),
                             env_->Now());
  if (pcb->rcv_wakeup) {
    pcb->rcv_wakeup();
  }
}

void UdpLayer::OnUnreach(IcmpUnreachCode code, IpProto proto, SockAddrIn orig_dst,
                         uint16_t orig_src_port) {
  if (proto != IpProto::kUdp) {
    return;
  }
  for (const auto& p : pcbs_) {
    if (p->local.port == orig_src_port && p->remote == orig_dst && p->remote.port != 0) {
      p->so_error = code == IcmpUnreachCode::kPort ? Err::kConnRefused : Err::kHostUnreach;
      if (p->rcv_wakeup) {
        p->rcv_wakeup();
      }
    }
  }
}

}  // namespace psd
