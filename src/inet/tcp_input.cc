// tcp_input: segment arrival processing, following the BSD Net/2 structure:
// demux, listen/syn-sent handling, window trimming, RST/SYN/ACK processing,
// fast retransmit + recovery, window updates, urgent data, reassembly, and
// FIN state transitions.
#include <algorithm>
#include <cassert>

#include "src/base/bytes.h"
#include "src/base/checksum.h"
#include "src/base/log.h"
#include "src/inet/tcp.h"
#include "src/obs/journey.h"

namespace psd {

namespace {

uint16_t TcpChecksum(const Chain& seg, Ipv4Addr src, Ipv4Addr dst) {
  ChecksumAccumulator acc;
  acc.AddWord(static_cast<uint16_t>(src.v >> 16));
  acc.AddWord(static_cast<uint16_t>(src.v));
  acc.AddWord(static_cast<uint16_t>(dst.v >> 16));
  acc.AddWord(static_cast<uint16_t>(dst.v));
  acc.AddWord(static_cast<uint16_t>(IpProto::kTcp));
  acc.AddWord(static_cast<uint16_t>(seg.len()));
  seg.Checksum(0, seg.len(), &acc);
  return acc.Finish();
}

constexpr int kKeepIdleTicks = 14400;  // 2 hours of slow ticks
constexpr int k2MslTicks = 120;        // 60 s

}  // namespace

TcpPcb* TcpLayer::Demux(const SockAddrIn& local, const SockAddrIn& remote) {
  TcpPcb* listener = nullptr;
  for (const auto& p : pcbs_) {
    if (p->local.port != local.port) {
      continue;
    }
    if (p->state == TcpState::kListen) {
      if (p->local.addr.IsAny() || p->local.addr == local.addr) {
        listener = p.get();
      }
      continue;
    }
    if (p->state == TcpState::kClosed) {
      continue;
    }
    if (p->remote == remote && (p->local.addr == local.addr || p->local.addr.IsAny())) {
      return p.get();
    }
  }
  return listener;
}

void TcpLayer::Input(Chain seg, Ipv4Addr src, Ipv4Addr dst) {
  ProbeSpan span(env_->obs->tracer, env_->sim, Stage::kProtoInput);
  env_->Charge(env_->prof->tcp_in_fixed);
  env_->sync->ChargeSyncPair();
  if (env_->placement == Placement::kLibrary) {
    env_->Charge(env_->prof->lib_input_extra);
  }
  stats_.segs_received++;

  // Shorthand: every discard in this function funnels through the ledger
  // with the id of the frame being processed (0 outside input context).
  auto drop = [this](DropReason reason) {
    env_->Drop(env_->cur_rx_pkt, TraceLayer::kInet, reason);
  };

  if (seg.len() < kTcpHeaderLen) {
    drop(DropReason::kTcpBadLength);
    return;
  }
  env_->Charge(static_cast<SimDuration>(seg.len()) * env_->prof->checksum_per_byte);
  if (TcpChecksum(seg, src, dst) != 0) {
    drop(DropReason::kTcpBadChecksum);
    return;
  }
  const uint8_t* h = seg.Pullup(kTcpHeaderLen);
  uint16_t sport = Load16(h + 0);
  uint16_t dport = Load16(h + 2);
  uint32_t seq = Load32(h + 4);
  uint32_t ack = Load32(h + 8);
  size_t hdrlen = static_cast<size_t>(h[12] >> 4) * 4;
  uint8_t flags = h[13];
  uint32_t win = Load16(h + 14);
  uint32_t urp = Load16(h + 18);
  if (hdrlen < kTcpHeaderLen || hdrlen > seg.len()) {
    drop(DropReason::kTcpBadLength);
    return;
  }

  // Options (MSS only).
  uint16_t opt_mss = 0;
  if (hdrlen > kTcpHeaderLen) {
    const uint8_t* o = seg.Pullup(hdrlen);
    size_t at = kTcpHeaderLen;
    while (at < hdrlen) {
      uint8_t kind = o[at];
      if (kind == 0) {
        break;
      }
      if (kind == 1) {
        at++;
        continue;
      }
      if (at + 1 >= hdrlen) {
        break;
      }
      uint8_t olen = o[at + 1];
      if (olen < 2 || at + olen > hdrlen) {
        break;
      }
      if (kind == 2 && olen == 4 && (flags & kTcpSyn)) {
        opt_mss = Load16(o + at + 2);
      }
      at += olen;
    }
  }

  seg.TrimFront(hdrlen);
  size_t tlen = seg.len();
  SockAddrIn local{dst, dport};
  SockAddrIn remote{src, sport};

  auto drop_with_reset = [&] {
    if (flags & kTcpRst) {
      return;
    }
    stats_.rsts_sent++;
    if (flags & kTcpAck) {
      Respond(nullptr, local, remote, ack, 0, kTcpRst);
    } else {
      uint32_t rack = seq + static_cast<uint32_t>(tlen) + ((flags & kTcpSyn) ? 1 : 0) +
                      ((flags & kTcpFin) ? 1 : 0);
      Respond(nullptr, local, remote, 0, rack, kTcpRst | kTcpAck);
    }
  };

  TcpPcb* pcb = nullptr;
  for (int pass = 0; pass < 2; pass++) {
    pcb = Demux(local, remote);
    if (pcb == nullptr) {
      if (rst_suppress_ != nullptr && rst_suppress_(local, remote)) {
        // Tuple is owned by another placement (migration handover): the
        // stray dies silently and retransmission recovers after handover.
        drop(DropReason::kMigrationWindow);
        return;
      }
      drop(DropReason::kTcpNoPcb);
      drop_with_reset();
      return;
    }

    // TIME_WAIT connection reuse: a fresh SYN beyond the old sequence space
    // tears down the old incarnation and redelivers to the listener.
    if (pcb->state == TcpState::kTimeWait && (flags & kTcpSyn) && !(flags & kTcpRst) &&
        SeqGt(seq, pcb->rcv_nxt) && pass == 0) {
      TcpPcb* old = pcb;
      CloseDone(old);
      Destroy(old);
      continue;
    }
    break;
  }

  pcb->segs_in++;

  if (pcb->state == TcpState::kClosed) {
    drop(DropReason::kTcpUnacceptable);
    drop_with_reset();
    return;
  }

  // ---- LISTEN ----
  if (pcb->state == TcpState::kListen) {
    if (flags & kTcpRst) {
      drop(DropReason::kTcpUnacceptable);
      return;
    }
    if (flags & kTcpAck) {
      if (rst_suppress_ != nullptr && rst_suppress_(local, remote)) {
        // The connection for this tuple migrated to another placement and
        // its pcb left this stack; the demux fell through to the listener.
        // A RST here would reach the live migrated connection in-window and
        // reset it — drop the stray (e.g. a delayed handshake ACK) instead.
        drop(DropReason::kMigrationWindow);
        return;
      }
      drop(DropReason::kTcpUnacceptable);
      drop_with_reset();
      return;
    }
    if (!(flags & kTcpSyn)) {
      drop(DropReason::kTcpUnacceptable);
      return;
    }
    if (pcb->embryonic + static_cast<int>(pcb->accept_ready.size()) >= pcb->syn_backlog) {
      // Queue full: drop the SYN, let the peer retry. BSD sonewconn
      // semantics — the *combined* population (half-open children plus
      // completed connections awaiting accept) is bounded here, at
      // admission, where the peer is still harmlessly parked in connect().
      // A handshake, once admitted, is never refused at completion: by
      // then the peer believes it is established and has data in flight,
      // and refusing the completing ACK strands the session on the peer's
      // retransmit timers until the establishment reaper kills it.
      drop(DropReason::kTcpListenOverflow);
      return;
    }
    TcpPcb* child = Create();
    child->parent = pcb;
    pcb->embryonic++;
    child->local = local;
    child->remote = remote;
    child->port_owned = false;
    child->snd.set_hiwat(pcb->snd.hiwat());
    child->rcv.set_hiwat(pcb->rcv.hiwat());
    child->nodelay = pcb->nodelay;
    child->keepalive = pcb->keepalive;
    auto route = ip_->routes()->Lookup(remote.addr);
    uint16_t route_mss = (route && route->gateway.IsAny()) ? kTcpEtherMss : kTcpDefaultMss;
    // A peer that omits the MSS option still gets route-sized segments
    // (on-link peers take full Ethernet frames), matching the active-open
    // path: Connect sets the route MSS and the clamp below only runs when
    // the option is present.
    child->t_maxseg = opt_mss != 0 ? std::min(opt_mss, route_mss) : route_mss;
    child->snd_cwnd = child->t_maxseg;
    child->irs = seq;
    child->rcv_nxt = seq + 1;
    child->rcv_adv = child->rcv_nxt;
    child->iss = NextIss();
    child->snd_una = child->snd_nxt = child->snd_max = child->iss;
    child->snd_up = child->iss;
    child->snd_wnd = win;
    child->max_sndwnd = win;
    child->snd_wl1 = seq;
    child->snd_wl2 = child->iss;
    child->state = TcpState::kSynRcvd;
    child->t_timer[TcpPcb::kTimerKeep] = kTcpConnEstablishTicks;
    Output(child);
    return;
  }

  pcb->t_idle = 0;
  if (pcb->state == TcpState::kEstablished) {
    pcb->t_timer[TcpPcb::kTimerKeep] = kKeepIdleTicks;
  }
  if ((flags & kTcpSyn) && opt_mss != 0) {
    auto route = ip_->routes()->Lookup(remote.addr);
    uint16_t route_mss = (route && route->gateway.IsAny()) ? kTcpEtherMss : kTcpDefaultMss;
    pcb->t_maxseg = std::min(opt_mss, route_mss);
  }

  bool needoutput = false;

  // ---- SYN_SENT ----
  if (pcb->state == TcpState::kSynSent) {
    if ((flags & kTcpAck) && (SeqLeq(ack, pcb->iss) || SeqGt(ack, pcb->snd_max))) {
      drop(DropReason::kTcpUnacceptable);
      drop_with_reset();
      return;
    }
    if (flags & kTcpRst) {
      if (flags & kTcpAck) {
        DropConnection(pcb, Err::kConnRefused);
      }
      return;
    }
    if (!(flags & kTcpSyn)) {
      drop(DropReason::kTcpUnacceptable);
      return;
    }
    if (!(flags & kTcpAck)) {
      // Simultaneous open: unsupported (documented omission).
      drop(DropReason::kTcpUnacceptable);
      return;
    }
    pcb->snd_una = ack;
    if (SeqLt(pcb->snd_nxt, pcb->snd_una)) {
      pcb->snd_nxt = pcb->snd_una;
    }
    pcb->t_timer[TcpPcb::kTimerRexmt] = 0;
    pcb->irs = seq;
    pcb->rcv_nxt = seq + 1;
    pcb->rcv_adv = pcb->rcv_nxt;
    pcb->snd_cwnd = pcb->t_maxseg;
    pcb->state = TcpState::kEstablished;
    pcb->t_timer[TcpPcb::kTimerKeep] = kKeepIdleTicks;
    stats_.conns_established++;
    pcb->ack_now = true;
    pcb->snd_wl1 = seq - 1;
    if (pcb->state_wakeup) {
      pcb->state_wakeup();
    }
    if (pcb->snd_wakeup) {
      pcb->snd_wakeup();
    }
    seq++;  // consume the SYN
    if (flags & kTcpUrg) {
      if (urp > 1) {
        urp--;
      } else {
        flags &= ~kTcpUrg;
      }
    }
    // Fall through to window/data processing below.
  } else {
    // ---- Trim segment to the receive window ----
    int64_t todrop = static_cast<int32_t>(pcb->rcv_nxt - seq);
    if (todrop > 0) {
      if (flags & kTcpSyn) {
        flags &= ~kTcpSyn;
        seq++;
        if (urp > 1) {
          urp--;
        } else {
          flags &= ~kTcpUrg;
        }
        todrop--;
      }
      if (todrop > static_cast<int64_t>(tlen) ||
          (todrop == static_cast<int64_t>(tlen) && !(flags & kTcpFin))) {
        // Complete duplicate: ack it and drop.
        drop(DropReason::kTcpSeqTrim);
        pcb->ack_now = true;
        Output(pcb);
        return;
      }
      seg.TrimFront(static_cast<size_t>(todrop));
      seq += static_cast<uint32_t>(todrop);
      tlen -= static_cast<size_t>(todrop);
      if (urp > static_cast<uint32_t>(todrop)) {
        urp -= static_cast<uint32_t>(todrop);
      } else {
        flags &= ~kTcpUrg;
        urp = 0;
      }
    }

    int64_t past = static_cast<int64_t>(seq) + static_cast<int64_t>(tlen) -
                   (static_cast<int64_t>(pcb->rcv_nxt) + pcb->rcv_wnd);
    // Work in sequence space mod 2^32.
    past = static_cast<int32_t>((seq + static_cast<uint32_t>(tlen)) -
                                (pcb->rcv_nxt + pcb->rcv_wnd));
    if (past > 0) {
      if (past >= static_cast<int64_t>(tlen)) {
        if (pcb->rcv_wnd == 0 && seq == pcb->rcv_nxt) {
          // Zero-window probe: drop payload, still process the ACK.
          pcb->ack_now = true;
          if (tlen > 0) {
            seg.TrimBack(tlen);
            tlen = 0;
          }
          flags &= ~(kTcpFin | kTcpPsh);
        } else {
          // Entirely outside the receive window: ack and discard.
          drop(DropReason::kTcpOutOfWindow);
          pcb->ack_now = true;
          Output(pcb);
          return;
        }
      } else {
        seg.TrimBack(static_cast<size_t>(past));
        tlen -= static_cast<size_t>(past);
        flags &= ~(kTcpFin | kTcpPsh);
      }
    }

    // ---- RST ----
    if (flags & kTcpRst) {
      switch (pcb->state) {
        case TcpState::kSynRcvd:
          // DropConnection releases the listener's SYN-half slot via
          // DetachFromParent.
          DropConnection(pcb, Err::kConnRefused);
          break;
        case TcpState::kEstablished:
        case TcpState::kFinWait1:
        case TcpState::kFinWait2:
        case TcpState::kCloseWait:
          DropConnection(pcb, Err::kConnReset);
          break;
        case TcpState::kClosing:
        case TcpState::kLastAck:
        case TcpState::kTimeWait:
          CloseDone(pcb);
          break;
        default:
          break;
      }
      return;
    }

    // ---- SYN inside the window: fatal ----
    if (flags & kTcpSyn) {
      drop(DropReason::kTcpUnacceptable);
      Respond(pcb, pcb->local, pcb->remote, pcb->snd_nxt, pcb->rcv_nxt, kTcpRst | kTcpAck);
      stats_.rsts_sent++;
      DropConnection(pcb, Err::kConnReset);
      return;
    }

    if (!(flags & kTcpAck)) {
      return;
    }

    // ---- ACK processing ----
    if (pcb->state == TcpState::kSynRcvd) {
      if (SeqGt(pcb->snd_una, ack) || SeqGt(ack, pcb->snd_max)) {
        drop(DropReason::kTcpUnacceptable);
        drop_with_reset();
        return;
      }
      pcb->state = TcpState::kEstablished;
      pcb->t_timer[TcpPcb::kTimerKeep] = kKeepIdleTicks;
      stats_.conns_established++;
      pcb->snd_wl1 = seq - 1;
      if (pcb->parent != nullptr) {
        pcb->parent->embryonic--;
        pcb->parent->accept_ready.push_back(pcb);
        if (pcb->parent->accept_wakeup) {
          pcb->parent->accept_wakeup();
        }
      }
      if (pcb->state_wakeup) {
        pcb->state_wakeup();
      }
    }

    if (SeqLeq(ack, pcb->snd_una)) {
      if (tlen == 0 && win == pcb->snd_wnd) {
        stats_.dup_acks++;
        env_->obs->tracer.Instant(env_->sim, "tcp/dupack", TraceLayer::kInet, pcb->id);
        if (pcb->t_timer[TcpPcb::kTimerRexmt] == 0 || ack != pcb->snd_una) {
          pcb->t_dupacks = 0;
        } else {
          pcb->t_dupacks++;
          if (pcb->t_dupacks == 3) {
            // Fast retransmit + fast recovery (Reno).
            uint32_t onxt = pcb->snd_nxt;
            uint32_t w = std::min<uint32_t>(pcb->snd_wnd, pcb->snd_cwnd) / 2 / pcb->t_maxseg;
            if (w < 2) {
              w = 2;
            }
            pcb->snd_ssthresh = w * pcb->t_maxseg;
            pcb->t_timer[TcpPcb::kTimerRexmt] = 0;
            pcb->t_rtt = 0;
            pcb->snd_nxt = ack;
            pcb->snd_cwnd = pcb->t_maxseg;
            stats_.fast_retransmits++;
            Output(pcb);
            pcb->snd_cwnd =
                pcb->snd_ssthresh + pcb->t_maxseg * static_cast<uint32_t>(pcb->t_dupacks);
            if (SeqGt(onxt, pcb->snd_nxt)) {
              pcb->snd_nxt = onxt;
            }
            return;
          }
          if (pcb->t_dupacks > 3) {
            pcb->snd_cwnd += pcb->t_maxseg;
            Output(pcb);
            return;
          }
        }
      } else {
        pcb->t_dupacks = 0;
      }
      // Old ACK: fall through to window update / data.
    } else {
      if (SeqGt(ack, pcb->snd_max)) {
        pcb->ack_now = true;
        Output(pcb);
        return;
      }
      if (pcb->t_dupacks >= 3 && pcb->snd_cwnd > pcb->snd_ssthresh) {
        pcb->snd_cwnd = pcb->snd_ssthresh;  // deflate after fast recovery
      }
      pcb->t_dupacks = 0;
      stats_.acks_received++;
      uint32_t acked = ack - pcb->snd_una;

      if (pcb->t_rtt != 0 && SeqGt(ack, pcb->t_rtseq)) {
        UpdateRtt(pcb, pcb->t_rtt);
      }
      if (ack == pcb->snd_max) {
        pcb->t_timer[TcpPcb::kTimerRexmt] = 0;
        needoutput = true;
      } else if (pcb->t_timer[TcpPcb::kTimerPersist] == 0) {
        pcb->t_timer[TcpPcb::kTimerRexmt] = pcb->t_rxtcur;
      }

      // Congestion window growth.
      {
        uint32_t cw = pcb->snd_cwnd;
        uint32_t incr = pcb->t_maxseg;
        if (cw > pcb->snd_ssthresh) {
          incr = std::max<uint32_t>(1, incr * incr / cw);
        }
        pcb->snd_cwnd = std::min<uint32_t>(cw + incr, kTcpMaxWin);
      }

      bool ourfinisacked = false;
      if (acked > pcb->snd.cc()) {
        pcb->snd_wnd -= static_cast<uint32_t>(pcb->snd.cc());
        pcb->snd.Drop(pcb->snd.cc());
        ourfinisacked = true;
      } else {
        pcb->snd.Drop(acked);
        pcb->snd_wnd -= acked;
      }
      pcb->snd_una = ack;
      if (SeqLt(pcb->snd_nxt, pcb->snd_una)) {
        pcb->snd_nxt = pcb->snd_una;
      }
      if (pcb->snd_wakeup) {
        pcb->snd_wakeup();
      }

      switch (pcb->state) {
        case TcpState::kFinWait1:
          if (ourfinisacked) {
            pcb->state = TcpState::kFinWait2;
            if (pcb->state_wakeup) {
              pcb->state_wakeup();
            }
          }
          break;
        case TcpState::kClosing:
          if (ourfinisacked) {
            pcb->state = TcpState::kTimeWait;
            CancelTimers(pcb);
            pcb->t_timer[TcpPcb::kTimer2Msl] = k2MslTicks;
            if (pcb->state_wakeup) {
              pcb->state_wakeup();
            }
          }
          break;
        case TcpState::kLastAck:
          if (ourfinisacked) {
            CloseDone(pcb);
            return;
          }
          break;
        case TcpState::kTimeWait:
          pcb->t_timer[TcpPcb::kTimer2Msl] = k2MslTicks;
          pcb->ack_now = true;
          Output(pcb);
          return;
        default:
          break;
      }
    }
  }

  // ---- Window update (step 6) ----
  if ((flags & kTcpAck) &&
      (SeqLt(pcb->snd_wl1, seq) ||
       (pcb->snd_wl1 == seq &&
        (SeqLt(pcb->snd_wl2, ack) || (pcb->snd_wl2 == ack && win > pcb->snd_wnd))))) {
    stats_.window_updates++;
    pcb->snd_wnd = win;
    pcb->snd_wl1 = seq;
    pcb->snd_wl2 = ack;
    if (pcb->snd_wnd > pcb->max_sndwnd) {
      pcb->max_sndwnd = pcb->snd_wnd;
    }
    needoutput = true;
  }

  // ---- Urgent data ----
  if ((flags & kTcpUrg) && urp != 0 && pcb->state != TcpState::kTimeWait) {
    if (SeqGt(seq + urp, pcb->rcv_up)) {
      pcb->rcv_up = seq + urp;
    }
  } else if (SeqGt(pcb->rcv_nxt, pcb->rcv_up)) {
    pcb->rcv_up = pcb->rcv_nxt;
  }

  // ---- Data and FIN ----
  if (tlen > 0 || (flags & kTcpFin)) {
    if (tlen > 0) {
      if (seq == pcb->rcv_nxt && pcb->reasm.empty() &&
          pcb->state == TcpState::kEstablished) {
        // Fast path: in-order segment.
        pcb->delack = true;
        stats_.acks_delayed++;
        pcb->rcv_nxt += static_cast<uint32_t>(tlen);
        stats_.bytes_received += tlen;
        env_->Charge(env_->prof->sbqueue_fixed);
        if (!pcb->cantrcvmore) {
          pcb->rcv.AppendStream(std::move(seg));
          env_->obs->journey.Deliver(env_->cur_rx_pkt, TraceLayer::kSock, env_->node.id(),
                                     env_->Now());
          if (pcb->rcv_wakeup) {
            pcb->rcv_wakeup();
          }
        } else {
          drop(DropReason::kTcpAfterClose);
        }
      } else {
        if (seq != pcb->rcv_nxt) {
          stats_.out_of_order++;
        }
        InsertReassembly(pcb, seq, std::move(seg));
        size_t before = pcb->rcv.cc();
        ReassemblyDrain(pcb);
        // If this segment filled the gap, its data (and earlier parked
        // segments') reached the sockbuf now; credit the gap-filler.
        if (pcb->rcv.cc() > before) {
          env_->obs->journey.Deliver(env_->cur_rx_pkt, TraceLayer::kSock, env_->node.id(),
                                     env_->Now());
        }
        pcb->ack_now = true;
      }
    }
    // FIN is honored only when it is the next expected sequence.
    if ((flags & kTcpFin) && seq + static_cast<uint32_t>(tlen) == pcb->rcv_nxt) {
      if (!pcb->cantrcvmore) {
        pcb->cantrcvmore = true;
        pcb->rcv_nxt++;
        pcb->ack_now = true;
        if (pcb->rcv_wakeup) {
          pcb->rcv_wakeup();
        }
        switch (pcb->state) {
          case TcpState::kEstablished:
            pcb->state = TcpState::kCloseWait;
            break;
          case TcpState::kFinWait1:
            pcb->state = TcpState::kClosing;
            break;
          case TcpState::kFinWait2:
            pcb->state = TcpState::kTimeWait;
            CancelTimers(pcb);
            pcb->t_timer[TcpPcb::kTimer2Msl] = k2MslTicks;
            break;
          default:
            break;
        }
        if (pcb->state_wakeup) {
          pcb->state_wakeup();
        }
      } else if (pcb->state == TcpState::kTimeWait) {
        pcb->t_timer[TcpPcb::kTimer2Msl] = k2MslTicks;
        pcb->ack_now = true;
      }
    }
  }

  if (needoutput || pcb->ack_now) {
    Output(pcb);
  }
}

void TcpLayer::InsertReassembly(TcpPcb* pcb, uint32_t seq, Chain data) {
  // Clip against already-delivered data.
  if (SeqLt(seq, pcb->rcv_nxt)) {
    uint32_t dup = pcb->rcv_nxt - seq;
    if (dup >= data.len()) {
      return;
    }
    data.TrimFront(dup);
    seq = pcb->rcv_nxt;
  }
  // Clip against the predecessor.
  auto next = pcb->reasm.upper_bound(seq);
  if (next != pcb->reasm.begin()) {
    auto pred = std::prev(next);
    uint32_t pred_end = pred->first + static_cast<uint32_t>(pred->second.len());
    if (SeqGeq(seq, pred->first) && SeqLt(seq, pred_end)) {
      uint32_t overlap = pred_end - seq;
      if (overlap >= data.len()) {
        return;  // fully contained
      }
      data.TrimFront(overlap);
      seq = pred_end;
      next = pcb->reasm.upper_bound(seq);
    }
  }
  // Absorb or clip successors.
  while (next != pcb->reasm.end()) {
    uint32_t end = seq + static_cast<uint32_t>(data.len());
    if (SeqGeq(next->first, end)) {
      break;
    }
    uint32_t next_end = next->first + static_cast<uint32_t>(next->second.len());
    if (SeqGeq(end, next_end)) {
      next = pcb->reasm.erase(next);  // fully covered
      continue;
    }
    // Partial overlap: keep the successor, clip our tail.
    data.TrimBack(end - next->first);
    break;
  }
  if (data.len() > 0) {
    pcb->reasm.emplace(seq, std::move(data));
  }
}

void TcpLayer::ReassemblyDrain(TcpPcb* pcb) {
  bool delivered = false;
  for (auto it = pcb->reasm.begin(); it != pcb->reasm.end();) {
    if (it->first != pcb->rcv_nxt) {
      break;
    }
    size_t n = it->second.len();
    pcb->rcv_nxt += static_cast<uint32_t>(n);
    stats_.bytes_received += n;
    if (!pcb->cantrcvmore) {
      pcb->rcv.AppendStream(std::move(it->second));
      delivered = true;
    }
    it = pcb->reasm.erase(it);
  }
  if (delivered && pcb->rcv_wakeup) {
    pcb->rcv_wakeup();
  }
}

void TcpLayer::UpdateRtt(TcpPcb* pcb, int rtt_ticks) {
  // Jacobson, in Net/2 fixed point: srtt scaled <<3, rttvar <<2.
  pcb->t_rtt = 0;
  int rtt = rtt_ticks - 1;
  if (pcb->t_srtt != 0) {
    int delta = rtt - (pcb->t_srtt >> 3);
    pcb->t_srtt += delta;
    if (pcb->t_srtt <= 0) {
      pcb->t_srtt = 1;
    }
    if (delta < 0) {
      delta = -delta;
    }
    delta -= pcb->t_rttvar >> 2;
    pcb->t_rttvar += delta;
    if (pcb->t_rttvar <= 0) {
      pcb->t_rttvar = 1;
    }
  } else {
    pcb->t_srtt = (rtt + 1) << 3;
    pcb->t_rttvar = (rtt + 1) << 1;
  }
  pcb->t_rxtshift = 0;
  pcb->t_rxtcur = std::clamp(RexmtVal(pcb), 2, 128);
}

int TcpLayer::RexmtVal(const TcpPcb* pcb) const {
  return (pcb->t_srtt >> 3) + pcb->t_rttvar;
}

}  // namespace psd
