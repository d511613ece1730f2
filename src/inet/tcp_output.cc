// tcp_output: segment construction and the send-decision policy (Nagle,
// sender/receiver silly-window avoidance, window updates, forced probes),
// following the BSD Net/2 structure.
#include <algorithm>
#include <cassert>

#include "src/base/bytes.h"
#include "src/base/checksum.h"
#include "src/base/log.h"
#include "src/inet/tcp.h"

namespace psd {

namespace {

uint8_t OutFlags(TcpState s) {
  switch (s) {
    case TcpState::kClosed:
      return kTcpRst | kTcpAck;
    case TcpState::kListen:
      return 0;
    case TcpState::kSynSent:
      return kTcpSyn;
    case TcpState::kSynRcvd:
      return kTcpSyn | kTcpAck;
    case TcpState::kEstablished:
    case TcpState::kCloseWait:
    case TcpState::kFinWait2:
    case TcpState::kTimeWait:
      return kTcpAck;
    case TcpState::kFinWait1:
    case TcpState::kClosing:
    case TcpState::kLastAck:
      return kTcpFin | kTcpAck;
  }
  return 0;
}

}  // namespace

Result<void> TcpLayer::Output(TcpPcb* pcb) {
  ProbeSpan span(env_->obs->tracer, env_->sim, Stage::kProtoOutput);
  span.MarkConditional();  // committed below iff a segment is transmitted
  env_->Charge(env_->prof->tcp_out_fixed);
  env_->sync->ChargeSyncPair();

  if (pcb->state == TcpState::kListen) {
    return OkResult();
  }

  // After an idle period, restart slow start: the ACK clock is gone.
  bool idle = pcb->snd_max == pcb->snd_una;
  if (idle && pcb->t_idle >= pcb->t_rxtcur) {
    pcb->snd_cwnd = pcb->t_maxseg;
  }

  bool sendalot = true;
  while (sendalot) {
    sendalot = false;

    int64_t off = static_cast<int32_t>(pcb->snd_nxt - pcb->snd_una);
    int64_t win = std::min<uint32_t>(pcb->snd_wnd, pcb->snd_cwnd);
    uint8_t flags = OutFlags(pcb->state);

    if (pcb->t_force) {
      if (win == 0) {
        // Window probe: force one byte; don't send FIN with data pending.
        if (off < static_cast<int64_t>(pcb->snd.cc())) {
          flags &= ~kTcpFin;
        }
        win = 1;
      } else {
        pcb->t_timer[TcpPcb::kTimerPersist] = 0;
        pcb->t_rxtshift = 0;
      }
    }

    int64_t len = std::min<int64_t>(static_cast<int64_t>(pcb->snd.cc()), win) - off;
    if (flags & kTcpSyn) {
      len = 0;
    }
    if (len < 0) {
      // Window shrank below data already sent: pull back and persist.
      len = 0;
      if (win == 0) {
        pcb->t_timer[TcpPcb::kTimerRexmt] = 0;
        pcb->snd_nxt = pcb->snd_una;
      }
    }
    if (len > pcb->t_maxseg) {
      len = pcb->t_maxseg;
      sendalot = true;
    }
    if (SeqLt(pcb->snd_nxt + static_cast<uint32_t>(len),
              pcb->snd_una + static_cast<uint32_t>(pcb->snd.cc()))) {
      flags &= ~kTcpFin;  // more data follows: FIN waits
    }

    // Receiver window to advertise, with receiver-side SWS avoidance.
    int64_t rwin = static_cast<int64_t>(pcb->rcv.space());
    if (rwin < static_cast<int64_t>(pcb->rcv.hiwat() / 4) &&
        rwin < static_cast<int64_t>(pcb->t_maxseg)) {
      rwin = 0;
    }
    if (rwin > static_cast<int64_t>(kTcpMaxWin)) {
      rwin = kTcpMaxWin;
    }
    int64_t already_adv = static_cast<int32_t>(pcb->rcv_adv - pcb->rcv_nxt);
    if (rwin < already_adv) {
      rwin = already_adv;  // never shrink an advertised window
    }

    bool send = false;
    if (len != 0) {
      if (len == pcb->t_maxseg) {
        send = true;
      } else if ((idle || pcb->nodelay) &&
                 len + off >= static_cast<int64_t>(pcb->snd.cc())) {
        send = true;  // Nagle: everything queued, and idle or NODELAY
      } else if (pcb->t_force) {
        send = true;
      } else if (pcb->max_sndwnd > 0 && len >= static_cast<int64_t>(pcb->max_sndwnd / 2)) {
        send = true;
      } else if (SeqLt(pcb->snd_nxt, pcb->snd_max)) {
        send = true;  // retransmission
      }
    }
    if (!send && rwin > 0) {
      int64_t adv = rwin - already_adv;
      if (adv >= 2 * static_cast<int64_t>(pcb->t_maxseg)) {
        send = true;  // window moved enough to be worth an update
      } else if (2 * adv >= static_cast<int64_t>(pcb->rcv.hiwat())) {
        send = true;
      }
    }
    if (!send && pcb->ack_now) {
      send = true;
    }
    if (!send && (flags & (kTcpSyn | kTcpRst))) {
      send = true;
    }
    if (!send && SeqGt(pcb->snd_up, pcb->snd_una)) {
      send = true;
    }
    if (!send && (flags & kTcpFin) &&
        (!pcb->sent_fin || pcb->snd_nxt == pcb->snd_una)) {
      send = true;
    }

    if (!send) {
      // Data is queued but unsendable: make sure a timer will fire.
      if (pcb->snd.cc() != 0 && pcb->t_timer[TcpPcb::kTimerRexmt] == 0 &&
          pcb->t_timer[TcpPcb::kTimerPersist] == 0) {
        pcb->t_rxtshift = 0;
        SetPersist(pcb);
      }
      return OkResult();
    }

    // ---- Build and transmit one segment ----
    span.Commit();
    uint8_t opts[4];
    size_t optlen = 0;
    if (flags & kTcpSyn) {
      pcb->snd_nxt = pcb->iss;
      opts[0] = 2;  // MSS option
      opts[1] = 4;
      uint16_t mss = kTcpEtherMss;
      Store16(opts + 2, mss);
      optlen = 4;
    }

    uint32_t seq;
    if (len != 0 || (flags & (kTcpSyn | kTcpFin)) || pcb->t_timer[TcpPcb::kTimerPersist] != 0) {
      seq = pcb->snd_nxt;
    } else {
      seq = pcb->snd_max;
    }
    bool is_retransmit = len > 0 && SeqLt(seq, pcb->snd_max);

    Chain seg;
    if (len > 0) {
      seg = pcb->snd.CopyRange(static_cast<size_t>(off), static_cast<size_t>(len));
    }
    size_t hdrlen = kTcpHeaderLen + optlen;
    uint8_t* h = seg.Prepend(hdrlen);
    Store16(h + 0, pcb->local.port);
    Store16(h + 2, pcb->remote.port);
    Store32(h + 4, seq);
    Store32(h + 8, pcb->rcv_nxt);
    Store16(h + 12, static_cast<uint16_t>((hdrlen / 4) << 12 | flags));
    Store16(h + 14, static_cast<uint16_t>(rwin));
    Store16(h + 16, 0);
    if (SeqGt(pcb->snd_up, seq) && (flags & kTcpAck)) {
      uint32_t urp = pcb->snd_up - seq;
      Store16(h + 18, static_cast<uint16_t>(std::min<uint32_t>(urp, 0xffff)));
      h[13] |= kTcpUrg;
    } else {
      Store16(h + 18, 0);
      pcb->snd_up = pcb->snd_una;  // urgent data all acked: drag along
    }
    if (optlen > 0) {
      std::memcpy(h + kTcpHeaderLen, opts, optlen);
    }

    // Checksum over pseudo-header + segment (real bytes).
    ChecksumAccumulator acc;
    acc.AddWord(static_cast<uint16_t>(pcb->local.addr.v >> 16));
    acc.AddWord(static_cast<uint16_t>(pcb->local.addr.v));
    acc.AddWord(static_cast<uint16_t>(pcb->remote.addr.v >> 16));
    acc.AddWord(static_cast<uint16_t>(pcb->remote.addr.v));
    acc.AddWord(static_cast<uint16_t>(IpProto::kTcp));
    acc.AddWord(static_cast<uint16_t>(seg.len()));
    seg.Checksum(0, seg.len(), &acc);
    Store16(seg.MutablePullup(hdrlen) + 16, acc.Finish());
    env_->Charge(static_cast<SimDuration>(seg.len()) * env_->prof->checksum_per_byte);
    if (env_->placement == Placement::kLibrary && len > 0) {
      // The library's user-level mbuf bookkeeping (Table 4 calibration).
      env_->Charge(env_->prof->mbuf_get);
    }

    // Sequence accounting.
    if (!pcb->t_force || pcb->t_timer[TcpPcb::kTimerPersist] == 0) {
      uint32_t startseq = pcb->snd_nxt;
      if (flags & kTcpSyn) {
        pcb->snd_nxt++;
      }
      if (flags & kTcpFin) {
        pcb->snd_nxt++;
        pcb->sent_fin = true;
      }
      pcb->snd_nxt += static_cast<uint32_t>(len);
      if (SeqGt(pcb->snd_nxt, pcb->snd_max)) {
        pcb->snd_max = pcb->snd_nxt;
        if (pcb->t_rtt == 0) {
          pcb->t_rtt = 1;
          pcb->t_rtseq = startseq;
        }
      }
      if (pcb->t_timer[TcpPcb::kTimerRexmt] == 0 && pcb->snd_nxt != pcb->snd_una) {
        pcb->t_timer[TcpPcb::kTimerRexmt] = pcb->t_rxtcur;
        if (pcb->t_timer[TcpPcb::kTimerPersist] != 0) {
          pcb->t_timer[TcpPcb::kTimerPersist] = 0;
          pcb->t_rxtshift = 0;
        }
      }
    } else if (SeqGt(pcb->snd_nxt + static_cast<uint32_t>(len), pcb->snd_max)) {
      pcb->snd_max = pcb->snd_nxt + static_cast<uint32_t>(len);
    }

    if (rwin > 0 && SeqGt(pcb->rcv_nxt + static_cast<uint32_t>(rwin), pcb->rcv_adv)) {
      pcb->rcv_adv = pcb->rcv_nxt + static_cast<uint32_t>(rwin);
    }
    pcb->rcv_wnd = static_cast<uint32_t>(rwin);
    pcb->ack_now = false;
    pcb->delack = false;

    stats_.segs_sent++;
    pcb->segs_out++;
    if (len > 0) {
      stats_.data_segs_sent++;
      stats_.bytes_sent += static_cast<uint64_t>(len);
      if (is_retransmit) {
        stats_.retransmits++;
        pcb->rexmt_segs++;
        env_->obs->tracer.Instant(env_->sim, "tcp/rexmit", TraceLayer::kInet, pcb->id);
      }
    }

    Result<void> r = ip_->Output(std::move(seg), IpProto::kTcp, pcb->local.addr,
                                 pcb->remote.addr);
    if (!r.ok()) {
      return r;
    }
    idle = false;
  }
  return OkResult();
}

void TcpLayer::SetPersist(TcpPcb* pcb) {
  static const int kBackoff[] = {1, 2, 4, 8, 16, 32, 64, 64, 64, 64, 64, 64, 64};
  int t = ((pcb->t_srtt >> 2) + pcb->t_rttvar) >> 1;
  if (t < 1) {
    t = 1;
  }
  int shift = std::min<int>(pcb->t_rxtshift, 12);
  int v = t * kBackoff[shift];
  pcb->t_timer[TcpPcb::kTimerPersist] = std::clamp(v, 1, 120);
  if (pcb->t_rxtshift < 12) {
    pcb->t_rxtshift++;
  }
}

}  // namespace psd
