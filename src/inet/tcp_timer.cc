// TCP timers: the 200 ms fast timeout (delayed ACKs) and the 500 ms slow
// timeout driving retransmission with exponential backoff, persist probes,
// keepalive/connection-establishment limits, and TIME_WAIT expiry.
#include <algorithm>

#include "src/base/log.h"
#include "src/inet/tcp.h"

namespace psd {

namespace {
const int kRexmtBackoff[] = {1, 2, 4, 8, 16, 32, 64, 64, 64, 64, 64, 64, 64};
constexpr int kMaxRxtShift = 12;
}  // namespace

void TcpLayer::FastTick() {
  for (const auto& p : pcbs_) {
    if (p->delack) {
      p->delack = false;
      p->ack_now = true;
      Output(p.get());
    }
  }
}

void TcpLayer::SlowTick() {
  // Reap pcbs whose owner closed them and whose shutdown handshake has
  // finished.
  for (size_t i = 0; i < pcbs_.size();) {
    TcpPcb* p = pcbs_[i].get();
    if (p->detached && p->state == TcpState::kClosed) {
      Destroy(p);
    } else {
      i++;
    }
  }
  // Sweep a snapshot: timer handlers can create pcbs (not visited) and
  // destroy them (Destroy nulls their slot, e.g. RST on a sibling).
  for (const auto& p : pcbs_) {
    sweep_.push_back(p.get());
  }
  for (size_t k = 0; k < sweep_.size(); k++) {
    TcpPcb* pcb = sweep_[k];
    if (pcb == nullptr || pcb->state == TcpState::kClosed || pcb->state == TcpState::kListen) {
      continue;
    }
    pcb->t_idle++;
    if (pcb->t_rtt != 0) {
      pcb->t_rtt++;
    }
    for (int i = 0; i < 4; i++) {
      if (pcb->t_timer[i] == 0 || --pcb->t_timer[i] > 0) {
        continue;
      }
      switch (i) {
        case TcpPcb::kTimerRexmt:
          RexmtTimeout(pcb);
          break;
        case TcpPcb::kTimerPersist:
          PersistTimeout(pcb);
          break;
        case TcpPcb::kTimerKeep:
          KeepTimeout(pcb);
          break;
        case TcpPcb::kTimer2Msl:
          if (pcb->state == TcpState::kTimeWait) {
            CloseDone(pcb);
          }
          break;
      }
      if (pcb->state == TcpState::kClosed) {
        break;
      }
    }
  }
  sweep_.clear();
}

void TcpLayer::RexmtTimeout(TcpPcb* pcb) {
  stats_.rexmt_timeouts++;
  if (++pcb->t_rxtshift > kMaxRxtShift) {
    pcb->t_rxtshift = kMaxRxtShift;
    DropConnection(pcb, Err::kTimedOut);
    return;
  }
  int rexmt = RexmtVal(pcb) * kRexmtBackoff[pcb->t_rxtshift];
  pcb->t_rxtcur = std::clamp(rexmt, 2, 128);
  pcb->t_timer[TcpPcb::kTimerRexmt] = pcb->t_rxtcur;
  // Karn: invalidate the RTT measurement on retransmission.
  pcb->t_rtt = 0;
  // Congestion response: collapse to one segment, halve ssthresh.
  {
    uint32_t win = std::min<uint32_t>(pcb->snd_wnd, pcb->snd_cwnd) / 2 / pcb->t_maxseg;
    if (win < 2) {
      win = 2;
    }
    pcb->snd_ssthresh = win * pcb->t_maxseg;
    pcb->snd_cwnd = pcb->t_maxseg;
    pcb->t_dupacks = 0;
  }
  pcb->snd_nxt = pcb->snd_una;
  pcb->ack_now = true;
  Output(pcb);
}

void TcpLayer::PersistTimeout(TcpPcb* pcb) {
  stats_.persist_probes++;
  SetPersist(pcb);
  pcb->t_force = true;
  Output(pcb);
  pcb->t_force = false;
}

void TcpLayer::KeepTimeout(TcpPcb* pcb) {
  if (pcb->state < TcpState::kEstablished) {
    // Connection-establishment timer expired.
    DropConnection(pcb, Err::kTimedOut);
    return;
  }
  if (pcb->keepalive && pcb->state == TcpState::kEstablished) {
    // Give up after ~8 unanswered probes past the idle threshold
    // (t_idle resets on any segment from the peer).
    if (pcb->t_idle >= 14400 + 8 * kTcpKeepIntvlTicks) {
      DropConnection(pcb, Err::kTimedOut);
      return;
    }
    stats_.keepalive_probes++;
    // Probe: an ACK for old data forces a response.
    Respond(pcb, pcb->local, pcb->remote, pcb->snd_una - 1, pcb->rcv_nxt, kTcpAck);
    pcb->t_timer[TcpPcb::kTimerKeep] = kTcpKeepIntvlTicks;
  } else if (pcb->keepalive) {
    DropConnection(pcb, Err::kTimedOut);
  }
  // Without SO_KEEPALIVE, idle established connections live forever.
}

}  // namespace psd
