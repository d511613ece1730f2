// TCP subroutines: pcb lifecycle, user requests, control segments,
// connection teardown, and session migration.
#include <algorithm>
#include <cassert>

#include "src/base/bytes.h"
#include "src/base/log.h"
#include "src/inet/tcp.h"
#include "src/obs/metastate.h"

namespace psd {

const char* TcpStateName(TcpState s) {
  switch (s) {
    case TcpState::kClosed:
      return "CLOSED";
    case TcpState::kListen:
      return "LISTEN";
    case TcpState::kSynSent:
      return "SYN_SENT";
    case TcpState::kSynRcvd:
      return "SYN_RCVD";
    case TcpState::kEstablished:
      return "ESTABLISHED";
    case TcpState::kCloseWait:
      return "CLOSE_WAIT";
    case TcpState::kFinWait1:
      return "FIN_WAIT_1";
    case TcpState::kClosing:
      return "CLOSING";
    case TcpState::kLastAck:
      return "LAST_ACK";
    case TcpState::kFinWait2:
      return "FIN_WAIT_2";
    case TcpState::kTimeWait:
      return "TIME_WAIT";
  }
  return "?";
}

TcpLayer::TcpLayer(StackEnv* env, IpLayer* ip, PortAlloc* ports)
    : env_(env), ip_(ip), ports_(ports) {
  ip_->Register(IpProto::kTcp,
                [this](Chain c, Ipv4Addr src, Ipv4Addr dst) { Input(std::move(c), src, dst); });
}

TcpPcb* TcpLayer::Create() {
  pcbs_.push_back(std::make_unique<TcpPcb>());
  TcpPcb* pcb = pcbs_.back().get();
  pcb->id = next_id_++;
  return pcb;
}

void TcpLayer::Destroy(TcpPcb* pcb) {
  if (pcb->state != TcpState::kClosed && pcb->state != TcpState::kListen) {
    Abort(pcb);
  }
  // Unlink from a listener's queues if this was an embryonic/ready child.
  // (Abort above already detached live children via DropConnection; this
  // catches corpses that died while queued.)
  DetachFromParent(pcb);
  // Orphan children of a dying listener.
  for (const auto& p : pcbs_) {
    if (p->parent == pcb) {
      p->parent = nullptr;
    }
  }
  if (pcb->port_owned && pcb->local.port != 0) {
    // The port may be shared with siblings/parent (accepted connections);
    // only the owning pcb may release it. If the owner dies while sharers
    // remain (listener closed before its accepted children), ownership
    // passes to one survivor so the last local user still releases.
    // Non-owned bindings never release here: a migrated-out pcb's name
    // must stay allocated — the OS server releases it at session teardown
    // — and releasing it early would let a new session acquire a duplicate.
    TcpPcb* heir = nullptr;
    for (const auto& p : pcbs_) {
      if (p.get() != pcb && p->local.port == pcb->local.port) {
        heir = p.get();
        break;
      }
    }
    if (heir != nullptr) {
      heir->port_owned = true;
      env_->obs->meta.Count(MetaEvent::kPortTransfer);
    } else {
      ports_->Release(pcb->local.port);
    }
  }
  std::replace(sweep_.begin(), sweep_.end(), pcb, static_cast<TcpPcb*>(nullptr));
  pcbs_.erase(std::remove_if(pcbs_.begin(), pcbs_.end(),
                             [pcb](const std::unique_ptr<TcpPcb>& p) { return p.get() == pcb; }),
              pcbs_.end());
}

Result<void> TcpLayer::Bind(TcpPcb* pcb, SockAddrIn local) {
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

void TcpLayer::AdoptBinding(TcpPcb* pcb, SockAddrIn local) {
  pcb->local = local;
  pcb->port_owned = false;
}

Result<void> TcpLayer::Listen(TcpPcb* pcb, int backlog) {
  if (pcb->local.port == 0) {
    Result<void> r = Bind(pcb, SockAddrIn{ip_->addr(), 0});
    if (!r.ok()) {
      return r;
    }
  }
  if (pcb->state != TcpState::kClosed) {
    return Err::kInval;
  }
  pcb->state = TcpState::kListen;
  pcb->backlog = std::max(1, backlog);
  // BSD listen(2) grants the queue backlog * 3 / 2 headroom so a burst of
  // handshakes in flight doesn't starve admission while completed
  // connections drain through accept().
  pcb->syn_backlog = std::max(1, pcb->backlog * 3 / 2);
  return OkResult();
}

uint32_t TcpLayer::NextIss() {
  iss_clock_ += 64000 + static_cast<uint32_t>(rng_.Below(4096));
  return iss_clock_;
}

Result<void> TcpLayer::Connect(TcpPcb* pcb, SockAddrIn remote) {
  if (pcb->state != TcpState::kClosed) {
    return pcb->state == TcpState::kSynSent ? Err::kAlready : Err::kIsConn;
  }
  if (remote.port == 0) {
    return Err::kInval;
  }
  if (pcb->local.port == 0) {
    Result<void> r = Bind(pcb, SockAddrIn{ip_->addr(), 0});
    if (!r.ok()) {
      return r;
    }
  }
  pcb->remote = remote;
  pcb->iss = NextIss();
  pcb->snd_una = pcb->snd_nxt = pcb->snd_max = pcb->iss;
  pcb->snd_up = pcb->iss;
  pcb->state = TcpState::kSynSent;
  // On-link peers get the Ethernet MSS; routed peers the conservative
  // default (pre-path-MTU-discovery behaviour).
  auto route = ip_->routes()->Lookup(remote.addr);
  pcb->t_maxseg = (route && route->gateway.IsAny()) ? kTcpEtherMss : kTcpDefaultMss;
  pcb->snd_cwnd = pcb->t_maxseg;
  pcb->t_timer[TcpPcb::kTimerKeep] = kTcpConnEstablishTicks;
  return Output(pcb);
}

Result<void> TcpLayer::UsrSend(TcpPcb* pcb, Chain data, bool urgent) {
  if (pcb->so_error != Err::kOk) {
    Err e = pcb->so_error;
    return e;
  }
  if (pcb->cantsendmore) {
    return Err::kPipe;
  }
  switch (pcb->state) {
    case TcpState::kEstablished:
    case TcpState::kCloseWait:
    case TcpState::kSynSent:  // data queued until the handshake completes
    case TcpState::kSynRcvd:
      break;
    default:
      return Err::kNotConn;
  }
  pcb->snd.AppendStream(std::move(data));
  if (urgent) {
    pcb->snd_up = pcb->snd_una + static_cast<uint32_t>(pcb->snd.cc());
    pcb->t_force = true;
  }
  Result<void> r = Output(pcb);
  pcb->t_force = false;
  return r;
}

void TcpLayer::UsrRcvd(TcpPcb* pcb) {
  // Reader consumed data: recompute the advertised window; tcp_output
  // decides whether the update is worth a segment (receiver-side SWS).
  Output(pcb);
}

Result<void> TcpLayer::UsrClose(TcpPcb* pcb) {
  switch (pcb->state) {
    case TcpState::kClosed:
      return OkResult();
    case TcpState::kListen:
    case TcpState::kSynSent:
      CloseDone(pcb);
      return OkResult();
    case TcpState::kSynRcvd:
    case TcpState::kEstablished:
      pcb->cantsendmore = true;
      pcb->state = TcpState::kFinWait1;
      return Output(pcb);
    case TcpState::kCloseWait:
      pcb->cantsendmore = true;
      pcb->state = TcpState::kLastAck;
      return Output(pcb);
    default:
      // Close already in progress.
      pcb->cantsendmore = true;
      return OkResult();
  }
}

void TcpLayer::Abort(TcpPcb* pcb) {
  switch (pcb->state) {
    case TcpState::kSynRcvd:
    case TcpState::kEstablished:
    case TcpState::kCloseWait:
    case TcpState::kFinWait1:
    case TcpState::kFinWait2:
    case TcpState::kClosing:
    case TcpState::kLastAck:
      Respond(pcb, pcb->local, pcb->remote, pcb->snd_nxt, pcb->rcv_nxt, kTcpRst | kTcpAck);
      stats_.rsts_sent++;
      break;
    default:
      break;
  }
  DropConnection(pcb, Err::kConnAborted);
}

void TcpLayer::DropConnection(TcpPcb* pcb, Err why) {
  if (pcb->state == TcpState::kClosed) {
    return;
  }
  bool was_alive = pcb->state != TcpState::kListen;
  // An unaccepted child dying on any path (RST, establishment timeout,
  // abort) must give its listener slot back, and has no socket to reap it:
  // mark it for the slow-timer sweep. Must run before the state changes —
  // DetachFromParent reads it to pick the queue half.
  if (pcb->parent != nullptr) {
    DetachFromParent(pcb);
    pcb->detached = true;
  }
  pcb->so_error = why;
  CancelTimers(pcb);
  pcb->state = TcpState::kClosed;
  if (was_alive) {
    stats_.conns_dropped++;
  }
  pcb->snd.Clear();
  pcb->reasm.clear();
  if (pcb->rcv_wakeup) {
    pcb->rcv_wakeup();
  }
  if (pcb->snd_wakeup) {
    pcb->snd_wakeup();
  }
  if (pcb->state_wakeup) {
    pcb->state_wakeup();
  }
}

void TcpLayer::CloseDone(TcpPcb* pcb) {
  CancelTimers(pcb);
  pcb->state = TcpState::kClosed;
  if (pcb->rcv_wakeup) {
    pcb->rcv_wakeup();
  }
  if (pcb->state_wakeup) {
    pcb->state_wakeup();
  }
}

void TcpLayer::DetachFromParent(TcpPcb* pcb) {
  TcpPcb* parent = pcb->parent;
  if (parent == nullptr) {
    return;
  }
  // A child still mid-handshake occupies a SYN-half slot; release it
  // exactly once, here, whatever killed the connection. Children past
  // SYN_RCVD already moved their accounting to the accept half.
  if (pcb->state == TcpState::kSynRcvd) {
    parent->embryonic--;
  }
  auto& q = parent->accept_ready;
  q.erase(std::remove(q.begin(), q.end(), pcb), q.end());
  pcb->parent = nullptr;
}

void TcpLayer::CancelTimers(TcpPcb* pcb) {
  for (int& t : pcb->t_timer) {
    t = 0;
  }
  pcb->t_rtt = 0;
}

void TcpLayer::Respond(TcpPcb* pcb, const SockAddrIn& local, const SockAddrIn& remote,
                       uint32_t seq, uint32_t ack, uint8_t flags) {
  Chain seg;
  uint8_t* h = seg.Prepend(kTcpHeaderLen);
  Store16(h + 0, local.port);
  Store16(h + 2, remote.port);
  Store32(h + 4, seq);
  Store32(h + 8, ack);
  Store16(h + 12, static_cast<uint16_t>((kTcpHeaderLen / 4) << 12 | flags));
  Store16(h + 14, 0);  // window
  Store16(h + 16, 0);  // checksum (below)
  Store16(h + 18, 0);  // urgent
  ChecksumAccumulator acc;
  acc.AddWord(static_cast<uint16_t>(local.addr.v >> 16));
  acc.AddWord(static_cast<uint16_t>(local.addr.v));
  acc.AddWord(static_cast<uint16_t>(remote.addr.v >> 16));
  acc.AddWord(static_cast<uint16_t>(remote.addr.v));
  acc.AddWord(static_cast<uint16_t>(IpProto::kTcp));
  acc.AddWord(static_cast<uint16_t>(seg.len()));
  seg.Checksum(0, seg.len(), &acc);
  Store16(seg.MutablePullup(kTcpHeaderLen) + 16, acc.Finish());
  stats_.segs_sent++;
  if (pcb != nullptr) {
    pcb->segs_out++;
  }
  ip_->Output(std::move(seg), IpProto::kTcp, local.addr, remote.addr);
}

TcpPcb* TcpLayer::PopAcceptable(TcpPcb* listener) {
  while (!listener->accept_ready.empty()) {
    TcpPcb* child = listener->accept_ready.front();
    listener->accept_ready.pop_front();
    child->parent = nullptr;
    if (child->state != TcpState::kClosed) {
      return child;
    }
    // Connection died while queued; clean it up and keep looking.
    Destroy(child);
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Session migration

TcpMigrationState TcpLayer::ExtractForMigration(TcpPcb* pcb) {
  TcpMigrationState st;
  st.local = pcb->local;
  st.remote = pcb->remote;
  st.state = pcb->state;
  st.iss = pcb->iss;
  st.snd_una = pcb->snd_una;
  st.snd_nxt = pcb->snd_nxt;
  st.snd_max = pcb->snd_max;
  st.snd_wnd = pcb->snd_wnd;
  st.snd_up = pcb->snd_up;
  st.snd_wl1 = pcb->snd_wl1;
  st.snd_wl2 = pcb->snd_wl2;
  st.snd_cwnd = pcb->snd_cwnd;
  st.snd_ssthresh = pcb->snd_ssthresh;
  st.max_sndwnd = pcb->max_sndwnd;
  st.irs = pcb->irs;
  st.rcv_nxt = pcb->rcv_nxt;
  st.rcv_wnd = pcb->rcv_wnd;
  st.rcv_adv = pcb->rcv_adv;
  st.rcv_up = pcb->rcv_up;
  st.t_maxseg = pcb->t_maxseg;
  st.t_srtt = pcb->t_srtt;
  st.t_rttvar = pcb->t_rttvar;
  st.t_rxtcur = pcb->t_rxtcur;
  st.nodelay = pcb->nodelay;
  st.cantsendmore = pcb->cantsendmore;
  st.cantrcvmore = pcb->cantrcvmore;
  st.sent_fin = pcb->sent_fin;
  st.snd_hiwat = pcb->snd.hiwat();
  st.rcv_hiwat = pcb->rcv.hiwat();
  st.snd_data = pcb->snd.stream().ToVector();
  st.rcv_data = pcb->rcv.stream().ToVector();
  for (const auto& [seq, chain] : pcb->reasm) {
    st.reasm.emplace_back(seq, chain.ToVector());
  }
  // The pcb leaves this stack: silence it so no further segments are
  // produced here. Retransmission at the new home recovers anything lost
  // during the handover. The port name stays allocated — the migrated
  // session still owns it; the OS server releases it at session teardown.
  CancelTimers(pcb);
  pcb->state = TcpState::kClosed;
  pcb->port_owned = false;
  Destroy(pcb);
  return st;
}

TcpPcb* TcpLayer::AdoptMigrated(const TcpMigrationState& st) {
  TcpPcb* pcb = Create();
  AdoptBinding(pcb, st.local);
  pcb->remote = st.remote;
  pcb->state = st.state;
  pcb->iss = st.iss;
  pcb->snd_una = st.snd_una;
  pcb->snd_nxt = st.snd_nxt;
  pcb->snd_max = st.snd_max;
  pcb->snd_wnd = st.snd_wnd;
  pcb->snd_up = st.snd_up;
  pcb->snd_wl1 = st.snd_wl1;
  pcb->snd_wl2 = st.snd_wl2;
  pcb->snd_cwnd = st.snd_cwnd;
  pcb->snd_ssthresh = st.snd_ssthresh;
  pcb->max_sndwnd = st.max_sndwnd;
  pcb->irs = st.irs;
  pcb->rcv_nxt = st.rcv_nxt;
  pcb->rcv_wnd = st.rcv_wnd;
  pcb->rcv_adv = st.rcv_adv;
  pcb->rcv_up = st.rcv_up;
  pcb->t_maxseg = st.t_maxseg;
  pcb->t_srtt = st.t_srtt;
  pcb->t_rttvar = st.t_rttvar;
  pcb->t_rxtcur = st.t_rxtcur;
  pcb->nodelay = st.nodelay;
  pcb->cantsendmore = st.cantsendmore;
  pcb->cantrcvmore = st.cantrcvmore;
  pcb->sent_fin = st.sent_fin;
  pcb->snd.set_hiwat(st.snd_hiwat);
  pcb->rcv.set_hiwat(st.rcv_hiwat);
  if (!st.snd_data.empty()) {
    pcb->snd.AppendStream(Chain::FromBytes(st.snd_data.data(), st.snd_data.size()));
  }
  if (!st.rcv_data.empty()) {
    pcb->rcv.AppendStream(Chain::FromBytes(st.rcv_data.data(), st.rcv_data.size()));
  }
  for (const auto& [seq, bytes] : st.reasm) {
    pcb->reasm.emplace(seq, Chain::FromBytes(bytes.data(), bytes.size()));
  }
  // Re-arm retransmission if there is unacknowledged data in flight.
  if (SeqGt(pcb->snd_max, pcb->snd_una)) {
    pcb->t_timer[TcpPcb::kTimerRexmt] = pcb->t_rxtcur;
  }
  if (pcb->state == TcpState::kTimeWait) {
    pcb->t_timer[TcpPcb::kTimer2Msl] = 120;
  }
  return pcb;
}

// --- TcpMigrationState wire format -----------------------------------------

namespace {

void PutU32(std::vector<uint8_t>* v, uint32_t x) {
  v->push_back(static_cast<uint8_t>(x >> 24));
  v->push_back(static_cast<uint8_t>(x >> 16));
  v->push_back(static_cast<uint8_t>(x >> 8));
  v->push_back(static_cast<uint8_t>(x));
}

void PutBytes(std::vector<uint8_t>* v, const std::vector<uint8_t>& b) {
  PutU32(v, static_cast<uint32_t>(b.size()));
  v->insert(v->end(), b.begin(), b.end());
}

struct Reader {
  const std::vector<uint8_t>& v;
  size_t at = 0;
  bool fail = false;

  uint32_t U32() {
    if (at + 4 > v.size()) {
      fail = true;
      return 0;
    }
    uint32_t x = Load32(v.data() + at);
    at += 4;
    return x;
  }
  std::vector<uint8_t> Bytes() {
    uint32_t n = U32();
    if (fail || at + n > v.size()) {
      fail = true;
      return {};
    }
    std::vector<uint8_t> out(v.begin() + at, v.begin() + at + n);
    at += n;
    return out;
  }
};

}  // namespace

std::vector<uint8_t> TcpMigrationState::Encode() const {
  std::vector<uint8_t> v;
  PutU32(&v, 0x54435031);  // 'TCP1'
  PutU32(&v, local.addr.v);
  PutU32(&v, local.port);
  PutU32(&v, remote.addr.v);
  PutU32(&v, remote.port);
  PutU32(&v, static_cast<uint32_t>(state));
  for (uint32_t x : {iss, snd_una, snd_nxt, snd_max, snd_wnd, snd_up, snd_wl1, snd_wl2, snd_cwnd,
                     snd_ssthresh, max_sndwnd, irs, rcv_nxt, rcv_wnd, rcv_adv, rcv_up}) {
    PutU32(&v, x);
  }
  PutU32(&v, t_maxseg);
  PutU32(&v, static_cast<uint32_t>(t_srtt));
  PutU32(&v, static_cast<uint32_t>(t_rttvar));
  PutU32(&v, static_cast<uint32_t>(t_rxtcur));
  PutU32(&v, (nodelay ? 1u : 0u) | (cantsendmore ? 2u : 0u) | (cantrcvmore ? 4u : 0u) |
                 (sent_fin ? 8u : 0u));
  PutU32(&v, static_cast<uint32_t>(snd_hiwat));
  PutU32(&v, static_cast<uint32_t>(rcv_hiwat));
  PutBytes(&v, snd_data);
  PutBytes(&v, rcv_data);
  PutU32(&v, static_cast<uint32_t>(reasm.size()));
  for (const auto& [seq, bytes] : reasm) {
    PutU32(&v, seq);
    PutBytes(&v, bytes);
  }
  return v;
}

Result<TcpMigrationState> TcpMigrationState::Decode(const std::vector<uint8_t>& bytes) {
  Reader r{bytes};
  if (r.U32() != 0x54435031) {
    return Err::kInval;
  }
  TcpMigrationState st;
  st.local.addr = Ipv4Addr(r.U32());
  st.local.port = static_cast<uint16_t>(r.U32());
  st.remote.addr = Ipv4Addr(r.U32());
  st.remote.port = static_cast<uint16_t>(r.U32());
  st.state = static_cast<TcpState>(r.U32());
  uint32_t* seqs[] = {&st.iss,     &st.snd_una, &st.snd_nxt,     &st.snd_max,
                      &st.snd_wnd, &st.snd_up,  &st.snd_wl1,     &st.snd_wl2,
                      &st.snd_cwnd, &st.snd_ssthresh, &st.max_sndwnd, &st.irs,
                      &st.rcv_nxt, &st.rcv_wnd, &st.rcv_adv,     &st.rcv_up};
  for (uint32_t* p : seqs) {
    *p = r.U32();
  }
  st.t_maxseg = static_cast<uint16_t>(r.U32());
  st.t_srtt = static_cast<int>(r.U32());
  st.t_rttvar = static_cast<int>(r.U32());
  st.t_rxtcur = static_cast<int>(r.U32());
  uint32_t flags = r.U32();
  st.nodelay = flags & 1;
  st.cantsendmore = flags & 2;
  st.cantrcvmore = flags & 4;
  st.sent_fin = flags & 8;
  st.snd_hiwat = r.U32();
  st.rcv_hiwat = r.U32();
  st.snd_data = r.Bytes();
  st.rcv_data = r.Bytes();
  uint32_t n = r.U32();
  for (uint32_t i = 0; i < n && !r.fail; i++) {
    uint32_t seq = r.U32();
    st.reasm.emplace_back(seq, r.Bytes());
  }
  if (r.fail) {
    return Err::kInval;
  }
  return st;
}

}  // namespace psd
