#include "src/core/net_server.h"

#include <cassert>

#include "src/base/log.h"
#include "src/filter/session_filter.h"
#include "src/obs/observatory.h"
#include "src/obs/stats.h"
#include "src/obs/trace.h"

namespace psd {

namespace {
constexpr int kAppFilterPriority = 10;  // above the server catch-all
}

NetServer::NetServer(SimHost* host, int workers)
    : host_(host),
      core_(host, "ns", "ns-ctl", workers, ProxyOpSlot, static_cast<size_t>(kNumProxyOpSlots),
            [this](const IpcMessage& req) { return Handle(req); },
            {{"cb", [this] { CallbackBody(); }}}),
      callback_wq_(host->sim()) {
  // Strays for tuples in application hands are dropped, not RST.
  stack()->tcp().SetRstSuppressor([this](const SockAddrIn& l, const SockAddrIn& r) {
    return suppressed_.count(TupleKey(l, r)) > 0;
  });

  // Metastate invalidation callbacks into registered applications (§3.3):
  // queued here, delivered by the callback thread.
  stack()->arp()->SetChangeHook([this](Ipv4Addr ip) {
    for (auto& [id, lib] : libraries_) {
      if (lib.subscriber != nullptr) {
        pending_callbacks_.emplace_back(id, ip);
      }
    }
    callback_wq_.NotifyOne();
  });
}

NetServer::~NetServer() { core_.Stop(); }

void NetServer::ExportStats(StatsRegistry* reg, const std::string& prefix) const {
  reg->RegisterGauge(prefix + "sessions", [this] { return static_cast<uint64_t>(sessions_.size()); });
  reg->RegisterGauge(prefix + "suppressed", [this] { return static_cast<uint64_t>(suppressed_.size()); });
  reg->RegisterGauge(prefix + "migrations_out", [this] { return migrations_out_; });
  reg->RegisterGauge(prefix + "migrations_in", [this] { return migrations_in_; });
  reg->RegisterGauge(prefix + "arp_callbacks_sent", [this] { return arp_callbacks_sent_; });
  core_.ExportRpcStats(reg, prefix, [](size_t slot) {
    return ProxyOpName(ProxyOpFromSlot(static_cast<int>(slot)));
  });
}

uint64_t NetServer::RegisterLibrary(DeliveryEndpoint endpoint, MetastateSubscriber* subscriber) {
  uint64_t id = next_lib_++;
  libraries_[id] = LibraryRec{endpoint, subscriber};
  return id;
}

void NetServer::CallbackBody() {
  SimThread* self = host_->sim()->current_thread();
  for (;;) {
    while (!pending_callbacks_.empty()) {
      auto [lib_id, ip] = pending_callbacks_.front();
      pending_callbacks_.pop_front();
      auto it = libraries_.find(lib_id);
      if (it == libraries_.end() || it->second.subscriber == nullptr) {
        continue;
      }
      // One callback message per application cache.
      self->Charge(host_->prof()->ipc_fixed);
      arp_callbacks_sent_++;
      it->second.subscriber->InvalidateArpEntry(ip);
    }
    self->WaitOn(&callback_wq_);
  }
}

Result<NetServer::Session*> NetServer::Find(uint64_t sid) {
  auto it = sessions_.find(sid);
  if (it == sessions_.end()) {
    return Err::kBadF;
  }
  return &it->second;
}

void NetServer::InstallSessionFilter(Session* s) {
  auto lib = libraries_.find(s->owner_lib);
  assert(lib != libraries_.end());
  // The compiler emits both the VM program (the security fallback the
  // kernel can always interpret) and its declarative FlowSpec, which lets
  // the kernel demux this session with one indexed lookup. Install/remove
  // pairs around migration handover run without blocking, so the flow-table
  // entry moves atomically with the session w.r.t. packet events.
  FlowSpec flow = SessionFlowSpec(s->tuple);
  s->filter_id = host_->kernel()->InstallFilter(CompileSessionFilter(s->tuple),
                                                kAppFilterPriority, lib->second.endpoint, &flow);
}

void NetServer::RemoveSessionFilter(Session* s) {
  if (s->filter_id != 0) {
    host_->kernel()->RemoveFilter(s->filter_id);
    s->filter_id = 0;
  }
}

std::vector<uint8_t> NetServer::MigrateTcpOut(Session* s) {
  // Order matters: mark the tuple in handover and aim the packet filter at
  // the application before extracting the state, so nothing arriving during
  // the handover is answered with a stale RST by the server stack; anything
  // lost in flight is recovered by normal retransmission (§3.1).
  Simulator* sim = host_->sim();
  SimTime t0 = sim->Now();
  TcpPcb* pcb = s->sock->DetachTcpPcb();
  s->tuple = SessionTuple{IpProto::kTcp, pcb->local, pcb->remote};
  suppressed_.insert(TupleKey(pcb->local, pcb->remote));
  SimTime t1 = sim->Now();
  InstallSessionFilter(s);
  SimTime t2 = sim->Now();
  TcpMigrationState st;
  {
    DomainLock lock(stack()->sync());
    s->shadow_snd_nxt = pcb->snd_nxt;
    st = stack()->tcp().ExtractForMigration(pcb);
  }
  s->sock.reset();
  s->where = Where::kApp;
  SimTime t3 = sim->Now();
  std::vector<uint8_t> enc = st.Encode();
  SimTime t4 = sim->Now();
  // Phase accounting: freeze is detach+suppress plus the locked extraction
  // (the install sits between the two chunks and is ledgered on its own).
  MetastateLedger& meta = host_->obs()->meta;
  meta.RecordPhase(MigrationPhase::kFreeze, (t1 - t0) + (t3 - t2));
  meta.RecordPhase(MigrationPhase::kInstall, t2 - t1);
  meta.RecordPhase(MigrationPhase::kEncode, t4 - t3);
  meta.Count(MetaEvent::kMigrationOut);
  migrations_out_++;
  // The freeze span encloses the nested install span (contiguous interval);
  // the freeze histogram above excludes it.
  Tracer& tracer = host_->obs()->tracer;
  tracer.Emit(sim, "migrate/freeze", TraceLayer::kCore, -1, t0, t3 - t0, s->filter_id);
  tracer.Emit(sim, "migrate/install", TraceLayer::kCore, -1, t1, t2 - t1, s->filter_id);
  tracer.Emit(sim, "migrate/encode", TraceLayer::kCore, -1, t3, t4 - t3, s->filter_id);
  tracer.Instant(sim, "migrate/out", TraceLayer::kCore, s->filter_id);
  return enc;
}

IpcMessage NetServer::Handle(const IpcMessage& req) {
  // One span per proxy request handled, named by operation, tagged with the
  // session id argument where the protocol carries one.
  TraceSpan span(host_->obs()->tracer, host_->sim(),
                 ProxyOpName(static_cast<ProxyOp>(req.kind)), TraceLayer::kCore, req.arg[1]);
  switch (static_cast<ProxyOp>(req.kind)) {
    case ProxyOp::kProxySocket:
      return HandleSocket(req);
    case ProxyOp::kProxyBind:
      return HandleBind(req);
    case ProxyOp::kProxyConnect:
      return HandleConnect(req);
    case ProxyOp::kProxyListen:
      return HandleListen(req);
    case ProxyOp::kProxyAccept:
      return HandleAccept(req);
    case ProxyOp::kProxyReturn:
      return HandleReturn(req);
    case ProxyOp::kProxyDup: {
      IpcMessage reply;
      Result<Session*> sr = Find(req.arg[1]);
      if (!sr.ok()) {
        reply.arg[0] = static_cast<uint64_t>(sr.error());
        return reply;
      }
      (*sr)->refcount++;
      return reply;
    }
    case ProxyOp::kProxyStatus: {
      // One-way notification from an application's library (select
      // cooperation): wake the matching cooperative select.
      uint64_t token = req.arg[2];
      auto it = select_waiters_.find(token);
      if (it != select_waiters_.end()) {
        it->second->pinged = true;
        it->second->cv.NotifyAll();
      } else {
        auto w = std::make_unique<SelectWaiter>(host_->sim());
        w->pinged = true;
        select_waiters_[token] = std::move(w);
      }
      return IpcMessage{};
    }
    case ProxyOp::kProxySelect:
      return HandleSelect(req);
    case ProxyOp::kProxyArpLookup:
    case ProxyOp::kProxyRouteLookup:
      return HandleMetastate(req);
    case ProxyOp::kProxyReacquire:
      return HandleReacquire(req);
    default:
      return HandleForwarded(req);
  }
}

IpcMessage NetServer::HandleSocket(const IpcMessage& req) {
  IpcMessage reply;
  IpProto proto = static_cast<IpProto>(req.arg[2]);
  uint64_t lib = req.arg[3];
  if (proto != IpProto::kTcp && proto != IpProto::kUdp) {
    reply.arg[0] = static_cast<uint64_t>(Err::kProtoNoSupport);
    return reply;
  }
  uint64_t sid = next_sid_++;
  Session& s = sessions_[sid];
  s.proto = proto;
  s.owner_lib = lib;
  s.tuple.proto = proto;
  if (proto == IpProto::kTcp) {
    s.sock = std::make_unique<Socket>(stack(), IpProto::kTcp);
  }
  // UDP sessions hold no server pcb until bound.
  reply.arg[1] = sid;
  return reply;
}

IpcMessage NetServer::HandleBind(const IpcMessage& req) {
  IpcMessage reply;
  Result<Session*> sr = Find(req.arg[1]);
  if (!sr.ok()) {
    reply.arg[0] = static_cast<uint64_t>(sr.error());
    return reply;
  }
  Session* s = *sr;
  Decoder d(req.payload);
  SockAddrIn want = DecodeAddr(&d);

  if (s->proto == IpProto::kTcp) {
    Result<void> r = s->sock->Bind(want);
    if (!r.ok()) {
      reply.arg[0] = static_cast<uint64_t>(r.error());
      return reply;
    }
    Encoder e;
    EncodeAddr(&e, s->sock->local_addr());
    reply.payload = e.Take();
    return reply;
  }

  // UDP: allocate the endpoint in the server's port namespace and migrate
  // the (stateless) session to the application immediately: install its
  // packet filter and return the binding (paper Table 1: "UDP sessions
  // migrate to the application").
  Result<uint16_t> port = stack()->ports().Acquire(want.port);
  if (!port.ok()) {
    reply.arg[0] = static_cast<uint64_t>(port.error());
    return reply;
  }
  SockAddrIn local{want.addr.IsAny() ? host_->ip() : want.addr, *port};
  s->tuple = SessionTuple{IpProto::kUdp, local, SockAddrIn{}};
  s->where = Where::kApp;
  InstallSessionFilter(s);
  migrations_out_++;
  host_->obs()->meta.Count(MetaEvent::kMigrationOut);
  Encoder e;
  EncodeAddr(&e, local);
  reply.payload = e.Take();
  return reply;
}

IpcMessage NetServer::HandleConnect(const IpcMessage& req) {
  IpcMessage reply;
  Result<Session*> sr = Find(req.arg[1]);
  if (!sr.ok()) {
    reply.arg[0] = static_cast<uint64_t>(sr.error());
    return reply;
  }
  Session* s = *sr;
  Decoder d(req.payload);
  SockAddrIn remote = DecodeAddr(&d);

  if (s->proto == IpProto::kUdp) {
    // Bind if needed, then migrate with the remote endpoint fixed.
    if (s->where == Where::kApp) {
      // Rebinding the filter with the connected remote narrows delivery.
      RemoveSessionFilter(s);
    } else {
      Result<uint16_t> port = stack()->ports().Acquire(0);
      if (!port.ok()) {
        reply.arg[0] = static_cast<uint64_t>(port.error());
        return reply;
      }
      s->tuple.local = SockAddrIn{host_->ip(), *port};
      s->where = Where::kApp;
      migrations_out_++;
      host_->obs()->meta.Count(MetaEvent::kMigrationOut);
    }
    s->tuple.remote = remote;
    InstallSessionFilter(s);
    Encoder e;
    EncodeAddr(&e, s->tuple.local);
    EncodeAddr(&e, remote);
    reply.payload = e.Take();
    return reply;
  }

  // TCP: the server performs connection establishment (§3.2: "Connection
  // establishment is managed entirely by the operating system"), then the
  // established session migrates into the application.
  Result<void> r = s->sock->Connect(remote);
  stack()->Kick();
  if (!r.ok()) {
    reply.arg[0] = static_cast<uint64_t>(r.error());
    return reply;
  }
  SockAddrIn local = s->sock->local_addr();
  std::vector<uint8_t> state = MigrateTcpOut(s);
  Encoder e;
  EncodeAddr(&e, local);
  EncodeAddr(&e, remote);
  e.Bytes(state);
  reply.payload = e.Take();
  return reply;
}

IpcMessage NetServer::HandleListen(const IpcMessage& req) {
  IpcMessage reply;
  Result<Session*> sr = Find(req.arg[1]);
  if (!sr.ok() || (*sr)->proto != IpProto::kTcp) {
    reply.arg[0] = static_cast<uint64_t>(sr.ok() ? Err::kOpNotSupp : sr.error());
    return reply;
  }
  Result<void> r = (*sr)->sock->Listen(static_cast<int>(req.arg[2]));
  if (!r.ok()) {
    reply.arg[0] = static_cast<uint64_t>(r.error());
  }
  return reply;
}

IpcMessage NetServer::HandleAccept(const IpcMessage& req) {
  IpcMessage reply;
  Result<Session*> sr = Find(req.arg[1]);
  if (!sr.ok() || (*sr)->proto != IpProto::kTcp) {
    reply.arg[0] = static_cast<uint64_t>(sr.ok() ? Err::kOpNotSupp : sr.error());
    return reply;
  }
  Session* listener = *sr;
  SockAddrIn peer;
  Result<std::unique_ptr<Socket>> child = listener->sock->Accept(&peer);
  if (!child.ok()) {
    reply.arg[0] = static_cast<uint64_t>(child.error());
    return reply;
  }
  uint64_t sid = next_sid_++;
  Session& cs = sessions_[sid];
  cs.proto = IpProto::kTcp;
  cs.owner_lib = listener->owner_lib;
  cs.sock = std::move(*child);
  SockAddrIn local = cs.sock->local_addr();
  std::vector<uint8_t> state = MigrateTcpOut(&cs);
  reply.arg[1] = sid;
  Encoder e;
  EncodeAddr(&e, local);
  EncodeAddr(&e, peer);
  e.Bytes(state);
  reply.payload = e.Take();
  return reply;
}

IpcMessage NetServer::HandleReturn(const IpcMessage& req) {
  IpcMessage reply;
  Result<Session*> sr = Find(req.arg[1]);
  if (!sr.ok()) {
    reply.arg[0] = static_cast<uint64_t>(sr.error());
    return reply;
  }
  Session* s = *sr;
  bool close_after = req.arg[2] != 0;

  if (s->where == Where::kApp) {
    RemoveSessionFilter(s);
    if (s->proto == IpProto::kTcp) {
      Decoder d(req.payload);
      std::vector<uint8_t> state_bytes = d.Bytes();
      Result<TcpMigrationState> st = TcpMigrationState::Decode(state_bytes);
      if (!st.ok()) {
        reply.arg[0] = static_cast<uint64_t>(st.error());
        return reply;
      }
      SimTime resume_start = host_->sim()->Now();
      TcpPcb* pcb = nullptr;
      {
        DomainLock lock(stack()->sync());
        pcb = stack()->tcp().AdoptMigrated(*st);
      }
      // Erase under the authoritative tuple recorded at migration time, not
      // the app-decoded endpoints, so the entry removed is exactly the one
      // MigrateTcpOut inserted.
      suppressed_.erase(TupleKey(s->tuple.local, s->tuple.remote));
      s->sock = std::make_unique<Socket>(stack(), pcb);
      stack()->Kick();
      migrations_in_++;
      MetastateLedger& meta = host_->obs()->meta;
      meta.Count(MetaEvent::kMigrationIn);
      meta.RecordPhase(MigrationPhase::kResume, host_->sim()->Now() - resume_start);
      Tracer& tracer = host_->obs()->tracer;
      tracer.Emit(host_->sim(), "migrate/resume", TraceLayer::kCore, -1, resume_start,
                  host_->sim()->Now() - resume_start, req.arg[1]);
      tracer.Instant(host_->sim(), "migrate/in", TraceLayer::kCore, req.arg[1]);
    } else {
      // UDP: recreate the binding server-side.
      UdpPcb* pcb = nullptr;
      {
        DomainLock lock(stack()->sync());
        pcb = stack()->udp().Create();
        stack()->udp().AdoptBinding(pcb, s->tuple.local);
        pcb->remote = s->tuple.remote;
      }
      s->sock = std::make_unique<Socket>(stack(), pcb);
      migrations_in_++;
      host_->obs()->meta.Count(MetaEvent::kMigrationIn);
    }
    s->where = Where::kServer;
  }

  if (close_after) {
    // Clean shutdown runs here: the FIN handshake and TIME_WAIT outlive the
    // application's interest in the session (§3.2).
    if (--s->refcount <= 0) {
      if (s->sock != nullptr) {
        s->sock->Close();
      }
      if (s->tuple.local.port != 0) {
        stack()->ports().Release(s->tuple.local.port);
      }
      sessions_.erase(req.arg[1]);
    }
  }
  return reply;
}

IpcMessage NetServer::HandleReacquire(const IpcMessage& req) {
  // Live migration back out to the owner application: the mirror of
  // HandleAccept/HandleConnect's migrate-on-establish, but for a session
  // the app previously returned (kProxyReturn without close). The session
  // must be server-resident TCP with a live pcb; the reply carries the same
  // local/remote/state triple the accept path uses, so the library adopts
  // it with the same decode.
  IpcMessage reply;
  Result<Session*> sr = Find(req.arg[1]);
  if (!sr.ok()) {
    reply.arg[0] = static_cast<uint64_t>(sr.error());
    return reply;
  }
  Session* s = *sr;
  if (s->proto != IpProto::kTcp || s->where != Where::kServer || s->sock == nullptr ||
      s->sock->tcp_pcb() == nullptr) {
    reply.arg[0] = static_cast<uint64_t>(Err::kInval);
    return reply;
  }
  std::vector<uint8_t> state = MigrateTcpOut(s);
  Encoder e;
  EncodeAddr(&e, s->tuple.local);
  EncodeAddr(&e, s->tuple.remote);
  e.Bytes(state);
  reply.payload = e.Take();
  return reply;
}

IpcMessage NetServer::HandleSelect(const IpcMessage& req) {
  IpcMessage reply;
  uint64_t token = req.arg[2];
  int64_t timeout = static_cast<int64_t>(req.arg[3]);
  Decoder d(req.payload);
  uint32_t n = d.U32();
  std::vector<Socket*> rd;
  for (uint32_t i = 0; i < n; i++) {
    Result<Session*> sr = Find(d.U64());
    rd.push_back(sr.ok() && (*sr)->sock != nullptr ? (*sr)->sock.get() : nullptr);
  }
  SelectWaiter* w;
  auto it = select_waiters_.find(token);
  if (it == select_waiters_.end()) {
    auto owned = std::make_unique<SelectWaiter>(host_->sim());
    w = owned.get();
    select_waiters_[token] = std::move(owned);
  } else {
    w = it->second.get();
  }
  std::vector<bool> rready, wready;
  std::vector<Socket*> none;
  int ready = SelectSockets(stack(), rd, none, timeout, &rready, &wready, &w->cv, &w->pinged);
  bool pinged = w->pinged;
  select_waiters_.erase(token);
  Encoder e;
  e.U32(static_cast<uint32_t>(ready));
  e.U8(pinged ? 1 : 0);
  for (bool b : rready) {
    e.U8(b ? 1 : 0);
  }
  reply.payload = e.Take();
  return reply;
}

IpcMessage NetServer::HandleMetastate(const IpcMessage& req) {
  IpcMessage reply;
  if (static_cast<ProxyOp>(req.kind) == ProxyOp::kProxyArpLookup) {
    Ipv4Addr ip(static_cast<uint32_t>(req.arg[2]));
    DomainLock lock(stack()->sync());
    Result<MacAddr> mac = stack()->arp()->ResolveBlocking(ip);
    if (!mac.ok()) {
      reply.arg[0] = static_cast<uint64_t>(mac.error());
      return reply;
    }
    reply.payload.assign(mac->b.begin(), mac->b.end());
    return reply;
  }
  // Route lookup.
  Ipv4Addr dst(static_cast<uint32_t>(req.arg[2]));
  auto route = stack()->routes().Lookup(dst);
  if (!route) {
    reply.arg[0] = static_cast<uint64_t>(Err::kNetUnreach);
    return reply;
  }
  Encoder e;
  e.U32(route->dest.v);
  e.U32(route->mask.v);
  e.U32(route->gateway.v);
  reply.payload = e.Take();
  return reply;
}

IpcMessage NetServer::HandleForwarded(const IpcMessage& req) {
  IpcMessage reply;
  Result<Session*> sr = Find(req.arg[1]);
  if (!sr.ok()) {
    reply.arg[0] = static_cast<uint64_t>(sr.error());
    return reply;
  }
  Session* s = *sr;
  if (s->where != Where::kServer || (s->sock == nullptr &&
                                     static_cast<ProxyOp>(req.kind) != ProxyOp::kProxyFwdClose)) {
    reply.arg[0] = static_cast<uint64_t>(Err::kInval);
    return reply;
  }
  switch (static_cast<ProxyOp>(req.kind)) {
    case ProxyOp::kProxyFwdSend:
      return core_.HandleSocketOp(SocketOp::kSend, s->sock.get(), req);
    case ProxyOp::kProxyFwdRecv:
      return core_.HandleSocketOp(SocketOp::kRecv, s->sock.get(), req);
    case ProxyOp::kProxyFwdShutdown:
      return core_.HandleSocketOp(SocketOp::kShutdown, s->sock.get(), req);
    case ProxyOp::kProxyFwdSetOpt:
      return core_.HandleSocketOp(SocketOp::kSetOpt, s->sock.get(), req);
    case ProxyOp::kProxyFwdLocalAddr:
      return core_.HandleSocketOp(SocketOp::kLocalAddr, s->sock.get(), req);
    case ProxyOp::kProxyFwdListen:
      return core_.HandleSocketOp(SocketOp::kListen, s->sock.get(), req);
    case ProxyOp::kProxyFwdConnect:
      return core_.HandleSocketOp(SocketOp::kConnect, s->sock.get(), req);
    case ProxyOp::kProxyFwdClose: {
      if (--s->refcount <= 0) {
        if (s->sock != nullptr) {
          s->sock->Close();
        }
        sessions_.erase(req.arg[1]);
      }
      return reply;
    }
    case ProxyOp::kProxyFwdBind: {
      Decoder d(req.payload);
      Result<void> r = s->sock->Bind(DecodeAddr(&d));
      if (!r.ok()) {
        reply.arg[0] = static_cast<uint64_t>(r.error());
        return reply;
      }
      Encoder e;
      EncodeAddr(&e, s->sock->local_addr());
      reply.payload = e.Take();
      return reply;
    }
    case ProxyOp::kProxyFwdAccept: {
      SockAddrIn peer;
      Result<std::unique_ptr<Socket>> child = s->sock->Accept(&peer);
      if (!child.ok()) {
        reply.arg[0] = static_cast<uint64_t>(child.error());
        return reply;
      }
      uint64_t sid = next_sid_++;
      Session& cs = sessions_[sid];
      cs.proto = IpProto::kTcp;
      cs.owner_lib = s->owner_lib;
      cs.sock = std::move(*child);
      cs.tuple = SessionTuple{IpProto::kTcp, cs.sock->local_addr(), peer};
      reply.arg[1] = sid;
      Encoder e;
      EncodeAddr(&e, peer);
      reply.payload = e.Take();
      return reply;
    }
    default:
      reply.arg[0] = static_cast<uint64_t>(Err::kOpNotSupp);
      return reply;
  }
}

void NetServer::OnProcessDeath(uint64_t lib_id) {
  // §3.2: "The operating system ... can detect the death of processes that
  // are managing network connections, abort outstanding connections by
  // sending reset messages to remote peers."
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    Session& s = it->second;
    if (s.owner_lib != lib_id) {
      ++it;
      continue;
    }
    // A session caught mid-handover (MigrateTcpOut blocked extracting state)
    // is still Where::kServer but already has its suppression entry and
    // session filter installed; clean those up exactly like a migrated
    // session, or both leak for the lifetime of the server.
    bool mid_handover = s.where == Where::kServer && s.filter_id != 0;
    if (s.where == Where::kApp || mid_handover) {
      RemoveSessionFilter(&s);
      if (s.proto == IpProto::kTcp) {
        DomainLock lock(stack()->sync());
        stack()->tcp().SendRawRst(s.tuple.local, s.tuple.remote, s.shadow_snd_nxt);
        suppressed_.erase(TupleKey(s.tuple.local, s.tuple.remote));
      }
      if (s.tuple.local.port != 0) {
        stack()->ports().Release(s.tuple.local.port);
      }
      if (s.sock != nullptr) {
        // Mid-handover shell socket; its pcb is detached or extracted.
        s.sock->Close();
      }
    } else if (s.sock != nullptr) {
      s.sock->Close();
    }
    it = sessions_.erase(it);
  }
  // Frames already demuxed to the dead process sit in its delivery
  // endpoint with no receiver left; account each one or the journey
  // conservation law would call them in-flight forever.
  auto lib = libraries_.find(lib_id);
  if (lib != libraries_.end()) {
    const DeliveryEndpoint& ep = lib->second.endpoint;
    SimTime now = host_->sim()->Now();
    Observatory* obs = host_->obs();
    if (ep.queue != nullptr) {
      Frame f;
      while (ep.queue->TryPop(&f)) {
        obs->drops.Record(f.pkt_id, TraceLayer::kCore, DropReason::kCrashCleanup, now,
                          ep.queue->node_id());
      }
    }
    if (ep.port != nullptr) {
      IpcMessage pending;
      while (ep.port->DrainOne(&pending)) {
        if (pending.kind == kMsgPacketDelivery) {
          obs->drops.Record(pending.arg[5], TraceLayer::kCore, DropReason::kCrashCleanup, now,
                            obs->journey.Intern(ep.port->name()));
        }
      }
    }
  }
  libraries_.erase(lib_id);
  host_->obs()->tracer.Instant(host_->sim(), "crash/cleanup", TraceLayer::kCore, lib_id);
}

}  // namespace psd
