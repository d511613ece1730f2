#include "src/core/library_node.h"

#include <cassert>

#include "src/base/log.h"
#include "src/base/scratch.h"
#include "src/obs/observatory.h"
#include "src/obs/stats.h"
#include "src/obs/trace.h"

namespace psd {

const char* RxPathName(RxPath p) {
  switch (p) {
    case RxPath::kIpc:
      return "IPC";
    case RxPath::kShm:
      return "SHM";
    case RxPath::kShmIpf:
      return "SHM-IPF";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// ProtocolLibrary

ProtocolLibrary::ProtocolLibrary(SimHost* host, NetServer* server, std::string name, RxPath path)
    : host_(host),
      server_(server),
      name_(std::move(name)),
      path_(path),
      resolver_(this),
      pkt_port_(host->sim(), host->obs(), name_ + "/pkt",
                PortCosts::PacketDelivery(*host->prof())) {
  StackParams params;
  params.sim = host->sim();
  params.obs = host->obs();
  params.cpu = host->cpu();
  params.prof = host->prof();
  params.placement = Placement::kLibrary;
  Kernel* kernel = host->kernel();
  params.send_frame = [kernel](Frame f) { kernel->NetSendFromUser(std::move(f)); };
  params.ip = host->ip();
  params.mac = host->mac();
  params.name = name_;
  stack_ = std::make_unique<Stack>(params);
  stack_->ether().SetResolver(&resolver_);
  // Local routes are a cache of the server's table, filled on demand.
  stack_->ip().SetRouteMissHook([this](Ipv4Addr dst) {
    IpcMessage rep = Call(ProxyOp::kProxyRouteLookup, 0, {}, dst.v);
    if (!ReplyStatus(rep).ok()) {
      return false;
    }
    Decoder d(rep.payload);
    Ipv4Addr dest(d.U32());
    Ipv4Addr mask(d.U32());
    Ipv4Addr gw(d.U32());
    stack_->routes().Add(dest, mask, gw);
    return true;
  });
  // A library stack never answers strays with RST: every packet it sees
  // passed a session filter; unmatched ones are migration residue.
  stack_->tcp().SetRstSuppressor([](const SockAddrIn&, const SockAddrIn&) { return true; });

  DeliveryEndpoint ep;
  if (path_ == RxPath::kIpc) {
    ep = DeliveryEndpoint{DeliverKind::kIpc, nullptr, &pkt_port_};
  } else {
    ring_ = kernel->MakeQueueEndpoint(name_ + "/ring", host->prof()->shm_signal, 128);
    ep = DeliveryEndpoint{path_ == RxPath::kShm ? DeliverKind::kShm : DeliverKind::kShmIpf, ring_,
                          nullptr};
  }
  lib_id_ = server->RegisterLibrary(ep, this);
  input_thread_ = host->sim()->Spawn(name_ + "/netin", host->cpu(), [this] { InputBody(); });
}

ProtocolLibrary::~ProtocolLibrary() {
  if (input_thread_ != nullptr && !host_->sim()->shutting_down() && !crashed_) {
    host_->sim()->KillThread(input_thread_);
  }
}

void ProtocolLibrary::InputBody() {
  if (path_ == RxPath::kIpc) {
    RunPacketInput(&pkt_port_, stack_.get());
  } else {
    Frame f;
    bool blocked = false;
    SimThread* self = host_->sim()->current_thread();
    for (;;) {
      if (!ring_->Pop(&f, kTimeNever, &blocked)) {
        continue;
      }
      if (blocked) {
        // One context switch per wakeup; packet trains within a wakeup are
        // free of scheduling cost (the SHM interface's advantage, §4.1).
        self->Charge(host_->prof()->context_switch);
      }
      stack_->InputFrame(f);
    }
  }
}

IpcMessage ProtocolLibrary::Call(ProxyOp op, uint64_t sid, std::vector<uint8_t> payload,
                                 uint64_t a2, uint64_t a3) {
  // Control-path proxy RPC into the OS server (the span covers the trap,
  // the send leg, and the blocked wait for the reply).
  TraceSpan span(host_->obs()->tracer, host_->sim(), ProxyOpName(op), TraceLayer::kCore, sid);
  rpc_calls_.Count(ProxyOpSlot(static_cast<uint32_t>(op)));
  return ClientRpc(host_, server_->control_port(), static_cast<uint32_t>(op), sid,
                   std::move(payload), a2, a3, lib_id_);
}

void ProtocolLibrary::Notify(ProxyOp op, uint64_t sid, uint64_t a2) {
  rpc_calls_.Count(ProxyOpSlot(static_cast<uint32_t>(op)));
  IpcMessage req;
  req.kind = static_cast<uint32_t>(op);
  req.arg[1] = sid;
  req.arg[2] = a2;
  req.arg[4] = lib_id_;
  server_->control_port()->Send(req);
}

MacResolver::Status ProtocolLibrary::CacheResolver::Resolve(Ipv4Addr next_hop, MacAddr* out,
                                                            Chain* pending) {
  (void)pending;
  auto it = cache_.find(next_hop);
  if (it != cache_.end()) {
    lib_->arp_hits_++;
    lib_->host()->obs()->meta.Count(MetaEvent::kArpHit);
    *out = it->second;
    return Status::kResolved;
  }
  lib_->arp_misses_++;
  lib_->host()->obs()->meta.Count(MetaEvent::kArpMiss);
  IpcMessage rep = lib_->Call(ProxyOp::kProxyArpLookup, 0, {}, next_hop.v);
  if (!ReplyStatus(rep).ok() || rep.payload.size() != 6) {
    return Status::kFail;
  }
  MacAddr mac;
  std::copy(rep.payload.begin(), rep.payload.end(), mac.b.begin());
  cache_[next_hop] = mac;
  *out = mac;
  return Status::kResolved;
}

void ProtocolLibrary::InvalidateArpEntry(Ipv4Addr ip) {
  DomainLock lock(stack_->sync());
  invalidations_++;
  host_->obs()->meta.Count(MetaEvent::kArpInvalidate);
  resolver_.cache_.erase(ip);
}

void ProtocolLibrary::InvalidateRoutes() {
  DomainLock lock(stack_->sync());
  invalidations_++;
  // Drop every cached route; they refill on demand from the server.
  stack_->routes() = RouteTable(&host_->obs()->meta);
}

void ProtocolLibrary::ExportStats(StatsRegistry* reg, const std::string& prefix) const {
  reg->RegisterGauge(prefix + "arp_cache_hits", [this] { return arp_hits_; });
  reg->RegisterGauge(prefix + "arp_cache_misses", [this] { return arp_misses_; });
  reg->RegisterGauge(prefix + "invalidations", [this] { return invalidations_; });
  reg->RegisterGauge(prefix + "rpc.total", [this] { return rpc_calls_.total(); });
  for (int i = 0; i < kNumProxyOpSlots; i++) {
    reg->RegisterGauge(prefix + "rpc." + OpLeafName(ProxyOpName(ProxyOpFromSlot(i))) + ".count",
                       [this, i] { return rpc_calls_.count(static_cast<size_t>(i)); });
  }
  stack_->ExportStats(reg, prefix + "stack.");
}

void ProtocolLibrary::SimulateCrash() {
  crashed_ = true;
  host_->sim()->KillThread(input_thread_);
  input_thread_ = nullptr;
  // The server's death protocol transmits RSTs, which needs simulated
  // thread context; it runs on the next simulator step.
  NetServer* server = server_;
  uint64_t id = lib_id_;
  host_->sim()->Spawn("reaper/" + name_, host_->cpu(),
                      [server, id] { server->OnProcessDeath(id); });
}

// ---------------------------------------------------------------------------
// LibraryNode (the proxy)

namespace {

// The forwarded proxy op that carries each shared socket op, indexed by
// SocketOp.
constexpr ProxyOp kFwdSocketOps[] = {
    ProxyOp::kProxyFwdListen, ProxyOp::kProxyFwdConnect,  ProxyOp::kProxyFwdSend,
    ProxyOp::kProxyFwdRecv,   ProxyOp::kProxyFwdSetOpt,   ProxyOp::kProxyFwdShutdown,
    ProxyOp::kProxyFwdLocalAddr};

}  // namespace

LibraryNode::LibraryNode(ProtocolLibrary* lib)
    : lib_(lib),
      ops_(lib->host(), [lib](SocketOp op, uint64_t sid, std::vector<uint8_t> payload,
                              uint64_t a2, uint64_t a3) {
        return lib->Call(kFwdSocketOps[static_cast<int>(op)], sid, std::move(payload), a2, a3);
      }) {}

LibraryNode::~LibraryNode() = default;

Result<LibraryNode::Desc*> LibraryNode::Lookup(int fd) {
  auto it = fds_.find(fd);
  if (it == fds_.end()) {
    return Err::kBadF;
  }
  return &it->second;
}

Result<LibraryNode::Desc*> LibraryNode::LookupForSend(int fd, const SockAddrIn* to) {
  Result<Desc*> dr = Lookup(fd);
  if (dr.ok() && (*dr)->sock == nullptr && (*dr)->proto == IpProto::kUdp &&
      !(*dr)->via_server && to != nullptr) {
    if (Result<void> b = Bind(fd, SockAddrIn{Ipv4Addr::Any(), 0}); !b.ok()) {
      return b.error();
    }
  }
  return dr;
}

bool LibraryNode::IsAppManaged(int fd) const {
  auto it = fds_.find(fd);
  return it != fds_.end() && it->second.sock != nullptr;
}

Result<int> LibraryNode::CreateSocket(IpProto proto) {
  IpcMessage rep = lib_->Call(ProxyOp::kProxySocket, 0, {}, static_cast<uint64_t>(proto),
                              lib_->lib_id());
  if (Result<void> st = ReplyStatus(rep); !st.ok()) {
    return st.error();
  }
  int fd = next_fd_++;
  Desc& d = fds_[fd];
  d.sid = rep.arg[1];
  d.proto = proto;
  return fd;
}

Result<void> LibraryNode::Bind(int fd, SockAddrIn local) {
  Result<Desc*> dr = Lookup(fd);
  if (!dr.ok()) {
    return dr.error();
  }
  Desc* d = *dr;
  Encoder e;
  EncodeAddr(&e, local);
  IpcMessage rep = lib_->Call(d->via_server ? ProxyOp::kProxyFwdBind : ProxyOp::kProxyBind,
                              d->sid, e.Take());
  if (Result<void> st = ReplyStatus(rep); !st.ok()) {
    return st;
  }
  if (d->proto == IpProto::kUdp && !d->via_server) {
    // The session migrated to us: instantiate it in the library stack.
    Decoder dec(rep.payload);
    d->sock = Socket::AdoptUdp(lib_->stack(), DecodeAddr(&dec), SockAddrIn{});
  }
  return OkResult();
}

Result<void> LibraryNode::Listen(int fd, int backlog) {
  Result<Desc*> dr = Lookup(fd);
  if (!dr.ok()) {
    return dr.error();
  }
  Desc* d = *dr;
  if (d->via_server) {
    return ops_.Listen(d->sid, backlog);
  }
  return ReplyStatus(lib_->Call(ProxyOp::kProxyListen, d->sid, {}, backlog));
}

Result<int> LibraryNode::Accept(int fd, SockAddrIn* peer) {
  Result<Desc*> dr = Lookup(fd);
  if (!dr.ok()) {
    return dr.error();
  }
  Desc* d = *dr;
  // proxy_accept: the server completes the handshake and the established
  // session migrates to us (Table 1). A forwarded accept leaves it on the
  // server.
  Simulator* sim = lib_->host()->sim();
  SimTime rpc_begin = sim->Now();
  IpcMessage rep =
      lib_->Call(d->via_server ? ProxyOp::kProxyFwdAccept : ProxyOp::kProxyAccept, d->sid);
  SimTime rpc_end = sim->Now();
  if (Result<void> st = ReplyStatus(rep); !st.ok()) {
    return st.error();
  }
  std::unique_ptr<Socket> sock;
  if (d->via_server) {
    if (peer != nullptr) {
      Decoder dec(rep.payload);
      *peer = DecodeAddr(&dec);
    }
  } else {
    Result<std::unique_ptr<Socket>> adopted = AdoptTcp(rep, rep.arg[1], rpc_begin, rpc_end, peer);
    if (!adopted.ok()) {
      return adopted.error();
    }
    sock = std::move(*adopted);
  }
  int nfd = next_fd_++;
  Desc& child = fds_[nfd];
  child.sid = rep.arg[1];
  child.proto = IpProto::kTcp;
  child.sock = std::move(sock);
  child.via_server = d->via_server;
  return nfd;
}

Result<void> LibraryNode::Connect(int fd, SockAddrIn remote) {
  Result<Desc*> dr = Lookup(fd);
  if (!dr.ok()) {
    return dr.error();
  }
  Desc* d = *dr;
  if (d->via_server) {
    return ops_.Connect(d->sid, remote);
  }
  Encoder e;
  EncodeAddr(&e, remote);
  Simulator* sim = lib_->host()->sim();
  SimTime rpc_begin = sim->Now();
  IpcMessage rep = lib_->Call(ProxyOp::kProxyConnect, d->sid, e.Take());
  SimTime rpc_end = sim->Now();
  if (Result<void> st = ReplyStatus(rep); !st.ok()) {
    return st;
  }
  if (d->proto == IpProto::kUdp) {
    Decoder dec(rep.payload);
    SockAddrIn local = DecodeAddr(&dec);
    SockAddrIn rem = DecodeAddr(&dec);
    if (d->sock == nullptr) {
      d->sock = Socket::AdoptUdp(lib_->stack(), local, rem);
    } else {
      DomainLock lock(lib_->stack()->sync());
      d->sock->udp_pcb()->remote = rem;
    }
    return OkResult();
  }
  // TCP: adopt the established, migrated session.
  Result<std::unique_ptr<Socket>> adopted = AdoptTcp(rep, d->sid, rpc_begin, rpc_end);
  if (!adopted.ok()) {
    return adopted.error();
  }
  d->sock = std::move(*adopted);
  return OkResult();
}

Result<std::unique_ptr<Socket>> LibraryNode::AdoptTcp(const IpcMessage& rep, uint64_t sid,
                                                      SimTime rpc_begin, SimTime rpc_end,
                                                      SockAddrIn* remote) {
  Decoder dec(rep.payload);
  DecodeAddr(&dec);  // local
  SockAddrIn peer = DecodeAddr(&dec);
  if (remote != nullptr) {
    *remote = peer;
  }
  Result<TcpMigrationState> st = TcpMigrationState::Decode(dec.Bytes());
  if (!st.ok()) {
    return st.error();
  }
  std::unique_ptr<Socket> sock = Socket::AdoptTcp(lib_->stack(), *st);
  // Client half of the migration taxonomy: `transfer` is the observed
  // proxy-RPC round trip carrying the encoded state (it overlaps the
  // server's freeze/install/encode phases by design); `resume` is the local
  // adopt plus restart of the transmit machinery.
  Simulator* sim = lib_->host()->sim();
  SimTime resume_end = sim->Now();
  Observatory* obs = lib_->host()->obs();
  obs->meta.RecordPhase(MigrationPhase::kTransfer, rpc_end - rpc_begin);
  obs->meta.RecordPhase(MigrationPhase::kResume, resume_end - rpc_end);
  obs->tracer.Emit(sim, "migrate/transfer", TraceLayer::kCore, -1, rpc_begin, rpc_end - rpc_begin,
                   sid);
  obs->tracer.Emit(sim, "migrate/resume", TraceLayer::kCore, -1, rpc_end, resume_end - rpc_end,
                   sid);
  return sock;
}

Result<size_t> LibraryNode::Send(int fd, const uint8_t* data, size_t len, const SockAddrIn* to) {
  Result<Desc*> dr = LookupForSend(fd, to);
  if (!dr.ok()) {
    return dr.error();
  }
  Desc* d = *dr;
  if (d->sock == nullptr) {
    return ops_.Send(d->sid, data, len, to);
  }
  // Fast path: no operating-system involvement (§3.2, "Sending and
  // receiving data ... implemented entirely within the application's
  // protocol library").
  Result<size_t> r = d->sock->Send(data, len, to);
  lib_->stack()->Kick();
  return r;
}

Result<size_t> LibraryNode::Recv(int fd, uint8_t* out, size_t len, SockAddrIn* from, bool peek) {
  Result<Desc*> dr = Lookup(fd);
  if (!dr.ok()) {
    return dr.error();
  }
  Desc* d = *dr;
  if (d->sock == nullptr) {
    return ops_.Recv(d->sid, out, len, from, peek);
  }
  return d->sock->Recv(out, len, from, peek);
}

Result<size_t> LibraryNode::SendShared(int fd, std::shared_ptr<const std::vector<uint8_t>> buf,
                                       size_t off, size_t len, const SockAddrIn* to) {
  Result<Desc*> dr = LookupForSend(fd, to);
  if (!dr.ok()) {
    return dr.error();
  }
  Desc* d = *dr;
  if (d->sock == nullptr) {
    return SocketApi::SendShared(fd, std::move(buf), off, len, to);
  }
  Result<size_t> r = d->sock->SendShared(std::move(buf), off, len, to);
  lib_->stack()->Kick();
  return r;
}

Result<Chain> LibraryNode::RecvChain(int fd, size_t max, SockAddrIn* from) {
  Result<Desc*> dr = Lookup(fd);
  if (!dr.ok()) {
    return dr.error();
  }
  Desc* d = *dr;
  if (d->sock == nullptr) {
    return SocketApi::RecvChain(fd, max, from);
  }
  return d->sock->RecvChain(max, from);
}

Result<void> LibraryNode::SetOpt(int fd, SockOpt opt, size_t value) {
  Result<Desc*> dr = Lookup(fd);
  if (!dr.ok()) {
    return dr.error();
  }
  Desc* d = *dr;
  if (d->sock == nullptr) {
    return ops_.SetOpt(d->sid, opt, value);
  }
  return d->sock->SetOpt(opt, value);
}

Result<void> LibraryNode::Shutdown(int fd, bool rd, bool wr) {
  Result<Desc*> dr = Lookup(fd);
  if (!dr.ok()) {
    return dr.error();
  }
  Desc* d = *dr;
  if (d->sock == nullptr) {
    return ops_.Shutdown(d->sid, rd, wr);
  }
  return d->sock->Shutdown(rd, wr);
}

Result<void> LibraryNode::ReturnSession(Desc* d, bool close_after) {
  std::vector<uint8_t> payload;
  if (d->sock != nullptr && d->proto == IpProto::kTcp) {
    Stack* stack = lib_->stack();
    TcpPcb* pcb = d->sock->DetachTcpPcb();
    TcpMigrationState st;
    {
      DomainLock lock(stack->sync());
      st = stack->tcp().ExtractForMigration(pcb);
    }
    Encoder e;
    e.Bytes(st.Encode());
    payload = e.Take();
  } else if (d->sock != nullptr) {
    UdpPcb* pcb = d->sock->DetachUdpPcb();
    DomainLock lock(lib_->stack()->sync());
    lib_->stack()->udp().Destroy(pcb);
  }
  d->sock.reset();
  IpcMessage rep =
      lib_->Call(ProxyOp::kProxyReturn, d->sid, std::move(payload), close_after ? 1 : 0);
  d->via_server = true;
  return ReplyStatus(rep);
}

Result<void> LibraryNode::ReturnToServer(int fd) {
  Result<Desc*> dr = Lookup(fd);
  if (!dr.ok()) {
    return dr.error();
  }
  Desc* d = *dr;
  if (d->sock == nullptr) {
    return Err::kInval;  // already server-managed
  }
  return ReturnSession(d, /*close_after=*/false);
}

Result<void> LibraryNode::Reacquire(int fd) {
  Result<Desc*> dr = Lookup(fd);
  if (!dr.ok()) {
    return dr.error();
  }
  Desc* d = *dr;
  if (d->sock != nullptr || d->proto != IpProto::kTcp) {
    return Err::kInval;
  }
  Simulator* sim = lib_->host()->sim();
  SimTime rpc_begin = sim->Now();
  IpcMessage rep = lib_->Call(ProxyOp::kProxyReacquire, d->sid);
  SimTime rpc_end = sim->Now();
  if (Result<void> st = ReplyStatus(rep); !st.ok()) {
    return st;
  }
  Result<std::unique_ptr<Socket>> adopted = AdoptTcp(rep, d->sid, rpc_begin, rpc_end);
  if (!adopted.ok()) {
    return adopted.error();
  }
  d->sock = std::move(*adopted);
  d->via_server = false;
  return OkResult();
}

Result<void> LibraryNode::Close(int fd) {
  Result<Desc*> dr = Lookup(fd);
  if (!dr.ok()) {
    return dr.error();
  }
  Desc* d = *dr;
  Result<void> r = OkResult();
  if (d->sock != nullptr) {
    // Clean shutdown: migrate the session back and let the server run the
    // close handshake and TIME_WAIT (§3.2).
    r = ReturnSession(d, /*close_after=*/true);
  } else {
    r = ReplyStatus(lib_->Call(ProxyOp::kProxyFwdClose, d->sid));
  }
  fds_.erase(fd);
  // Epoll's implicit deregistration on close: no poll set keeps a dead fd.
  for (auto& [pfd, members] : polls_) {
    members.erase(fd);
  }
  return r;
}

Result<void> LibraryNode::PrepareFork() {
  for (auto& [fd, d] : fds_) {
    if (d.sock != nullptr) {
      Result<void> r = ReturnSession(&d, /*close_after=*/false);
      if (!r.ok()) {
        return r;
      }
    }
    d.via_server = true;
  }
  return OkResult();
}

Result<std::unique_ptr<LibraryNode>> LibraryNode::Fork(ProtocolLibrary* child_lib) {
  Result<void> r = PrepareFork();
  if (!r.ok()) {
    return r.error();
  }
  auto child = std::make_unique<LibraryNode>(child_lib);
  for (auto& [fd, d] : fds_) {
    if (Result<void> st = ReplyStatus(lib_->Call(ProxyOp::kProxyDup, d.sid)); !st.ok()) {
      return st.error();
    }
    Desc& cd = child->fds_[fd];
    cd.sid = d.sid;
    cd.proto = d.proto;
    cd.via_server = true;
  }
  child->next_fd_ = next_fd_;
  return child;
}

namespace {

// One library select's working storage (pooled: a second fiber may select
// while the first is blocked in proxy_select).
struct LibrarySelectScratch {
  std::vector<Socket*> local_rd;
  std::vector<Socket*> local_wr;
  std::vector<uint64_t> server_sids;
  std::vector<size_t> server_pos;
  std::vector<bool> lr;
  std::vector<bool> lw;
};

}  // namespace

Result<int> LibraryNode::Select(SelectFds* fds, SimDuration timeout) {
  Scratch<LibrarySelectScratch> scratch;
  std::vector<Socket*>& local_rd = scratch->local_rd;
  std::vector<Socket*>& local_wr = scratch->local_wr;
  std::vector<uint64_t>& server_sids = scratch->server_sids;
  std::vector<size_t>& server_pos = scratch->server_pos;
  local_rd.clear();
  local_wr.clear();
  server_sids.clear();
  server_pos.clear();
  // Partition descriptors into app-managed sockets and server-managed
  // sessions (the paper's "information gap", §3.2).
  for (size_t i = 0; i < fds->read.size(); i++) {
    Result<Desc*> dr = Lookup(fds->read[i]);
    if (dr.ok() && (*dr)->sock != nullptr) {
      local_rd.push_back((*dr)->sock.get());
    } else {
      local_rd.push_back(nullptr);
      if (dr.ok()) {
        server_sids.push_back((*dr)->sid);
        server_pos.push_back(i);
      }
    }
  }
  for (size_t i = 0; i < fds->write.size(); i++) {
    Result<Desc*> dr = Lookup(fds->write[i]);
    local_wr.push_back(dr.ok() && (*dr)->sock != nullptr ? (*dr)->sock.get() : nullptr);
  }
  fds->read_ready.assign(fds->read.size(), false);
  fds->write_ready.assign(fds->write.size(), false);

  if (server_sids.empty()) {
    // All descriptors are managed by the application: the operating system
    // is not involved (§3.2).
    return SelectSockets(lib_->stack(), local_rd, local_wr, timeout, &fds->read_ready,
                         &fds->write_ready);
  }

  // Cooperative select. Local readiness pings the server (proxy_status);
  // the blocking proxy_select returns when a server-managed session is
  // ready, a ping arrives, or the timeout expires.
  uint64_t token = lib_->lib_id() << 32 | select_seq_++;

  // Quick local poll first.
  int n = SelectSockets(lib_->stack(), local_rd, local_wr, 0, &fds->read_ready,
                        &fds->write_ready);
  if (n > 0) {
    return n;
  }

  // Arm local notification: readiness in the library notifies the server.
  ProtocolLibrary* lib = lib_;
  for (Socket* s : local_rd) {
    if (s != nullptr) {
      s->ArmReadiness(token, [lib, token] { lib->Notify(ProxyOp::kProxyStatus, 0, token); });
    }
  }

  Encoder e;
  e.U32(static_cast<uint32_t>(server_sids.size()));
  for (uint64_t sid : server_sids) {
    e.U64(sid);
  }
  IpcMessage rep = lib_->Call(ProxyOp::kProxySelect, 0, e.Take(), token,
                              static_cast<uint64_t>(timeout));

  for (Socket* s : local_rd) {
    if (s != nullptr) {
      s->DisarmReadiness(token);
    }
  }
  if (Result<void> st = ReplyStatus(rep); !st.ok()) {
    return st.error();
  }
  Decoder dec(rep.payload);
  dec.U32();  // server-side ready count (recomputed below)
  dec.U8();   // pinged flag
  std::vector<bool>& lr = scratch->lr;
  std::vector<bool>& lw = scratch->lw;
  SelectSockets(lib_->stack(), local_rd, local_wr, 0, &lr, &lw);
  int total = 0;
  for (size_t i = 0; i < fds->read.size(); i++) {
    if (i < lr.size() && lr[i]) {
      fds->read_ready[i] = true;
      total++;
    }
  }
  for (size_t i = 0; i < fds->write.size(); i++) {
    if (i < lw.size() && lw[i]) {
      fds->write_ready[i] = true;
      total++;
    }
  }
  for (size_t k = 0; k < server_sids.size(); k++) {
    bool ready = dec.U8() != 0;
    if (ready) {
      fds->read_ready[server_pos[k]] = true;
      total++;
    }
  }
  return total;
}

Result<int> LibraryNode::PollCreate() {
  int pfd = next_fd_++;
  polls_[pfd];
  return pfd;
}

Result<void> LibraryNode::PollAdd(int pfd, int fd, uint32_t events) {
  auto it = polls_.find(pfd);
  if (it == polls_.end()) {
    return Err::kBadF;
  }
  Result<Desc*> dr = Lookup(fd);
  if (!dr.ok()) {
    return dr.error();
  }
  it->second[fd] = events;
  return OkResult();
}

Result<void> LibraryNode::PollRemove(int pfd, int fd) {
  auto it = polls_.find(pfd);
  if (it == polls_.end()) {
    return Err::kBadF;
  }
  if (it->second.erase(fd) == 0) {
    return Err::kBadF;
  }
  return OkResult();
}

namespace {

// One PollWait's materialized interest set (pooled, like select's).
struct LibraryPollScratch {
  SelectFds fds;
  std::vector<std::pair<int, uint32_t>> members;
};

}  // namespace

Result<int> LibraryNode::PollWait(int pfd, std::vector<PollEvent>* out, SimDuration timeout) {
  auto it = polls_.find(pfd);
  if (it == polls_.end()) {
    return Err::kBadF;
  }
  out->clear();
  // Materialize the persistent interest map into one cooperative select.
  Scratch<LibraryPollScratch> scratch;
  SelectFds& fds = scratch->fds;
  std::vector<std::pair<int, uint32_t>>& members = scratch->members;
  fds.read.clear();
  fds.write.clear();
  members.clear();
  for (const auto& [fd, mask] : it->second) {
    assert(fds_.count(fd) != 0);  // Close deregisters
    members.emplace_back(fd, mask);
    if ((mask & kPollEventIn) != 0) {
      fds.read.push_back(fd);
    }
    if ((mask & kPollEventOut) != 0) {
      fds.write.push_back(fd);
    }
  }
  Result<int> n = Select(&fds, timeout);
  if (!n.ok()) {
    return n.error();
  }
  size_t ri = 0, wi = 0;
  for (const auto& [fd, mask] : members) {
    uint32_t ev = 0;
    if ((mask & kPollEventIn) != 0) {
      if (ri < fds.read_ready.size() && fds.read_ready[ri]) {
        ev |= kPollEventIn;
      }
      ri++;
    }
    if ((mask & kPollEventOut) != 0) {
      if (wi < fds.write_ready.size() && fds.write_ready[wi]) {
        ev |= kPollEventOut;
      }
      wi++;
    }
    if (ev != 0) {
      out->push_back(PollEvent{fd, ev});
    }
  }
  return static_cast<int>(out->size());
}

Result<void> LibraryNode::PollClose(int pfd) {
  if (polls_.erase(pfd) == 0) {
    return Err::kBadF;
  }
  return OkResult();
}

SockAddrIn LibraryNode::LocalAddr(int fd) {
  Result<Desc*> dr = Lookup(fd);
  if (!dr.ok()) {
    return {};
  }
  Desc* d = *dr;
  return d->sock != nullptr ? d->sock->local_addr() : ops_.LocalAddr(d->sid);
}

}  // namespace psd
