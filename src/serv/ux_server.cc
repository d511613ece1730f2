#include "src/serv/ux_server.h"

#include "src/base/codec.h"

namespace psd {

UxServer::UxServer(SimHost* host, int workers)
    : host_(host),
      core_(host, "ux", "ux-req", workers, ServOpSlot, kNumServOps,
            [this](const IpcMessage& req) { return Handle(req); }) {}

UxServer::~UxServer() { core_.Stop(); }

void UxServer::ExportStats(StatsRegistry* reg, const std::string& prefix) const {
  core_.ExportRpcStats(reg, prefix, [](size_t slot) { return kServOpNames[slot]; });
}

Result<Socket*> UxServer::Lookup(uint64_t id) {
  auto it = socks_.find(id);
  if (it == socks_.end()) {
    return Err::kBadF;
  }
  return it->second.get();
}

PollSet* UxServer::poll_set(uint64_t id) {
  auto it = polls_.find(id);
  return it == polls_.end() ? nullptr : it->second.get();
}

IpcMessage UxServer::Handle(const IpcMessage& req) {
  IpcMessage reply;
  ServOp op = static_cast<ServOp>(req.kind);
  uint64_t id = req.arg[1];
  // One span per socket RPC handled by the server task.
  TraceSpan span(host_->obs()->tracer, host_->sim(), ServOpName(op), TraceLayer::kServ, id);

  switch (op) {
    case ServOp::kSocket: {
      IpProto proto = static_cast<IpProto>(req.arg[2]);
      auto sock = std::make_unique<Socket>(core_.stack(), proto);
      uint64_t sid = next_id_++;
      socks_[sid] = std::move(sock);
      reply.arg[1] = sid;
      return reply;
    }
    case ServOp::kSelect: {
      Decoder d(req.payload);
      uint32_t nr = d.U32();
      std::vector<Socket*> rd, wr;
      for (uint32_t i = 0; i < nr; i++) {
        Result<Socket*> s = Lookup(d.U64());
        rd.push_back(s.ok() ? *s : nullptr);
      }
      uint32_t nw = d.U32();
      for (uint32_t i = 0; i < nw; i++) {
        Result<Socket*> s = Lookup(d.U64());
        wr.push_back(s.ok() ? *s : nullptr);
      }
      int64_t timeout = static_cast<int64_t>(req.arg[2]);
      std::vector<bool> rready, wready;
      int n = SelectSockets(core_.stack(), rd, wr, timeout, &rready, &wready);
      Encoder e;
      e.U32(static_cast<uint32_t>(n));
      for (bool b : rready) {
        e.U8(b ? 1 : 0);
      }
      for (bool b : wready) {
        e.U8(b ? 1 : 0);
      }
      reply.payload = e.Take();
      return reply;
    }
    case ServOp::kPollCreate: {
      uint64_t pid = next_id_++;
      polls_[pid] = std::make_unique<PollSet>(core_.stack());
      reply.arg[1] = pid;
      return reply;
    }
    case ServOp::kPollAdd: {
      PollSet* set = poll_set(id);
      if (set == nullptr) {
        return ErrorReply(Err::kBadF);
      }
      Result<Socket*> s = Lookup(req.arg[2]);
      if (!s.ok()) {
        return ErrorReply(s.error());
      }
      return StatusReply(set->Add(*s, static_cast<uint32_t>(req.arg[3]), req.arg[2]));
    }
    case ServOp::kPollRemove: {
      PollSet* set = poll_set(id);
      if (set == nullptr) {
        return ErrorReply(Err::kBadF);
      }
      Result<Socket*> s = Lookup(req.arg[2]);
      if (!s.ok()) {
        return ErrorReply(s.error());
      }
      return StatusReply(set->Remove(*s));
    }
    case ServOp::kPollWait: {
      PollSet* set = poll_set(id);
      if (set == nullptr) {
        return ErrorReply(Err::kBadF);
      }
      // Parks this worker until an edge lands; the reply message is the
      // placement's readiness notification path back to the client.
      std::vector<PollReady> ready;
      int n = set->Wait(&ready, static_cast<int64_t>(req.arg[2]));
      Encoder e;
      e.U32(static_cast<uint32_t>(n));
      for (const PollReady& r : ready) {
        e.U64(r.data);
        e.U32(r.events);
      }
      reply.payload = e.Take();
      return reply;
    }
    case ServOp::kPollClose: {
      auto it = polls_.find(id);
      if (it == polls_.end()) {
        return ErrorReply(Err::kBadF);
      }
      polls_.erase(it);
      return reply;
    }
    default:
      break;
  }
  // Every other op names a socket.
  Result<Socket*> s = Lookup(id);
  if (!s.ok()) {
    return ErrorReply(s.error());
  }
  switch (op) {
    case ServOp::kListen:
      return core_.HandleSocketOp(SocketOp::kListen, *s, req);
    case ServOp::kConnect:
      return core_.HandleSocketOp(SocketOp::kConnect, *s, req);
    case ServOp::kSend:
      return core_.HandleSocketOp(SocketOp::kSend, *s, req);
    case ServOp::kRecv:
      return core_.HandleSocketOp(SocketOp::kRecv, *s, req);
    case ServOp::kSetOpt:
      return core_.HandleSocketOp(SocketOp::kSetOpt, *s, req);
    case ServOp::kShutdown:
      return core_.HandleSocketOp(SocketOp::kShutdown, *s, req);
    case ServOp::kLocalAddr:
      return core_.HandleSocketOp(SocketOp::kLocalAddr, *s, req);
    case ServOp::kBind: {
      Decoder d(req.payload);
      return StatusReply((*s)->Bind(DecodeAddr(&d)));
    }
    case ServOp::kAccept: {
      SockAddrIn peer;
      Result<std::unique_ptr<Socket>> child = (*s)->Accept(&peer);
      if (!child.ok()) {
        return ErrorReply(child.error());
      }
      uint64_t sid = next_id_++;
      socks_[sid] = std::move(*child);
      reply.arg[1] = sid;
      Encoder e;
      EncodeAddr(&e, peer);
      reply.payload = e.Take();
      return reply;
    }
    case ServOp::kClose:
      (*s)->Close();
      socks_.erase(id);
      return reply;
    default:
      break;
  }
  return ErrorReply(Err::kOpNotSupp);
}

// ---------------------------------------------------------------------------
// Client stub

namespace {

// The ServOp that carries each shared socket op, indexed by SocketOp.
constexpr ServOp kSocketOpKinds[] = {ServOp::kListen,  ServOp::kConnect,  ServOp::kSend,
                                     ServOp::kRecv,    ServOp::kSetOpt,   ServOp::kShutdown,
                                     ServOp::kLocalAddr};

}  // namespace

UxServerNode::UxServerNode(UxServer* server)
    : server_(server),
      host_(server->host()),
      ops_(host_, [this](SocketOp op, uint64_t fd, std::vector<uint8_t> payload, uint64_t a2,
                         uint64_t a3) {
        return Call(kSocketOpKinds[static_cast<int>(op)], fd, std::move(payload), a2, a3);
      }) {}

IpcMessage UxServerNode::Call(ServOp op, uint64_t fd, std::vector<uint8_t> payload, uint64_t a2,
                              uint64_t a3) {
  rpc_calls_.Count(ServOpSlot(static_cast<uint32_t>(op)));
  return ClientRpc(host_, server_->request_port(), "ux-reply", static_cast<uint32_t>(op), fd,
                   std::move(payload), a2, a3, 0);
}

Result<int> UxServerNode::CreateSocket(IpProto proto) {
  IpcMessage rep = Call(ServOp::kSocket, 0, {}, static_cast<uint64_t>(proto));
  if (Result<void> st = ReplyStatus(rep); !st.ok()) {
    return st.error();
  }
  return static_cast<int>(rep.arg[1]);
}

Result<void> UxServerNode::Bind(int fd, SockAddrIn local) {
  Encoder e;
  EncodeAddr(&e, local);
  return ReplyStatus(Call(ServOp::kBind, fd, e.Take()));
}

Result<void> UxServerNode::Listen(int fd, int backlog) { return ops_.Listen(fd, backlog); }

Result<int> UxServerNode::Accept(int fd, SockAddrIn* peer) {
  IpcMessage rep = Call(ServOp::kAccept, fd);
  if (Result<void> st = ReplyStatus(rep); !st.ok()) {
    return st.error();
  }
  if (peer != nullptr) {
    Decoder d(rep.payload);
    *peer = DecodeAddr(&d);
  }
  return static_cast<int>(rep.arg[1]);
}

Result<void> UxServerNode::Connect(int fd, SockAddrIn remote) { return ops_.Connect(fd, remote); }

Result<size_t> UxServerNode::Send(int fd, const uint8_t* data, size_t len, const SockAddrIn* to) {
  Result<size_t> r = ops_.Send(fd, data, len, to);
  // Attribute the RPC request leg to Table 4's entry/copyin row (the
  // server-side socket layer records its own share via its span).
  const MachineProfile* p = host_->prof();
  SimDuration cost = p->trap + p->ipc_fixed + p->wakeup_cross +
                     3 * static_cast<SimDuration>(len) * p->ipc_per_byte;
  host_->obs()->tracer.Emit(host_->sim(), StageName(Stage::kEntryCopyin),
                            StageLayer(Stage::kEntryCopyin),
                            static_cast<int>(Stage::kEntryCopyin), host_->sim()->Now() - cost,
                            cost);
  return r;
}

Result<size_t> UxServerNode::Recv(int fd, uint8_t* out, size_t len, SockAddrIn* from, bool peek) {
  Result<size_t> n = ops_.Recv(fd, out, len, from, peek);
  if (!n.ok()) {
    return n;
  }
  // Attribute the RPC reply leg to Table 4's copyout/exit row.
  const MachineProfile* p = host_->prof();
  SimDuration cost =
      p->ipc_fixed + p->wakeup_cross + 3 * static_cast<SimDuration>(*n) * p->ipc_per_byte;
  host_->obs()->tracer.Emit(host_->sim(), StageName(Stage::kCopyoutExit),
                            StageLayer(Stage::kCopyoutExit),
                            static_cast<int>(Stage::kCopyoutExit), host_->sim()->Now() - cost,
                            cost);
  return n;
}

Result<void> UxServerNode::SetOpt(int fd, SockOpt opt, size_t value) {
  return ops_.SetOpt(fd, opt, value);
}

Result<void> UxServerNode::Shutdown(int fd, bool rd, bool wr) { return ops_.Shutdown(fd, rd, wr); }

Result<void> UxServerNode::Close(int fd) { return ReplyStatus(Call(ServOp::kClose, fd)); }

Result<int> UxServerNode::Select(SelectFds* fds, SimDuration timeout) {
  Encoder e;
  e.U32(static_cast<uint32_t>(fds->read.size()));
  for (int fd : fds->read) {
    e.U64(static_cast<uint64_t>(fd));
  }
  e.U32(static_cast<uint32_t>(fds->write.size()));
  for (int fd : fds->write) {
    e.U64(static_cast<uint64_t>(fd));
  }
  IpcMessage rep = Call(ServOp::kSelect, 0, e.Take(), static_cast<uint64_t>(timeout));
  if (Result<void> st = ReplyStatus(rep); !st.ok()) {
    return st.error();
  }
  Decoder d(rep.payload);
  int n = static_cast<int>(d.U32());
  fds->read_ready.resize(fds->read.size());
  fds->write_ready.resize(fds->write.size());
  for (size_t i = 0; i < fds->read.size(); i++) {
    fds->read_ready[i] = d.U8() != 0;
  }
  for (size_t i = 0; i < fds->write.size(); i++) {
    fds->write_ready[i] = d.U8() != 0;
  }
  return n;
}

Result<int> UxServerNode::PollCreate() {
  IpcMessage rep = Call(ServOp::kPollCreate, 0);
  if (Result<void> st = ReplyStatus(rep); !st.ok()) {
    return st.error();
  }
  return static_cast<int>(rep.arg[1]);
}

Result<void> UxServerNode::PollAdd(int pfd, int fd, uint32_t events) {
  return ReplyStatus(Call(ServOp::kPollAdd, pfd, {}, static_cast<uint64_t>(fd), events));
}

Result<void> UxServerNode::PollRemove(int pfd, int fd) {
  return ReplyStatus(Call(ServOp::kPollRemove, pfd, {}, static_cast<uint64_t>(fd)));
}

Result<int> UxServerNode::PollWait(int pfd, std::vector<PollEvent>* out, SimDuration timeout) {
  IpcMessage rep = Call(ServOp::kPollWait, pfd, {}, static_cast<uint64_t>(timeout));
  if (Result<void> st = ReplyStatus(rep); !st.ok()) {
    return st.error();
  }
  Decoder d(rep.payload);
  int n = static_cast<int>(d.U32());
  out->clear();
  for (int i = 0; i < n; i++) {
    uint64_t sid = d.U64();
    uint32_t ev = d.U32();
    out->push_back(PollEvent{static_cast<int>(sid), ev});
  }
  return n;
}

Result<void> UxServerNode::PollClose(int pfd) { return ReplyStatus(Call(ServOp::kPollClose, pfd)); }

SockAddrIn UxServerNode::LocalAddr(int fd) { return ops_.LocalAddr(fd); }

}  // namespace psd
