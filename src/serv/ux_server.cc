#include "src/serv/ux_server.h"

#include <cassert>
#include <cstring>

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

IpcMessage UxServer::SocketCall(SocketOp op, uint64_t id, const IpcMessage& req) {
  Result<Socket*> s = Lookup(id);
  if (!s.ok()) {
    IpcMessage reply;
    reply.arg[0] = static_cast<uint64_t>(s.error());
    return reply;
  }
  return core_.HandleSocketOp(op, *s, req);
}

PollSet* UxServer::poll_set(uint64_t id) {
  auto it = polls_.find(id);
  return it == polls_.end() ? nullptr : it->second.get();
}

IpcMessage UxServer::Handle(const IpcMessage& req) {
  IpcMessage reply;
  auto fail = [&reply](Err e) {
    reply.arg[0] = static_cast<uint64_t>(e);
    return reply;
  };
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
    case ServOp::kListen:
      return SocketCall(SocketOp::kListen, id, req);
    case ServOp::kConnect:
      return SocketCall(SocketOp::kConnect, id, req);
    case ServOp::kSend:
      return SocketCall(SocketOp::kSend, id, req);
    case ServOp::kRecv:
    case ServOp::kRecvChain:
      return SocketCall(SocketOp::kRecv, id, req);
    case ServOp::kSetOpt:
      return SocketCall(SocketOp::kSetOpt, id, req);
    case ServOp::kShutdown:
      return SocketCall(SocketOp::kShutdown, id, req);
    case ServOp::kLocalAddr:
      return SocketCall(SocketOp::kLocalAddr, id, req);
    case ServOp::kBind: {
      Result<Socket*> s = Lookup(id);
      if (!s.ok()) {
        return fail(s.error());
      }
      Decoder d(req.payload);
      SockAddrIn a = DecodeAddr(&d);
      Result<void> r = (*s)->Bind(a);
      return r.ok() ? reply : fail(r.error());
    }
    case ServOp::kAccept: {
      Result<Socket*> s = Lookup(id);
      if (!s.ok()) {
        return fail(s.error());
      }
      SockAddrIn peer;
      Result<std::unique_ptr<Socket>> child = (*s)->Accept(&peer);
      if (!child.ok()) {
        return fail(child.error());
      }
      uint64_t sid = next_id_++;
      socks_[sid] = std::move(*child);
      reply.arg[1] = sid;
      Encoder e;
      EncodeAddr(&e, peer);
      reply.payload = e.Take();
      return reply;
    }
    case ServOp::kClose: {
      Result<Socket*> s = Lookup(id);
      if (!s.ok()) {
        return fail(s.error());
      }
      (*s)->Close();
      socks_.erase(id);
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
        return fail(Err::kBadF);
      }
      Result<Socket*> s = Lookup(req.arg[2]);
      if (!s.ok()) {
        return fail(s.error());
      }
      Result<void> r = set->Add(*s, static_cast<uint32_t>(req.arg[3]), req.arg[2]);
      return r.ok() ? reply : fail(r.error());
    }
    case ServOp::kPollRemove: {
      PollSet* set = poll_set(id);
      if (set == nullptr) {
        return fail(Err::kBadF);
      }
      Result<Socket*> s = Lookup(req.arg[2]);
      if (!s.ok()) {
        return fail(s.error());
      }
      Result<void> r = set->Remove(*s);
      return r.ok() ? reply : fail(r.error());
    }
    case ServOp::kPollWait: {
      PollSet* set = poll_set(id);
      if (set == nullptr) {
        return fail(Err::kBadF);
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
        return fail(Err::kBadF);
      }
      polls_.erase(it);
      return reply;
    }
    case ServOp::kServOpCount:
      break;
  }
  return fail(Err::kOpNotSupp);
}

// ---------------------------------------------------------------------------
// Client stub

UxServerNode::UxServerNode(UxServer* server) : server_(server), host_(server->host()) {}

IpcMessage UxServerNode::Call(ServOp op, uint64_t fd, std::vector<uint8_t> payload, uint64_t a2,
                              uint64_t a3) {
  SimThread* self = host_->sim()->current_thread();
  assert(self != nullptr);
  rpc_calls_.Count(ServOpSlot(static_cast<uint32_t>(op)));
  self->Charge(host_->prof()->trap);
  Port reply_port(host_->sim(), host_->obs(), host_->prof(), "ux-reply");
  IpcMessage req;
  req.kind = static_cast<uint32_t>(op);
  req.arg[1] = fd;
  req.arg[2] = a2;
  req.arg[3] = a3;
  req.payload = std::move(payload);
  return RpcCall(server_->request_port(), &reply_port, std::move(req));
}

Result<int> UxServerNode::CreateSocket(IpProto proto) {
  IpcMessage rep = Call(ServOp::kSocket, 0, {}, static_cast<uint64_t>(proto));
  if (rep.arg[0] != 0) {
    return static_cast<Err>(rep.arg[0]);
  }
  return static_cast<int>(rep.arg[1]);
}

Result<void> UxServerNode::Bind(int fd, SockAddrIn local) {
  Encoder e;
  EncodeAddr(&e, local);
  IpcMessage rep = Call(ServOp::kBind, fd, e.Take());
  if (rep.arg[0] != 0) {
    return static_cast<Err>(rep.arg[0]);
  }
  return OkResult();
}

Result<void> UxServerNode::Listen(int fd, int backlog) {
  IpcMessage rep = Call(ServOp::kListen, fd, {}, backlog);
  if (rep.arg[0] != 0) {
    return static_cast<Err>(rep.arg[0]);
  }
  return OkResult();
}

Result<int> UxServerNode::Accept(int fd, SockAddrIn* peer) {
  IpcMessage rep = Call(ServOp::kAccept, fd);
  if (rep.arg[0] != 0) {
    return static_cast<Err>(rep.arg[0]);
  }
  if (peer != nullptr) {
    Decoder d(rep.payload);
    *peer = DecodeAddr(&d);
  }
  return static_cast<int>(rep.arg[1]);
}

Result<void> UxServerNode::Connect(int fd, SockAddrIn remote) {
  Encoder e;
  EncodeAddr(&e, remote);
  IpcMessage rep = Call(ServOp::kConnect, fd, e.Take());
  if (rep.arg[0] != 0) {
    return static_cast<Err>(rep.arg[0]);
  }
  return OkResult();
}

Result<size_t> UxServerNode::Send(int fd, const uint8_t* data, size_t len, const SockAddrIn* to) {
  SimThread* self = host_->sim()->current_thread();
  // First of the four RPC data copies: user buffer -> request message.
  self->Charge(static_cast<SimDuration>(len) * host_->prof()->ipc_per_byte);
  std::vector<uint8_t> payload(data, data + len);
  uint64_t a2 = to != nullptr ? 1 : 0;
  uint64_t a3 = to != nullptr ? (static_cast<uint64_t>(to->addr.v) << 16 | to->port) : 0;
  IpcMessage rep = Call(ServOp::kSend, fd, std::move(payload), a2, a3);
  // Attribute the RPC request leg to Table 4's entry/copyin row (the
  // server-side socket layer records its own share via its span).
  const MachineProfile* p = host_->prof();
  SimDuration cost = p->trap + p->ipc_fixed + p->wakeup_cross +
                     3 * static_cast<SimDuration>(len) * p->ipc_per_byte;
  host_->obs()->tracer.Emit(host_->sim(), StageName(Stage::kEntryCopyin),
                            StageLayer(Stage::kEntryCopyin),
                            static_cast<int>(Stage::kEntryCopyin), host_->sim()->Now() - cost,
                            cost);
  if (rep.arg[0] != 0) {
    return static_cast<Err>(rep.arg[0]);
  }
  return static_cast<size_t>(rep.arg[1]);
}

Result<size_t> UxServerNode::Recv(int fd, uint8_t* out, size_t len, SockAddrIn* from, bool peek) {
  IpcMessage rep = Call(ServOp::kRecv, fd, {}, len, peek ? 1 : 0);
  if (rep.arg[0] != 0) {
    return static_cast<Err>(rep.arg[0]);
  }
  size_t n = std::min(len, rep.payload.size());
  // Last of the four copies: reply message -> user buffer.
  host_->sim()->current_thread()->Charge(static_cast<SimDuration>(n) *
                                         host_->prof()->ipc_per_byte);
  // Attribute the RPC reply leg to Table 4's copyout/exit row.
  const MachineProfile* p = host_->prof();
  SimDuration cost =
      p->ipc_fixed + p->wakeup_cross + 3 * static_cast<SimDuration>(n) * p->ipc_per_byte;
  host_->obs()->tracer.Emit(host_->sim(), StageName(Stage::kCopyoutExit),
                            StageLayer(Stage::kCopyoutExit),
                            static_cast<int>(Stage::kCopyoutExit), host_->sim()->Now() - cost,
                            cost);
  if (n > 0) {
    std::memcpy(out, rep.payload.data(), n);
  }
  if (from != nullptr) {
    from->addr = Ipv4Addr(static_cast<uint32_t>(rep.arg[2] >> 16));
    from->port = static_cast<uint16_t>(rep.arg[2] & 0xffff);
  }
  return n;
}

Result<size_t> UxServerNode::SendShared(int fd, std::shared_ptr<const std::vector<uint8_t>> buf,
                                        size_t off, size_t len, const SockAddrIn* to) {
  // Shared buffers cannot cross the RPC boundary: classic copy semantics.
  return Send(fd, buf->data() + off, len, to);
}

Result<Chain> UxServerNode::RecvChain(int fd, size_t max, SockAddrIn* from) {
  std::vector<uint8_t> tmp(max);
  Result<size_t> n = Recv(fd, tmp.data(), max, from, false);
  if (!n.ok()) {
    return n.error();
  }
  return Chain::FromBytes(tmp.data(), *n);
}

Result<void> UxServerNode::SetOpt(int fd, SockOpt opt, size_t value) {
  IpcMessage rep = Call(ServOp::kSetOpt, fd, {}, static_cast<uint64_t>(opt), value);
  if (rep.arg[0] != 0) {
    return static_cast<Err>(rep.arg[0]);
  }
  return OkResult();
}

Result<void> UxServerNode::Shutdown(int fd, bool rd, bool wr) {
  IpcMessage rep = Call(ServOp::kShutdown, fd, {}, rd ? 1 : 0, wr ? 1 : 0);
  if (rep.arg[0] != 0) {
    return static_cast<Err>(rep.arg[0]);
  }
  return OkResult();
}

Result<void> UxServerNode::Close(int fd) {
  IpcMessage rep = Call(ServOp::kClose, fd);
  if (rep.arg[0] != 0) {
    return static_cast<Err>(rep.arg[0]);
  }
  return OkResult();
}

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
  if (rep.arg[0] != 0) {
    return static_cast<Err>(rep.arg[0]);
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
  if (rep.arg[0] != 0) {
    return static_cast<Err>(rep.arg[0]);
  }
  return static_cast<int>(rep.arg[1]);
}

Result<void> UxServerNode::PollAdd(int pfd, int fd, uint32_t events) {
  IpcMessage rep = Call(ServOp::kPollAdd, pfd, {}, static_cast<uint64_t>(fd), events);
  if (rep.arg[0] != 0) {
    return static_cast<Err>(rep.arg[0]);
  }
  return OkResult();
}

Result<void> UxServerNode::PollRemove(int pfd, int fd) {
  IpcMessage rep = Call(ServOp::kPollRemove, pfd, {}, static_cast<uint64_t>(fd));
  if (rep.arg[0] != 0) {
    return static_cast<Err>(rep.arg[0]);
  }
  return OkResult();
}

Result<int> UxServerNode::PollWait(int pfd, std::vector<PollEvent>* out, SimDuration timeout) {
  IpcMessage rep = Call(ServOp::kPollWait, pfd, {}, static_cast<uint64_t>(timeout));
  if (rep.arg[0] != 0) {
    return static_cast<Err>(rep.arg[0]);
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

Result<void> UxServerNode::PollClose(int pfd) {
  IpcMessage rep = Call(ServOp::kPollClose, pfd);
  if (rep.arg[0] != 0) {
    return static_cast<Err>(rep.arg[0]);
  }
  return OkResult();
}

SockAddrIn UxServerNode::LocalAddr(int fd) {
  IpcMessage rep = Call(ServOp::kLocalAddr, fd);
  Decoder d(rep.payload);
  return DecodeAddr(&d);
}

}  // namespace psd
