#include "src/serv/ux_server.h"

#include <iterator>

#include "src/base/codec.h"
#include "src/sock/select.h"

namespace psd {

namespace {

// The ServOp that carries each shared socket op, indexed by SocketOp.
constexpr ServOp kSocketOpKinds[] = {ServOp::kListen,  ServOp::kConnect,  ServOp::kSend,
                                     ServOp::kRecv,    ServOp::kSetOpt,   ServOp::kShutdown,
                                     ServOp::kLocalAddr};

}  // namespace

UxServer::UxServer(SimHost* host, int workers)
    : host_(host),
      core_(host, "ux", "ux-req", workers, ServOpSlot, kNumServOps,
            [this](const IpcMessage& req) { return Handle(req); }),
      table_(core_.stack(), /*first_id=*/1) {}

UxServer::~UxServer() { core_.Stop(); }

void UxServer::ExportStats(StatsRegistry* reg, const std::string& prefix) const {
  core_.ExportRpcStats(reg, prefix, [](size_t slot) { return kServOpNames[slot]; });
}

IpcMessage UxServer::Handle(const IpcMessage& req) {
  IpcMessage reply;
  ServOp op = static_cast<ServOp>(req.kind);
  uint64_t id = req.arg[1];
  // One span per socket RPC handled by the server task.
  TraceSpan span(host_->obs()->tracer, host_->sim(), ServOpName(op), TraceLayer::kServ, id);

  switch (op) {
    case ServOp::kSocket: {
      Result<std::unique_ptr<Socket>> sock = table_.Create(static_cast<IpProto>(req.arg[2]));
      if (!sock.ok()) {
        return ErrorReply(sock.error());
      }
      reply.arg[1] = table_.Install(std::move(*sock));
      return reply;
    }
    case ServOp::kSelect: {
      Decoder d(req.payload);
      uint32_t nr = d.U32();
      std::vector<Socket*> rd, wr;
      for (uint32_t i = 0; i < nr; i++) {
        rd.push_back(table_.Lookup(d.U64()));
      }
      uint32_t nw = d.U32();
      for (uint32_t i = 0; i < nw; i++) {
        wr.push_back(table_.Lookup(d.U64()));
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
    case ServOp::kPollCreate:
      reply.arg[1] = table_.PollCreate();
      return reply;
    case ServOp::kPollAdd:
    case ServOp::kPollRemove: {
      Result<PollMember> m = table_.ResolveMember(id, req.arg[2]);
      if (!m.ok()) {
        return ErrorReply(m.error());
      }
      return StatusReply(op == ServOp::kPollAdd
                             ? m->set->Add(m->sock, static_cast<uint32_t>(req.arg[3]), req.arg[2])
                             : m->set->Remove(m->sock));
    }
    case ServOp::kPollWait: {
      PollSet* set = table_.poll_set(id);
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
    case ServOp::kPollClose:
      return StatusReply(table_.PollClose(id));
    default:
      break;
  }
  // Every other op names a socket.
  Socket* s = table_.Lookup(id);
  if (s == nullptr) {
    return ErrorReply(Err::kBadF);
  }
  for (size_t i = 0; i < std::size(kSocketOpKinds); i++) {
    if (kSocketOpKinds[i] == op) {
      return core_.HandleSocketOp(static_cast<SocketOp>(i), s, req);
    }
  }
  switch (op) {
    case ServOp::kBind: {
      Decoder d(req.payload);
      return StatusReply(s->Bind(DecodeAddr(&d)));
    }
    case ServOp::kAccept: {
      SockAddrIn peer;
      Result<std::unique_ptr<Socket>> child = s->Accept(&peer);
      if (!child.ok()) {
        return ErrorReply(child.error());
      }
      reply.arg[1] = table_.Install(std::move(*child));
      Encoder e;
      EncodeAddr(&e, peer);
      reply.payload = e.Take();
      return reply;
    }
    case ServOp::kClose:
      // The reply ignores the close's own result, as NetServer's does.
      table_.Close(id);
      return reply;
    default:
      break;
  }
  return ErrorReply(Err::kOpNotSupp);
}

// ---------------------------------------------------------------------------
// Client stub

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
  return ClientRpc(host_, server_->request_port(), static_cast<uint32_t>(op), fd,
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
