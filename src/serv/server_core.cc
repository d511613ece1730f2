#include "src/serv/server_core.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "src/filter/session_filter.h"
#include "src/obs/stats.h"

namespace psd {

void RunPacketInput(Port* port, Stack* stack) {
  IpcMessage msg;
  for (;;) {
    if (!port->Receive(&msg)) {
      continue;
    }
    // Copy onto pooled storage; msg keeps its buffer for the next receive.
    Frame f(msg.payload);
    f.pkt_id = msg.arg[5];
    stack->InputFrame(f);
  }
}

IpcMessage ClientRpc(SimHost* host, Port* server, uint32_t kind, uint64_t id,
                     std::vector<uint8_t> payload, uint64_t a2, uint64_t a3, uint64_t a4) {
  SimThread* self = host->sim()->current_thread();
  assert(self != nullptr);
  self->Charge(host->prof()->trap);
  Port reply(host->sim(), host->obs(), host->prof(), "reply");
  IpcMessage req;
  req.kind = kind;
  req.arg[1] = id;
  req.arg[2] = a2;
  req.arg[3] = a3;
  req.arg[4] = a4;
  req.payload = std::move(payload);
  return RpcCall(server, &reply, std::move(req));
}

ServerCore::ServerCore(SimHost* host, const std::string& tag, const std::string& request_port,
                       int workers, int (*op_slot)(uint32_t), size_t slots, Handler handler,
                       std::vector<Fiber> own)
    : host_(host),
      request_port_(host->sim(), host->obs(), host->prof(), host->name() + "/" + request_port),
      packet_port_(host->sim(), host->obs(), host->name() + "/" + tag + "-pkt",
                   PortCosts::PacketDelivery(*host->prof())),
      handler_(std::move(handler)),
      op_slot_(op_slot),
      rpc_(slots) {
  StackParams params;
  params.sim = host->sim();
  params.obs = host->obs();
  params.cpu = host->cpu();
  params.prof = host->prof();
  params.placement = Placement::kServer;
  Kernel* kernel = host->kernel();
  params.send_frame = [kernel](Frame f) { kernel->NetSendFromUser(std::move(f)); };
  params.ip = host->ip();
  params.mac = host->mac();
  params.name = host->name() + "/" + tag;
  stack_ = std::make_unique<Stack>(params);
  stack_->routes().Add(Ipv4Addr(host->ip().v & 0xffff0000), Ipv4Addr(0xffff0000),
                       Ipv4Addr::Any());

  // The server receives everything no per-session filter claims.
  kernel->InstallFilter(CompileCatchAllFilter(), /*priority=*/0,
                        DeliveryEndpoint{DeliverKind::kIpc, nullptr, &packet_port_});
  std::string prefix = host->name() + "/" + tag + "-";
  threads_.push_back(host->sim()->Spawn(prefix + "in", host->cpu(),
                                        [this] { RunPacketInput(&packet_port_, stack_.get()); }));
  for (Fiber& f : own) {
    threads_.push_back(host->sim()->Spawn(prefix + f.name, host->cpu(), std::move(f.body)));
  }
  for (int i = 0; i < workers; i++) {
    threads_.push_back(host->sim()->Spawn(prefix + "w" + std::to_string(i), host->cpu(),
                                          [this] { WorkerBody(); }));
  }
}

ServerCore::~ServerCore() { Stop(); }

void ServerCore::Stop() {
  if (!host_->sim()->shutting_down()) {
    for (SimThread* t : threads_) {
      host_->sim()->KillThread(t);
    }
  }
  threads_.clear();
}

void ServerCore::WorkerBody() {
  IpcMessage msg;
  for (;;) {
    if (!request_port_.Receive(&msg)) {
      continue;
    }
    // Queue wait: request enqueue -> this worker dequeued it. Service: the
    // handler itself — for blocking ops (poll wait, accept) that includes
    // the parked wait, which *is* the placement's notification path.
    SimTime start = host_->sim()->Now();
    SimDuration queue_wait = msg.enqueued_at > 0 ? start - msg.enqueued_at : 0;
    uint64_t bytes_in = msg.payload.size();
    IpcMessage reply = handler_(msg);
    rpc_.Record(op_slot_(msg.kind), bytes_in, reply.payload.size(), queue_wait,
                host_->sim()->Now() - start);
    if (msg.reply_port != nullptr) {
      msg.reply_port->Send(reply);
    }
  }
}

void ServerCore::ExportRpcStats(StatsRegistry* reg, const std::string& prefix,
                                const char* (*slot_name)(size_t)) const {
  reg->RegisterGauge(prefix + "rpc.total", [this] { return rpc_.total_count(); });
  for (size_t i = 0; i < rpc_.slots(); i++) {
    reg->RegisterGauge(prefix + "rpc." + OpLeafName(slot_name(i)) + ".count",
                       [this, i] { return rpc_.op(i).count; });
  }
}

IpcMessage ErrorReply(Err e) {
  IpcMessage reply;
  reply.arg[0] = static_cast<uint64_t>(e);
  return reply;
}

IpcMessage StatusReply(const Result<void>& r) {
  return r.ok() ? IpcMessage{} : ErrorReply(r.error());
}

namespace {

// A send's destination and a datagram's source travel packed in one
// argument slot: address in the high bits, port in the low 16.
uint64_t PackAddr(const SockAddrIn& a) { return static_cast<uint64_t>(a.addr.v) << 16 | a.port; }

SockAddrIn UnpackAddr(uint64_t v) {
  SockAddrIn a;
  a.addr = Ipv4Addr(static_cast<uint32_t>(v >> 16));
  a.port = static_cast<uint16_t>(v & 0xffff);
  return a;
}

}  // namespace

IpcMessage ServerCore::HandleSocketOp(SocketOp op, Socket* s, const IpcMessage& req) {
  IpcMessage reply;
  switch (op) {
    case SocketOp::kListen:
      return StatusReply(s->Listen(static_cast<int>(req.arg[2])));
    case SocketOp::kConnect: {
      Decoder d(req.payload);
      Result<void> r = s->Connect(DecodeAddr(&d));
      stack_->Kick();
      return StatusReply(r);
    }
    case SocketOp::kSend: {
      SockAddrIn to = UnpackAddr(req.arg[3]);
      Result<size_t> r = s->Send(req.payload.data(), req.payload.size(),
                                 req.arg[2] != 0 ? &to : nullptr);
      stack_->Kick();
      if (!r.ok()) {
        return ErrorReply(r.error());
      }
      reply.arg[1] = *r;
      return reply;
    }
    case SocketOp::kRecv: {
      size_t max = req.arg[2];
      std::vector<uint8_t> buf(max);
      SockAddrIn from;
      Result<size_t> r = s->Recv(buf.data(), max, &from, req.arg[3] != 0);
      if (!r.ok()) {
        return ErrorReply(r.error());
      }
      buf.resize(*r);
      reply.arg[1] = *r;
      reply.arg[2] = PackAddr(from);
      reply.payload = std::move(buf);
      return reply;
    }
    case SocketOp::kSetOpt:
      return StatusReply(
          s->SetOpt(static_cast<SockOpt>(req.arg[2]), static_cast<size_t>(req.arg[3])));
    case SocketOp::kShutdown:
      return StatusReply(s->Shutdown(req.arg[2] != 0, req.arg[3] != 0));
    case SocketOp::kLocalAddr: {
      Encoder e;
      EncodeAddr(&e, s->local_addr());
      reply.payload = e.Take();
      return reply;
    }
  }
  return ErrorReply(Err::kOpNotSupp);
}

// ---------------------------------------------------------------------------
// Client half

Result<void> SocketOpClient::Listen(uint64_t id, int backlog) {
  return ReplyStatus(call_(SocketOp::kListen, id, {}, static_cast<uint64_t>(backlog), 0));
}

Result<void> SocketOpClient::Connect(uint64_t id, SockAddrIn remote) {
  Encoder e;
  EncodeAddr(&e, remote);
  return ReplyStatus(call_(SocketOp::kConnect, id, e.Take(), 0, 0));
}

Result<size_t> SocketOpClient::Send(uint64_t id, const uint8_t* data, size_t len,
                                    const SockAddrIn* to) {
  // User buffer -> request message.
  host_->sim()->current_thread()->Charge(static_cast<SimDuration>(len) *
                                         host_->prof()->ipc_per_byte);
  IpcMessage rep = call_(SocketOp::kSend, id, std::vector<uint8_t>(data, data + len),
                         to != nullptr ? 1 : 0, to != nullptr ? PackAddr(*to) : 0);
  if (Result<void> st = ReplyStatus(rep); !st.ok()) {
    return st.error();
  }
  return static_cast<size_t>(rep.arg[1]);
}

Result<size_t> SocketOpClient::Recv(uint64_t id, uint8_t* out, size_t len, SockAddrIn* from,
                                    bool peek) {
  IpcMessage rep = call_(SocketOp::kRecv, id, {}, len, peek ? 1 : 0);
  if (Result<void> st = ReplyStatus(rep); !st.ok()) {
    return st.error();
  }
  // Reply message -> user buffer.
  size_t n = std::min(len, rep.payload.size());
  host_->sim()->current_thread()->Charge(static_cast<SimDuration>(n) *
                                         host_->prof()->ipc_per_byte);
  if (n > 0) {
    std::memcpy(out, rep.payload.data(), n);
  }
  if (from != nullptr) {
    *from = UnpackAddr(rep.arg[2]);
  }
  return n;
}

Result<void> SocketOpClient::SetOpt(uint64_t id, SockOpt opt, size_t value) {
  return ReplyStatus(call_(SocketOp::kSetOpt, id, {}, static_cast<uint64_t>(opt), value));
}

Result<void> SocketOpClient::Shutdown(uint64_t id, bool rd, bool wr) {
  return ReplyStatus(call_(SocketOp::kShutdown, id, {}, rd ? 1 : 0, wr ? 1 : 0));
}

SockAddrIn SocketOpClient::LocalAddr(uint64_t id) {
  IpcMessage rep = call_(SocketOp::kLocalAddr, id, {}, 0, 0);
  Decoder d(rep.payload);
  return DecodeAddr(&d);
}

}  // namespace psd
