#include "src/serv/server_core.h"

#include <cstring>

#include "src/api/kernel_node.h"
#include "src/filter/session_filter.h"
#include "src/obs/stats.h"

namespace psd {

void RunPacketInput(Port* port, Stack* stack) {
  IpcMessage msg;
  for (;;) {
    if (!port->Receive(&msg)) {
      continue;
    }
    Frame f(std::move(msg.payload));
    f.pkt_id = msg.arg[5];
    stack->InputFrame(f);
  }
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
  params.with_arp = true;
  params.sync_pair_cost = host->prof()->sync_spl_emulated;
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
      msg.reply_port->Send(std::move(reply));
    }
  }
}

void ServerCore::ExportRpcStats(StatsRegistry* reg, const std::string& prefix,
                                const char* (*slot_name)(size_t)) const {
  reg->RegisterGauge(prefix + "rpc.total", [this] { return rpc_.total_count(); });
  for (size_t i = 0; i < rpc_.slots(); i++) {
    // "ux/accept" -> "<prefix>rpc.accept.count": the family tag is
    // redundant inside the export prefix.
    const char* name = slot_name(i);
    const char* slash = std::strchr(name, '/');
    std::string leaf = slash != nullptr ? slash + 1 : name;
    reg->RegisterGauge(prefix + "rpc." + leaf + ".count", [this, i] { return rpc_.op(i).count; });
  }
}

namespace {

IpcMessage ErrorReply(Err e) {
  IpcMessage reply;
  reply.arg[0] = static_cast<uint64_t>(e);
  return reply;
}

IpcMessage StatusReply(const Result<void>& r) {
  return r.ok() ? IpcMessage{} : ErrorReply(r.error());
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
      SockAddrIn to;
      const SockAddrIn* top = nullptr;
      if (req.arg[2] != 0) {
        to.addr = Ipv4Addr(static_cast<uint32_t>(req.arg[3] >> 16));
        to.port = static_cast<uint16_t>(req.arg[3] & 0xffff);
        top = &to;
      }
      Result<size_t> r = s->Send(req.payload.data(), req.payload.size(), top);
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
      reply.arg[2] = static_cast<uint64_t>(from.addr.v) << 16 | from.port;
      reply.payload = std::move(buf);
      return reply;
    }
    case SocketOp::kSetOpt:
      return StatusReply(
          ApplySockOpt(s, static_cast<SockOpt>(req.arg[2]), static_cast<size_t>(req.arg[3])));
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

}  // namespace psd
