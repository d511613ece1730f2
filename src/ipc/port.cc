#include "src/ipc/port.h"

#include <cassert>

#include "src/base/log.h"

namespace psd {

void Port::Send(IpcMessage msg) {
  SimThread* self = sim_->current_thread();
  assert(self != nullptr && "Port::Send requires thread context");
  TraceSpan span(obs_->tracer, sim_, "ipc/send", TraceLayer::kIpc);
  // Copy the payload across the user/kernel boundary into the queued
  // message (one of the four RPC data copies).
  self->Charge(costs_.send_fixed +
               static_cast<SimDuration>(msg.payload.size()) * costs_.per_byte);
  IpcMessage queued = msg;
  queued.payload = std::vector<uint8_t>(msg.payload.begin(), msg.payload.end());
  SendUncharged(std::move(queued));
}

void Port::SendUncharged(IpcMessage msg) {
  msg.enqueued_at = sim_->Now();
  queue_.push_back(std::move(msg));
  messages_sent_++;
  nonempty_.NotifyOne();
}

bool Port::Receive(IpcMessage* out, SimTime deadline) {
  SimThread* self = sim_->current_thread();
  assert(self != nullptr && "Port::Receive requires thread context");
  bool blocked = false;
  while (queue_.empty()) {
    blocked = true;
    if (!self->WaitOn(&nonempty_, deadline)) {
      return false;
    }
  }
  // Dequeue before charging: charging yields virtual time, and another
  // receiver (server worker pool) could otherwise claim the same message.
  IpcMessage head = std::move(queue_.front());
  queue_.pop_front();
  // The span starts after the dequeue so a long blocked wait does not read
  // as IPC work.
  TraceSpan span(obs_->tracer, sim_, "ipc/recv", TraceLayer::kIpc);
  // Copy out of the kernel queue into the receiver's address space.
  SimDuration cost = costs_.recv_fixed +
                     static_cast<SimDuration>(head.payload.size()) * costs_.per_byte;
  if (blocked) {
    cost += costs_.wakeup;
  }
  self->Charge(cost);
  out->kind = head.kind;
  for (int i = 0; i < 6; i++) {
    out->arg[i] = head.arg[i];
  }
  out->reply_port = head.reply_port;
  out->payload = std::vector<uint8_t>(head.payload.begin(), head.payload.end());
  out->enqueued_at = head.enqueued_at;
  return true;
}

IpcMessage RpcCall(Port* server, Port* reply_to, IpcMessage req) {
  req.reply_port = reply_to;
  server->Send(std::move(req));
  IpcMessage reply;
  bool got = reply_to->Receive(&reply);
  assert(got && "RPC reply port closed");
  (void)got;
  return reply;
}

}  // namespace psd
