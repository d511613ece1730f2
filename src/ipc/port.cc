#include "src/ipc/port.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "src/base/log.h"

namespace psd {

void Port::Send(const IpcMessage& msg) {
  SimThread* self = sim_->current_thread();
  assert(self != nullptr && "Port::Send requires thread context");
  TraceSpan span(obs_->tracer, sim_, "ipc/send", TraceLayer::kIpc);
  // Copy the payload across the user/kernel boundary into the queued
  // message (one of the four RPC data copies).
  self->Charge(costs_.send_fixed +
               static_cast<SimDuration>(msg.payload.size()) * costs_.per_byte);
  SendUncharged(msg);
}

void Port::SendUncharged(const IpcMessage& msg) {
  if (count_ == ring_.size()) {
    std::rotate(ring_.begin(), ring_.begin() + static_cast<std::ptrdiff_t>(head_), ring_.end());
    head_ = 0;
    ring_.resize(std::max<size_t>(1, 2 * ring_.size()));
  }
  // Copy-assignment reuses the slot's payload buffer when it is big enough.
  IpcMessage& slot = ring_[(head_ + count_) % ring_.size()];
  slot = msg;
  slot.enqueued_at = sim_->Now();
  count_++;
  messages_sent_++;
  nonempty_.NotifyOne();
}

void Port::Dequeue(IpcMessage* out) {
  std::swap(*out, ring_[head_]);
  head_ = (head_ + 1) % ring_.size();
  count_--;
  if (count_ == 0 && ring_.size() > kKeptSlots) {
    // A burst's backlog drained: give back the slots beyond the steady
    // working set, and their buffers.
    ring_.resize(kKeptSlots);
    ring_.shrink_to_fit();
    head_ = 0;
  }
}

bool Port::DrainOne(IpcMessage* out) {
  if (count_ == 0) {
    return false;
  }
  Dequeue(out);
  return true;
}

bool Port::Receive(IpcMessage* out, SimTime deadline) {
  SimThread* self = sim_->current_thread();
  assert(self != nullptr && "Port::Receive requires thread context");
  bool blocked = false;
  while (count_ == 0) {
    blocked = true;
    if (!self->WaitOn(&nonempty_, deadline)) {
      return false;
    }
  }
  // Dequeue before charging: charging yields virtual time, and another
  // receiver (server worker pool) could otherwise claim the same message.
  Dequeue(out);
  // The span starts after the dequeue so a long blocked wait does not read
  // as IPC work.
  TraceSpan span(obs_->tracer, sim_, "ipc/recv", TraceLayer::kIpc);
  // Copy out of the kernel queue into the receiver's address space.
  SimDuration cost = costs_.recv_fixed +
                     static_cast<SimDuration>(out->payload.size()) * costs_.per_byte;
  if (blocked) {
    cost += costs_.wakeup;
  }
  self->Charge(cost);
  return true;
}

IpcMessage RpcCall(Port* server, Port* reply_to, IpcMessage req) {
  req.reply_port = reply_to;
  server->Send(req);
  IpcMessage reply;
  bool got = reply_to->Receive(&reply);
  assert(got && "RPC reply port closed");
  (void)got;
  return reply;
}

}  // namespace psd
