// Mach-flavoured message IPC.
//
// A Port is a kernel message queue. Sending copies the payload into the
// queue and receiving copies it out again: together with the sender's copy
// into the message and the receiver's copy out of it, a cross-address-space
// RPC moves its data exactly four times — the copy structure the paper
// measures for the server-based protocol path (Table 4, entry/copyin:
// "the data is copied four times as part of an RPC").
//
// Costs: Send charges the fixed IPC cost plus per-byte transfer into the
// queue; Receive charges per-byte transfer out, and — when the receiver had
// actually blocked — the cross-address-space wakeup cost.
#ifndef PSD_SRC_IPC_PORT_H_
#define PSD_SRC_IPC_PORT_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "src/base/time.h"
#include "src/cost/machine_profile.h"
#include "src/obs/observatory.h"
#include "src/sim/simulator.h"

namespace psd {

struct IpcMessage {
  uint32_t kind = 0;
  // Scalar arguments (untyped registers, like a Mach message header).
  uint64_t arg[6] = {0, 0, 0, 0, 0, 0};
  // Inline payload; copied on every hop.
  std::vector<uint8_t> payload;
  // Reply port capability (unforgeable in-simulation reference).
  class Port* reply_port = nullptr;
  // Virtual time the message entered its destination queue (stamped by
  // Port::SendUncharged, so every send path carries it). Receivers compute
  // queue wait as Now() - enqueued_at; 0 means "never enqueued".
  SimTime enqueued_at = 0;
};

// Per-hop charging for a port. Two cost classes exist:
//  * Rpc            — full Mach RPC semantics (socket calls to the server):
//                     heavyweight fixed costs and a copy per hop.
//  * PacketDelivery — the packet filter's per-packet message path (Mogul et
//                     al.'s user-level packet delivery): a single copy into
//                     the receiver and a cheaper dispatch. Calibrated from
//                     Table 4's server "kernel copyout" row (113us + ~100
//                     ns/B) and the Library-IPC latencies in Table 2.
struct PortCosts {
  SimDuration send_fixed = 0;
  SimDuration recv_fixed = 0;
  SimDuration per_byte = 0;   // charged on each of send and receive
  SimDuration wakeup = 0;     // charged when the receiver actually slept

  static PortCosts Rpc(const MachineProfile& p) {
    return PortCosts{p.ipc_fixed / 2, p.ipc_fixed / 2, p.ipc_per_byte, p.wakeup_cross};
  }
  static PortCosts PacketDelivery(const MachineProfile& p) {
    // Receive cost applies to every message — a Mach receive is a kernel
    // entry and thread dispatch per packet, which is exactly why the
    // shared-memory interface wins at throughput (its wakeups batch).
    return PortCosts{Micros(35), Micros(90), p.copy_per_byte / 2, 0};
  }
};

// Send and the post-dequeue part of Receive emit "ipc/send" / "ipc/recv"
// spans into `obs->tracer` (the blocked wait is not a span — it is
// scheduling, not work).
class Port {
 public:
  Port(Simulator* sim, Observatory* obs, const MachineProfile* prof, std::string name)
      : Port(sim, obs, std::move(name), PortCosts::Rpc(*prof)) {}

  Port(Simulator* sim, Observatory* obs, std::string name, PortCosts costs)
      : sim_(sim), obs_(obs), name_(std::move(name)), costs_(costs), nonempty_(sim) {}

  Port(const Port&) = delete;
  Port& operator=(const Port&) = delete;

  // Sends a message (thread context required; charges IPC costs).
  void Send(IpcMessage msg);

  // Sends without charging (used by test fixtures and for free in-kernel
  // handoffs where the cost is accounted elsewhere).
  void SendUncharged(IpcMessage msg);

  // Receives the next message; blocks until one arrives or `deadline`.
  // Returns false on timeout. Charges receive-side IPC costs.
  bool Receive(IpcMessage* out, SimTime deadline = kTimeNever);

  // Dequeues without blocking or charging (crash cleanup: the receiver is
  // dead, nobody pays for these messages). Returns false when empty.
  bool DrainOne(IpcMessage* out) {
    if (queue_.empty()) {
      return false;
    }
    *out = std::move(queue_.front());
    queue_.pop_front();
    return true;
  }

  size_t queued() const { return queue_.size(); }
  const std::string& name() const { return name_; }
  Simulator* simulator() const { return sim_; }

  uint64_t messages_sent() const { return messages_sent_; }

 private:
  Simulator* sim_;
  Observatory* obs_;
  std::string name_;
  PortCosts costs_;
  WaitQueue nonempty_;
  std::deque<IpcMessage> queue_;
  uint64_t messages_sent_ = 0;
};

// Synchronous RPC: sends `req` to `server` with `reply_to` as the reply
// capability and blocks until the reply arrives on `reply_to`.
IpcMessage RpcCall(Port* server, Port* reply_to, IpcMessage req);

}  // namespace psd

#endif  // PSD_SRC_IPC_PORT_H_
