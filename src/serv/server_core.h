// The operating-system server's task skeleton.
//
// In the paper the library placements' OS server *is* the UX single server
// extended with the proxy protocol (§1). Both server placements therefore
// run on one core, and each keeps only its own protocol on top:
//   * a server-placement Stack with the host's /16 route, fed by a
//     catch-all kernel filter into a packet port that one input fiber
//     drains;
//   * N worker fibers on one request port, each handing a request to the
//     owner's handler and replying;
//   * one RpcOpRecorder for the whole server: the engine runs one fiber at
//     a time, so every worker recording into it is already single-writer;
//   * the socket ops whose meaning both servers' protocols share.
#ifndef PSD_SRC_SERV_SERVER_CORE_H_
#define PSD_SRC_SERV_SERVER_CORE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/base/codec.h"
#include "src/inet/stack.h"
#include "src/ipc/port.h"
#include "src/kern/host.h"
#include "src/obs/rpc_account.h"
#include "src/sock/socket.h"

namespace psd {

class StatsRegistry;

// An address inside a server RPC payload: 4-byte IPv4 address, 2-byte port.
inline void EncodeAddr(Encoder* e, const SockAddrIn& a) {
  e->U32(a.addr.v);
  e->U16(a.port);
}

inline SockAddrIn DecodeAddr(Decoder* d) {
  SockAddrIn a;
  a.addr = Ipv4Addr(d->U32());
  a.port = d->U16();
  return a;
}

// Socket ops with one meaning in both servers' protocols. Each owner maps
// its own request kinds onto these after looking up the request's socket.
enum class SocketOp { kListen, kConnect, kSend, kRecv, kSetOpt, kShutdown, kLocalAddr };

// Drains packet-delivery messages from `port` into `stack`, re-attaching
// the packet id the kernel stashed in arg[5] (the payload vector crossed
// the port without its Frame metadata). Never returns.
void RunPacketInput(Port* port, Stack* stack);

class ServerCore {
 public:
  using Handler = std::function<IpcMessage(const IpcMessage&)>;
  // A fiber of the owner's own, spawned as "<host>/<tag>-<name>".
  struct Fiber {
    std::string name;
    std::function<void()> body;
  };

  // Builds the stack "<host>/<tag>" and the ports "<host>/<request_port>"
  // and "<host>/<tag>-pkt", then spawns "<host>/<tag>-in", the `own`
  // fibers, and "<host>/<tag>-w0".."-w<workers-1>". Every request is
  // recorded in slot op_slot(kind) of a `slots`-slot recorder.
  ServerCore(SimHost* host, const std::string& tag, const std::string& request_port, int workers,
             int (*op_slot)(uint32_t), size_t slots, Handler handler, std::vector<Fiber> own = {});
  ~ServerCore();

  ServerCore(const ServerCore&) = delete;
  ServerCore& operator=(const ServerCore&) = delete;

  // Kills every fiber the core spawned; idempotent. Owners call it first
  // in their destructors, so no fiber unwinds through state they already
  // destroyed.
  void Stop();

  Stack* stack() { return stack_.get(); }
  Port* request_port() { return &request_port_; }

  // Per-op RPC accounting: counts, bytes, queue-wait and service
  // histograms per slot, over every request any worker handled.
  const RpcOpRecorder& rpc() const { return rpc_; }
  // Registers "<prefix>rpc.total" plus "<prefix>rpc.<op>.count" per slot,
  // where <op> is slot_name(slot) without its "family/" tag.
  void ExportRpcStats(StatsRegistry* reg, const std::string& prefix,
                      const char* (*slot_name)(size_t)) const;

  // Runs `op` on `s` with the request's arguments and builds the reply:
  // error in arg[0]; byte count in arg[1] (send, recv); source address in
  // arg[2] and the bytes as payload (recv); the address as payload
  // (localaddr).
  IpcMessage HandleSocketOp(SocketOp op, Socket* s, const IpcMessage& req);

 private:
  void WorkerBody();

  SimHost* host_;
  Port request_port_;
  Port packet_port_;
  std::unique_ptr<Stack> stack_;
  Handler handler_;
  int (*op_slot_)(uint32_t);
  RpcOpRecorder rpc_;
  std::vector<SimThread*> threads_;
};

}  // namespace psd

#endif  // PSD_SRC_SERV_SERVER_CORE_H_
