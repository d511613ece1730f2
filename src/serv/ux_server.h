// Server-based protocol placement (CMU UX / BNR2SS architecture): the full
// protocol stack and socket layer run inside a single UNIX-server task.
// Applications reach it by Mach RPC; every data byte crosses four copies on
// the way (user buffer -> message -> kernel -> server message -> mbuf) and
// the protocol code synchronizes with the rest of the server through the
// emulated spl priority-level machinery the paper identifies as the main
// server overhead (§4.3). The task skeleton (stack, ports, fibers, RPC
// accounting) is ServerCore; this class decodes each request into the
// server's SocketTable, the one the In-Kernel placement traps into.
#ifndef PSD_SRC_SERV_UX_SERVER_H_
#define PSD_SRC_SERV_UX_SERVER_H_

#include <vector>

#include "src/api/socket_api.h"
#include "src/serv/server_core.h"
#include "src/sock/socket_table.h"

namespace psd {

class StatsRegistry;

// RPC message kinds (client -> server). kServOpCount is the growth sentinel
// backing the name-table completeness check below.
enum class ServOp : uint32_t {
  kSocket = 1,
  kBind,
  kListen,
  kAccept,
  kConnect,
  kSend,
  kRecv,
  kSetOpt,
  kShutdown,
  kClose,
  kSelect,
  kLocalAddr,
  kPollCreate,
  kPollAdd,
  kPollRemove,
  kPollWait,
  kPollClose,
  kServOpCount,
};

// Stable display names, indexed by op - kServOpFirst (the span names
// `psdobs stat` and `psdobs top` render). Adding an op to ServOp without extending this table
// fails the static_assert, so a new RPC op can never show up as a raw
// integer in tool output.
inline constexpr const char* kServOpNames[] = {
    "ux/socket",    "ux/bind",        "ux/listen",   "ux/accept",      "ux/connect",
    "ux/send",      "ux/recv",        "ux/setopt",   "ux/shutdown",    "ux/close",
    "ux/select",    "ux/localaddr",   "ux/poll_create", "ux/poll_add", "ux/poll_remove",
    "ux/poll_wait", "ux/poll_close",
};
inline constexpr uint32_t kServOpFirst = static_cast<uint32_t>(ServOp::kSocket);
inline constexpr uint32_t kNumServOps =
    static_cast<uint32_t>(ServOp::kServOpCount) - kServOpFirst;
static_assert(sizeof(kServOpNames) / sizeof(kServOpNames[0]) == kNumServOps,
              "every ServOp needs an entry in kServOpNames");

inline const char* ServOpName(ServOp op) {
  uint32_t i = static_cast<uint32_t>(op);
  if (i < kServOpFirst || i >= kServOpFirst + kNumServOps) {
    return "ux/?";
  }
  return kServOpNames[i - kServOpFirst];
}

// Dense RpcOpRecorder slot for a request-message kind; -1 if not a ServOp.
inline int ServOpSlot(uint32_t kind) {
  if (kind < kServOpFirst || kind >= kServOpFirst + kNumServOps) {
    return -1;
  }
  return static_cast<int>(kind - kServOpFirst);
}

class UxServer {
 public:
  UxServer(SimHost* host, int workers = 16);
  ~UxServer();

  UxServer(const UxServer&) = delete;
  UxServer& operator=(const UxServer&) = delete;

  Port* request_port() { return core_.request_port(); }
  Stack* stack() { return core_.stack(); }
  SimHost* host() { return host_; }

  // The server's socket and poll table; tests and benches read its poll
  // sets. A PollWait request parks the worker that handles it.
  SocketTable& sockets() { return table_; }

  // Per-op RPC accounting over every worker (counts, bytes, queue-wait and
  // service histograms per ServOp).
  const RpcOpRecorder& MergedRpcStats() const { return core_.rpc(); }
  // Registers "<prefix>rpc.total" plus "<prefix>rpc.<op>.count" per op.
  void ExportStats(StatsRegistry* reg, const std::string& prefix) const;

 private:
  IpcMessage Handle(const IpcMessage& req);

  SimHost* host_;
  // Declared before the table: its stack must outlive the table's sockets.
  ServerCore core_;
  SocketTable table_;
};

// Client-side stub: implements SocketApi by RPC to a UxServer on the same
// host.
class UxServerNode : public SocketApi {
 public:
  explicit UxServerNode(UxServer* server);

  // ops_ calls back into this object.
  UxServerNode(const UxServerNode&) = delete;
  UxServerNode& operator=(const UxServerNode&) = delete;

  Result<int> CreateSocket(IpProto proto) override;
  Result<void> Bind(int fd, SockAddrIn local) override;
  Result<void> Listen(int fd, int backlog) override;
  Result<int> Accept(int fd, SockAddrIn* peer) override;
  Result<void> Connect(int fd, SockAddrIn remote) override;
  Result<size_t> Send(int fd, const uint8_t* data, size_t len, const SockAddrIn* to) override;
  Result<size_t> Recv(int fd, uint8_t* out, size_t len, SockAddrIn* from, bool peek) override;
  Result<void> SetOpt(int fd, SockOpt opt, size_t value) override;
  Result<void> Shutdown(int fd, bool rd, bool wr) override;
  Result<void> Close(int fd) override;
  Result<int> Select(SelectFds* fds, SimDuration timeout) override;
  Result<int> PollCreate() override;
  Result<void> PollAdd(int pfd, int fd, uint32_t events) override;
  Result<void> PollRemove(int pfd, int fd) override;
  Result<int> PollWait(int pfd, std::vector<PollEvent>* out, SimDuration timeout) override;
  Result<void> PollClose(int pfd) override;
  SockAddrIn LocalAddr(int fd) override;

  // Client-side per-op RPC counts (every Call this stub issued), the
  // numerator of the placement's RPCs-per-connection amplification.
  const RpcClientCounter& rpc_calls() const { return rpc_calls_; }

 private:
  // One round trip: trap + request message + reply message, with real
  // payload copies on each hop.
  IpcMessage Call(ServOp op, uint64_t fd, std::vector<uint8_t> payload = {}, uint64_t a2 = 0,
                  uint64_t a3 = 0);

  UxServer* server_;
  SimHost* host_;
  RpcClientCounter rpc_calls_{kNumServOps};
  // The shared socket ops, as ServOp RPCs through Call.
  SocketOpClient ops_;
};

}  // namespace psd

#endif  // PSD_SRC_SERV_UX_SERVER_H_
