// The operating-system server of the paper's decomposition (§3).
//
// It owns everything that is *not* the performance-critical data path:
//   * session creation, naming (the port namespace), and teardown;
//   * connection establishment (listen/accept/connect handshakes run here,
//     then established sessions migrate into the application);
//   * per-session packet-filter installation in the kernel;
//   * long-lived shared metastate (routes, ARP) that applications cache,
//     with invalidation callbacks (§3.3);
//   * sessions returned by applications (fork semantics, clean close: the
//     FIN handshake and TIME_WAIT run here, §3.2);
//   * crash cleanup: when a process dies, its sessions are aborted with
//     RSTs to the remote peers (§3.2);
//   * the cooperative half of select (§3.2).
// It is the UX server extended with the proxy protocol: both run on
// ServerCore (src/serv/server_core.h), which owns the stack, ports, fibers
// and RPC accounting; this class keeps the sessions and Table 1 handlers.
#ifndef PSD_SRC_CORE_NET_SERVER_H_
#define PSD_SRC_CORE_NET_SERVER_H_

#include <map>
#include <memory>
#include <set>
#include <tuple>
#include <vector>

#include "src/core/proxy_protocol.h"
#include "src/serv/server_core.h"
#include "src/sock/select.h"

namespace psd {

// Interface the server uses to push metastate invalidations into an
// application's cache (implemented by ProtocolLibrary).
class MetastateSubscriber {
 public:
  virtual ~MetastateSubscriber() = default;
  virtual void InvalidateArpEntry(Ipv4Addr ip) = 0;
  virtual void InvalidateRoutes() = 0;
};

class NetServer {
 public:
  explicit NetServer(SimHost* host, int workers = 8);
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  Port* control_port() { return core_.request_port(); }
  Stack* stack() { return core_.stack(); }
  SimHost* host() { return host_; }

  // Registers server counters (migrations, callbacks, sessions) plus the
  // server stack's protocol counters under "<prefix>...".
  void ExportStats(StatsRegistry* reg, const std::string& prefix) const;

  // Per-op proxy-RPC accounting over every worker.
  const RpcOpRecorder& MergedRpcStats() const { return core_.rpc(); }

  // Suppression key for tuples whose pcb is app-managed or in handover: all
  // four endpoint fields. (A 64-bit pack of only {local port, remote port,
  // remote addr} collided sessions differing only in local address, letting
  // one session's erase un-suppress another's strays.)
  static std::tuple<uint32_t, uint16_t, uint32_t, uint16_t> TupleKey(const SockAddrIn& local,
                                                                     const SockAddrIn& remote) {
    return {local.addr.v, local.port, remote.addr.v, remote.port};
  }

  // Registers an application's protocol library: its packet delivery
  // endpoint (all of the app's sessions share it) and its metastate
  // callback. Returns the library id used in proxy calls.
  uint64_t RegisterLibrary(DeliveryEndpoint endpoint, MetastateSubscriber* subscriber);

  // Process-death cleanup (paper §3.2): aborts all sessions owned by the
  // library — removes their filters and sends best-effort RSTs to peers.
  void OnProcessDeath(uint64_t lib_id);

  // Diagnostics.
  size_t session_count() const { return sessions_.size(); }
  size_t suppressed_count() const { return suppressed_.size(); }
  uint64_t migrations_out() const { return migrations_out_; }
  uint64_t migrations_in() const { return migrations_in_; }
  uint64_t arp_callbacks_sent() const { return arp_callbacks_sent_; }

 private:
  enum class Where { kServer, kApp };

  struct Session {
    IpProto proto = IpProto::kTcp;
    Where where = Where::kServer;
    uint64_t owner_lib = 0;
    int refcount = 1;  // shared descriptor tables after fork
    std::unique_ptr<Socket> sock;  // server-managed state
    SessionTuple tuple;            // last known endpoints
    uint64_t filter_id = 0;        // installed app filter (app-managed)
    uint32_t shadow_snd_nxt = 0;   // best-effort RST sequence after crash
  };

  struct LibraryRec {
    DeliveryEndpoint endpoint;
    MetastateSubscriber* subscriber = nullptr;
  };

  struct SelectWaiter {
    SimCondition cv;
    bool pinged = false;
    explicit SelectWaiter(Simulator* sim) : cv(sim) {}
  };

  void CallbackBody();
  IpcMessage Handle(const IpcMessage& req);

  Result<Session*> Find(uint64_t sid);
  // Migrates a server-side established TCP session into the owner app:
  // extracts state, installs the session filter, marks the tuple in
  // handover. Returns the encoded migration state.
  std::vector<uint8_t> MigrateTcpOut(Session* s);
  void InstallSessionFilter(Session* s);
  void RemoveSessionFilter(Session* s);

  // Proxy handlers.
  IpcMessage HandleSocket(const IpcMessage& req);
  IpcMessage HandleBind(const IpcMessage& req);
  IpcMessage HandleConnect(const IpcMessage& req);
  IpcMessage HandleListen(const IpcMessage& req);
  IpcMessage HandleAccept(const IpcMessage& req);
  IpcMessage HandleReturn(const IpcMessage& req);
  IpcMessage HandleReacquire(const IpcMessage& req);
  IpcMessage HandleSelect(const IpcMessage& req);
  IpcMessage HandleMetastate(const IpcMessage& req);
  IpcMessage HandleForwarded(const IpcMessage& req);

  SimHost* host_;
  // Declared before the session table: its stack must outlive their sockets.
  ServerCore core_;

  std::map<uint64_t, Session> sessions_;
  uint64_t next_sid_ = 1;
  std::map<uint64_t, LibraryRec> libraries_;
  uint64_t next_lib_ = 1;
  // Tuples whose pcb is currently app-managed or in handover: the server
  // stack must not answer their strays with RST. Keyed by TupleKey above.
  std::set<std::tuple<uint32_t, uint16_t, uint32_t, uint16_t>> suppressed_;
  std::map<uint64_t, std::unique_ptr<SelectWaiter>> select_waiters_;
  uint64_t next_select_token_ = 1;
  // Pending metastate invalidation callbacks, delivered asynchronously by a
  // dedicated thread (a real system sends an IPC message; delivering them
  // synchronously from packet processing would deadlock with applications
  // blocked mid-send on a metastate RPC).
  std::deque<std::pair<uint64_t, Ipv4Addr>> pending_callbacks_;
  WaitQueue callback_wq_;

  uint64_t migrations_out_ = 0;
  uint64_t migrations_in_ = 0;
  uint64_t arp_callbacks_sent_ = 0;
};

}  // namespace psd

#endif  // PSD_SRC_CORE_NET_SERVER_H_
