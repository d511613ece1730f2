// The application half of the paper's decomposition:
//
//  * ProtocolLibrary — a full protocol stack linked into the application's
//    address space. It receives its sessions' packets straight from the
//    kernel packet filter (via IPC, a shared-memory ring, or the integrated
//    filter's ring) and sends with one raw-send trap. ARP and routes are
//    cached from the OS server with callback invalidation (§3.3).
//  * LibraryNode — the proxy (§3.2, Table 1): exports the standard socket
//    interface; control operations become proxy_* RPCs on the OS server,
//    while send/receive on migrated sessions run entirely in the library.
#ifndef PSD_SRC_CORE_LIBRARY_NODE_H_
#define PSD_SRC_CORE_LIBRARY_NODE_H_

#include <map>
#include <memory>
#include <string>

#include "src/api/socket_api.h"
#include "src/core/net_server.h"
#include "src/obs/rpc_account.h"

namespace psd {

// Which user/kernel receive interface the library uses (paper §4.1).
enum class RxPath {
  kIpc,     // one IPC message per packet
  kShm,     // shared-memory ring, lightweight signal, batched wakeups
  kShmIpf,  // ring + integrated packet filter (single deferred copy)
};

const char* RxPathName(RxPath p);

class ProtocolLibrary : public MetastateSubscriber {
 public:
  ProtocolLibrary(SimHost* host, NetServer* server, std::string name, RxPath path);
  ~ProtocolLibrary() override;

  ProtocolLibrary(const ProtocolLibrary&) = delete;
  ProtocolLibrary& operator=(const ProtocolLibrary&) = delete;

  Stack* stack() { return stack_.get(); }
  SimHost* host() { return host_; }
  NetServer* server() { return server_; }
  uint64_t lib_id() const { return lib_id_; }
  RxPath rx_path() const { return path_; }
  const std::string& name() const { return name_; }

  // Proxy RPC to the OS server (trap + IPC round trip, real copies).
  IpcMessage Call(ProxyOp op, uint64_t sid, std::vector<uint8_t> payload = {}, uint64_t a2 = 0,
                  uint64_t a3 = 0);
  // One-way notification (proxy_status): safe from protocol-thread context.
  void Notify(ProxyOp op, uint64_t sid, uint64_t a2 = 0);

  // MetastateSubscriber (called by the OS server).
  void InvalidateArpEntry(Ipv4Addr ip) override;
  void InvalidateRoutes() override;

  // Registers library counters (ARP cache, invalidations) plus the library
  // stack's protocol counters under "<prefix>...".
  void ExportStats(StatsRegistry* reg, const std::string& prefix) const;

  // Abandons the library without cleanup, as a crashing process would, and
  // runs the server's death protocol (filter removal + RSTs).
  void SimulateCrash();
  bool crashed() const { return crashed_; }

  // Diagnostics.
  uint64_t arp_cache_hits() const { return arp_hits_; }
  uint64_t arp_cache_misses() const { return arp_misses_; }
  uint64_t invalidations() const { return invalidations_; }
  PacketQueue* ring() { return ring_; }
  // Client-side proxy-RPC accounting: every Call/Notify this library issued,
  // by op slot. The ratio of this total to connections handled is the
  // placement's RPC amplification.
  const RpcClientCounter& rpc_calls() const { return rpc_calls_; }

 private:
  class CacheResolver : public MacResolver {
   public:
    explicit CacheResolver(ProtocolLibrary* lib) : lib_(lib) {}
    Status Resolve(Ipv4Addr next_hop, MacAddr* out, Chain* pending) override;

   private:
    friend class ProtocolLibrary;
    ProtocolLibrary* lib_;
    std::map<Ipv4Addr, MacAddr> cache_;
  };

  void InputBody();

  SimHost* host_;
  NetServer* server_;
  std::string name_;
  RxPath path_;
  std::unique_ptr<Stack> stack_;
  CacheResolver resolver_;
  Port pkt_port_;
  PacketQueue* ring_ = nullptr;
  uint64_t lib_id_ = 0;
  SimThread* input_thread_ = nullptr;
  bool crashed_ = false;
  uint64_t arp_hits_ = 0;
  uint64_t arp_misses_ = 0;
  uint64_t invalidations_ = 0;
  RpcClientCounter rpc_calls_{static_cast<size_t>(kNumProxyOpSlots)};
};

class LibraryNode : public SocketApi {
 public:
  explicit LibraryNode(ProtocolLibrary* lib) : lib_(lib) {}
  ~LibraryNode() override;

  Result<int> CreateSocket(IpProto proto) override;
  Result<void> Bind(int fd, SockAddrIn local) override;
  Result<void> Listen(int fd, int backlog) override;
  Result<int> Accept(int fd, SockAddrIn* peer) override;
  Result<void> Connect(int fd, SockAddrIn remote) override;
  Result<size_t> Send(int fd, const uint8_t* data, size_t len, const SockAddrIn* to) override;
  Result<size_t> Recv(int fd, uint8_t* out, size_t len, SockAddrIn* from, bool peek) override;
  Result<size_t> SendShared(int fd, std::shared_ptr<const std::vector<uint8_t>> buf, size_t off,
                            size_t len, const SockAddrIn* to) override;
  Result<Chain> RecvChain(int fd, size_t max, SockAddrIn* from) override;
  Result<void> SetOpt(int fd, SockOpt opt, size_t value) override;
  Result<void> Shutdown(int fd, bool rd, bool wr) override;
  Result<void> Close(int fd) override;
  Result<int> Select(SelectFds* fds, SimDuration timeout) override;
  // Poll descriptors in the library placement keep a persistent interest
  // map and drive the cooperative select machinery on each wait: app-
  // managed sockets hook their readiness callbacks, server-managed
  // sessions ride the blocking proxy_select. The O(ready) push-edge path
  // materializes in the kernel and UX-server placements, which own real
  // PollSets; here the win is the persistent registration.
  Result<int> PollCreate() override;
  Result<void> PollAdd(int pfd, int fd, uint32_t events) override;
  Result<void> PollRemove(int pfd, int fd) override;
  Result<int> PollWait(int pfd, std::vector<PollEvent>* out, SimDuration timeout) override;
  Result<void> PollClose(int pfd) override;
  SockAddrIn LocalAddr(int fd) override;

  // --- fork support (paper §3.1, Table 1: "All sessions should be
  // returned to the operating system before fork is called.") ---
  // Returns every app-managed session to the OS server.
  Result<void> PrepareFork();
  // PrepareFork + duplicate the descriptor table into a child node running
  // in `child_lib` (the child's address space). Both parent and child
  // continue through the server.
  Result<std::unique_ptr<LibraryNode>> Fork(ProtocolLibrary* child_lib);

  // --- live migration (measurement hooks for the shared-metastate
  // observatory) ---
  // Returns an app-managed session to the OS server without closing it; the
  // descriptor keeps working through forwarded ops until Reacquire.
  Result<void> ReturnToServer(int fd);
  // Live-migrates a previously returned session back into this application:
  // proxy_reacquire extracts it from the server mid-flight and the library
  // adopts the encoded TCP state. Records transfer/resume migration phases.
  Result<void> Reacquire(int fd);

  ProtocolLibrary* library() { return lib_; }
  // True if fd exists and its session currently lives in the application.
  bool IsAppManaged(int fd) const;

 private:
  struct Desc {
    uint64_t sid = 0;
    IpProto proto = IpProto::kUdp;
    std::unique_ptr<Socket> sock;  // set iff app-managed
    bool via_server = false;       // post-fork: ops forwarded to the server
  };

  Result<Desc*> Lookup(int fd);
  Result<void> ReturnSession(Desc* d, bool close_after);
  // Records the client half of a migration: `transfer` (the proxy-RPC round
  // trip that carried the encoded state) and `resume` (local adopt + kick).
  void RecordAdoptPhases(uint64_t sid, SimTime rpc_begin, SimTime rpc_end, SimTime resume_end);
  Result<size_t> FwdSend(Desc* d, const uint8_t* data, size_t len, const SockAddrIn* to);
  Result<size_t> FwdRecv(Desc* d, uint8_t* out, size_t len, SockAddrIn* from, bool peek);

  ProtocolLibrary* lib_;
  std::map<int, Desc> fds_;
  // Poll descriptors share the fd number space; each maps member fd ->
  // requested event mask. Members are live descriptors only: Close erases
  // the fd from every poll set, so PollWait never meets a dead one.
  std::map<int, std::map<int, uint32_t>> polls_;
  int next_fd_ = 3;
  uint64_t select_seq_ = 1;
};

}  // namespace psd

#endif  // PSD_SRC_CORE_LIBRARY_NODE_H_
