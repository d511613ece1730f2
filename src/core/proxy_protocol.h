// The proxy <-> operating-system-server protocol (paper Table 1).
//
// The proxy in each application exports the standard socket interface and
// implements it with these calls on the OS server. Send/receive never
// appear here for app-managed sessions: once a session is migrated into the
// application, data transfer happens entirely in the protocol library.
#ifndef PSD_SRC_CORE_PROXY_PROTOCOL_H_
#define PSD_SRC_CORE_PROXY_PROTOCOL_H_

#include <cstdint>

namespace psd {

enum class ProxyOp : uint32_t {
  // Table 1 calls.
  kProxySocket = 100,  // create server-managed session
  kProxyBind,          // set local endpoint; UDP sessions migrate to the app
  kProxyConnect,       // set remote endpoint; UDP and TCP sessions migrate
  kProxyListen,        // open passively; server awaits connections
  kProxyAccept,        // migrate passively-opened session to the app
  kProxyReturn,        // return a session to the server (fork, clean close)
  kProxyDup,           // bump a session's descriptor refcount (fork)
  kProxyStatus,        // one-way: app session readiness changed (select)
  kProxySelect,        // cooperative select over server-managed sessions
  // Shared metastate (§3.3).
  kProxyArpLookup,
  kProxyRouteLookup,
  kProxyReacquire,     // live-migrate a returned session back to the app
  kProxyTableEnd,      // sentinel: one past the last Table-1/metastate op
  // Forwarded socket ops for server-managed sessions (after fork/return).
  kProxyFwdSend = 200,
  kProxyFwdRecv,
  kProxyFwdClose,
  kProxyFwdShutdown,
  kProxyFwdSetOpt,
  kProxyFwdLocalAddr,
  kProxyFwdAccept,
  kProxyFwdListen,
  kProxyFwdConnect,
  kProxyFwdBind,
  kProxyFwdEnd,        // sentinel: one past the last forwarded op
};

// Dense slot layout for RpcOpRecorder indexing: the Table-1/metastate block
// first, then the forwarded block.
inline constexpr uint32_t kProxyTableBase = 100;
inline constexpr uint32_t kProxyFwdBase = 200;
inline constexpr int kProxyTableSlots =
    static_cast<int>(static_cast<uint32_t>(ProxyOp::kProxyTableEnd) - kProxyTableBase);
inline constexpr int kProxyFwdSlots =
    static_cast<int>(static_cast<uint32_t>(ProxyOp::kProxyFwdEnd) - kProxyFwdBase);
inline constexpr int kNumProxyOpSlots = kProxyTableSlots + kProxyFwdSlots;

// Recorder slot for a request-message kind; -1 if not a ProxyOp.
inline int ProxyOpSlot(uint32_t kind) {
  if (kind >= kProxyTableBase && kind < kProxyTableBase + static_cast<uint32_t>(kProxyTableSlots)) {
    return static_cast<int>(kind - kProxyTableBase);
  }
  if (kind >= kProxyFwdBase && kind < kProxyFwdBase + static_cast<uint32_t>(kProxyFwdSlots)) {
    return kProxyTableSlots + static_cast<int>(kind - kProxyFwdBase);
  }
  return -1;
}

// Inverse of ProxyOpSlot.
inline ProxyOp ProxyOpFromSlot(int slot) {
  if (slot < kProxyTableSlots) {
    return static_cast<ProxyOp>(kProxyTableBase + static_cast<uint32_t>(slot));
  }
  return static_cast<ProxyOp>(kProxyFwdBase + static_cast<uint32_t>(slot - kProxyTableSlots));
}

// Stable span/diagnostic name for a proxy operation.
inline const char* ProxyOpName(ProxyOp op) {
  switch (op) {
    case ProxyOp::kProxySocket:
      return "proxy/socket";
    case ProxyOp::kProxyBind:
      return "proxy/bind";
    case ProxyOp::kProxyConnect:
      return "proxy/connect";
    case ProxyOp::kProxyListen:
      return "proxy/listen";
    case ProxyOp::kProxyAccept:
      return "proxy/accept";
    case ProxyOp::kProxyReturn:
      return "proxy/return";
    case ProxyOp::kProxyDup:
      return "proxy/dup";
    case ProxyOp::kProxyStatus:
      return "proxy/status";
    case ProxyOp::kProxySelect:
      return "proxy/select";
    case ProxyOp::kProxyArpLookup:
      return "proxy/arp_lookup";
    case ProxyOp::kProxyRouteLookup:
      return "proxy/route_lookup";
    case ProxyOp::kProxyReacquire:
      return "proxy/reacquire";
    case ProxyOp::kProxyFwdSend:
      return "proxy/fwd_send";
    case ProxyOp::kProxyFwdRecv:
      return "proxy/fwd_recv";
    case ProxyOp::kProxyFwdClose:
      return "proxy/fwd_close";
    case ProxyOp::kProxyFwdShutdown:
      return "proxy/fwd_shutdown";
    case ProxyOp::kProxyFwdSetOpt:
      return "proxy/fwd_setopt";
    case ProxyOp::kProxyFwdLocalAddr:
      return "proxy/fwd_localaddr";
    case ProxyOp::kProxyFwdAccept:
      return "proxy/fwd_accept";
    case ProxyOp::kProxyFwdListen:
      return "proxy/fwd_listen";
    case ProxyOp::kProxyFwdConnect:
      return "proxy/fwd_connect";
    case ProxyOp::kProxyFwdBind:
      return "proxy/fwd_bind";
    case ProxyOp::kProxyTableEnd:
    case ProxyOp::kProxyFwdEnd:
      break;
  }
  return "proxy/?";
}

}  // namespace psd

#endif  // PSD_SRC_CORE_PROXY_PROTOCOL_H_
