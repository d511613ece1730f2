// The placement-independent socket API. Applications and benchmarks program
// against this interface; three implementations exist:
//   * KernelNode   (src/api)  — protocols in the kernel (Mach 2.5 / Ultrix /
//                               386BSD style),
//   * UxServerNode (src/serv) — protocols in a UNIX server task (UX/BNR2SS
//                               style),
//   * LibraryNode  (src/core) — the paper's decomposition: protocols in a
//                               per-application library plus an OS server.
// The syntax and semantics follow the BSD socket interface; src/api/bsd.h
// layers the ten BSD data-movement calls on top.
#ifndef PSD_SRC_API_SOCKET_API_H_
#define PSD_SRC_API_SOCKET_API_H_

#include <memory>
#include <vector>

#include "src/base/result.h"
#include "src/base/time.h"
#include "src/inet/addr.h"
#include "src/mbuf/mbuf.h"
#include "src/sock/socket.h"

namespace psd {

struct SelectFds {
  std::vector<int> read;   // in: descriptors to test; out via *_ready flags
  std::vector<int> write;
  std::vector<bool> read_ready;
  std::vector<bool> write_ready;
};

// Event bits for the scalable readiness interface (PollAdd/PollWait).
// Mirrors src/sock/pollset.h: kPollErr is reported even when unrequested.
constexpr uint32_t kPollEventIn = 0x1;
constexpr uint32_t kPollEventOut = 0x2;
constexpr uint32_t kPollEventErr = 0x4;

struct PollEvent {
  int fd = -1;
  uint32_t events = 0;
};

class SocketApi {
 public:
  virtual ~SocketApi() = default;

  virtual Result<int> CreateSocket(IpProto proto) = 0;
  virtual Result<void> Bind(int fd, SockAddrIn local) = 0;
  virtual Result<void> Listen(int fd, int backlog) = 0;
  virtual Result<int> Accept(int fd, SockAddrIn* peer) = 0;
  virtual Result<void> Connect(int fd, SockAddrIn remote) = 0;

  virtual Result<size_t> Send(int fd, const uint8_t* data, size_t len,
                              const SockAddrIn* to = nullptr) = 0;
  virtual Result<size_t> Recv(int fd, uint8_t* out, size_t len, SockAddrIn* from = nullptr,
                              bool peek = false) = 0;

  // NEWAPI (paper §4.2): shared-buffer send/receive eliminating the copy
  // between application and protocol stack. Placements without a fast path
  // keep these bodies: the classic copying semantics through Send/Recv.
  virtual Result<size_t> SendShared(int fd, std::shared_ptr<const std::vector<uint8_t>> buf,
                                    size_t off, size_t len, const SockAddrIn* to = nullptr) {
    return Send(fd, buf->data() + off, len, to);
  }
  virtual Result<Chain> RecvChain(int fd, size_t max, SockAddrIn* from = nullptr) {
    std::vector<uint8_t> tmp(max);
    Result<size_t> n = Recv(fd, tmp.data(), max, from, false);
    if (!n.ok()) {
      return n.error();
    }
    return Chain::FromBytes(tmp.data(), *n);
  }

  virtual Result<void> SetOpt(int fd, SockOpt opt, size_t value) = 0;
  virtual Result<void> Shutdown(int fd, bool rd, bool wr) = 0;
  virtual Result<void> Close(int fd) = 0;

  // Blocks until any tested descriptor is ready or `timeout` elapses
  // (negative timeout: wait forever). Returns the number of ready fds.
  virtual Result<int> Select(SelectFds* fds, SimDuration timeout) = 0;

  // --- Scalable readiness (epoll-style interest sets) ---
  // A poll descriptor names a persistent interest set; sockets push
  // readiness edges into it, so PollWait wakes in O(ready) instead of
  // re-scanning the whole set the way Select does. Level-triggered.
  // Close(fd) removes fd from every interest set, on every placement.
  virtual Result<int> PollCreate() = 0;
  virtual Result<void> PollAdd(int pfd, int fd, uint32_t events) = 0;
  virtual Result<void> PollRemove(int pfd, int fd) = 0;
  // Appends ready descriptors to *out (cleared first). timeout == 0 polls,
  // < 0 waits forever. Returns the number of events delivered.
  virtual Result<int> PollWait(int pfd, std::vector<PollEvent>* out, SimDuration timeout) = 0;
  virtual Result<void> PollClose(int pfd) = 0;

  virtual SockAddrIn LocalAddr(int fd) = 0;
};

}  // namespace psd

#endif  // PSD_SRC_API_SOCKET_API_H_
