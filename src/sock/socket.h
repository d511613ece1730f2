// BSD socket semantics over a protocol stack: blocking send/receive with
// socket-buffer flow control, listen/accept, connect, shutdown/close,
// SO_SNDBUF/SO_RCVBUF/TCP_NODELAY/SO_KEEPALIVE, readiness pings for
// select, and both data interfaces over one data path:
//   * the classic copying interface (sosend/soreceive), and
//   * the NEWAPI shared-buffer interface from paper §4.2, where application
//     and protocol stack exchange buffer ownership instead of copying.
// The two share one send loop and one receive wait; the only difference is
// whether a byte is copied or referenced.
//
// One Socket class serves all three placements; the placement glue supplies
// a BoundaryModel that prices the user/kernel (or user/server) crossings at
// the socket-layer entry and exit.
#ifndef PSD_SRC_SOCK_SOCKET_H_
#define PSD_SRC_SOCK_SOCKET_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/base/result.h"
#include "src/inet/stack.h"

namespace psd {

class PollSet;
struct PollEntry;

// The setsockopt options Socket::SetOpt implements.
enum class SockOpt {
  kRcvBuf,
  kSndBuf,
  kNoDelay,
  kKeepAlive,
};

// Prices the protection-boundary crossing around socket-layer calls.
// entry(len): called at the start of a send with the payload size, and at
// the start of control ops with 0. exit(len): called on the receive path
// with the delivered size. Either may be null (no crossing: the library
// placement's fast path).
struct BoundaryModel {
  std::function<void(size_t)> charge_entry;
  std::function<void(size_t)> charge_exit;
};

class Socket {
 public:
  // Creates a fresh socket of the given protocol on `stack`.
  Socket(Stack* stack, IpProto proto);
  ~Socket();

  // The one adopt of a migrated session, by the OS server and the protocol
  // library alike: recreates its pcb under the domain lock (TCP from `st`,
  // UDP bound to `local` and connected to `remote`) and wraps it; TCP then
  // kicks the transmit machinery. The pcb owns no port name.
  static std::unique_ptr<Socket> AdoptTcp(Stack* stack, const TcpMigrationState& st);
  static std::unique_ptr<Socket> AdoptUdp(Stack* stack, SockAddrIn local, SockAddrIn remote);

  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  void SetBoundary(BoundaryModel boundary) { boundary_ = std::move(boundary); }

  // --- Control operations (block where BSD blocks) ---
  Result<void> Bind(SockAddrIn local);
  Result<void> Listen(int backlog);
  Result<void> Connect(SockAddrIn remote);
  Result<std::unique_ptr<Socket>> Accept(SockAddrIn* peer);
  Result<void> Shutdown(bool rd, bool wr);
  // Graceful close. TCP continues the FIN handshake in the background
  // (BSD semantics without SO_LINGER). The Socket is unusable afterwards.
  Result<void> Close();

  // --- Classic data interface (copies between caller and stack) ---
  Result<size_t> Send(const uint8_t* data, size_t len, const SockAddrIn* to = nullptr,
                      bool urgent = false);
  Result<size_t> Recv(uint8_t* out, size_t len, SockAddrIn* from = nullptr, bool peek = false);

  // --- NEWAPI shared-buffer interface (paper §4.2) ---
  // Sends from a caller-owned immutable buffer without copying; the stack
  // holds references until the data is acknowledged.
  Result<size_t> SendShared(std::shared_ptr<const std::vector<uint8_t>> buf, size_t off,
                            size_t len, const SockAddrIn* to = nullptr);
  // Receives by transferring buffer ownership out of the stack (no copy).
  // For UDP, at most one datagram; `from` receives its source.
  Result<Chain> RecvChain(size_t max, SockAddrIn* from = nullptr);

  // setsockopt: buffer sizes take `value` bytes, flags are on when
  // value != 0. TCP_NODELAY and SO_KEEPALIVE are TCP-only.
  Result<void> SetOpt(SockOpt opt, size_t value);

  // --- Introspection / select support (callable under the domain lock or
  // from readiness pings) ---
  bool Readable() const;
  bool Writable() const;
  bool HasError() const;
  // Cooperative select (the library placement's, paper §3.2): while armed,
  // `ping` runs (in protocol-thread context, lock held) whenever
  // readability/writability may have changed, newest arm first. Disarm
  // takes out the newest ping armed under `key`. PollSet registration
  // (pollset.h) is the scalable path and does not use these.
  void ArmReadiness(uint64_t key, std::function<void()> ping);
  void DisarmReadiness(uint64_t key);

  IpProto proto() const { return proto_; }
  Stack* stack() const { return stack_; }
  TcpPcb* tcp_pcb() const { return tcp_; }
  UdpPcb* udp_pcb() const { return udp_; }
  SockAddrIn local_addr() const;
  SockAddrIn remote_addr() const;
  bool listening() const { return tcp_ != nullptr && tcp_->state == TcpState::kListen; }

  // Detaches the pcb from this socket (used by session migration: the pcb's
  // state leaves this placement). The socket becomes unusable.
  TcpPcb* DetachTcpPcb();
  UdpPcb* DetachUdpPcb();

 private:
  friend class PollSet;

  // Wraps `tcp` or `udp` (an accepted child or adopted pcb), or creates a
  // fresh pcb of `proto` when both are null, and hooks its wakeups.
  Socket(Stack* stack, IpProto proto, TcpPcb* tcp, UdpPcb* udp);

  // The one send path of both interfaces. `chunk(off, take)` turns bytes
  // [off, off + take) of the caller's data into a Chain: the classic calls
  // copy (and charge for it), NEWAPI references the shared buffer.
  template <typename MakeChunk>
  Result<size_t> SendLoop(size_t len, const SockAddrIn* to, bool urgent, MakeChunk chunk);
  // The one receive wait: blocks until data is ready (true), the socket is
  // at EOF (false) or an error is pending (EBADF once the socket is closed).
  Result<bool> WaitForData();

  void WakeReaders();
  void WakeWriters();
  void WakeState();
  // Charges one wakeup across the placement's boundary and wakes `cv`.
  void WakeWaiters(SimCondition* cv);
  // Pushes a readiness edge into every PollSet this socket is registered
  // with, then runs the armed readiness pings (domain lock held,
  // protocol-thread context).
  void SignalReadiness(uint32_t events);
  // Unregisters from every PollSet (socket teardown).
  void PollDetachAll();
  // Unhooks the pcb's wakeups from this socket and wakes every waiter.
  void Unhook();
  SimDuration WakeupCost() const;
  Err ConsumeError();

  Stack* stack_;
  IpProto proto_;
  TcpPcb* tcp_ = nullptr;
  UdpPcb* udp_ = nullptr;
  BoundaryModel boundary_;

  SimCondition rcv_cv_;
  SimCondition snd_cv_;
  SimCondition state_cv_;
  std::vector<std::pair<uint64_t, std::function<void()>>> pings_;  // armed, oldest first
  std::vector<PollEntry*> poll_entries_;  // entries owned by their PollSets
  bool closed_ = false;
  bool shutdown_rd_ = false;
  bool shutdown_wr_ = false;
};

}  // namespace psd

#endif  // PSD_SRC_SOCK_SOCKET_H_
