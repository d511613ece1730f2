// In-kernel protocol placement (Mach 2.5 / Ultrix / 386BSD architecture):
// the full stack lives in the kernel; every socket call crosses the user/
// kernel boundary once (trap), data is copied in/out at the socket layer,
// and received packets flow interrupt -> netisr -> protocol -> wakeup.
#ifndef PSD_SRC_API_KERNEL_NODE_H_
#define PSD_SRC_API_KERNEL_NODE_H_

#include <memory>

#include "src/api/socket_api.h"
#include "src/kern/host.h"
#include "src/sock/socket_table.h"

namespace psd {

class KernelNode : public SocketApi {
 public:
  explicit KernelNode(SimHost* host);
  ~KernelNode() override;

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

  // The kernel's descriptor table; tests and benches read its poll sets.
  SocketTable& sockets() { return table_; }
  Stack* stack() { return stack_.get(); }
  SimHost* host() { return host_; }

  // User/kernel boundary crossings (one per socket-call trap). The in-kernel
  // placement's analogue of an RPC count: it issues zero RPCs, so this is
  // the denominator-side baseline for amplification comparisons.
  uint64_t traps() const { return traps_; }

 private:
  BoundaryModel TrapBoundary();
  void ChargeTrap();

  SimHost* host_;
  std::unique_ptr<Stack> stack_;
  PacketQueue* rxq_ = nullptr;
  SimThread* input_thread_ = nullptr;
  // Descriptors from 3 (after stdin/stdout/stderr); declared after stack_,
  // which must outlive its sockets.
  SocketTable table_;
  uint64_t traps_ = 0;
};

}  // namespace psd

#endif  // PSD_SRC_API_KERNEL_NODE_H_
