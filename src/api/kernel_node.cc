#include "src/api/kernel_node.h"

#include "src/filter/session_filter.h"

namespace psd {

KernelNode::KernelNode(SimHost* host) : host_(host) {
  Kernel* kernel = host->kernel();
  StackParams params;
  params.sim = host->sim();
  params.obs = host->obs();
  params.cpu = host->cpu();
  params.prof = host->prof();
  params.placement = Placement::kKernel;
  params.send_frame = [kernel](Frame f) { kernel->NetSendWired(std::move(f)); };
  params.ip = host->ip();
  params.mac = host->mac();
  params.with_arp = true;
  params.sync_pair_cost = host->prof()->sync_spl_hw;
  params.name = host->name() + "/kstack";
  stack_ = std::make_unique<Stack>(params);
  stack_->routes().Add(Ipv4Addr(host->ip().v & 0xffff0000), Ipv4Addr(0xffff0000),
                       Ipv4Addr::Any());

  rxq_ = kernel->MakeQueueEndpoint(host->name() + "/netisr", 0);
  kernel->InstallFilter(CompileCatchAllFilter(), /*priority=*/0,
                        DeliveryEndpoint{DeliverKind::kDirect, rxq_, nullptr});
  input_thread_ = host->sim()->Spawn(host->name() + "/netin", host->cpu(), [this] {
    Frame f;
    for (;;) {
      rxq_->Pop(&f);
      stack_->InputFrame(f);
    }
  });
}

KernelNode::~KernelNode() {
  if (input_thread_ != nullptr && !host_->sim()->shutting_down()) {
    host_->sim()->KillThread(input_thread_);
  }
}

BoundaryModel KernelNode::TrapBoundary() {
  SimHost* host = host_;
  // Only the enter leg counts toward traps_: one socket call == one trap.
  return BoundaryModel{
      [this, host](size_t) {
        traps_++;
        host->sim()->current_thread()->Charge(host->prof()->trap);
      },
      [host](size_t) { host->sim()->current_thread()->Charge(host->prof()->trap); },
  };
}

Result<Socket*> KernelNode::Lookup(int fd) {
  auto it = fds_.find(fd);
  if (it == fds_.end()) {
    return Err::kBadF;
  }
  return it->second.get();
}

int KernelNode::Install(std::unique_ptr<Socket> sock) {
  int fd = next_fd_++;
  fds_[fd] = std::move(sock);
  return fd;
}

Result<int> KernelNode::CreateSocket(IpProto proto) {
  if (proto != IpProto::kTcp && proto != IpProto::kUdp) {
    return Err::kProtoNoSupport;
  }
  auto sock = std::make_unique<Socket>(stack_.get(), proto);
  sock->SetBoundary(TrapBoundary());
  return Install(std::move(sock));
}

Result<void> KernelNode::Bind(int fd, SockAddrIn local) {
  Result<Socket*> s = Lookup(fd);
  if (!s.ok()) {
    return s.error();
  }
  return (*s)->Bind(local);
}

Result<void> KernelNode::Listen(int fd, int backlog) {
  Result<Socket*> s = Lookup(fd);
  if (!s.ok()) {
    return s.error();
  }
  return (*s)->Listen(backlog);
}

Result<int> KernelNode::Accept(int fd, SockAddrIn* peer) {
  Result<Socket*> s = Lookup(fd);
  if (!s.ok()) {
    return s.error();
  }
  Result<std::unique_ptr<Socket>> child = (*s)->Accept(peer);
  if (!child.ok()) {
    return child.error();
  }
  return Install(std::move(*child));
}

Result<void> KernelNode::Connect(int fd, SockAddrIn remote) {
  Result<Socket*> s = Lookup(fd);
  if (!s.ok()) {
    return s.error();
  }
  return (*s)->Connect(remote);
}

Result<size_t> KernelNode::Send(int fd, const uint8_t* data, size_t len, const SockAddrIn* to) {
  Result<Socket*> s = Lookup(fd);
  if (!s.ok()) {
    return s.error();
  }
  return (*s)->Send(data, len, to);
}

Result<size_t> KernelNode::Recv(int fd, uint8_t* out, size_t len, SockAddrIn* from, bool peek) {
  Result<Socket*> s = Lookup(fd);
  if (!s.ok()) {
    return s.error();
  }
  return (*s)->Recv(out, len, from, peek);
}

Result<void> ApplySockOpt(Socket* sock, SockOpt opt, size_t value) {
  switch (opt) {
    case SockOpt::kRcvBuf:
      return sock->SetRcvBuf(value);
    case SockOpt::kSndBuf:
      return sock->SetSndBuf(value);
    case SockOpt::kNoDelay:
      return sock->SetNoDelay(value != 0);
    case SockOpt::kKeepAlive:
      return sock->SetKeepAlive(value != 0);
  }
  return Err::kInval;
}

Result<void> KernelNode::SetOpt(int fd, SockOpt opt, size_t value) {
  Result<Socket*> s = Lookup(fd);
  if (!s.ok()) {
    return s.error();
  }
  return ApplySockOpt(*s, opt, value);
}

Result<void> KernelNode::Shutdown(int fd, bool rd, bool wr) {
  Result<Socket*> s = Lookup(fd);
  if (!s.ok()) {
    return s.error();
  }
  return (*s)->Shutdown(rd, wr);
}

Result<void> KernelNode::Close(int fd) {
  Result<Socket*> s = Lookup(fd);
  if (!s.ok()) {
    return s.error();
  }
  Result<void> r = (*s)->Close();
  fds_.erase(fd);
  return r;
}

Result<int> KernelNode::Select(SelectFds* fds, SimDuration timeout) {
  std::vector<Socket*> rd, wr;
  for (int fd : fds->read) {
    Result<Socket*> s = Lookup(fd);
    rd.push_back(s.ok() ? *s : nullptr);
  }
  for (int fd : fds->write) {
    Result<Socket*> s = Lookup(fd);
    wr.push_back(s.ok() ? *s : nullptr);
  }
  host_->sim()->current_thread()->Charge(host_->prof()->trap);
  return SelectSockets(stack_.get(), rd, wr, timeout, &fds->read_ready, &fds->write_ready);
}

PollSet* KernelNode::poll_set(int pfd) {
  auto it = polls_.find(pfd);
  return it == polls_.end() ? nullptr : it->second.get();
}

Result<int> KernelNode::PollCreate() {
  host_->sim()->current_thread()->Charge(host_->prof()->trap);
  int pfd = next_fd_++;
  polls_[pfd] = std::make_unique<PollSet>(stack_.get());
  return pfd;
}

Result<void> KernelNode::PollAdd(int pfd, int fd, uint32_t events) {
  PollSet* set = poll_set(pfd);
  if (set == nullptr) {
    return Err::kBadF;
  }
  Result<Socket*> s = Lookup(fd);
  if (!s.ok()) {
    return s.error();
  }
  host_->sim()->current_thread()->Charge(host_->prof()->trap);
  return set->Add(*s, events, static_cast<uint64_t>(fd));
}

Result<void> KernelNode::PollRemove(int pfd, int fd) {
  PollSet* set = poll_set(pfd);
  if (set == nullptr) {
    return Err::kBadF;
  }
  Result<Socket*> s = Lookup(fd);
  if (!s.ok()) {
    return s.error();
  }
  host_->sim()->current_thread()->Charge(host_->prof()->trap);
  return set->Remove(*s);
}

Result<int> KernelNode::PollWait(int pfd, std::vector<PollEvent>* out, SimDuration timeout) {
  PollSet* set = poll_set(pfd);
  if (set == nullptr) {
    return Err::kBadF;
  }
  // One trap in, one out: the wait itself blocks inside the kernel.
  host_->sim()->current_thread()->Charge(host_->prof()->trap);
  std::vector<PollReady> ready;
  int n = set->Wait(&ready, timeout);
  out->clear();
  for (const PollReady& r : ready) {
    out->push_back(PollEvent{static_cast<int>(r.data), r.events});
  }
  host_->sim()->current_thread()->Charge(host_->prof()->trap);
  return n;
}

Result<void> KernelNode::PollClose(int pfd) {
  auto it = polls_.find(pfd);
  if (it == polls_.end()) {
    return Err::kBadF;
  }
  host_->sim()->current_thread()->Charge(host_->prof()->trap);
  polls_.erase(it);
  return OkResult();
}

SockAddrIn KernelNode::LocalAddr(int fd) {
  Result<Socket*> s = Lookup(fd);
  return s.ok() ? (*s)->local_addr() : SockAddrIn{};
}

}  // namespace psd
