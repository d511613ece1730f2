#include "src/api/kernel_node.h"

#include "src/filter/session_filter.h"
#include "src/sock/select.h"

namespace psd {

namespace {

std::unique_ptr<Stack> MakeKernelStack(SimHost* host) {
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
  params.name = host->name() + "/kstack";
  return std::make_unique<Stack>(params);
}

}  // namespace

KernelNode::KernelNode(SimHost* host)
    : host_(host), stack_(MakeKernelStack(host)), table_(stack_.get(), /*first_id=*/3) {
  Kernel* kernel = host->kernel();
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

void KernelNode::ChargeTrap() { host_->sim()->current_thread()->Charge(host_->prof()->trap); }

BoundaryModel KernelNode::TrapBoundary() {
  // Only the enter leg counts toward traps_: one socket call == one trap.
  return BoundaryModel{
      [this](size_t) {
        traps_++;
        ChargeTrap();
      },
      [this](size_t) { ChargeTrap(); },
  };
}

Result<int> KernelNode::CreateSocket(IpProto proto) {
  Result<std::unique_ptr<Socket>> sock = table_.Create(proto);
  if (!sock.ok()) {
    return sock.error();
  }
  (*sock)->SetBoundary(TrapBoundary());
  return static_cast<int>(table_.Install(std::move(*sock)));
}

Result<void> KernelNode::Bind(int fd, SockAddrIn local) {
  Socket* s = table_.Lookup(fd);
  return s != nullptr ? s->Bind(local) : Err::kBadF;
}

Result<void> KernelNode::Listen(int fd, int backlog) {
  Socket* s = table_.Lookup(fd);
  return s != nullptr ? s->Listen(backlog) : Err::kBadF;
}

Result<int> KernelNode::Accept(int fd, SockAddrIn* peer) {
  Socket* s = table_.Lookup(fd);
  if (s == nullptr) {
    return Err::kBadF;
  }
  Result<std::unique_ptr<Socket>> child = s->Accept(peer);
  if (!child.ok()) {
    return child.error();
  }
  (*child)->SetBoundary(TrapBoundary());
  return static_cast<int>(table_.Install(std::move(*child)));
}

Result<void> KernelNode::Connect(int fd, SockAddrIn remote) {
  Socket* s = table_.Lookup(fd);
  return s != nullptr ? s->Connect(remote) : Err::kBadF;
}

Result<size_t> KernelNode::Send(int fd, const uint8_t* data, size_t len, const SockAddrIn* to) {
  Socket* s = table_.Lookup(fd);
  return s != nullptr ? s->Send(data, len, to) : Err::kBadF;
}

Result<size_t> KernelNode::Recv(int fd, uint8_t* out, size_t len, SockAddrIn* from, bool peek) {
  Socket* s = table_.Lookup(fd);
  return s != nullptr ? s->Recv(out, len, from, peek) : Err::kBadF;
}

Result<void> KernelNode::SetOpt(int fd, SockOpt opt, size_t value) {
  Socket* s = table_.Lookup(fd);
  return s != nullptr ? s->SetOpt(opt, value) : Err::kBadF;
}

Result<void> KernelNode::Shutdown(int fd, bool rd, bool wr) {
  Socket* s = table_.Lookup(fd);
  return s != nullptr ? s->Shutdown(rd, wr) : Err::kBadF;
}

Result<void> KernelNode::Close(int fd) { return table_.Close(fd); }

Result<int> KernelNode::Select(SelectFds* fds, SimDuration timeout) {
  std::vector<Socket*> rd, wr;
  for (int fd : fds->read) {
    rd.push_back(table_.Lookup(fd));
  }
  for (int fd : fds->write) {
    wr.push_back(table_.Lookup(fd));
  }
  ChargeTrap();
  return SelectSockets(stack_.get(), rd, wr, timeout, &fds->read_ready, &fds->write_ready);
}

Result<int> KernelNode::PollCreate() {
  ChargeTrap();
  return static_cast<int>(table_.PollCreate());
}

Result<void> KernelNode::PollAdd(int pfd, int fd, uint32_t events) {
  Result<PollMember> m = table_.ResolveMember(pfd, fd);
  if (!m.ok()) {
    return m.error();
  }
  ChargeTrap();
  return m->set->Add(m->sock, events, static_cast<uint64_t>(fd));
}

Result<void> KernelNode::PollRemove(int pfd, int fd) {
  Result<PollMember> m = table_.ResolveMember(pfd, fd);
  if (!m.ok()) {
    return m.error();
  }
  ChargeTrap();
  return m->set->Remove(m->sock);
}

Result<int> KernelNode::PollWait(int pfd, std::vector<PollEvent>* out, SimDuration timeout) {
  PollSet* set = table_.poll_set(pfd);
  if (set == nullptr) {
    return Err::kBadF;
  }
  // One trap in, one out: the wait itself blocks inside the kernel.
  ChargeTrap();
  std::vector<PollReady> ready;
  int n = set->Wait(&ready, timeout);
  out->clear();
  for (const PollReady& r : ready) {
    out->push_back(PollEvent{static_cast<int>(r.data), r.events});
  }
  ChargeTrap();
  return n;
}

Result<void> KernelNode::PollClose(int pfd) {
  if (table_.poll_set(pfd) == nullptr) {
    return Err::kBadF;
  }
  ChargeTrap();
  return table_.PollClose(pfd);
}

SockAddrIn KernelNode::LocalAddr(int fd) {
  Socket* s = table_.Lookup(fd);
  return s != nullptr ? s->local_addr() : SockAddrIn{};
}

}  // namespace psd
