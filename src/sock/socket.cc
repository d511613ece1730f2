#include "src/sock/socket.h"

#include <algorithm>
#include <cassert>

#include "src/base/log.h"
#include "src/sock/pollset.h"

namespace psd {

Socket::Socket(Stack* stack, IpProto proto)
    : stack_(stack),
      proto_(proto),
      rcv_cv_(stack->env()->sim),
      snd_cv_(stack->env()->sim),
      state_cv_(stack->env()->sim) {
  DomainLock lock(stack_->sync());
  if (proto == IpProto::kTcp) {
    tcp_ = stack_->tcp().Create();
  } else {
    udp_ = stack_->udp().Create();
  }
  InstallHooks();
}

Socket::Socket(Stack* stack, TcpPcb* pcb)
    : stack_(stack),
      proto_(IpProto::kTcp),
      tcp_(pcb),
      rcv_cv_(stack->env()->sim),
      snd_cv_(stack->env()->sim),
      state_cv_(stack->env()->sim) {
  DomainLock lock(stack_->sync());
  InstallHooks();
}

Socket::Socket(Stack* stack, UdpPcb* pcb)
    : stack_(stack),
      proto_(IpProto::kUdp),
      udp_(pcb),
      rcv_cv_(stack->env()->sim),
      snd_cv_(stack->env()->sim),
      state_cv_(stack->env()->sim) {
  DomainLock lock(stack_->sync());
  InstallHooks();
}

Socket::~Socket() {
  PollDetachAll();
  if (closed_ || (tcp_ == nullptr && udp_ == nullptr)) {
    return;
  }
  Simulator* sim = stack_->env()->sim;
  if (sim->current_thread() == nullptr || sim->shutting_down()) {
    // Simulation-external teardown (world destruction): just unhook; the
    // stack dies with us.
    if (tcp_ != nullptr) {
      tcp_->rcv_wakeup = nullptr;
      tcp_->snd_wakeup = nullptr;
      tcp_->state_wakeup = nullptr;
      tcp_->accept_wakeup = nullptr;
    }
    if (udp_ != nullptr) {
      udp_->rcv_wakeup = nullptr;
    }
    return;
  }
  // Abort rather than linger: destruction without Close is an abnormal
  // teardown (process death); the OS resets the connection (paper §3.2,
  // "Terminating session state").
  DomainLock lock(stack_->sync());
  if (tcp_ != nullptr) {
    stack_->tcp().Abort(tcp_);
    stack_->tcp().Destroy(tcp_);
  }
  if (udp_ != nullptr) {
    stack_->udp().Destroy(udp_);
  }
}

void Socket::InstallHooks() {
  if (tcp_ != nullptr) {
    tcp_->rcv_wakeup = [this] { WakeReaders(); };
    tcp_->snd_wakeup = [this] { WakeWriters(); };
    tcp_->state_wakeup = [this] { WakeState(); };
    tcp_->accept_wakeup = [this] { WakeReaders(); };
  } else {
    udp_->rcv_wakeup = [this] { WakeReaders(); };
  }
}

SimDuration Socket::WakeupCost() const {
  const MachineProfile* p = stack_->env()->prof;
  switch (stack_->env()->placement) {
    case Placement::kKernel:
      return p->wakeup_kernel;
    case Placement::kServer:
      // The server's wakeup runs through its emulated priority machinery.
      return p->wakeup_cross + p->sync_spl_emulated;
    case Placement::kLibrary:
      return p->wakeup_user;
  }
  return p->wakeup_user;
}

void Socket::WakeReaders() {
  if (rcv_cv_.has_waiters()) {
    ProbeSpan span(stack_->env()->obs->tracer, stack_->env()->sim, Stage::kWakeupUser);
    stack_->sock_stats().wakeups++;
    stack_->env()->Charge(WakeupCost());
    rcv_cv_.NotifyAll();
  }
  PollEdge(kPollIn);
  if (on_readiness_) {
    // Invoke through a copy: the callback may yield (cooperative-select
    // ping), and the blocked waiter may swap the callback out before this
    // invocation returns — the copy keeps the closure alive.
    std::function<void()> cb = on_readiness_;
    cb();
  }
}

void Socket::WakeWriters() {
  if (snd_cv_.has_waiters()) {
    stack_->sock_stats().wakeups++;
    stack_->env()->Charge(WakeupCost());
    snd_cv_.NotifyAll();
  }
  PollEdge(kPollOut);
  if (on_readiness_) {
    std::function<void()> cb = on_readiness_;  // see WakeReaders
    cb();
  }
}

void Socket::WakeState() {
  state_cv_.NotifyAll();
  // State changes can flip both directions (connect completion makes the
  // socket writable; errors make it readable) — edge both.
  PollEdge(kPollIn | kPollOut | kPollErr);
  if (on_readiness_) {
    std::function<void()> cb = on_readiness_;  // see WakeReaders
    cb();
  }
}

void Socket::PollEdge(uint32_t events) {
  for (PollEntry* e : poll_entries_) {
    if (((e->mask | kPollErr) & events) != 0) {
      e->set->PushEdge(e);
    }
  }
}

void Socket::PollDetachAll() {
  for (PollEntry* e : poll_entries_) {
    e->set->DropSocket(this);
  }
  poll_entries_.clear();
}

Err Socket::ConsumeError() {
  if (tcp_ != nullptr && tcp_->so_error != Err::kOk) {
    Err e = tcp_->so_error;
    return e;
  }
  if (udp_ != nullptr && udp_->so_error != Err::kOk) {
    Err e = udp_->so_error;
    udp_->so_error = Err::kOk;
    return e;
  }
  return Err::kOk;
}

Result<void> Socket::Bind(SockAddrIn local) {
  DomainLock lock(stack_->sync());
  if (boundary_.charge_entry) {
    boundary_.charge_entry(0);
  }
  return tcp_ != nullptr ? stack_->tcp().Bind(tcp_, local) : stack_->udp().Bind(udp_, local);
}

Result<void> Socket::Listen(int backlog) {
  if (tcp_ == nullptr) {
    return Err::kOpNotSupp;
  }
  DomainLock lock(stack_->sync());
  if (boundary_.charge_entry) {
    boundary_.charge_entry(0);
  }
  return stack_->tcp().Listen(tcp_, backlog);
}

Result<void> Socket::Connect(SockAddrIn remote) {
  DomainLock lock(stack_->sync());
  if (boundary_.charge_entry) {
    boundary_.charge_entry(0);
  }
  if (udp_ != nullptr) {
    return stack_->udp().Connect(udp_, remote);
  }
  Result<void> r = stack_->tcp().Connect(tcp_, remote);
  if (!r.ok()) {
    return r;
  }
  stack_->Kick();
  while (tcp_->state != TcpState::kEstablished) {
    if (tcp_->so_error != Err::kOk || tcp_->state == TcpState::kClosed) {
      Err e = tcp_->so_error != Err::kOk ? tcp_->so_error : Err::kConnRefused;
      tcp_->so_error = Err::kOk;
      return e;
    }
    state_cv_.Wait(stack_->sync()->mutex());
  }
  return OkResult();
}

Result<std::unique_ptr<Socket>> Socket::Accept(SockAddrIn* peer) {
  if (tcp_ == nullptr || tcp_->state != TcpState::kListen) {
    return Err::kInval;
  }
  TcpPcb* child = nullptr;
  {
    DomainLock lock(stack_->sync());
    if (boundary_.charge_entry) {
      boundary_.charge_entry(0);
    }
    for (;;) {
      child = stack_->tcp().PopAcceptable(tcp_);
      if (child != nullptr) {
        if (peer != nullptr) {
          *peer = child->remote;
        }
        break;
      }
      if (closed_) {
        return Err::kBadF;
      }
      rcv_cv_.Wait(stack_->sync()->mutex());
    }
  }
  // Construct outside the domain lock (the constructor takes it).
  auto sock = std::make_unique<Socket>(stack_, child);
  sock->SetBoundary(boundary_);
  stack_->Kick();
  return sock;
}

Result<size_t> Socket::Send(const uint8_t* data, size_t len, const SockAddrIn* to, bool urgent) {
  DomainLock lock(stack_->sync());
  ProbeSpan span(stack_->env()->obs->tracer, stack_->env()->sim, Stage::kEntryCopyin);
  if (boundary_.charge_entry) {
    boundary_.charge_entry(len);
  }
  stack_->env()->Charge(stack_->env()->prof->sock_send_fixed);
  stack_->sock_stats().sends++;

  if (udp_ != nullptr) {
    if (shutdown_wr_) {
      return Err::kPipe;
    }
    // A datagram send is synchronous: the stack serializes the data into a
    // frame before returning, so the library placement can reference the
    // caller's buffer instead of copying it (Table 4: UDP library
    // entry/copyin has no per-byte cost).
    Chain c;
    if (stack_->env()->placement == Placement::kLibrary) {
      c = Chain::ReferencingRaw(data, len);
    } else {
      stack_->env()->Charge(static_cast<SimDuration>(len) * stack_->env()->prof->copy_per_byte +
                            stack_->env()->prof->mbuf_get);
      c = Chain::FromBytes(data, len);
    }
    Result<void> r = stack_->udp().Output(udp_, std::move(c), to);
    stack_->Kick();  // ARP retries / reassembly timeouts may now be pending
    if (!r.ok()) {
      return r.error();
    }
    return len;
  }

  // TCP byte stream: copy into the send buffer in chunks as space allows.
  size_t sent = 0;
  while (sent < len) {
    if (shutdown_wr_ || tcp_->cantsendmore) {
      if (sent > 0) {
        return sent;
      }
      return Err::kPipe;
    }
    Err e = ConsumeError();
    if (e != Err::kOk) {
      return sent > 0 ? Result<size_t>(sent) : Result<size_t>(e);
    }
    size_t space = tcp_->snd.space();
    if (space == 0) {
      stack_->sock_stats().send_blocks++;
      snd_cv_.Wait(stack_->sync()->mutex());
      continue;
    }
    size_t take = std::min(space, len - sent);
    stack_->env()->Charge(static_cast<SimDuration>(take) * stack_->env()->prof->copy_per_byte);
    Chain c = Chain::FromBytes(data + sent, take);
    stack_->env()->Charge(stack_->env()->prof->mbuf_get * c.SegmentCount());
    Result<void> r = stack_->tcp().UsrSend(tcp_, std::move(c), urgent && sent + take == len);
    stack_->Kick();
    if (!r.ok()) {
      return sent > 0 ? Result<size_t>(sent) : Result<size_t>(r.error());
    }
    sent += take;
  }
  return sent;
}

Result<size_t> Socket::SendShared(std::shared_ptr<const std::vector<uint8_t>> buf, size_t off,
                                  size_t len, const SockAddrIn* to) {
  assert(off + len <= buf->size());
  DomainLock lock(stack_->sync());
  ProbeSpan span(stack_->env()->obs->tracer, stack_->env()->sim, Stage::kEntryCopyin);
  if (boundary_.charge_entry) {
    boundary_.charge_entry(len);
  }
  stack_->env()->Charge(stack_->env()->prof->sock_send_fixed);
  stack_->sock_stats().sends++;

  if (udp_ != nullptr) {
    Result<void> r = stack_->udp().Output(udp_, Chain::Referencing(std::move(buf), off, len), to);
    stack_->Kick();
    if (!r.ok()) {
      return r.error();
    }
    return len;
  }

  size_t sent = 0;
  while (sent < len) {
    if (shutdown_wr_ || tcp_->cantsendmore) {
      if (sent > 0) {
        return sent;
      }
      return Err::kPipe;
    }
    Err e = ConsumeError();
    if (e != Err::kOk) {
      return sent > 0 ? Result<size_t>(sent) : Result<size_t>(e);
    }
    size_t space = tcp_->snd.space();
    if (space == 0) {
      stack_->sock_stats().send_blocks++;
      snd_cv_.Wait(stack_->sync()->mutex());
      continue;
    }
    size_t take = std::min(space, len - sent);
    // No copy: the stack references the shared buffer until acknowledged.
    Result<void> r =
        stack_->tcp().UsrSend(tcp_, Chain::Referencing(buf, off + sent, take), false);
    stack_->Kick();
    if (!r.ok()) {
      return sent > 0 ? Result<size_t>(sent) : Result<size_t>(r.error());
    }
    sent += take;
  }
  return sent;
}

Result<size_t> Socket::Recv(uint8_t* out, size_t len, SockAddrIn* from, bool peek) {
  DomainLock lock(stack_->sync());
  stack_->sock_stats().recvs++;

  if (udp_ != nullptr) {
    for (;;) {
      Err e = ConsumeError();
      if (e != Err::kOk) {
        return e;
      }
      if (udp_->rcv.dgram_count() > 0) {
        break;
      }
      if (shutdown_rd_) {
        return size_t{0};
      }
      stack_->sock_stats().recv_blocks++;
      rcv_cv_.Wait(stack_->sync()->mutex());
    }
    ProbeSpan span(stack_->env()->obs->tracer, stack_->env()->sim, Stage::kCopyoutExit);
    stack_->env()->Charge(stack_->env()->prof->sock_recv_fixed);
    size_t n;
    if (peek) {
      const SockBuf::Dgram* d = udp_->rcv.PeekDgram();
      n = std::min(len, d->data.len());
      stack_->env()->Charge(static_cast<SimDuration>(n) * stack_->env()->prof->copy_per_byte);
      d->data.CopyOut(0, out, n);
      if (from != nullptr) {
        *from = d->from;
      }
    } else {
      SockBuf::Dgram d;
      udp_->rcv.TakeDgram(&d);
      n = std::min(len, d.data.len());
      stack_->env()->Charge(static_cast<SimDuration>(n) * stack_->env()->prof->copy_per_byte);
      d.data.CopyOut(0, out, n);
      if (from != nullptr) {
        *from = d.from;
      }
    }
    if (boundary_.charge_exit) {
      boundary_.charge_exit(n);
    }
    return n;
  }

  // TCP stream.
  for (;;) {
    Err e = ConsumeError();
    if (e != Err::kOk && tcp_->rcv.cc() == 0) {
      if (e == Err::kConnAborted || e == Err::kConnReset) {
        tcp_->so_error = Err::kOk;
      }
      return e;
    }
    if (tcp_->rcv.cc() > 0) {
      break;
    }
    if (tcp_->cantrcvmore || shutdown_rd_ || tcp_->state == TcpState::kClosed) {
      return size_t{0};  // EOF
    }
    stack_->sock_stats().recv_blocks++;
    rcv_cv_.Wait(stack_->sync()->mutex());
  }
  ProbeSpan span(stack_->env()->obs->tracer, stack_->env()->sim, Stage::kCopyoutExit);
  stack_->env()->Charge(stack_->env()->prof->sock_recv_fixed);
  size_t n = std::min(len, tcp_->rcv.cc());
  stack_->env()->Charge(static_cast<SimDuration>(n) * stack_->env()->prof->copy_per_byte);
  if (peek) {
    tcp_->rcv.CopyRange(0, n).CopyOut(0, out, n);
  } else {
    tcp_->rcv.stream().CopyOut(0, out, n);
    tcp_->rcv.Drop(n);
    stack_->tcp().UsrRcvd(tcp_);
  }
  if (boundary_.charge_exit) {
    boundary_.charge_exit(n);
  }
  return n;
}

Result<Chain> Socket::RecvChain(size_t max, SockAddrIn* from) {
  DomainLock lock(stack_->sync());
  stack_->env()->Charge(stack_->env()->prof->sock_recv_fixed);
  stack_->sock_stats().recvs++;

  if (udp_ != nullptr) {
    for (;;) {
      Err e = ConsumeError();
      if (e != Err::kOk) {
        return e;
      }
      if (udp_->rcv.dgram_count() > 0) {
        break;
      }
      if (shutdown_rd_) {
        return Chain();
      }
      stack_->sock_stats().recv_blocks++;
      rcv_cv_.Wait(stack_->sync()->mutex());
    }
    ProbeSpan span(stack_->env()->obs->tracer, stack_->env()->sim, Stage::kCopyoutExit);
    SockBuf::Dgram d;
    udp_->rcv.TakeDgram(&d);
    if (from != nullptr) {
      *from = d.from;
    }
    if (d.data.len() > max) {
      d.data.TrimBack(d.data.len() - max);
    }
    if (boundary_.charge_exit) {
      boundary_.charge_exit(0);
    }
    return std::move(d.data);
  }

  for (;;) {
    Err e = ConsumeError();
    if (e != Err::kOk && tcp_->rcv.cc() == 0) {
      if (e == Err::kConnAborted || e == Err::kConnReset) {
        tcp_->so_error = Err::kOk;
      }
      return e;
    }
    if (tcp_->rcv.cc() > 0) {
      break;
    }
    if (tcp_->cantrcvmore || shutdown_rd_ || tcp_->state == TcpState::kClosed) {
      return Chain();
    }
    stack_->sock_stats().recv_blocks++;
    rcv_cv_.Wait(stack_->sync()->mutex());
  }
  ProbeSpan span(stack_->env()->obs->tracer, stack_->env()->sim, Stage::kCopyoutExit);
  Chain out = tcp_->rcv.TakeStream(max);
  stack_->tcp().UsrRcvd(tcp_);
  if (boundary_.charge_exit) {
    boundary_.charge_exit(0);
  }
  return out;
}

Result<void> Socket::Shutdown(bool rd, bool wr) {
  DomainLock lock(stack_->sync());
  if (rd) {
    shutdown_rd_ = true;
    rcv_cv_.NotifyAll();
  }
  if (wr) {
    shutdown_wr_ = true;
    if (tcp_ != nullptr) {
      return stack_->tcp().UsrClose(tcp_);
    }
  }
  return OkResult();
}

Result<void> Socket::Close() {
  DomainLock lock(stack_->sync());
  if (closed_) {
    return OkResult();
  }
  closed_ = true;
  PollDetachAll();  // close drops every poll registration, as epoll does
  if (boundary_.charge_entry) {
    boundary_.charge_entry(0);
  }
  if (udp_ != nullptr) {
    stack_->udp().Destroy(udp_);
    udp_ = nullptr;
    return OkResult();
  }
  // BSD close without SO_LINGER: initiate the shutdown handshake and
  // return; the pcb is detached and reaped when it reaches CLOSED.
  TcpPcb* pcb = tcp_;
  tcp_ = nullptr;
  pcb->rcv_wakeup = nullptr;
  pcb->snd_wakeup = nullptr;
  pcb->state_wakeup = nullptr;
  pcb->accept_wakeup = nullptr;
  Result<void> r = stack_->tcp().UsrClose(pcb);
  pcb->detached = true;
  if (pcb->state == TcpState::kClosed) {
    stack_->tcp().Destroy(pcb);
  } else {
    stack_->Kick();
  }
  // Wake anything still blocked on this socket.
  rcv_cv_.NotifyAll();
  snd_cv_.NotifyAll();
  state_cv_.NotifyAll();
  return r;
}

Result<void> Socket::SetRcvBuf(size_t bytes) {
  DomainLock lock(stack_->sync());
  if (tcp_ != nullptr) {
    tcp_->rcv.set_hiwat(bytes);
  } else {
    udp_->rcv.set_hiwat(bytes);
  }
  return OkResult();
}

Result<void> Socket::SetSndBuf(size_t bytes) {
  DomainLock lock(stack_->sync());
  if (tcp_ != nullptr) {
    tcp_->snd.set_hiwat(bytes);
  } else {
    udp_->snd_limit = bytes;
  }
  return OkResult();
}

Result<void> Socket::SetNoDelay(bool on) {
  if (tcp_ == nullptr) {
    return Err::kOpNotSupp;
  }
  DomainLock lock(stack_->sync());
  tcp_->nodelay = on;
  return OkResult();
}

Result<void> Socket::SetKeepAlive(bool on) {
  if (tcp_ == nullptr) {
    return Err::kOpNotSupp;
  }
  DomainLock lock(stack_->sync());
  tcp_->keepalive = on;
  return OkResult();
}

bool Socket::Readable() const {
  if (tcp_ != nullptr) {
    if (tcp_->state == TcpState::kListen) {
      return !tcp_->accept_ready.empty();
    }
    return tcp_->rcv.cc() > 0 || tcp_->cantrcvmore || tcp_->so_error != Err::kOk ||
           tcp_->state == TcpState::kClosed;
  }
  if (udp_ != nullptr) {
    return udp_->rcv.dgram_count() > 0 || udp_->so_error != Err::kOk;
  }
  return false;
}

bool Socket::Writable() const {
  if (tcp_ != nullptr) {
    return (tcp_->state == TcpState::kEstablished || tcp_->state == TcpState::kCloseWait) &&
           tcp_->snd.space() > 0;
  }
  return udp_ != nullptr;
}

bool Socket::HasError() const {
  if (tcp_ != nullptr) {
    return tcp_->so_error != Err::kOk;
  }
  if (udp_ != nullptr) {
    return udp_->so_error != Err::kOk;
  }
  return false;
}

SockAddrIn Socket::local_addr() const {
  if (tcp_ != nullptr) {
    return tcp_->local;
  }
  if (udp_ != nullptr) {
    return udp_->local;
  }
  return {};
}

SockAddrIn Socket::remote_addr() const {
  if (tcp_ != nullptr) {
    return tcp_->remote;
  }
  if (udp_ != nullptr) {
    return udp_->remote;
  }
  return {};
}

TcpPcb* Socket::DetachTcpPcb() {
  DomainLock lock(stack_->sync());
  PollDetachAll();
  TcpPcb* pcb = tcp_;
  tcp_ = nullptr;
  closed_ = true;
  if (pcb != nullptr) {
    pcb->rcv_wakeup = nullptr;
    pcb->snd_wakeup = nullptr;
    pcb->state_wakeup = nullptr;
    pcb->accept_wakeup = nullptr;
  }
  rcv_cv_.NotifyAll();
  snd_cv_.NotifyAll();
  state_cv_.NotifyAll();
  return pcb;
}

UdpPcb* Socket::DetachUdpPcb() {
  DomainLock lock(stack_->sync());
  PollDetachAll();
  UdpPcb* pcb = udp_;
  udp_ = nullptr;
  closed_ = true;
  if (pcb != nullptr) {
    pcb->rcv_wakeup = nullptr;
  }
  rcv_cv_.NotifyAll();
  return pcb;
}

}  // namespace psd
