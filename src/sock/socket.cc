#include "src/sock/socket.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "src/base/scratch.h"
#include "src/sock/pollset.h"

namespace psd {

namespace {

// Prices one boundary crossing; an unset side crosses no boundary.
void Cross(const std::function<void(size_t)>& charge, size_t len) {
  if (charge) {
    charge(len);
  }
}

}  // namespace

Socket::Socket(Stack* stack, IpProto proto) : Socket(stack, proto, nullptr, nullptr) {}

Socket::Socket(Stack* stack, IpProto proto, TcpPcb* tcp, UdpPcb* udp)
    : stack_(stack),
      proto_(proto),
      tcp_(tcp),
      udp_(udp),
      rcv_cv_(stack->env()->sim),
      snd_cv_(stack->env()->sim),
      state_cv_(stack->env()->sim) {
  DomainLock lock(stack_->sync());
  if (proto == IpProto::kTcp) {
    if (tcp_ == nullptr) {
      tcp_ = stack_->tcp().Create();
    }
    tcp_->rcv_wakeup = [this] { WakeReaders(); };
    tcp_->snd_wakeup = [this] { WakeWriters(); };
    tcp_->state_wakeup = [this] { WakeState(); };
    tcp_->accept_wakeup = [this] { WakeReaders(); };
  } else {
    if (udp_ == nullptr) {
      udp_ = stack_->udp().Create();
    }
    udp_->rcv_wakeup = [this] { WakeReaders(); };
  }
}

std::unique_ptr<Socket> Socket::AdoptTcp(Stack* stack, const TcpMigrationState& st) {
  TcpPcb* pcb = nullptr;
  {
    DomainLock lock(stack->sync());
    pcb = stack->tcp().AdoptMigrated(st);
  }
  std::unique_ptr<Socket> sock(new Socket(stack, IpProto::kTcp, pcb, nullptr));
  stack->Kick();
  return sock;
}

std::unique_ptr<Socket> Socket::AdoptUdp(Stack* stack, SockAddrIn local, SockAddrIn remote) {
  UdpPcb* pcb = nullptr;
  {
    DomainLock lock(stack->sync());
    pcb = stack->udp().Create();
    stack->udp().AdoptBinding(pcb, local);
    pcb->remote = remote;
  }
  return std::unique_ptr<Socket>(new Socket(stack, IpProto::kUdp, nullptr, pcb));
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
    Unhook();
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

void Socket::Unhook() {
  if (tcp_ != nullptr) {
    tcp_->rcv_wakeup = nullptr;
    tcp_->snd_wakeup = nullptr;
    tcp_->state_wakeup = nullptr;
    tcp_->accept_wakeup = nullptr;
  }
  if (udp_ != nullptr) {
    udp_->rcv_wakeup = nullptr;
  }
  rcv_cv_.NotifyAll();
  snd_cv_.NotifyAll();
  state_cv_.NotifyAll();
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

void Socket::WakeWaiters(SimCondition* cv) {
  stack_->sock_stats().wakeups++;
  stack_->env()->Charge(WakeupCost());
  cv->NotifyAll();
}

void Socket::WakeReaders() {
  if (rcv_cv_.has_waiters()) {
    ProbeSpan span(stack_->env()->obs->tracer, stack_->env()->sim, Stage::kWakeupUser);
    WakeWaiters(&rcv_cv_);
  }
  SignalReadiness(kPollIn);
}

void Socket::WakeWriters() {
  if (snd_cv_.has_waiters()) {
    WakeWaiters(&snd_cv_);
  }
  SignalReadiness(kPollOut);
}

void Socket::WakeState() {
  state_cv_.NotifyAll();
  // State changes can flip both directions (connect completion makes the
  // socket writable; errors make it readable) — edge both.
  SignalReadiness(kPollIn | kPollOut | kPollErr);
}

void Socket::SignalReadiness(uint32_t events) {
  for (PollEntry* e : poll_entries_) {
    if (((e->mask | kPollErr) & events) != 0) {
      e->set->PushEdge(e);
    }
  }
  if (pings_.empty()) {
    return;
  }
  // Newest first, through a snapshot: a ping may yield (it sends a message
  // to the OS server), and a select may disarm meanwhile.
  Scratch<std::vector<std::function<void()>>> snapshot;
  snapshot->clear();
  for (auto it = pings_.rbegin(); it != pings_.rend(); ++it) {
    snapshot->push_back(it->second);
  }
  for (const std::function<void()>& ping : *snapshot) {
    ping();
  }
}

void Socket::ArmReadiness(uint64_t key, std::function<void()> ping) {
  pings_.emplace_back(key, std::move(ping));
}

void Socket::DisarmReadiness(uint64_t key) {
  for (size_t i = pings_.size(); i-- > 0;) {
    if (pings_[i].first == key) {
      pings_.erase(pings_.begin() + static_cast<std::ptrdiff_t>(i));
      return;
    }
  }
}

void Socket::PollDetachAll() {
  for (PollEntry* e : poll_entries_) {
    e->set->Drop(e);
  }
  poll_entries_.clear();
}

Err Socket::ConsumeError() {
  if (tcp_ != nullptr) {
    return tcp_->so_error;  // stays set; the receive wait clears resets
  }
  if (udp_ != nullptr) {
    return std::exchange(udp_->so_error, Err::kOk);
  }
  return Err::kOk;
}

Result<void> Socket::Bind(SockAddrIn local) {
  DomainLock lock(stack_->sync());
  Cross(boundary_.charge_entry, 0);
  return tcp_ != nullptr ? stack_->tcp().Bind(tcp_, local) : stack_->udp().Bind(udp_, local);
}

Result<void> Socket::Listen(int backlog) {
  if (tcp_ == nullptr) {
    return Err::kOpNotSupp;
  }
  DomainLock lock(stack_->sync());
  Cross(boundary_.charge_entry, 0);
  return stack_->tcp().Listen(tcp_, backlog);
}

Result<void> Socket::Connect(SockAddrIn remote) {
  DomainLock lock(stack_->sync());
  Cross(boundary_.charge_entry, 0);
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
    Cross(boundary_.charge_entry, 0);
    for (;;) {
      if (closed_) {
        return Err::kBadF;
      }
      child = stack_->tcp().PopAcceptable(tcp_);
      if (child != nullptr) {
        if (peer != nullptr) {
          *peer = child->remote;
        }
        break;
      }
      rcv_cv_.Wait(stack_->sync()->mutex());
    }
  }
  // Construct outside the domain lock (the constructor takes it).
  std::unique_ptr<Socket> sock(new Socket(stack_, IpProto::kTcp, child, nullptr));
  sock->SetBoundary(boundary_);
  stack_->Kick();
  return sock;
}

template <typename MakeChunk>
Result<size_t> Socket::SendLoop(size_t len, const SockAddrIn* to, bool urgent, MakeChunk chunk) {
  DomainLock lock(stack_->sync());
  ProbeSpan span(stack_->env()->obs->tracer, stack_->env()->sim, Stage::kEntryCopyin);
  Cross(boundary_.charge_entry, len);
  stack_->env()->Charge(stack_->env()->prof->sock_send_fixed);
  stack_->sock_stats().sends++;

  if (udp_ != nullptr) {
    if (shutdown_wr_) {
      return Err::kPipe;
    }
    Result<void> r = stack_->udp().Output(udp_, chunk(0, len), to);
    stack_->Kick();  // ARP retries / reassembly timeouts may now be pending
    if (!r.ok()) {
      return r.error();
    }
    return len;
  }

  // TCP byte stream: hand the data to the send buffer in chunks as space
  // allows. A woken waiter whose socket was closed meanwhile gets EBADF.
  size_t sent = 0;
  while (sent < len) {
    Err e = closed_ ? Err::kBadF
            : (shutdown_wr_ || tcp_->cantsendmore) ? Err::kPipe
            : ConsumeError();
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
    Result<void> r = stack_->tcp().UsrSend(tcp_, chunk(sent, take), urgent && sent + take == len);
    stack_->Kick();
    if (!r.ok()) {
      return sent > 0 ? Result<size_t>(sent) : Result<size_t>(r.error());
    }
    sent += take;
  }
  return sent;
}

Result<size_t> Socket::Send(const uint8_t* data, size_t len, const SockAddrIn* to, bool urgent) {
  const StackEnv* env = stack_->env();
  return SendLoop(len, to, urgent, [&](size_t off, size_t take) {
    if (udp_ != nullptr) {
      // A datagram send is synchronous: the stack serializes the data into
      // a frame before returning, so the library placement can reference
      // the caller's buffer instead of copying it (Table 4: UDP library
      // entry/copyin has no per-byte cost).
      if (env->placement == Placement::kLibrary) {
        return Chain::ReferencingRaw(data + off, take);
      }
      env->Charge(static_cast<SimDuration>(take) * env->prof->copy_per_byte + env->prof->mbuf_get);
      return Chain::FromBytes(data + off, take);
    }
    // A stream chunk is copied into mbufs: the copy, then one mbuf each.
    env->Charge(static_cast<SimDuration>(take) * env->prof->copy_per_byte);
    Chain c = Chain::FromBytes(data + off, take);
    env->Charge(env->prof->mbuf_get * c.SegmentCount());
    return c;
  });
}

Result<size_t> Socket::SendShared(std::shared_ptr<const std::vector<uint8_t>> buf, size_t off,
                                  size_t len, const SockAddrIn* to) {
  assert(off + len <= buf->size());
  // No copy: the stack references the shared buffer until acknowledged.
  return SendLoop(len, to, false,
                  [&](size_t at, size_t take) { return Chain::Referencing(buf, off + at, take); });
}

Result<bool> Socket::WaitForData() {
  for (;;) {
    if (closed_) {
      return Err::kBadF;  // closed while this caller waited
    }
    // A datagram socket reports a pending error before its queued
    // datagrams; a stream delivers its buffered bytes first.
    Err e = ConsumeError();
    bool ready = udp_ != nullptr ? udp_->rcv.dgram_count() > 0 : tcp_->rcv.cc() > 0;
    if (e != Err::kOk && (udp_ != nullptr || !ready)) {
      if (tcp_ != nullptr && (e == Err::kConnAborted || e == Err::kConnReset)) {
        tcp_->so_error = Err::kOk;
      }
      return e;
    }
    if (ready) {
      return true;
    }
    if (shutdown_rd_ ||
        (tcp_ != nullptr && (tcp_->cantrcvmore || tcp_->state == TcpState::kClosed))) {
      return false;
    }
    stack_->sock_stats().recv_blocks++;
    rcv_cv_.Wait(stack_->sync()->mutex());
  }
}

Result<size_t> Socket::Recv(uint8_t* out, size_t len, SockAddrIn* from, bool peek) {
  DomainLock lock(stack_->sync());
  stack_->sock_stats().recvs++;
  Result<bool> ready = WaitForData();
  if (!ready.ok()) {
    return ready.error();
  }
  if (!*ready) {
    return size_t{0};  // EOF
  }
  const StackEnv* env = stack_->env();
  ProbeSpan span(env->obs->tracer, env->sim, Stage::kCopyoutExit);
  env->Charge(env->prof->sock_recv_fixed);
  size_t n;
  if (udp_ != nullptr) {
    SockBuf::Dgram taken;
    const SockBuf::Dgram* d = udp_->rcv.PeekDgram();
    if (!peek) {
      udp_->rcv.TakeDgram(&taken);
      d = &taken;
    }
    n = std::min(len, d->data.len());
    env->Charge(static_cast<SimDuration>(n) * env->prof->copy_per_byte);
    d->data.CopyOut(0, out, n);
    if (from != nullptr) {
      *from = d->from;
    }
  } else {
    n = std::min(len, tcp_->rcv.cc());
    env->Charge(static_cast<SimDuration>(n) * env->prof->copy_per_byte);
    if (peek) {
      tcp_->rcv.CopyRange(0, n).CopyOut(0, out, n);
    } else {
      tcp_->rcv.stream().CopyOut(0, out, n);
      tcp_->rcv.Drop(n);
      stack_->tcp().UsrRcvd(tcp_);
    }
  }
  Cross(boundary_.charge_exit, n);
  return n;
}

Result<Chain> Socket::RecvChain(size_t max, SockAddrIn* from) {
  DomainLock lock(stack_->sync());
  // Charged on entry, before any wait (Recv charges it once data is ready).
  stack_->env()->Charge(stack_->env()->prof->sock_recv_fixed);
  stack_->sock_stats().recvs++;
  Result<bool> ready = WaitForData();
  if (!ready.ok()) {
    return ready.error();
  }
  if (!*ready) {
    return Chain();  // EOF
  }
  ProbeSpan span(stack_->env()->obs->tracer, stack_->env()->sim, Stage::kCopyoutExit);
  Chain out;
  if (udp_ != nullptr) {
    SockBuf::Dgram d;
    udp_->rcv.TakeDgram(&d);
    if (from != nullptr) {
      *from = d.from;
    }
    out = std::move(d.data);
    if (out.len() > max) {
      out.TrimBack(out.len() - max);
    }
  } else {
    out = tcp_->rcv.TakeStream(max);
    stack_->tcp().UsrRcvd(tcp_);
  }
  Cross(boundary_.charge_exit, 0);
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
  Cross(boundary_.charge_entry, 0);
  Unhook();  // anything still blocked on this socket wakes to EBADF
  if (udp_ != nullptr) {
    stack_->udp().Destroy(std::exchange(udp_, nullptr));
    return OkResult();
  }
  // BSD close without SO_LINGER: initiate the shutdown handshake and
  // return; the pcb is detached and reaped when it reaches CLOSED.
  TcpPcb* pcb = std::exchange(tcp_, nullptr);
  Result<void> r = stack_->tcp().UsrClose(pcb);
  pcb->detached = true;
  if (pcb->state == TcpState::kClosed) {
    stack_->tcp().Destroy(pcb);
  } else {
    stack_->Kick();
  }
  return r;
}

Result<void> Socket::SetOpt(SockOpt opt, size_t value) {
  if (tcp_ == nullptr && (opt == SockOpt::kNoDelay || opt == SockOpt::kKeepAlive)) {
    return Err::kOpNotSupp;
  }
  DomainLock lock(stack_->sync());
  switch (opt) {
    case SockOpt::kRcvBuf:
      (tcp_ != nullptr ? tcp_->rcv : udp_->rcv).set_hiwat(value);
      break;
    case SockOpt::kSndBuf:
      if (tcp_ != nullptr) {
        tcp_->snd.set_hiwat(value);
      } else {
        udp_->snd_limit = value;
      }
      break;
    case SockOpt::kNoDelay:
      tcp_->nodelay = value != 0;
      break;
    case SockOpt::kKeepAlive:
      tcp_->keepalive = value != 0;
      break;
  }
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
  closed_ = true;
  Unhook();
  return std::exchange(tcp_, nullptr);
}

UdpPcb* Socket::DetachUdpPcb() {
  DomainLock lock(stack_->sync());
  PollDetachAll();
  closed_ = true;
  Unhook();
  return std::exchange(udp_, nullptr);
}

}  // namespace psd
