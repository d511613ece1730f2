#include "src/inet/stack.h"

#include <algorithm>

#include "src/base/log.h"
#include "src/obs/stats.h"

namespace psd {

namespace {
constexpr SimDuration kFastPeriod = Millis(200);
constexpr SimDuration kSlowPeriod = Millis(500);
}  // namespace

Stack::Stack(const StackParams& params)
    : name_(params.name),
      sync_(params.sim, params.placement == Placement::kKernel   ? params.prof->sync_spl_hw
                        : params.placement == Placement::kServer ? params.prof->sync_spl_emulated
                                                                 : params.prof->sync_lib_lock),
      env_{params.sim,
           params.cpu,
           params.prof,
           params.placement,
           &sync_,
           params.obs,
           params.send_frame,
           /*cur_rx_pkt=*/0,
           JourneyNode(&params.obs->journey, name_),
           JourneyNode(&params.obs->journey, name_ + "/tx")},
      ether_(&env_, params.mac),
      routes_(&params.obs->meta),
      ports_(&params.obs->meta),
      ip_(&env_, &ether_, &routes_, params.ip),
      icmp_(&env_, &ip_),
      udp_(&env_, &ip_, &icmp_, &ports_),
      tcp_(&env_, &ip_, &ports_),
      timer_kick_(params.sim) {
  // A library stack resolves through the OS server's ARP (§3.3).
  if (params.placement != Placement::kLibrary) {
    arp_ = std::make_unique<ArpLayer>(&env_, &ether_, params.ip);
    ether_.SetResolver(arp_.get());
  }
  timer_thread_ = params.sim->Spawn(name_ + "/timer", params.cpu, [this] { TimerThreadBody(); });
}

Stack::~Stack() {
  if (timer_thread_ != nullptr && !env_.sim->shutting_down()) {
    env_.sim->KillThread(timer_thread_);
  }
}

void Stack::InputFrame(const Frame& frame) {
  DomainLock lock(&sync_);
  frames_in_++;
  env_.cur_rx_pkt = frame.pkt_id;
  env_.obs->journey.Hop(frame.pkt_id, TraceLayer::kInet, env_.node.id(), env_.Now());
  {
    ProbeSpan span(env_.obs->tracer, env_.sim, Stage::kNetisrFilter);
    env_.Charge(env_.prof->netisr_fixed);
  }
  EtherLayer::RxFrame rx;
  {
    // Package the frame into an mbuf chain and hand it up (Table 4's
    // "mbuf/queue" row; on the in-kernel stack this happens inside netisr
    // processing and the table reports it there).
    Stage stage = env_.placement == Placement::kKernel ? Stage::kNetisrFilter : Stage::kMbufQueue;
    ProbeSpan span(env_.obs->tracer, env_.sim, stage);
    env_.Charge(env_.prof->sbqueue_fixed);
    env_.sync->ChargeSyncPair();
    if (!EtherLayer::Parse(frame, &rx)) {
      env_.Drop(env_.cur_rx_pkt, TraceLayer::kInet, DropReason::kEtherBadFrame);
      env_.cur_rx_pkt = 0;
      return;
    }
  }
  if (rx.ethertype == kEtherTypeArp) {
    if (arp_ != nullptr) {
      arp_->Input(std::move(rx.payload));
    }
  } else if (rx.ethertype == kEtherTypeIpv4) {
    ip_.Input(std::move(rx.payload));
  } else {
    env_.Drop(env_.cur_rx_pkt, TraceLayer::kInet, DropReason::kEtherUnknownType);
  }
  // Whatever the protocols did not explicitly deliver or drop was absorbed
  // here: pure ACKs, ARP traffic, handshake segments, ICMP, fragments
  // parked in reassembly. One catch-all keeps the conservation law exact.
  env_.obs->journey.ConsumeIfOpen(env_.cur_rx_pkt, TraceLayer::kInet, env_.node.id(),
                                  env_.Now());
  env_.cur_rx_pkt = 0;
  // Activity may have armed timers.
  if (timer_idle_ || (timer_skips_fast_ && tcp_.stats().acks_delayed != timer_acks_delayed_)) {
    timer_kick_.NotifyOne();
  }
}

void Stack::ExportStats(StatsRegistry* reg, const std::string& prefix) const {
  reg->RegisterGauge(prefix + "frames_in", [this] { return frames_in_; });

  // Ethernet / ARP.
  reg->RegisterGauge(prefix + "ether.tx_frames", [this] { return ether_.tx_frames(); });
  if (arp_ != nullptr) {
    reg->RegisterGauge(prefix + "arp.requests_sent", [this] { return arp_->requests_sent(); });
    reg->RegisterGauge(prefix + "arp.replies_sent", [this] { return arp_->replies_sent(); });
  }

  // IP.
  reg->RegisterGauge(prefix + "ip.sent", [this] { return ip_.stats().sent; });
  reg->RegisterGauge(prefix + "ip.received", [this] { return ip_.stats().received; });
  reg->RegisterGauge(prefix + "ip.delivered", [this] { return ip_.stats().delivered; });
  reg->RegisterGauge(prefix + "ip.fragments_sent", [this] { return ip_.stats().fragments_sent; });
  reg->RegisterGauge(prefix + "ip.fragments_received",
                     [this] { return ip_.stats().fragments_received; });
  reg->RegisterGauge(prefix + "ip.reassembled", [this] { return ip_.stats().reassembled; });

  // UDP.
  reg->RegisterGauge(prefix + "udp.sent", [this] { return udp_.stats().sent; });
  reg->RegisterGauge(prefix + "udp.received", [this] { return udp_.stats().received; });

  // TCP.
  reg->RegisterGauge(prefix + "tcp.segs_sent", [this] { return tcp_.stats().segs_sent; });
  reg->RegisterGauge(prefix + "tcp.segs_received", [this] { return tcp_.stats().segs_received; });
  reg->RegisterGauge(prefix + "tcp.data_segs_sent", [this] { return tcp_.stats().data_segs_sent; });
  reg->RegisterGauge(prefix + "tcp.bytes_sent", [this] { return tcp_.stats().bytes_sent; });
  reg->RegisterGauge(prefix + "tcp.bytes_received", [this] { return tcp_.stats().bytes_received; });
  reg->RegisterGauge(prefix + "tcp.retransmits", [this] { return tcp_.stats().retransmits; });
  reg->RegisterGauge(prefix + "tcp.fast_retransmits",
                     [this] { return tcp_.stats().fast_retransmits; });
  reg->RegisterGauge(prefix + "tcp.rexmt_timeouts", [this] { return tcp_.stats().rexmt_timeouts; });
  reg->RegisterGauge(prefix + "tcp.dup_acks", [this] { return tcp_.stats().dup_acks; });
  reg->RegisterGauge(prefix + "tcp.acks_received", [this] { return tcp_.stats().acks_received; });
  reg->RegisterGauge(prefix + "tcp.acks_delayed", [this] { return tcp_.stats().acks_delayed; });
  reg->RegisterGauge(prefix + "tcp.window_updates", [this] { return tcp_.stats().window_updates; });
  reg->RegisterGauge(prefix + "tcp.out_of_order", [this] { return tcp_.stats().out_of_order; });
  reg->RegisterGauge(prefix + "tcp.rsts_sent", [this] { return tcp_.stats().rsts_sent; });
  reg->RegisterGauge(prefix + "tcp.conns_established",
                     [this] { return tcp_.stats().conns_established; });
  reg->RegisterGauge(prefix + "tcp.conns_dropped", [this] { return tcp_.stats().conns_dropped; });
  reg->RegisterGauge(prefix + "tcp.persist_probes", [this] { return tcp_.stats().persist_probes; });
  reg->RegisterGauge(prefix + "tcp.keepalive_probes",
                     [this] { return tcp_.stats().keepalive_probes; });

  // Socket layer.
  reg->RegisterGauge(prefix + "sock.sends", [this] { return sock_stats_.sends; });
  reg->RegisterGauge(prefix + "sock.recvs", [this] { return sock_stats_.recvs; });
  reg->RegisterGauge(prefix + "sock.send_blocks", [this] { return sock_stats_.send_blocks; });
  reg->RegisterGauge(prefix + "sock.recv_blocks", [this] { return sock_stats_.recv_blocks; });
  reg->RegisterGauge(prefix + "sock.wakeups", [this] { return sock_stats_.wakeups; });

  // Every drop in this stack, from ether up to the socket buffers.
  env_.obs->drops.ExportNodeStats(reg, prefix + "drops.", &env_.node, DropReason::kEtherBadFrame,
                                  DropReason::kTcpAfterClose);
}

void Stack::Kick() {
  if (timer_idle_) {
    timer_kick_.NotifyOne();
  }
}

Stack::PcbTimerScan Stack::ScanPcbs() const {
  // FastTick only sends delayed ACKs, and tcp_input arms one only on an
  // ESTABLISHED pcb: with neither present the fast grid points are no-ops.
  PcbTimerScan s;
  for (const auto& p : tcp_.pcbs()) {
    if (p->state == TcpState::kEstablished || p->delack) {
      s.fast = true;
      return s;
    }
    if (p->state == TcpState::kClosed || p->state == TcpState::kListen) {
      // SlowTick reaps a detached CLOSED pcb and skips the rest of these.
      if (p->detached && p->state == TcpState::kClosed) {
        s.slow = s.fires = true;
      }
      continue;
    }
    s.slow = true;
    for (int t : p->t_timer) {
      s.fires |= t != 0 && t <= 1;  // SlowTick's countdown reaches 0
    }
  }
  return s;
}

bool Stack::OtherTimersNeeded() const {
  return ip_.reassembling() || (arp_ != nullptr && arp_->HasPendingWork());
}

bool Stack::TimersNeeded(bool* fast_needed) const {
  PcbTimerScan s = ScanPcbs();
  *fast_needed = s.fast;
  return s.fast || s.slow || OtherTimersNeeded();
}

void Stack::SkipPassedFastPoints() {
  while (next_fast_ <= env_.sim->Now()) {
    next_fast_ += kFastPeriod;
  }
}

void Stack::Tick() {
  if (env_.sim->Now() >= next_fast_) {
    tcp_.FastTick();
    next_fast_ += kFastPeriod;
  }
  if (env_.sim->Now() >= next_slow_) {
    tcp_.SlowTick();
    ip_.SlowTick();
    if (arp_ != nullptr) {
      arp_->SlowTick();
    }
    next_slow_ += kSlowPeriod;
  }
}

std::optional<SimTime> Stack::TryIdleSlowTick() {
  // At the slow deadline T, the parked timer thread would take the domain
  // lock (a sync-pair charge ending at end1, its wakeup elided), tick, and
  // take the lock again (ending at end2) to find only slow timers left,
  // then wait for the next slow tick. When that tick only counts down, no
  // one else can run before end2 and no fast point falls in between, the
  // same charges, elisions and tick are made here instead.
  const SimDuration pair = sync_.pair_cost();
  if (pair <= 0 || !sync_.mutex()->idle()) {
    return std::nullopt;
  }
  SkipPassedFastPoints();
  const SimTime end1 = std::max(env_.Now(), env_.cpu->free_at()) + pair;
  if (end1 >= next_fast_ || !env_.sim->CanElideWakeup(end1 + pair)) {
    return std::nullopt;
  }
  // Re-read now: input since the wait began can have made a pcb
  // ESTABLISHED, closed one or armed its timers.
  PcbTimerScan s = ScanPcbs();
  if (s.fast || s.fires || !(s.slow || OtherTimersNeeded()) || ip_.SlowTickDue(end1) ||
      (arp_ != nullptr && arp_->SlowTickDue(end1))) {
    return std::nullopt;
  }
  auto charge_sync_pair = [&] {
    SimTime end = env_.cpu->Acquire(env_.Now(), pair);
    env_.cpu->AccountBusy(pair);
    env_.sim->ElideWakeup(end);
  };
  charge_sync_pair();
  Tick();
  charge_sync_pair();
  timer_acks_delayed_ = tcp_.stats().acks_delayed;
  return next_slow_;
}

void Stack::TimerThreadBody() {
  SimThread* self = env_.sim->current_thread();
  next_fast_ = env_.sim->Now() + kFastPeriod;
  next_slow_ = env_.sim->Now() + kSlowPeriod;
  for (;;) {
    bool fast_needed = false;
    {
      DomainLock lock(&sync_);
      if (!TimersNeeded(&fast_needed)) {
        timer_idle_ = true;
      }
    }
    if (timer_idle_) {
      self->WaitOn(&timer_kick_);
      timer_idle_ = false;
      next_fast_ = env_.sim->Now() + kFastPeriod;
      next_slow_ = env_.sim->Now() + kSlowPeriod;
      // A kick still visits its first fast point: skipping it, and with it
      // that wake's two sync-pair charges, moved Table 2.
      fast_needed = true;
    }
    if (fast_needed) {
      self->SleepUntil(std::min(next_fast_, next_slow_));
    } else {
      // Wait for the slow tick unless InputFrame arms a delayed ACK first.
      // Either way the fast grid moves past the points skipped meanwhile,
      // so an armed ACK still leaves at the next one, as it would have had
      // every point been visited. No lock is taken on the way. Slow ticks
      // that only count down run in event context (TryIdleSlowTick), and
      // the wait goes on.
      timer_acks_delayed_ = tcp_.stats().acks_delayed;
      timer_skips_fast_ = true;
      bool armed = self->WaitOn(&timer_kick_, next_slow_, &idle_slow_tick_);
      timer_skips_fast_ = false;
      SkipPassedFastPoints();
      if (armed) {
        self->SleepUntil(std::min(next_fast_, next_slow_));
      }
    }
    DomainLock lock(&sync_);
    Tick();
  }
}

}  // namespace psd
