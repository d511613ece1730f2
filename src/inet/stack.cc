#include "src/inet/stack.h"

#include "src/base/log.h"
#include "src/obs/stats.h"

namespace psd {

namespace {
constexpr SimDuration kFastPeriod = Millis(200);
constexpr SimDuration kSlowPeriod = Millis(500);
}  // namespace

Stack::Stack(const StackParams& params)
    : name_(params.name),
      sync_(params.sim, params.sync_pair_cost),
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
  if (params.with_arp) {
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
      ether_bad_frames_++;
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
  reg->RegisterGauge(prefix + "ether.unresolved_drops",
                     [this] { return ether_.unresolved_drops(); });
  reg->RegisterGauge(prefix + "ether.bad_frames", [this] { return ether_bad_frames_; });
  if (arp_ != nullptr) {
    reg->RegisterGauge(prefix + "arp.requests_sent", [this] { return arp_->requests_sent(); });
    reg->RegisterGauge(prefix + "arp.replies_sent", [this] { return arp_->replies_sent(); });
  }

  // IP.
  reg->RegisterGauge(prefix + "ip.sent", [this] { return ip_.stats().sent; });
  reg->RegisterGauge(prefix + "ip.received", [this] { return ip_.stats().received; });
  reg->RegisterGauge(prefix + "ip.delivered", [this] { return ip_.stats().delivered; });
  reg->RegisterGauge(prefix + "ip.bad_checksum", [this] { return ip_.stats().bad_checksum; });
  reg->RegisterGauge(prefix + "ip.bad_header", [this] { return ip_.stats().bad_header; });
  reg->RegisterGauge(prefix + "ip.not_ours", [this] { return ip_.stats().not_ours; });
  reg->RegisterGauge(prefix + "ip.no_route", [this] { return ip_.stats().no_route; });
  reg->RegisterGauge(prefix + "ip.no_proto", [this] { return ip_.stats().no_proto; });
  reg->RegisterGauge(prefix + "ip.fragments_sent", [this] { return ip_.stats().fragments_sent; });
  reg->RegisterGauge(prefix + "ip.fragments_received",
                     [this] { return ip_.stats().fragments_received; });
  reg->RegisterGauge(prefix + "ip.reassembled", [this] { return ip_.stats().reassembled; });
  reg->RegisterGauge(prefix + "ip.reassembly_timeouts",
                     [this] { return ip_.stats().reassembly_timeouts; });

  // UDP.
  reg->RegisterGauge(prefix + "udp.sent", [this] { return udp_.stats().sent; });
  reg->RegisterGauge(prefix + "udp.received", [this] { return udp_.stats().received; });
  reg->RegisterGauge(prefix + "udp.bad_checksum", [this] { return udp_.stats().bad_checksum; });
  reg->RegisterGauge(prefix + "udp.no_port", [this] { return udp_.stats().no_port; });
  reg->RegisterGauge(prefix + "udp.full_drops", [this] { return udp_.stats().full_drops; });

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
  reg->RegisterGauge(prefix + "tcp.bad_checksum", [this] { return tcp_.stats().bad_checksum; });
  reg->RegisterGauge(prefix + "tcp.out_of_order", [this] { return tcp_.stats().out_of_order; });
  reg->RegisterGauge(prefix + "tcp.dropped_no_pcb", [this] { return tcp_.stats().dropped_no_pcb; });
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
}

void Stack::Kick() {
  if (timer_idle_) {
    timer_kick_.NotifyOne();
  }
}

bool Stack::TimersNeeded(bool* fast_needed) const {
  // FastTick only sends delayed ACKs, and tcp_input arms one only on an
  // ESTABLISHED pcb: with neither present the fast grid points are no-ops.
  *fast_needed = false;
  bool needed = false;
  for (const auto& p : tcp_.pcbs()) {
    if (p->state == TcpState::kEstablished || p->delack) {
      *fast_needed = true;
      return true;
    }
    if ((p->state != TcpState::kClosed && p->state != TcpState::kListen) ||
        (p->detached && p->state == TcpState::kClosed)) {
      needed = true;
    }
  }
  if (needed) {
    return true;
  }
  if (ip_.stats().fragments_received > ip_.stats().reassembled + ip_.stats().reassembly_timeouts) {
    return true;
  }
  return arp_ != nullptr && arp_->HasPendingWork();
}

void Stack::TimerThreadBody() {
  SimThread* self = env_.sim->current_thread();
  SimTime next_fast = env_.sim->Now() + kFastPeriod;
  SimTime next_slow = env_.sim->Now() + kSlowPeriod;
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
      next_fast = env_.sim->Now() + kFastPeriod;
      next_slow = env_.sim->Now() + kSlowPeriod;
      // A kick still visits its first fast point: skipping it, and with it
      // that wake's two sync-pair charges, moved Table 2.
      fast_needed = true;
    }
    if (fast_needed) {
      self->SleepUntil(std::min(next_fast, next_slow));
    } else {
      // Wait for the slow tick unless InputFrame arms a delayed ACK first.
      // Either way the fast grid moves past the points skipped meanwhile,
      // so an armed ACK still leaves at the next one, as it would have had
      // every point been visited. No lock is taken on the way.
      timer_acks_delayed_ = tcp_.stats().acks_delayed;
      timer_skips_fast_ = true;
      bool armed = self->WaitOn(&timer_kick_, next_slow);
      timer_skips_fast_ = false;
      while (next_fast <= env_.sim->Now()) {
        next_fast += kFastPeriod;
      }
      if (armed) {
        self->SleepUntil(std::min(next_fast, next_slow));
      }
    }
    DomainLock lock(&sync_);
    if (env_.sim->Now() >= next_fast) {
      tcp_.FastTick();
      next_fast += kFastPeriod;
    }
    if (env_.sim->Now() >= next_slow) {
      tcp_.SlowTick();
      ip_.SlowTick();
      if (arp_ != nullptr) {
        arp_->SlowTick();
      }
      next_slow += kSlowPeriod;
    }
  }
}

}  // namespace psd
