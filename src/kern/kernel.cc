#include "src/kern/kernel.h"

#include <cassert>

#include "src/base/log.h"
#include "src/obs/pcap.h"
#include "src/obs/stats.h"
#include "src/obs/trace.h"

namespace psd {

// Bytes of header the integrated packet filter inspects in device memory
// before deciding a packet's destination: Ethernet (14) + IP (20) + ports.
constexpr size_t kIpfPeekBytes = 38;

Kernel::Kernel(Simulator* sim, Observatory* obs, HostCpu* cpu, Nic* nic,
               const MachineProfile* prof, std::string name)
    : sim_(sim),
      obs_(obs),
      cpu_(cpu),
      nic_(nic),
      prof_(prof),
      name_(std::move(name)),
      node_(&obs->journey, name_),
      deliver_node_(&obs->journey, name_ + "/deliver"),
      ipf_deliver_node_(&obs->journey, name_ + "/ipf-deliver"),
      rx_wq_(sim) {
  nic_->SetRxNotify([this] { rx_wq_.NotifyOne(); });
  intr_thread_ = sim_->Spawn(name_ + "/intr", cpu_, [this] { IntrThreadBody(); });
}

Kernel::~Kernel() {
  if (intr_thread_ != nullptr && !sim_->shutting_down()) {
    sim_->KillThread(intr_thread_);
  }
}

uint64_t Kernel::InstallFilter(FilterProgram prog, int priority, DeliveryEndpoint ep,
                               const FlowSpec* flow) {
  uint64_t id = flow != nullptr ? engine_.Install(std::move(prog), priority, *flow)
                                : engine_.Install(std::move(prog), priority);
  if (id != 0) {
    endpoints_[id] = ep;
    ipf_endpoints_ += ep.kind == DeliverKind::kShmIpf ? 1 : 0;
    obs_->meta.Count(MetaEvent::kFilterInstall);
  }
  return id;
}

void Kernel::RemoveFilter(uint64_t id) {
  engine_.Remove(id);
  auto it = endpoints_.find(id);
  if (it != endpoints_.end()) {
    ipf_endpoints_ -= it->second.kind == DeliverKind::kShmIpf ? 1 : 0;
    endpoints_.erase(it);
    obs_->meta.Count(MetaEvent::kFilterRemove);
  }
}

PacketQueue* Kernel::MakeQueueEndpoint(std::string name, SimDuration signal_cost,
                                       size_t capacity) {
  queues_.push_back(
      std::make_unique<PacketQueue>(sim_, obs_, std::move(name), capacity, signal_cost));
  return queues_.back().get();
}

void Kernel::ExportStats(StatsRegistry* reg, const std::string& prefix) const {
  reg->RegisterGauge(prefix + "rx_delivered", [this] { return rx_delivered_; });
  reg->RegisterGauge(prefix + "filter_insns", [this] { return filter_insns_; });
  reg->RegisterGauge(prefix + "demux_classifies", [this] { return demux_classifies_; });
  reg->RegisterGauge(prefix + "rx_flow_hits", [this] { return rx_flow_hits_; });
  obs_->drops.ExportNodeStats(reg, prefix + "drops.", &node_, DropReason::kNoFilterMatch,
                              DropReason::kFilterRemoved);
  obs_->drops.ExportNodeStats(reg, prefix + "nic.drops.", &nic_->node(),
                              DropReason::kNicRingOverflow, DropReason::kNicRingOverflow);
  // Per-queue delivery gauges: depth, drops and the high watermark that
  // sizes capacities.
  for (const auto& q : queues_) {
    PacketQueue* pq = q.get();
    obs_->drops.ExportNodeStats(reg, prefix + pq->name() + ".drops.", &pq->node(),
                                DropReason::kQueueOverflow, DropReason::kCrashCleanup);
    reg->RegisterGauge(prefix + pq->name() + ".depth",
                       [pq] { return static_cast<uint64_t>(pq->size()); });
    reg->RegisterGauge(prefix + pq->name() + ".high_watermark",
                       [pq] { return pq->high_watermark(); });
  }
}

void Kernel::NetSendFromUser(Frame frame) {
  SimThread* self = sim_->current_thread();
  assert(self != nullptr);
  // Trap boundary: user -> kernel crossing for the raw packet send.
  TraceSpan span(obs_->tracer, sim_, "trap/net_send", TraceLayer::kKern);
  self->Charge(prof_->trap);
  // Copy from user space into a wired kernel buffer (pooled).
  Frame wired(frame);
  self->Charge(static_cast<SimDuration>(wired.size()) * prof_->copy_per_byte);
  nic_->Transmit(std::move(wired));
}

void Kernel::NetSendWired(Frame frame) { nic_->Transmit(std::move(frame)); }

void Kernel::IntrThreadBody() {
  SimThread* self = sim_->current_thread();
  for (;;) {
    while (nic_->RxPending()) {
      DeliverFrame();
    }
    self->WaitOn(&rx_wq_);
  }
}

namespace {

// kIpc delivery: one message per packet. The packet id crosses the port out
// of band (the payload vector carries no Frame metadata). The message
// borrows the frame's pooled buffer for Send's one copy and hands it back,
// so ~Frame parks it in FramePool.
void PostPacket(Port* port, Frame f) {
  IpcMessage msg;
  msg.kind = kMsgPacketDelivery;
  msg.arg[5] = f.pkt_id;
  msg.payload.swap(f);
  port->Send(msg);
  msg.payload.swap(f);
}

}  // namespace

FilterEngine::MatchResult Kernel::Classify(const Frame& f) {
  ProbeSpan span(obs_->tracer, sim_, Stage::kNetisrFilter);
  FilterEngine::MatchResult m = engine_.Match(f.data(), f.size());
  // Zero-width span (Match charges nothing): which demux path resolved
  // the frame, and to which filter.
  obs_->tracer.Emit(sim_, m.via_flow_table ? "filter/classify" : "filter/vm_scan",
                    TraceLayer::kFilter, /*stage=*/-1, sim_->Now(), /*dur=*/0, m.id);
  filter_insns_ += static_cast<uint64_t>(m.insns_executed);
  demux_classifies_ += static_cast<uint64_t>(m.classify_ops);
  if (m.via_flow_table) {
    rx_flow_hits_++;
  }
  // Indexed classifications charge demux_classify; any programs the
  // engine still had to interpret keep per-instruction charging.
  sim_->current_thread()->Charge(prof_->filter_fixed + m.insns_executed * prof_->filter_per_insn +
                                 m.classify_ops * prof_->demux_classify);
  return m;
}

const DeliveryEndpoint* Kernel::Resolve(const FilterEngine::MatchResult& m, const Frame& f,
                                        JourneyNode& node) {
  if (m.id == 0) {
    obs_->drops.Record(f.pkt_id, TraceLayer::kFilter, DropReason::kNoFilterMatch, sim_->Now(),
                       node_.id());
    return nullptr;
  }
  auto epit = endpoints_.find(m.id);
  if (epit == endpoints_.end()) {
    // The filter was removed while this frame was in flight (session
    // migration handover); drop, retransmission recovers.
    obs_->drops.Record(f.pkt_id, TraceLayer::kFilter, DropReason::kFilterRemoved, sim_->Now(),
                       node_.id());
    return nullptr;
  }
  obs_->journey.Hop(f.pkt_id, TraceLayer::kKern, node.id(), sim_->Now());
  if (pcap_ != nullptr) {
    pcap_->CaptureFrame(sim_->Now(), f);
  }
  return &epit->second;
}

void Kernel::DeliverFrame() {
  SimThread* self = sim_->current_thread();
  // With any integrated-filter endpoint installed, the filter examines
  // headers in device memory and the copy is deferred until the
  // destination is known. Otherwise the driver copies the whole frame into
  // a wired kernel buffer first and the filter runs on that copy.
  if (ipf_endpoints_ > 0) {
    FilterEngine::MatchResult m;
    {
      ProbeSpan span(obs_->tracer, sim_, Stage::kDevIntrRead);
      self->Charge(prof_->intr_fixed);
    }
    {
      const Frame& head = nic_->RxHead();
      // Header peek reads device memory.
      size_t peek = std::min(head.size(), kIpfPeekBytes);
      self->Charge(static_cast<SimDuration>(peek) * nic_->params().rx_read_per_byte);
      m = Classify(head);
    }
    Frame f = nic_->RxPop();
    const DeliveryEndpoint* ep = Resolve(m, f, ipf_deliver_node_);
    if (ep == nullptr) {
      return;
    }
    ProbeSpan span(obs_->tracer, sim_, Stage::kKernelCopyout);
    // Single copy: device memory straight into the destination domain.
    self->Charge(static_cast<SimDuration>(f.size()) * nic_->params().rx_read_per_byte);
    if (ep->kind == DeliverKind::kIpc) {
      PostPacket(ep->port, std::move(f));
    } else {
      ep->queue->Push(std::move(f));
    }
    rx_delivered_++;
    return;
  }

  // Copy-then-filter path.
  Frame f;
  {
    ProbeSpan span(obs_->tracer, sim_, Stage::kDevIntrRead);
    self->Charge(prof_->intr_fixed);
    // Copy the whole frame out of device memory into a wired kernel buffer.
    const Frame& head = nic_->RxHead();
    self->Charge(static_cast<SimDuration>(head.size()) * nic_->params().rx_read_per_byte);
    f = nic_->RxPop();
  }
  const DeliveryEndpoint* ep = Resolve(Classify(f), f, deliver_node_);
  if (ep == nullptr) {
    return;
  }
  switch (ep->kind) {
    case DeliverKind::kDirect:
      // In-kernel stack: the netisr queue holds the kernel buffer directly.
      ep->queue->Push(std::move(f));
      break;
    case DeliverKind::kShm:
    case DeliverKind::kShmIpf: {
      // kShmIpf can land here when the integrated endpoint was installed
      // after this frame entered the copy path (session-filter handover
      // mid-delivery); the frame is already in a kernel buffer, so it
      // takes the same copy into the shared ring as kShm.
      ProbeSpan span(obs_->tracer, sim_, Stage::kKernelCopyout);
      // Kernel buffer -> shared-memory ring.
      self->Charge(static_cast<SimDuration>(f.size()) * prof_->copy_per_byte);
      Frame shared(f);  // pooled copy
      ep->queue->Push(std::move(shared));
      break;
    }
    case DeliverKind::kIpc: {
      ProbeSpan span(obs_->tracer, sim_, Stage::kKernelCopyout);
      PostPacket(ep->port, std::move(f));
      break;
    }
  }
  rx_delivered_++;
}

}  // namespace psd
