#include "src/kern/kernel.h"

#include <cassert>

#include "src/base/log.h"
#include "src/obs/journey.h"
#include "src/obs/metastate.h"
#include "src/obs/pcap.h"
#include "src/obs/stats.h"
#include "src/obs/trace.h"

namespace psd {

// Bytes of header the integrated packet filter inspects in device memory
// before deciding a packet's destination: Ethernet (14) + IP (20) + ports.
constexpr size_t kIpfPeekBytes = 38;

Kernel::Kernel(Simulator* sim, HostCpu* cpu, Nic* nic, const MachineProfile* prof,
               std::string name)
    : sim_(sim),
      cpu_(cpu),
      nic_(nic),
      prof_(prof),
      name_(std::move(name)),
      deliver_node_(name_ + "/deliver"),
      ipf_deliver_node_(name_ + "/ipf-deliver"),
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
    MetastateLedger::Get().Count(MetaEvent::kFilterInstall);
  }
  return id;
}

void Kernel::RemoveFilter(uint64_t id) {
  engine_.Remove(id);
  if (endpoints_.erase(id) > 0) {
    MetastateLedger::Get().Count(MetaEvent::kFilterRemove);
  }
}

PacketQueue* Kernel::MakeQueueEndpoint(std::string name, SimDuration signal_cost,
                                       size_t capacity) {
  queues_.push_back(std::make_unique<PacketQueue>(sim_, std::move(name), capacity, signal_cost));
  return queues_.back().get();
}

void Kernel::ExportStats(StatsRegistry* reg, const std::string& prefix) const {
  reg->RegisterGauge(prefix + "rx_delivered", [this] { return rx_delivered_; });
  reg->RegisterGauge(prefix + "rx_unmatched", [this] { return rx_unmatched_; });
  reg->RegisterGauge(prefix + "filter_insns", [this] { return filter_insns_; });
  reg->RegisterGauge(prefix + "demux_classifies", [this] { return demux_classifies_; });
  reg->RegisterGauge(prefix + "rx_flow_hits", [this] { return rx_flow_hits_; });
  // Per-queue delivery gauges: depth and drops were previously only visible
  // inside the PacketQueue object; the high-watermark sizes capacities.
  for (const auto& q : queues_) {
    PacketQueue* pq = q.get();
    reg->RegisterGauge(prefix + pq->name() + ".dropped", [pq] { return pq->dropped(); });
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
  TraceSpan span(tracer_, sim_, "trap/net_send", TraceLayer::kKern);
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

void Kernel::DeliverFrame() {
  SimThread* self = sim_->current_thread();
  // With any integrated-filter endpoint installed, the filter examines
  // headers in device memory and the copy is deferred until the
  // destination is known. Otherwise the driver copies the whole frame into
  // a wired kernel buffer first and the filter runs on that copy.
  bool integrated = false;
  for (const auto& [id, ep] : endpoints_) {
    if (ep.kind == DeliverKind::kShmIpf) {
      integrated = true;
      break;
    }
  }

  auto run_filter = [&](const Frame& f) -> FilterEngine::MatchResult {
    ProbeSpan span(tracer_, sim_, Stage::kNetisrFilter);
    FilterEngine::MatchResult m = engine_.Match(f.data(), f.size());
    filter_insns_ += static_cast<uint64_t>(m.insns_executed);
    demux_classifies_ += static_cast<uint64_t>(m.classify_ops);
    if (m.via_flow_table) {
      rx_flow_hits_++;
    }
    // Indexed classifications charge demux_classify; any programs the
    // engine still had to interpret keep per-instruction charging.
    self->Charge(prof_->filter_fixed + m.insns_executed * prof_->filter_per_insn +
                 m.classify_ops * prof_->demux_classify);
    return m;
  };

  if (integrated) {
    FilterEngine::MatchResult m;
    {
      ProbeSpan span(tracer_, sim_, Stage::kDevIntrRead);
      self->Charge(prof_->intr_fixed);
    }
    {
      const Frame& head = nic_->RxHead();
      // Header peek reads device memory.
      size_t peek = std::min(head.size(), kIpfPeekBytes);
      self->Charge(static_cast<SimDuration>(peek) * nic_->params().rx_read_per_byte);
      m = run_filter(head);
    }
    Frame f = nic_->RxPop();
    if (m.id == 0) {
      rx_unmatched_++;
      DropLedger::Get().Record(f.pkt_id, TraceLayer::kFilter, DropReason::kNoFilterMatch,
                               sim_->Now(), name_);
      return;
    }
    auto epit = endpoints_.find(m.id);
    if (epit == endpoints_.end()) {
      // The filter was removed while this frame was in flight (session
      // migration handover); drop, retransmission recovers.
      rx_unmatched_++;
      DropLedger::Get().Record(f.pkt_id, TraceLayer::kFilter, DropReason::kFilterRemoved,
                               sim_->Now(), name_);
      return;
    }
    PacketJourney::Get().Hop(f.pkt_id, TraceLayer::kKern, ipf_deliver_node_.id(), sim_->Now());
    const DeliveryEndpoint& ep = epit->second;
    if (pcap_ != nullptr) {
      pcap_->CaptureFrame(sim_->Now(), f);
    }
    ProbeSpan span(tracer_, sim_, Stage::kKernelCopyout);
    // Single copy: device memory straight into the destination domain.
    self->Charge(static_cast<SimDuration>(f.size()) * nic_->params().rx_read_per_byte);
    switch (ep.kind) {
      case DeliverKind::kShmIpf:
      case DeliverKind::kShm:
      case DeliverKind::kDirect:
        ep.queue->Push(std::move(f));
        break;
      case DeliverKind::kIpc: {
        IpcMessage msg;
        msg.kind = kMsgPacketDelivery;
        msg.arg[5] = f.pkt_id;  // ids survive the port crossing out of band
        msg.payload = std::move(f);
        ep.port->Send(std::move(msg));
        break;
      }
    }
    rx_delivered_++;
    return;
  }

  // Copy-then-filter path.
  Frame f;
  {
    ProbeSpan span(tracer_, sim_, Stage::kDevIntrRead);
    self->Charge(prof_->intr_fixed);
    // Copy the whole frame out of device memory into a wired kernel buffer.
    const Frame& head = nic_->RxHead();
    self->Charge(static_cast<SimDuration>(head.size()) * nic_->params().rx_read_per_byte);
    f = nic_->RxPop();
  }
  FilterEngine::MatchResult m = run_filter(f);
  if (m.id == 0) {
    rx_unmatched_++;
    DropLedger::Get().Record(f.pkt_id, TraceLayer::kFilter, DropReason::kNoFilterMatch,
                             sim_->Now(), name_);
    return;
  }
  auto epit = endpoints_.find(m.id);
  if (epit == endpoints_.end()) {
    rx_unmatched_++;
    DropLedger::Get().Record(f.pkt_id, TraceLayer::kFilter, DropReason::kFilterRemoved,
                             sim_->Now(), name_);
    return;
  }
  PacketJourney::Get().Hop(f.pkt_id, TraceLayer::kKern, deliver_node_.id(), sim_->Now());
  const DeliveryEndpoint& ep = epit->second;
  if (pcap_ != nullptr) {
    pcap_->CaptureFrame(sim_->Now(), f);
  }
  switch (ep.kind) {
    case DeliverKind::kDirect:
      // In-kernel stack: the netisr queue holds the kernel buffer directly.
      ep.queue->Push(std::move(f));
      break;
    case DeliverKind::kShm:
    case DeliverKind::kShmIpf: {
      // kShmIpf can land here when the integrated endpoint was installed
      // after this frame entered the copy path (session-filter handover
      // mid-delivery); the frame is already in a kernel buffer, so it
      // takes the same copy into the shared ring as kShm.
      ProbeSpan span(tracer_, sim_, Stage::kKernelCopyout);
      // Kernel buffer -> shared-memory ring.
      self->Charge(static_cast<SimDuration>(f.size()) * prof_->copy_per_byte);
      Frame shared(f);  // pooled copy
      ep.queue->Push(std::move(shared));
      break;
    }
    case DeliverKind::kIpc: {
      ProbeSpan span(tracer_, sim_, Stage::kKernelCopyout);
      IpcMessage msg;
      msg.kind = kMsgPacketDelivery;
      msg.arg[5] = f.pkt_id;
      msg.payload = std::move(f);
      ep.port->Send(std::move(msg));
      break;
    }
  }
  rx_delivered_++;
}

}  // namespace psd
