#include <algorithm>
#include <cassert>

#include "src/base/bytes.h"
#include "src/base/log.h"
#include "src/netsim/nic.h"
#include "src/netsim/segment.h"
#include "src/obs/pcap.h"
#include "src/obs/prof.h"
#include "src/obs/trace.h"

namespace psd {

namespace {
uint64_t MacKey(const MacAddr& mac) {
  uint64_t key = 0;
  for (uint8_t x : mac.b) {
    key = key << 8 | x;
  }
  return key;
}
}  // namespace

void EthernetSegment::Attach(Nic* nic) {
  const uint64_t key = MacKey(nic->mac());
  // After every equal key, so duplicates stay in attach order. Hosts attach
  // in MAC order, which makes this an append.
  auto at = std::upper_bound(by_mac_.begin(), by_mac_.end(), std::pair{key, UINT32_MAX});
  by_mac_.insert(at, {key, static_cast<uint32_t>(nics_.size())});
  nics_.push_back(nic);
}

// Per-frame fault decisions run in a fixed order — shaper admission,
// corruption, loss (bursty then independent), delay, reorder, duplication —
// and every class draws only from its own stream, so the decision sequence
// of one class is a pure function of (seed, frame index) no matter which
// other classes are enabled.

bool EthernetSegment::LossDecision() {
  bool drop = false;
  if (faults_.burst.enabled) {
    // Advance the Gilbert–Elliott channel state once per frame, then draw
    // the current state's loss probability.
    if (burst_bad_) {
      if (burst_rng_.Chance(faults_.burst.p_bad_to_good)) {
        burst_bad_ = false;
      }
    } else if (burst_rng_.Chance(faults_.burst.p_good_to_bad)) {
      burst_bad_ = true;
    }
    if (burst_rng_.Chance(burst_bad_ ? faults_.burst.loss_bad : faults_.burst.loss_good)) {
      drop = true;
    }
  }
  if (faults_.loss_rate > 0 && loss_rng_.Chance(faults_.loss_rate)) {
    drop = true;
  }
  return drop;
}

bool EthernetSegment::PartitionBlocks(int src_idx, int dst_idx, SimTime at) const {
  for (const LinkPartition& p : faults_.partitions) {
    if ((p.src == -1 || p.src == src_idx) && (p.dst == -1 || p.dst == dst_idx) && at >= p.from &&
        at < p.until) {
      return true;
    }
  }
  return false;
}

bool EthernetSegment::CorruptFrame(Frame* frame) {
  // Only unicast IPv4 frames are eligible, and flips land inside the IP
  // datagram (header or payload): every eligible byte is covered by the IP
  // header checksum or a transport checksum, and 1-2 flips confined to one
  // aligned 16-bit word can never alias the ones-complement sum — so every
  // injected corruption is provably detectable, which is what makes the
  // corrupted-frames-vs-checksum-drops reconciliation exact. The one word
  // that could defeat detection — the stored UDP checksum, whose zeroing
  // disables validation (RFC 768) — is excluded below.
  if (frame->size() < kEtherHeaderLen + 20) {
    return false;
  }
  const uint8_t* b = frame->data();
  bool bcast = true;
  for (int i = 0; i < 6; i++) {
    bcast = bcast && b[i] == 0xff;
  }
  uint16_t ethertype = static_cast<uint16_t>((b[12] << 8) | b[13]);
  if (bcast || ethertype != kEtherTypeIpv4) {
    return false;
  }
  // TCP/UDP only: other IP protocols (ICMP) verify checksums but discard
  // silently, which would defeat the exact corrupted-vs-checksum-drops
  // reconciliation the torture harness asserts.
  uint8_t proto = b[kEtherHeaderLen + 9];
  if (proto != 6 && proto != 17) {
    return false;
  }
  size_t ip_len = static_cast<size_t>((b[16] << 8) | b[17]);
  size_t region = std::min(ip_len, frame->size() - kEtherHeaderLen);
  size_t words = region / 2;
  // RFC 768 wrinkle: a received UDP checksum of 0 means "sender computed no
  // checksum" and the receiver skips validation entirely. A flip landing in
  // the stored-checksum word could therefore zero it and make the
  // corruption invisible, so that word (IHL + 6, always 16-bit aligned) is
  // excluded from eligibility.
  size_t excluded = words;  // sentinel: no word excluded
  if (proto == 17) {
    size_t ihl = static_cast<size_t>(b[kEtherHeaderLen] & 0x0f) * 4;
    if (ihl + 8 <= region) {
      excluded = (ihl + 6) / 2;
    }
  }
  size_t eligible = words - (excluded < words ? 1 : 0);
  if (eligible == 0) {
    return false;
  }
  size_t w = corrupt_rng_.Below(eligible);
  if (excluded < words && w >= excluded) {
    w++;
  }
  uint8_t* word = frame->data() + kEtherHeaderLen + 2 * w;
  int b1 = static_cast<int>(corrupt_rng_.Below(16));
  word[b1 / 8] ^= static_cast<uint8_t>(1u << (b1 % 8));
  if (faults_.corrupt_bits >= 2) {
    int b2 = static_cast<int>(corrupt_rng_.Below(15));
    if (b2 >= b1) {
      b2++;
    }
    word[b2 / 8] ^= static_cast<uint8_t>(1u << (b2 % 8));
  }
  return true;
}

void EthernetSegment::MintInjected(Frame* frame, SimTime at) {
  if (frame->pkt_id != 0) {
    return;
  }
  frame->pkt_id = obs_->journey.Mint();
  if (frame->pkt_id != 0) {
    obs_->journey.Hop(frame->pkt_id, TraceLayer::kWire, inject_node_.id(), at, frame->size());
  }
}

void EthernetSegment::Transmit(Nic* src, Frame frame, std::function<void()> done) {
  PSD_PROF_SCOPE(kWireDeliver);
  SimDuration wire_time = WireTime(frame.size());
  if (faults_.bandwidth_scale != 1.0) {
    wire_time = static_cast<SimDuration>(static_cast<double>(wire_time) * faults_.bandwidth_scale);
  }

  // Shaper queue admission: a bounded backlog (queued frames plus the one
  // in service) tail-drops before the frame ever occupies the medium.
  if (faults_.queue_frames > 0 && queued_frames_ >= faults_.queue_frames) {
    MintInjected(&frame, sim_->Now());
    obs_->drops.Record(frame.pkt_id, TraceLayer::kWire, DropReason::kWireShaperDrop, sim_->Now(),
                       wire_node_.id());
    obs_->tracer.Instant(sim_, "wire/shaper-drop", TraceLayer::kWire);
    if (done) {
      // The sender still sees wire-paced backpressure: completion fires
      // when the frame would have finished serializing had it been
      // admitted, not instantly at drop time.
      sim_->Schedule(std::max(sim_->Now(), medium_free_at_) + wire_time, std::move(done));
    }
    return;
  }

  SimTime start = std::max(sim_->Now(), medium_free_at_);
  SimTime end = start + wire_time;
  medium_free_at_ = end;
  if (faults_.queue_frames > 0) {
    // Decremented at transmission end so the frame occupying the medium
    // still counts against the backlog bound.
    queued_frames_++;
    sim_->Schedule(end, [this] { queued_frames_--; });
  }
  frames_carried_++;
  MintInjected(&frame, start);
  obs_->journey.Hop(frame.pkt_id, TraceLayer::kWire, transmit_node_.id(), start);
  obs_->tracer.Emit(sim_, "wire/transmit", TraceLayer::kWire, /*stage=*/-1, start, end - start);

  // Corruption happens before the pcap tap: the flips are on the cable, so
  // a sniffer sees them.
  bool corrupted = false;
  if (faults_.corrupt_rate > 0 && corrupt_rng_.Chance(faults_.corrupt_rate)) {
    corrupted = CorruptFrame(&frame);
    if (corrupted) {
      frames_corrupted_++;
      obs_->drops.Record(frame.pkt_id, TraceLayer::kWire, DropReason::kWireCorrupt, start,
                         wire_node_.id());
      obs_->tracer.Instant(sim_, "wire/corrupt", TraceLayer::kWire);
    }
  }
  if (pcap_ != nullptr) {
    pcap_->CaptureFrame(start, frame);
  }

  if (LossDecision()) {
    obs_->drops.Record(frame.pkt_id, TraceLayer::kWire, DropReason::kWireFault, end,
                       wire_node_.id());
    obs_->tracer.Instant(sim_, "wire/drop", TraceLayer::kWire);
    if (done) {
      sim_->Schedule(end, std::move(done));
    }
    return;
  }

  SimTime deliver_at = end;
  if (faults_.delay_rate > 0 && delay_rng_.Chance(faults_.delay_rate)) {
    deliver_at += faults_.extra_delay;
    // Not a drop: the frame still arrives, just late (reordered).
    obs_->drops.Record(frame.pkt_id, TraceLayer::kWire, DropReason::kWireDelay, deliver_at,
                       wire_node_.id());
    obs_->tracer.Instant(sim_, "wire/delay", TraceLayer::kWire);
  }
  if (faults_.reorder_rate > 0 && reorder_rng_.Chance(faults_.reorder_rate)) {
    // Hold the frame back a bounded number of frame slots: it falls behind
    // at most reorder_window later frames.
    int window = std::max(1, faults_.reorder_window);
    int slots = static_cast<int>(reorder_rng_.Range(1, window));
    deliver_at += static_cast<SimDuration>(slots) * wire_time;
    obs_->drops.Record(frame.pkt_id, TraceLayer::kWire, DropReason::kWireReorder, deliver_at,
                       wire_node_.id());
    obs_->tracer.Instant(sim_, "wire/reorder", TraceLayer::kWire);
  }
  // The duplicate's copy is taken before the primary frame moves into its
  // delivery event. The dup-stream draw happens here rather than after
  // Deliver(), which is unobservable: Deliver draws from no RNG stream.
  const bool dup_this = faults_.dup_rate > 0 && dup_rng_.Chance(faults_.dup_rate);
  Frame dup;
  uint64_t parent = frame.pkt_id;
  if (dup_this) {
    dup = frame;
  }
  Deliver(src, std::move(frame), deliver_at);
  if (dup_this) {
    // The duplicate is its own packet: new id, aux links back to the
    // original so `psdobs walk` can show the clone relationship.
    dup.pkt_id = obs_->journey.Mint();
    if (dup.pkt_id != 0) {
      obs_->journey.Hop(dup.pkt_id, TraceLayer::kWire, dup_node_.id(), deliver_at, parent);
    }
    obs_->drops.Record(dup.pkt_id, TraceLayer::kWire, DropReason::kWireDup, deliver_at,
                       wire_node_.id());
    if (corrupted) {
      // The clone carries the parent's flipped bits; ledger it too so the
      // corrupted-id set stays complete for reconciliation.
      obs_->drops.Record(dup.pkt_id, TraceLayer::kWire, DropReason::kWireCorrupt, deliver_at,
                         wire_node_.id());
    }
    obs_->tracer.Instant(sim_, "wire/dup", TraceLayer::kWire);
    SimDuration dup_wire = WireTime(dup.size());
    Deliver(src, std::move(dup), deliver_at + dup_wire);
  }
  if (done) {
    sim_->Schedule(end, std::move(done));
  }
}

void EthernetSegment::Deliver(Nic* src, Frame frame, SimTime at) {
  PSD_PROF_SCOPE(kWireDeliver);
  // Hardware MAC filtering is resolved here, at target computation: a
  // bystander NIC that would discard the frame anyway never costs a frame
  // copy or a delivery event, and a unicast frame on an unpartitioned
  // segment finds its targets through the MAC index without visiting
  // bystanders at all. The whole fan-out of one frame then rides in ONE
  // drain event (the frame moved, not copied, for the common unicast
  // case) instead of one frame-copying closure per NIC. Targets are
  // visited in attach order inside that event — the same order the
  // per-NIC events executed in (their sequence numbers were consecutive),
  // so execution order is byte-identical. Deliveries of *different*
  // frames are never coalesced: a third-party event scheduled between two
  // Transmit calls at the same instant must keep its place between them.
  MacAddr dst;
  std::memcpy(dst.b.data(), frame.data(), 6);
  const bool bcast = dst.IsBroadcast();
  Nic* single = nullptr;                 // unicast/2-NIC fast path: no vector
  std::vector<Nic*> targets;             // broadcast, or a MAC shared by several NICs
  auto add_target = [&](Nic* nic) {
    if (single == nullptr && targets.empty()) {
      single = nic;
      return;
    }
    if (targets.empty()) {
      targets.push_back(single);
      single = nullptr;
    }
    targets.push_back(nic);
  };
  if (faults_.partitions.empty() && !bcast) {
    const uint64_t key = MacKey(dst);
    for (auto it = std::lower_bound(by_mac_.begin(), by_mac_.end(), std::pair{key, 0u});
         it != by_mac_.end() && it->first == key; ++it) {
      if (nics_[it->second] != src) {
        add_target(nics_[it->second]);
      }
    }
  } else {
    // Broadcasts reach every NIC, and partitions count every blocked
    // bystander, so both keep the scan.
    const bool partitioned = !faults_.partitions.empty();
    const int src_idx = partitioned ? IndexOf(src) : -1;
    for (size_t i = 0; i < nics_.size(); i++) {
      Nic* nic = nics_[i];
      if (nic == src) {
        continue;
      }
      if (partitioned && PartitionBlocks(src_idx, static_cast<int>(i), at)) {
        frames_partitioned_++;
        // Ledger the drop as the frame's terminal only for the receiver the
        // frame was addressed to; a blocked broadcast copy (or a copy for a
        // bystander NIC that would have MAC-filtered it anyway) is not this
        // packet's fate.
        if (dst == nic->mac()) {
          obs_->drops.Record(frame.pkt_id, TraceLayer::kWire, DropReason::kWirePartition, at,
                             wire_node_.id());
          obs_->tracer.Instant(sim_, "wire/partition", TraceLayer::kWire);
        }
        continue;
      }
      if (bcast || dst == nic->mac()) {
        add_target(nic);
      }
    }
  }
  if (single != nullptr) {
    sim_->Schedule(at, [nic = single, f = std::move(frame)]() mutable {
      nic->DeliverFromWire(std::move(f));
    });
  } else if (!targets.empty()) {
    sim_->Schedule(at, [ts = std::move(targets), f = std::move(frame)]() mutable {
      for (size_t i = 0; i + 1 < ts.size(); i++) {
        ts[i]->DeliverFromWire(f);
      }
      ts.back()->DeliverFromWire(std::move(f));
    });
  }
}

void Nic::Transmit(Frame frame) {
  PSD_PROF_SCOPE(kNicRing);
  assert(segment_ != nullptr && "NIC not attached");
  assert(frame.size() >= kEtherHeaderLen);
  SimThread* self = sim_->current_thread();
  assert(self != nullptr && "Nic::Transmit requires thread context");
  // Place the frame into device tx memory. On a PIO NIC this is the
  // dominant cost and burns host CPU byte by byte.
  self->Charge(static_cast<SimDuration>(frame.size()) * params_.tx_write_per_byte);
  tx_frames_++;
  segment_->Transmit(this, std::move(frame));
}

void Nic::DeliverFromWire(Frame frame) {
  PSD_PROF_SCOPE(kNicRing);
  // Hardware MAC filtering: accept our unicast address and broadcast. The
  // segment already filters at target computation; this stays for frames
  // injected directly (tests, raw tools).
  MacAddr dst;
  std::memcpy(dst.b.data(), frame.data(), 6);
  if (!(dst == mac_) && !dst.IsBroadcast()) {
    return;
  }
  if (rx_ring_.full()) {
    obs_->drops.Record(frame.pkt_id, TraceLayer::kWire, DropReason::kNicRingOverflow,
                       sim_->Now(), node_.id());
    PSD_LOG(kDebug) << name_ << ": rx ring overflow, frame dropped";
    return;
  }
  rx_frames_++;
  obs_->journey.Hop(frame.pkt_id, TraceLayer::kWire, node_.id(), sim_->Now());
  bool was_empty = rx_ring_.empty();
  rx_ring_.Push(std::move(frame));
  if (was_empty && rx_notify_) {
    rx_notify_();
  }
}

}  // namespace psd
