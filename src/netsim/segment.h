// Shared half-duplex Ethernet segment: serializes all transmissions at the
// configured line rate, delivers each frame to every other attached NIC, and
// supports deterministic adversarial fault injection (loss — independent or
// Gilbert–Elliott bursty, duplication, extra delay, bounded reordering,
// payload bit-corruption, scheduled asymmetric link partitions, and
// bandwidth/queue shaping) for protocol robustness tests.
#ifndef PSD_SRC_NETSIM_SEGMENT_H_
#define PSD_SRC_NETSIM_SEGMENT_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "src/base/rng.h"
#include "src/base/time.h"
#include "src/netsim/ether.h"
#include "src/obs/observatory.h"
#include "src/sim/simulator.h"

namespace psd {

class Nic;
class PcapCapture;

struct WireParams {
  SimDuration per_byte = Nanos(800);  // 10 Mb/s
  SimDuration latency = 0;            // propagation + PHY, per frame
  int min_frame = 64;                 // bytes on the wire incl. FCS
  int fcs_bytes = 4;
};

// Two-state Markov loss model (Gilbert–Elliott): the wire alternates between
// a good and a bad state with per-frame transition probabilities; each state
// has its own drop probability. Produces the bursty loss patterns real
// networks show (fades, collisions) that independent per-frame loss cannot.
struct GilbertElliott {
  bool enabled = false;
  double p_good_to_bad = 0.0;  // per-frame transition probability
  double p_bad_to_good = 0.0;
  double loss_good = 0.0;  // drop probability while in each state
  double loss_bad = 1.0;
};

// One-directional link outage: frames from NIC attach-index `src` to NIC
// attach-index `dst` (-1 = any) are discarded while `from <= t < until`.
// Asymmetric by construction — partition A->B and B->A still flows, which is
// exactly the half-open failure TCP keepalive and persist must survive.
struct LinkPartition {
  int src = -1;
  int dst = -1;
  SimTime from = 0;
  SimTime until = kTimeNever;  // scheduled heal time
};

// The full adversarial fault plan. Every fault class draws from its own
// deterministic RNG sub-stream derived from `seed` (Rng::Stream), so
// enabling one class never perturbs another's decisions: a seed that drops
// frames 3 and 17 under pure loss drops the same frames when duplication,
// corruption, or reordering are mixed in. All classes default off; with the
// defaults the segment's behavior (and every bench table) is byte-identical
// to a fault-free wire.
struct FaultPlan {
  double loss_rate = 0.0;   // independent per-frame loss probability
  GilbertElliott burst;     // bursty loss; composes with loss_rate (either drops)
  double dup_rate = 0.0;    // probability a frame is delivered twice
  double delay_rate = 0.0;  // probability a frame gets fixed extra delay
  SimDuration extra_delay = Millis(5);
  double corrupt_rate = 0.0;  // probability an eligible frame gets bit flips
  int corrupt_bits = 1;       // 1 or 2 flips, within one aligned 16-bit word
  double reorder_rate = 0.0;  // probability a frame is held back
  int reorder_window = 4;     // max frames a held-back frame can fall behind
  double bandwidth_scale = 1.0;          // >1 stretches serialization time
  int queue_frames = 0;  // 0 = unbounded; else tail-drop bound on backlog incl. frame in service
  std::vector<LinkPartition> partitions;
  uint64_t seed = 1;
};

class EthernetSegment {
 public:
  // Records journeys, drops and wire spans (one per transmitted frame, an
  // instant per injected fault) into `obs`, which the attached NICs share.
  EthernetSegment(Simulator* sim, Observatory* obs, WireParams params = {})
      : sim_(sim),
        obs_(obs),
        params_(params),
        wire_node_(&obs->journey, "wire"),
        inject_node_(&obs->journey, "wire/inject"),
        transmit_node_(&obs->journey, "wire/transmit"),
        dup_node_(&obs->journey, "wire/dup") {
    SetFaults(FaultPlan{});
  }

  Observatory* obs() const { return obs_; }

  // Adds `nic` with the MAC it carries now (it must not change afterwards).
  // Several NICs may share a MAC; each gets its own copy of a frame.
  void Attach(Nic* nic);

  // NIC attach index (partition endpoints are named by it); -1 if foreign.
  int IndexOf(const Nic* nic) const {
    for (size_t i = 0; i < nics_.size(); i++) {
      if (nics_[i] == nic) {
        return static_cast<int>(i);
      }
    }
    return -1;
  }

  // Starts transmitting `frame` from `src`. The segment is half duplex:
  // the transmission begins when the medium is free. `done` (optional) runs
  // when the frame has left the source NIC.
  void Transmit(Nic* src, Frame frame, std::function<void()> done = nullptr);

  void SetFaults(const FaultPlan& plan) {
    faults_ = plan;
    // One private stream per fault class; adding a class here must use a
    // fresh stream index, never reuse one.
    loss_rng_ = Rng::Stream(plan.seed, 0);
    dup_rng_ = Rng::Stream(plan.seed, 1);
    delay_rng_ = Rng::Stream(plan.seed, 2);
    corrupt_rng_ = Rng::Stream(plan.seed, 3);
    burst_rng_ = Rng::Stream(plan.seed, 4);
    reorder_rng_ = Rng::Stream(plan.seed, 5);
    burst_bad_ = false;
  }
  const FaultPlan& faults() const { return faults_; }

  // Captures every frame whose transmission starts on the segment into a
  // libpcap buffer, stamped at transmission start (a sniffer on the cable —
  // frames the fault injector later drops are still captured, and injected
  // bit corruption is visible because the flips are on the cable too).
  // Charges no simulated cost. May be null to detach.
  void SetPcapTap(PcapCapture* pcap) { pcap_ = pcap; }

  // Serialization time for a frame of `payload_len` bytes (incl. header).
  SimDuration WireTime(size_t frame_len) const {
    int on_wire = static_cast<int>(frame_len) + params_.fcs_bytes;
    if (on_wire < params_.min_frame) {
      on_wire = params_.min_frame;
    }
    return on_wire * params_.per_byte + params_.latency;
  }

  // No ledger reason equals the last two: corrupted frames include dup
  // clones, and a partition counts every NIC it blocks, bystanders too.
  uint64_t frames_carried() const { return frames_carried_; }
  uint64_t frames_corrupted() const { return frames_corrupted_; }
  uint64_t frames_partitioned() const { return frames_partitioned_; }
  // The journey node the segment's drops and fault events are recorded at.
  const JourneyNode& node() const { return wire_node_; }

 private:
  // Computes the frame's target NICs (hardware MAC filter plus partition
  // faults resolved at the segment) and schedules one drain event carrying
  // the frame for the whole fan-out. See the comment at the definition for
  // why different frames are never coalesced into one event.
  void Deliver(Nic* src, Frame frame, SimTime at);
  // Applies 1-2 bit flips within one aligned 16-bit word of the frame's
  // IP datagram (header or payload), never the stored UDP checksum word —
  // zeroing it would disable the receiver's validation (RFC 768) and make
  // the corruption undetectable. Returns false when the frame is not
  // eligible (non-IPv4, broadcast, or too short) — the stream draw that
  // selected the frame has already been made either way.
  bool CorruptFrame(Frame* frame);
  bool LossDecision();
  bool PartitionBlocks(int src_idx, int dst_idx, SimTime at) const;
  // Mints an id for a frame injected straight onto the wire (tests, raw
  // tools) so every frame the segment carries is traceable.
  void MintInjected(Frame* frame, SimTime at);

  Simulator* sim_;
  Observatory* obs_;
  WireParams params_;
  // Journey nodes: drop events, raw injection, transmission, dup clones.
  JourneyNode wire_node_;
  JourneyNode inject_node_;
  JourneyNode transmit_node_;
  JourneyNode dup_node_;
  FaultPlan faults_;
  PcapCapture* pcap_ = nullptr;
  // Per-fault-class deterministic streams (see SetFaults).
  Rng loss_rng_;
  Rng dup_rng_;
  Rng delay_rng_;
  Rng corrupt_rng_;
  Rng burst_rng_;
  Rng reorder_rng_;
  bool burst_bad_ = false;  // Gilbert–Elliott state
  std::vector<Nic*> nics_;
  // (MAC as a 48-bit key, attach index), sorted by key and, for equal
  // keys, by attach index: a unicast lookup yields its targets in attach
  // order without visiting bystander NICs.
  std::vector<std::pair<uint64_t, uint32_t>> by_mac_;
  SimTime medium_free_at_ = 0;
  int queued_frames_ = 0;  // transmissions waiting for or occupying the medium
  uint64_t frames_carried_ = 0;
  uint64_t frames_corrupted_ = 0;
  uint64_t frames_partitioned_ = 0;
};

}  // namespace psd

#endif  // PSD_SRC_NETSIM_SEGMENT_H_
