// Packet journeys and the unified drop-reason ledger.
//
// Every frame gets a unique packet id minted at its origin (stack output or
// wire injection) and carried through netsim -> NIC -> kernel demux/filter
// -> IPC/SHM delivery -> ether/ip/tcp/udp -> sockbuf, so tracer spans, pcap
// records and counters all correlate on one key.
//
// Two recorders, both owned by the run's Observatory (src/obs/observatory.h),
// which the World owns; components reach it through the host, segment or
// StackEnv handle they already hold:
//
//  * DropLedger    — one DropReason taxonomy for every drop site in
//                    netsim/kern/filter/ipc/inet/sock/core. Exact per-reason
//                    totals (registerable as StatsRegistry gauges, which
//                    point into the World) plus a bounded ring of recent
//                    drop events. Tests assert each legacy drop counter
//                    equals the sum of its ledger reasons, so the taxonomy
//                    cannot drift.
//  * PacketJourney — per-packet hop records (layer, node, virtual timestamp,
//                    disposition) in a bounded ring, plus one terminal
//                    disposition per packet id. The conservation law: every
//                    minted id ends in exactly one of delivered / consumed /
//                    dropped(reason), or is still in flight at exit.
//
// Recording a hop or a drop copies no string. A component holds a
// JourneyNode per node name it records under, which interns the name into
// its run's journey on first use, and hops and drop events carry the
// 32-bit id; only the pktwalk renderers resolve it back (NodeName).
// Terminals live in a dense vector indexed by packet id - 1 (ids are minted
// in order), so first-terminal-wins holds exactly for every id ever minted.
//
// Recording charges no simulated cost: the recorders always run, and the
// golden ctests (tests/CMakeLists.txt) pin virtual time with them running.
#ifndef PSD_SRC_OBS_JOURNEY_H_
#define PSD_SRC_OBS_JOURNEY_H_

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/base/time.h"
#include "src/obs/trace.h"

namespace psd {

class StatsRegistry;

// Why a frame died (or, for the kWire* event reasons, what the fault
// injector did to it without killing it). Grouped by the layer that owns
// the drop site; see DESIGN.md §6 for the full taxonomy table.
enum class DropReason : uint8_t {
  kNone = 0,
  // wire / NIC (netsim)
  kWireFault,         // fault injector discarded the frame on the segment
  kWirePartition,     // link partition blocked the src->dst direction
  kWireShaperDrop,    // shaper queue bound exceeded (tail drop before the wire)
  kNicRingOverflow,   // device rx ring full
  // kernel demux (kern / filter)
  kNoFilterMatch,     // no installed filter program claimed the frame
  kFilterRemoved,     // filter removed while the frame was in flight
  kQueueOverflow,     // bounded delivery PacketQueue full
  kCrashCleanup,      // frames discarded when their owning process died
  // ether (inet)
  kEtherBadFrame,     // frame too short to parse
  kEtherUnknownType,  // ethertype neither IPv4 nor ARP
  kEtherUnresolved,   // tx: next hop MAC unresolvable
  // ip
  kIpBadHeader,
  kIpBadChecksum,
  kIpNotOurs,           // destination is another host
  kIpNoRoute,           // tx: no route to destination
  kIpNoProto,           // no handler for the IP protocol number
  kIpReassemblyTimeout, // fragment aged out of the reassembly map
  // udp
  kUdpBadLength,   // short datagram or inconsistent length field
  kUdpBadChecksum,
  kUdpNoPort,      // no socket bound to the destination port
  kUdpBufferFull,  // receive sockbuf full
  // tcp / sock
  kTcpBadLength,   // short segment or bad header length
  kTcpBadChecksum,
  kTcpNoPcb,           // no matching connection (answered with RST)
  kMigrationWindow,    // stray for a tuple in migration handover (suppressed)
  kTcpListenOverflow,  // SYN dropped, listen backlog full
  kTcpUnacceptable,    // state-machine discard (bad LISTEN/SYN_SENT segment,
                       // closed pcb, in-window SYN, ...)
  kTcpSeqTrim,         // complete duplicate of already-delivered data
  kTcpOutOfWindow,     // entirely outside the receive window
  kTcpAfterClose,      // data after the receiver shut down reading
  // wire fault-injection events that are NOT drops (IsDropReason == false):
  // the frame still reaches its receivers.
  kWireDup,      // fault injector duplicated the frame
  kWireDelay,    // fault injector added extra delay (reordering)
  kWireCorrupt,  // fault injector flipped payload/header bits in the frame
  kWireReorder,  // fault injector held the frame back a bounded window
  kNumReasons
};

// Stable kebab-case name ("wire-fault", "migration-window", ...).
const char* DropReasonName(DropReason r);

// False for the kWireDup/kWireDelay event pseudo-reasons.
bool IsDropReason(DropReason r);

// Terminal fate of a packet id.
enum class PktDisposition : uint8_t {
  kNone = 0,   // still in flight
  kDelivered,  // payload reached a socket buffer
  kConsumed,   // absorbed by a protocol layer (ACK, ARP, handshake, ...)
  kDropped,    // died; reason says why
};

const char* PktDispositionName(PktDisposition d);

struct DropEvent {
  uint64_t pkt = 0;  // 0 = packet had no id yet (tx-side drop before mint)
  TraceLayer layer = TraceLayer::kWire;
  DropReason reason = DropReason::kNone;
  SimTime at = 0;
  uint32_t node = 0;  // interned in the run's PacketJourney; 0 = none
};

class PacketJourney;

class DropLedger {
 public:
  // Drops become terminals in `journey`, which also names event nodes.
  explicit DropLedger(PacketJourney* journey) : journey_(journey) {}

  // The perfbench shim (src/obs/observatory.h): the calling thread's
  // innermost live World's ledger.
  static DropLedger& Get();

  // Records a whole-frame drop at node id `node`: bumps the per-reason
  // total, appends to the recent-events ring, and (for pkt != 0) sets the
  // packet's terminal disposition in the journey. For the kWire* event
  // reasons no terminal is recorded — the frame lives on.
  void Record(uint64_t pkt, TraceLayer layer, DropReason reason, SimTime at = 0,
              uint32_t node = 0);

  uint64_t total(DropReason r) const { return totals_[static_cast<size_t>(r)]; }
  // Sum over real drop reasons (excludes dup/delay events).
  uint64_t total_drops() const;
  const std::deque<DropEvent>& recent() const { return recent_; }

  // Registers one gauge per nonzero-capable reason: "<prefix><reason-name>".
  void ExportStats(StatsRegistry* reg, const std::string& prefix) const;

  void set_ring_capacity(size_t n) { ring_capacity_ = n; }

  // Returns the ledger to its constructed state: zero totals, empty ring,
  // default ring capacity. Only the perfbench shim needs it.
  void Reset();

  static constexpr size_t kDefaultRingCapacity = 1024;

 private:
  PacketJourney* journey_;
  size_t ring_capacity_ = kDefaultRingCapacity;
  uint64_t totals_[static_cast<size_t>(DropReason::kNumReasons)] = {};
  std::deque<DropEvent> recent_;
};

struct HopEvent {
  uint64_t pkt = 0;
  TraceLayer layer = TraceLayer::kWire;
  uint32_t node = 0;  // interned name (PacketJourney::NodeName); 0 = none
  SimTime at = 0;
  PktDisposition disp = PktDisposition::kNone;  // set on the terminal hop
  DropReason reason = DropReason::kNone;
  uint64_t aux = 0;  // frame size at mint, parent id on a dup clone
};

class PacketJourney {
 public:
  // The perfbench shim (src/obs/observatory.h).
  static PacketJourney& Get();

  // Mints the next packet id (never 0).
  uint64_t Mint();

  // The id of node name `name`: the same name always gives the same id, and
  // ids stay valid across Reset(). "" is id 0. Cold: components intern
  // through a JourneyNode.
  uint32_t Intern(std::string_view name);
  const std::string& NodeName(uint32_t id) const { return names_[id]; }

  // Records a hop: the packet passed through `node` at layer `layer`.
  void Hop(uint64_t pkt, TraceLayer layer, uint32_t node, SimTime at, uint64_t aux = 0);

  // Terminal dispositions. First terminal wins; a second attempt only bumps
  // conflicts() so tests can assert the conservation law stayed clean.
  void Deliver(uint64_t pkt, TraceLayer layer, uint32_t node, SimTime at) {
    SetTerminal(pkt, layer, PktDisposition::kDelivered, DropReason::kNone, node, at);
  }
  void Consume(uint64_t pkt, TraceLayer layer, uint32_t node, SimTime at) {
    SetTerminal(pkt, layer, PktDisposition::kConsumed, DropReason::kNone, node, at);
  }
  // Called by DropLedger::Record; also usable directly.
  void Dropped(uint64_t pkt, TraceLayer layer, DropReason reason, uint32_t node, SimTime at) {
    SetTerminal(pkt, layer, PktDisposition::kDropped, reason, node, at);
  }
  // Consume only if the packet has no terminal yet (the catch-all at the
  // end of Stack::InputFrame — pure ACKs, ARP, ICMP, window updates).
  void ConsumeIfOpen(uint64_t pkt, TraceLayer layer, uint32_t node, SimTime at) {
    if (!HasTerminal(pkt)) Consume(pkt, layer, node, at);
  }

  bool HasTerminal(uint64_t pkt) const { return DispositionOf(pkt) != PktDisposition::kNone; }
  PktDisposition DispositionOf(uint64_t pkt) const {
    return pkt - 1 < terminals_.size() ? terminals_[pkt - 1].disp : PktDisposition::kNone;
  }
  DropReason ReasonOf(uint64_t pkt) const {
    return pkt - 1 < terminals_.size() ? terminals_[pkt - 1].reason : DropReason::kNone;
  }

  // Queries.
  uint64_t minted() const { return minted_; }
  uint64_t delivered() const { return delivered_; }
  uint64_t consumed() const { return consumed_; }
  uint64_t dropped() const { return dropped_; }
  uint64_t in_flight() const { return minted_ - delivered_ - consumed_ - dropped_; }
  uint64_t conflicts() const { return conflicts_; }
  const std::deque<HopEvent>& hops() const { return hops_; }
  // All hop events for one packet, in order (scans the ring).
  std::vector<HopEvent> JourneyOf(uint64_t pkt) const;

  void set_hop_capacity(size_t n) { hop_capacity_ = n; }

  // Returns the recorder to its constructed state: ids restart at 1, no
  // hops or terminals, default hop capacity. Interned node names are kept.
  // Only the perfbench shim needs it.
  void Reset();

  static constexpr size_t kDefaultHopCapacity = 1 << 16;

 private:
  struct Terminal {
    PktDisposition disp = PktDisposition::kNone;  // kNone: no terminal yet
    DropReason reason = DropReason::kNone;
  };

  void SetTerminal(uint64_t pkt, TraceLayer layer, PktDisposition disp, DropReason reason,
                   uint32_t node, SimTime at);
  void PushHop(const HopEvent& ev);

  size_t hop_capacity_ = kDefaultHopCapacity;
  uint64_t next_id_ = 1;
  uint64_t minted_ = 0;
  uint64_t delivered_ = 0;
  uint64_t consumed_ = 0;
  uint64_t dropped_ = 0;
  uint64_t conflicts_ = 0;
  std::deque<HopEvent> hops_;
  std::vector<Terminal> terminals_;  // [pkt - 1]
  std::vector<std::string> names_{""};
  std::unordered_map<std::string, uint32_t> name_ids_;
};

// A component's journey node name, interned into its run's journey on
// first use and cached. Hot paths pass id(); building the component costs
// no table lookup (a C10K world builds ~5,000 node names per run, and a
// lookup there is a few cache misses).
class JourneyNode {
 public:
  JourneyNode(PacketJourney* journey, std::string name)
      : journey_(journey), name_(std::move(name)) {}

  uint32_t id() {
    if (id_ == 0) id_ = journey_->Intern(name_);
    return id_;
  }

 private:
  PacketJourney* journey_;
  std::string name_;
  uint32_t id_ = 0;
};

// ---------------------------------------------------------------------------
// pktwalk rendering (shared by `psdobs walk`, torture and the golden tests).
// Reads one run's recorders; deterministic for a deterministic run.

struct Observatory;

struct PktwalkFilter {
  uint64_t pkt = 0;        // nonzero: only this packet
  bool lost_only = false;  // only dropped / in-flight-at-exit packets
  bool drops_only = false; // only the drop ledger (totals + recent events)
};

// Terminal disposition string: "delivered", "consumed", "dropped(<reason>)",
// or "in-flight-at-exit".
std::string TerminalString(const Observatory& obs, uint64_t pkt);

std::string PktwalkText(const Observatory& obs, const PktwalkFilter& f);
std::string PktwalkJson(const Observatory& obs, const PktwalkFilter& f);

}  // namespace psd

#endif  // PSD_SRC_OBS_JOURNEY_H_
