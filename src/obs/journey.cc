#include "src/obs/journey.h"
#include "src/base/json.h"

#include <map>
#include <sstream>

#include "src/obs/observatory.h"
#include "src/obs/stats.h"

namespace psd {

const char* DropReasonName(DropReason r) {
  switch (r) {
    case DropReason::kNone: return "none";
    case DropReason::kWireFault: return "wire-fault";
    case DropReason::kWirePartition: return "wire-partition";
    case DropReason::kWireShaperDrop: return "wire-shaper-drop";
    case DropReason::kNicRingOverflow: return "nic-ring-overflow";
    case DropReason::kNoFilterMatch: return "no-filter-match";
    case DropReason::kFilterRemoved: return "filter-removed";
    case DropReason::kQueueOverflow: return "queue-overflow";
    case DropReason::kCrashCleanup: return "crash-cleanup";
    case DropReason::kEtherBadFrame: return "ether-bad-frame";
    case DropReason::kEtherUnknownType: return "ether-unknown-type";
    case DropReason::kEtherUnresolved: return "ether-unresolved";
    case DropReason::kIpBadHeader: return "ip-bad-header";
    case DropReason::kIpBadChecksum: return "ip-bad-checksum";
    case DropReason::kIpNotOurs: return "ip-not-ours";
    case DropReason::kIpNoRoute: return "ip-no-route";
    case DropReason::kIpNoProto: return "ip-no-proto";
    case DropReason::kIpReassemblyTimeout: return "ip-reassembly-timeout";
    case DropReason::kUdpBadLength: return "udp-bad-length";
    case DropReason::kUdpBadChecksum: return "udp-bad-checksum";
    case DropReason::kUdpNoPort: return "udp-no-port";
    case DropReason::kUdpBufferFull: return "udp-buffer-full";
    case DropReason::kTcpBadLength: return "tcp-bad-length";
    case DropReason::kTcpBadChecksum: return "tcp-bad-checksum";
    case DropReason::kTcpNoPcb: return "tcp-no-pcb";
    case DropReason::kMigrationWindow: return "migration-window";
    case DropReason::kTcpListenOverflow: return "tcp-listen-overflow";
    case DropReason::kTcpUnacceptable: return "tcp-unacceptable";
    case DropReason::kTcpSeqTrim: return "tcp-seq-trim";
    case DropReason::kTcpOutOfWindow: return "tcp-out-of-window";
    case DropReason::kTcpAfterClose: return "tcp-after-close";
    case DropReason::kWireDup: return "wire-dup";
    case DropReason::kWireDelay: return "wire-delay";
    case DropReason::kWireCorrupt: return "wire-corrupt";
    case DropReason::kWireReorder: return "wire-reorder";
    case DropReason::kNumReasons: break;
  }
  return "?";
}

bool IsDropReason(DropReason r) {
  return r != DropReason::kNone && r != DropReason::kWireDup && r != DropReason::kWireDelay &&
         r != DropReason::kWireCorrupt && r != DropReason::kWireReorder &&
         r != DropReason::kNumReasons;
}

const char* PktDispositionName(PktDisposition d) {
  switch (d) {
    case PktDisposition::kNone: return "in-flight";
    case PktDisposition::kDelivered: return "delivered";
    case PktDisposition::kConsumed: return "consumed";
    case PktDisposition::kDropped: return "dropped";
  }
  return "?";
}

void DropLedger::Record(uint64_t pkt, TraceLayer layer, DropReason reason, SimTime at,
                        uint32_t node) {
  if (reason == DropReason::kNone || reason == DropReason::kNumReasons) return;
  totals_[static_cast<size_t>(reason)]++;
  by_node_[{node, reason}]++;
  DropEvent ev;
  ev.pkt = pkt;
  ev.layer = layer;
  ev.reason = reason;
  ev.at = at;
  ev.node = node;
  recent_.push_back(ev);
  while (recent_.size() > ring_capacity_) recent_.pop_front();
  // A real drop is the packet's terminal; dup/delay events leave it alive.
  if (pkt != 0 && IsDropReason(reason)) {
    journey_->Dropped(pkt, layer, reason, node, at);
  }
}

uint64_t DropLedger::total(DropReason r, uint32_t node) const {
  auto it = by_node_.find({node, r});
  return it == by_node_.end() ? 0 : it->second;
}

uint64_t DropLedger::total(DropReason r, const JourneyNode& node) const {
  const uint32_t id = node.peek();
  return id == 0 ? 0 : total(r, id);
}

uint64_t DropLedger::total_drops() const {
  uint64_t sum = 0;
  for (size_t i = 0; i < static_cast<size_t>(DropReason::kNumReasons); ++i) {
    if (IsDropReason(static_cast<DropReason>(i))) sum += totals_[i];
  }
  return sum;
}

void DropLedger::ExportNodeStats(StatsRegistry* reg, const std::string& prefix,
                                 const JourneyNode* node, DropReason first,
                                 DropReason last) const {
  for (auto i = static_cast<size_t>(first); i <= static_cast<size_t>(last); ++i) {
    const DropReason r = static_cast<DropReason>(i);
    reg->RegisterGauge(prefix + DropReasonName(r), [this, node, r] { return total(r, *node); });
  }
}

void DropLedger::Reset() {
  for (auto& t : totals_) t = 0;
  by_node_.clear();
  recent_.clear();
  ring_capacity_ = kDefaultRingCapacity;
}

uint64_t PacketJourney::Mint() {
  minted_++;
  return next_id_++;
}

uint32_t PacketJourney::Intern(std::string_view name) {
  if (name.empty()) return 0;
  auto ins = name_ids_.try_emplace(std::string(name), static_cast<uint32_t>(names_.size()));
  if (ins.second) names_.emplace_back(name);
  return ins.first->second;
}

uint32_t PacketJourney::Find(std::string_view name) const {
  auto it = name_ids_.find(std::string(name));
  return it == name_ids_.end() ? 0 : it->second;
}

void PacketJourney::PushHop(const HopEvent& ev) {
  hops_.push_back(ev);
  while (hops_.size() > hop_capacity_) hops_.pop_front();
}

void PacketJourney::Hop(uint64_t pkt, TraceLayer layer, uint32_t node, SimTime at,
                        uint64_t aux) {
  if (pkt == 0) return;
  HopEvent ev;
  ev.pkt = pkt;
  ev.layer = layer;
  ev.at = at;
  ev.aux = aux;
  ev.node = node;
  PushHop(ev);
}

void PacketJourney::SetTerminal(uint64_t pkt, TraceLayer layer, PktDisposition disp,
                                DropReason reason, uint32_t node, SimTime at) {
  if (pkt == 0) return;
  if (pkt > terminals_.size()) terminals_.resize(pkt);
  Terminal& term = terminals_[pkt - 1];
  if (term.disp != PktDisposition::kNone) {
    // First terminal wins: a broadcast frame delivered twice, or a drop
    // raced with a delivery. Count it so tests can assert cleanliness.
    conflicts_++;
    return;
  }
  term = Terminal{disp, reason};
  switch (disp) {
    case PktDisposition::kDelivered: delivered_++; break;
    case PktDisposition::kConsumed: consumed_++; break;
    case PktDisposition::kDropped: dropped_++; break;
    case PktDisposition::kNone: break;
  }
  HopEvent ev;
  ev.pkt = pkt;
  ev.layer = layer;
  ev.at = at;
  ev.disp = disp;
  ev.reason = reason;
  ev.node = node;
  PushHop(ev);
}

std::vector<HopEvent> PacketJourney::JourneyOf(uint64_t pkt) const {
  std::vector<HopEvent> out;
  for (const auto& ev : hops_) {
    if (ev.pkt == pkt) out.push_back(ev);
  }
  return out;
}

void PacketJourney::Reset() {
  next_id_ = 1;
  minted_ = delivered_ = consumed_ = dropped_ = conflicts_ = 0;
  hops_.clear();
  terminals_.clear();
  hop_capacity_ = kDefaultHopCapacity;
}

// ---------------------------------------------------------------------------
// pktwalk rendering.

std::string TerminalString(const Observatory& obs, uint64_t pkt) {
  const PacketJourney& j = obs.journey;
  switch (j.DispositionOf(pkt)) {
    case PktDisposition::kDelivered: return "delivered";
    case PktDisposition::kConsumed: return "consumed";
    case PktDisposition::kDropped:
      return std::string("dropped(") + DropReasonName(j.ReasonOf(pkt)) + ")";
    case PktDisposition::kNone: break;
  }
  return "in-flight-at-exit";
}

namespace {

// The hops of every selected packet in the ring, grouped by packet id
// (ascending), each group in ring order. One pass, so rendering stays
// linear in the ring however many packets it holds.
std::map<uint64_t, std::vector<const HopEvent*>> SelectJourneys(const PacketJourney& j,
                                                                const PktwalkFilter& f) {
  std::map<uint64_t, std::vector<const HopEvent*>> out;
  for (const auto& ev : j.hops()) {
    if (f.pkt != 0 && ev.pkt != f.pkt) continue;
    if (f.lost_only && j.DispositionOf(ev.pkt) != PktDisposition::kDropped &&
        j.HasTerminal(ev.pkt)) {
      continue;  // delivered / consumed packets are not "lost"
    }
    out[ev.pkt].push_back(&ev);
  }
  return out;
}

void AppendDropSections(const Observatory& obs, std::ostringstream* os) {
  const DropLedger& led = obs.drops;
  *os << "drop reasons:\n";
  bool any = false;
  for (size_t i = 1; i < static_cast<size_t>(DropReason::kNumReasons); ++i) {
    const DropReason r = static_cast<DropReason>(i);
    if (led.total(r) == 0) continue;
    any = true;
    *os << "  " << led.total(r) << " " << DropReasonName(r)
        << (IsDropReason(r) ? "" : " (event, not a drop)") << "\n";
  }
  if (!any) *os << "  (none)\n";
  *os << "recent drop events: " << led.recent().size() << "\n";
  for (const auto& ev : led.recent()) {
    *os << "  pkt " << ev.pkt << " @" << ev.at << " " << TraceLayerName(ev.layer) << " "
        << DropReasonName(ev.reason);
    if (ev.node != 0) *os << " node=" << obs.journey.NodeName(ev.node);
    *os << "\n";
  }
}

}  // namespace

std::string PktwalkText(const Observatory& obs, const PktwalkFilter& f) {
  const PacketJourney& j = obs.journey;
  std::ostringstream os;
  if (!f.drops_only) {
    os << "packets: " << j.minted() << " minted, " << j.delivered() << " delivered, "
       << j.consumed() << " consumed, " << j.dropped() << " dropped, " << j.in_flight()
       << " in flight";
    if (j.conflicts() > 0) os << ", " << j.conflicts() << " terminal conflicts";
    os << "\n";
    for (const auto& [id, hops] : SelectJourneys(j, f)) {
      os << "pkt " << id << ": " << TerminalString(obs, id) << "\n";
      for (const HopEvent* ev : hops) {
        os << "  @" << ev->at << " " << TraceLayerName(ev->layer);
        if (ev->node != 0) os << " " << j.NodeName(ev->node);
        if (ev->disp != PktDisposition::kNone) {
          os << " -> " << PktDispositionName(ev->disp);
          if (ev->disp == PktDisposition::kDropped) os << "(" << DropReasonName(ev->reason) << ")";
        } else if (ev->aux != 0) {
          os << " aux=" << ev->aux;
        }
        os << "\n";
      }
    }
  }
  AppendDropSections(obs, &os);
  return os.str();
}

std::string PktwalkJson(const Observatory& obs, const PktwalkFilter& f) {
  const PacketJourney& j = obs.journey;
  const DropLedger& led = obs.drops;
  std::ostringstream os;
  os << "{\n";
  os << "  \"summary\": {\"minted\": " << j.minted() << ", \"delivered\": " << j.delivered()
     << ", \"consumed\": " << j.consumed() << ", \"dropped\": " << j.dropped()
     << ", \"in_flight\": " << j.in_flight() << ", \"conflicts\": " << j.conflicts() << "},\n";
  os << "  \"drop_reasons\": {";
  bool first = true;
  for (size_t i = 1; i < static_cast<size_t>(DropReason::kNumReasons); ++i) {
    const DropReason r = static_cast<DropReason>(i);
    if (led.total(r) == 0) continue;
    if (!first) os << ", ";
    first = false;
    os << "\"" << DropReasonName(r) << "\": " << led.total(r);
  }
  os << "},\n";
  os << "  \"packets\": [";
  bool first_pkt = true;
  if (!f.drops_only) {
    for (const auto& [id, hops] : SelectJourneys(j, f)) {
      if (!first_pkt) os << ",";
      first_pkt = false;
      os << "\n    {\"pkt\": " << id << ", \"terminal\": \"" << TerminalString(obs, id)
         << "\", \"hops\": [";
      bool first_hop = true;
      for (const HopEvent* ev : hops) {
        if (!first_hop) os << ", ";
        first_hop = false;
        os << "{\"at\": " << ev->at << ", \"layer\": \"" << TraceLayerName(ev->layer)
           << "\", \"node\": \"" << JsonEscape(j.NodeName(ev->node)) << "\"";
        if (ev->disp != PktDisposition::kNone) {
          os << ", \"disp\": \"" << PktDispositionName(ev->disp) << "\"";
          if (ev->disp == PktDisposition::kDropped) {
            os << ", \"reason\": \"" << DropReasonName(ev->reason) << "\"";
          }
        }
        if (ev->aux != 0) os << ", \"aux\": " << ev->aux;
        os << "}";
      }
      os << "]}";
    }
  }
  if (!first_pkt) os << "\n  ";
  os << "]\n}\n";
  return os.str();
}

}  // namespace psd
