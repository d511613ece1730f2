#include "src/obs/journey.h"
#include "src/base/json.h"

#include <algorithm>
#include <sstream>

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

DropLedger& DropLedger::Get() {
  static DropLedger* ledger = new DropLedger();
  return *ledger;
}

void DropLedger::Record(uint64_t pkt, TraceLayer layer, DropReason reason, SimTime at,
                        std::string node) {
  if (!enabled_ || reason == DropReason::kNone || reason == DropReason::kNumReasons) return;
  totals_[static_cast<size_t>(reason)]++;
  DropEvent ev;
  ev.pkt = pkt;
  ev.layer = layer;
  ev.reason = reason;
  ev.at = at;
  ev.node = node;
  recent_.push_back(std::move(ev));
  while (recent_.size() > ring_capacity_) recent_.pop_front();
  // A real drop is the packet's terminal; dup/delay events leave it alive.
  if (pkt != 0 && IsDropReason(reason)) {
    PacketJourney::Get().Dropped(pkt, layer, reason, node, at);
  }
}

uint64_t DropLedger::total_drops() const {
  uint64_t sum = 0;
  for (size_t i = 0; i < static_cast<size_t>(DropReason::kNumReasons); ++i) {
    if (IsDropReason(static_cast<DropReason>(i))) sum += totals_[i];
  }
  return sum;
}

void DropLedger::ExportStats(StatsRegistry* reg, const std::string& prefix) const {
  for (size_t i = 1; i < static_cast<size_t>(DropReason::kNumReasons); ++i) {
    const DropReason r = static_cast<DropReason>(i);
    const uint64_t* cell = &totals_[i];
    reg->RegisterGauge(prefix + DropReasonName(r), [cell] { return *cell; });
  }
}

void DropLedger::Reset() {
  for (auto& t : totals_) t = 0;
  recent_.clear();
  enabled_ = true;
  ring_capacity_ = kDefaultRingCapacity;
}

PacketJourney& PacketJourney::Get() {
  static PacketJourney* journey = new PacketJourney();
  return *journey;
}

uint64_t PacketJourney::Mint() {
  if (!enabled_) return 0;
  minted_++;
  return next_id_++;
}

uint32_t PacketJourney::Intern(std::string_view name) {
  if (name.empty()) return 0;
  auto ins = name_ids_.try_emplace(std::string(name), static_cast<uint32_t>(names_.size()));
  if (ins.second) names_.emplace_back(name);
  return ins.first->second;
}

void PacketJourney::PushHop(const HopEvent& ev) {
  hops_.push_back(ev);
  while (hops_.size() > hop_capacity_) hops_.pop_front();
}

void PacketJourney::Hop(uint64_t pkt, TraceLayer layer, uint32_t node, SimTime at,
                        uint64_t aux) {
  if (!enabled_ || pkt == 0) return;
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
  if (!enabled_ || pkt == 0) return;
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
  enabled_ = true;
  hop_capacity_ = kDefaultHopCapacity;
}

// ---------------------------------------------------------------------------
// pktwalk rendering.

std::string TerminalString(uint64_t pkt) {
  const PacketJourney& j = PacketJourney::Get();
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

// Packet ids present in the hop ring, ascending, filtered.
std::vector<uint64_t> SelectPackets(const PktwalkFilter& f) {
  const PacketJourney& j = PacketJourney::Get();
  std::vector<uint64_t> ids;
  for (const auto& ev : j.hops()) ids.push_back(ev.pkt);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  std::vector<uint64_t> out;
  for (uint64_t id : ids) {
    if (f.pkt != 0 && id != f.pkt) continue;
    if (f.lost_only && j.DispositionOf(id) != PktDisposition::kDropped &&
        j.HasTerminal(id)) {
      continue;  // delivered / consumed packets are not "lost"
    }
    out.push_back(id);
  }
  return out;
}

void AppendDropSections(std::ostringstream* os) {
  const DropLedger& led = DropLedger::Get();
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
    if (!ev.node.empty()) *os << " node=" << ev.node;
    *os << "\n";
  }
}

}  // namespace

std::string PktwalkText(const PktwalkFilter& f) {
  const PacketJourney& j = PacketJourney::Get();
  std::ostringstream os;
  if (!f.drops_only) {
    os << "packets: " << j.minted() << " minted, " << j.delivered() << " delivered, "
       << j.consumed() << " consumed, " << j.dropped() << " dropped, " << j.in_flight()
       << " in flight";
    if (j.conflicts() > 0) os << ", " << j.conflicts() << " terminal conflicts";
    os << "\n";
    for (uint64_t id : SelectPackets(f)) {
      os << "pkt " << id << ": " << TerminalString(id) << "\n";
      for (const auto& ev : j.JourneyOf(id)) {
        os << "  @" << ev.at << " " << TraceLayerName(ev.layer);
        if (ev.node != 0) os << " " << j.NodeName(ev.node);
        if (ev.disp != PktDisposition::kNone) {
          os << " -> " << PktDispositionName(ev.disp);
          if (ev.disp == PktDisposition::kDropped) os << "(" << DropReasonName(ev.reason) << ")";
        } else if (ev.aux != 0) {
          os << " aux=" << ev.aux;
        }
        os << "\n";
      }
    }
  }
  AppendDropSections(&os);
  return os.str();
}

std::string PktwalkJson(const PktwalkFilter& f) {
  const PacketJourney& j = PacketJourney::Get();
  const DropLedger& led = DropLedger::Get();
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
    for (uint64_t id : SelectPackets(f)) {
      if (!first_pkt) os << ",";
      first_pkt = false;
      os << "\n    {\"pkt\": " << id << ", \"terminal\": \"" << TerminalString(id)
         << "\", \"hops\": [";
      bool first_hop = true;
      for (const auto& ev : j.JourneyOf(id)) {
        if (!first_hop) os << ", ";
        first_hop = false;
        os << "{\"at\": " << ev.at << ", \"layer\": \"" << TraceLayerName(ev.layer)
           << "\", \"node\": \"" << JsonEscape(j.NodeName(ev.node)) << "\"";
        if (ev.disp != PktDisposition::kNone) {
          os << ", \"disp\": \"" << PktDispositionName(ev.disp) << "\"";
          if (ev.disp == PktDisposition::kDropped) {
            os << ", \"reason\": \"" << DropReasonName(ev.reason) << "\"";
          }
        }
        if (ev.aux != 0) os << ", \"aux\": " << ev.aux;
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
