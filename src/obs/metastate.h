// Shared-metastate ledger.
//
// The paper's decomposition leaves one OS server owning the state that all
// protocol instances must agree on: the TCP/UDP port namespace, the ARP
// cache, the route table, the kernel's packet-filter table, and the
// session-migration handover protocol that moves a connection between the
// server and an application-linked library. Every touch of that shared
// metastate is a coordination cost the in-kernel placement never pays — so
// the ledger gives each touch a named event with an exact per-run total,
// and breaks migration into tracer-spanned phases with a per-phase
// virtual-time histogram:
//
//   freeze    — detach the pcb from its socket, suppress the tuple
//   encode    — serialize pcb + buffered data into the wire form
//   transfer  — the RPC leg(s) carrying the state (client-observed, so it
//               contains the remote freeze/encode/install work; phases
//               overlap by design and do not sum to a wall total)
//   install   — session filter/FlowSpec install so stray segments are
//               suppressed rather than RST'd during the handover window
//   resume    — adopt the pcb into the destination stack and kick it
//
// One ledger per run, in the World's Observatory (src/obs/observatory.h),
// like DropLedger: port allocators and route tables reach it through their
// Stack, the ARP layer through its StackEnv, the kernel and servers through
// their host. Its totals cover every host of the World, construction
// included, and its gauges point into the World. Recording charges no
// simulated cost: the golden ctests (tests/CMakeLists.txt) pin virtual
// time with the ledger running.
#ifndef PSD_SRC_OBS_METASTATE_H_
#define PSD_SRC_OBS_METASTATE_H_

#include <array>
#include <cstdint>
#include <string>

#include "src/base/time.h"
#include "src/obs/histogram.h"

namespace psd {

class StatsRegistry;

// One named event per shared-metastate touch. Grouped by the resource that
// is being coordinated; see DESIGN.md §12 for the taxonomy table.
enum class MetaEvent : uint8_t {
  // port namespace (PortAlloc + TCP close-time inheritance)
  kPortAcquire = 0,  // port reserved (bind/connect/ephemeral)
  kPortRelease,      // port returned to the namespace
  kPortTransfer,     // ownership handed to the accepted heir on listener close
  // ARP cache
  kArpHit,         // resolve satisfied from the cache (kernel or library copy)
  kArpMiss,        // resolve had to ask the wire (or the OS server)
  kArpRequest,     // who-has sent on the wire
  kArpReply,       // is-at sent on the wire
  kArpGratuitous,  // unsolicited update changed an existing entry's MAC
  kArpInvalidate,  // server pushed a cache-invalidation callback
  // route table
  kRouteLookup,   // longest-prefix lookup (forwarding or proxy RPC)
  kRouteMiss,     // lookup found no covering route
  kRouteInstall,  // route added (generation bump)
  // kernel filter table
  kFilterInstall,  // filter program / FlowSpec installed
  kFilterRemove,   // filter removed
  // migration handover
  kMigrationOut,  // session left a stack (server -> app or app -> server)
  kMigrationIn,   // session adopted by the destination stack
  kNumEvents
};

// Stable kebab-case name ("port-acquire", "arp-gratuitous", ...).
const char* MetaEventName(MetaEvent e);

enum class MigrationPhase : uint8_t {
  kFreeze = 0,
  kEncode,
  kTransfer,
  kInstall,
  kResume,
  kNumPhases
};

const char* MigrationPhaseName(MigrationPhase p);

class MetastateLedger {
 public:
  using Totals = std::array<uint64_t, static_cast<size_t>(MetaEvent::kNumEvents)>;

  // The perfbench shim (src/obs/observatory.h).
  static MetastateLedger& Get();

  void Count(MetaEvent e, uint64_t n = 1) { totals_[static_cast<size_t>(e)] += n; }
  uint64_t total(MetaEvent e) const { return totals_[static_cast<size_t>(e)]; }
  const Totals& totals() const { return totals_; }

  void RecordPhase(MigrationPhase p, SimDuration d) {
    phases_[static_cast<size_t>(p)].Record(d);
  }
  const LatencyHistogram& phase(MigrationPhase p) const {
    return phases_[static_cast<size_t>(p)];
  }

  // Registers "<prefix><event-name>" per event, counting from `since` (a
  // totals() taken earlier in the run), plus
  // "<prefix>migration.<phase>.count" per phase.
  void ExportStats(StatsRegistry* reg, const std::string& prefix,
                   const Totals& since = {}) const;

  // Only the perfbench shim needs it.
  void Reset();

 private:
  Totals totals_ = {};
  LatencyHistogram phases_[static_cast<size_t>(MigrationPhase::kNumPhases)];
};

}  // namespace psd

#endif  // PSD_SRC_OBS_METASTATE_H_
