// Scenario-driven torture harness: runs seeded randomized TCP/UDP workloads
// through a World under an adversarial FaultPlan and asserts the system
// invariants that must hold in every placement no matter what the wire does:
//
//   1. digest       — every byte stream arrives intact (FNV-1a over the TCP
//                     stream; per-datagram regenerable content for UDP).
//   2. conservation — every minted packet id ends in exactly one of
//                     delivered / consumed / dropped / in-flight, with no
//                     conflicting terminals, and the drop ledger agrees with
//                     the journey's terminals.
//   3. corruption   — exact reconciliation: every checksum/header-validation
//                     drop names a frame the injector corrupted, and every
//                     corrupted frame died (none delivered or consumed).
//   4. leaks        — pcbs, bound ports, kernel filters and RST-suppression
//                     entries return to their pre-workload counts after
//                     teardown (TIME_WAIT included: the run drains virtual
//                     time until the stacks go idle).
//   5. progress     — a virtual-time watchdog: if no counter moves for
//                     quiet_limit consecutive quiet_windows before the
//                     workload completes, the run is declared stalled and
//                     the report carries a pktwalk dump of the lost packets.
//
// A scenario may additionally attach an application-traffic mix
// (traffic_mix.h) — composed protocol-adapter stacks whose own invariants
// (6: rpc id bijection, 7: framing resync-or-fail, 8: switch exactly-once,
// 9: dns accounting) are checked alongside the five above, so coverage is
// fault plans x protocol mixes x placements.
//
// Runs are replayable: the same (scenario, config, seed) produces a
// byte-identical report (tools/torture is the CLI; CI diffs two runs).
#ifndef PSD_SRC_TESTBED_TORTURE_H_
#define PSD_SRC_TESTBED_TORTURE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/testbed/world.h"

namespace psd {

class PcapCapture;

// One torture scenario: which fault classes are on, which workloads run,
// and how patient the watchdog is. The FaultPlan's seed field is ignored —
// the run seed (--seed) is planted there so one scenario replays under any
// seed.
struct TortureSpec {
  std::string name;
  std::string summary;
  FaultPlan faults;
  bool tcp = true;
  bool udp = false;
  size_t tcp_bytes = 48 * 1024;
  int tcp_pairs = 1;
  int udp_count = 64;
  size_t udp_payload = 512;
  bool expect_all_udp = false;  // fault-free runs must deliver every datagram
  // Accept-storm workload (0 = off): `storm_clients` short-lived
  // connections race one listener whose accept backlog is `storm_backlog`
  // and whose single-threaded accept loop lingers `storm_accept_delay` per
  // connection. The run must overflow the listen queue (ledgered as
  // kTcpListenOverflow), yet every client that completed its handshake must
  // eventually be accepted with its bytes intact, and teardown must be
  // leak-free — the split-queue accounting invariant.
  int storm_clients = 0;
  int storm_backlog = 1;
  SimDuration storm_accept_delay = Millis(100);
  // Application-traffic mix (empty = none): the name of a TrafficMixes()
  // entry. The mix's protocol stacks (src/proto) run concurrently with the
  // raw workloads above, and its per-protocol invariants (rpc id bijection,
  // framing resync-or-fail, switch exactly-once, dns accounting) are
  // checked alongside invariants 1-5.
  std::string mix;
  SimDuration deadline = Seconds(600);
  SimDuration quiet_window = Seconds(20);
  int quiet_limit = 3;
};

struct TortureResult {
  bool passed = false;
  bool stalled = false;
  std::vector<std::string> failures;  // empty iff passed
  std::string report;                 // deterministic human-readable text
  std::string pktwalk;                // every packet's journey (PktwalkText)
};

// The built-in scenario registry (clean, loss, burst-loss, corrupt, ...).
const std::vector<TortureSpec>& TortureScenarios();
// nullptr when no scenario has that name.
const TortureSpec* FindTortureScenario(const std::string& name);

// Runs one scenario on one placement under one seed in a World of its own,
// and renders the run's pktwalk before that World dies.
// `wire_pcap`, when non-null, is attached to the wire for the whole run (for
// failure artifacts); taps charge no simulated cost, so attaching one cannot
// change the outcome.
TortureResult RunTorture(Config config, const TortureSpec& spec, uint64_t seed,
                         PcapCapture* wire_pcap = nullptr);

}  // namespace psd

#endif  // PSD_SRC_TESTBED_TORTURE_H_
