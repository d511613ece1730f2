// Seeded application-traffic mixes for the torture harness: weighted
// combinations of the src/proto adapter stacks (pipelined RPC over pfx
// framing, CRLF echo with and without garbage bursts, the in-band
// STARTPFX protocol switch, and DNS-like UDP query/retry), all running
// concurrently between host 0 (clients) and host 1 (servers).
//
// A mix brings its own invariants, checked by RunTorture alongside the
// five wire-level ones:
//
//   6. rpc bijection — every call is answered exactly once with valid
//      content: acked == sent, zero id mismatches, zero bad payloads.
//   7. framing hygiene — no adapter was poisoned (frame_errors == 0 on a
//      reliable substrate), and the CRLF resync count equals exactly the
//      garbage bursts the noisy clients injected: resync-or-fail, never
//      silent desync.
//   8. switch exactly-once — every switch connection hands over exactly
//      once on each side (completed == 2 * conns, refused == 0) and the
//      post-switch RPC behaves per invariant 6.
//   9. dns accounting — resolved + failed == issued, every accepted
//      answer was content-valid (dns_bad == 0; UDP checksums make
//      corrupted answers invisible), transmissions >= queries.
//
// Everything a mix reports is virtual-deterministic, so torture replays
// stay byte-identical.
#ifndef PSD_SRC_TESTBED_TRAFFIC_MIX_H_
#define PSD_SRC_TESTBED_TRAFFIC_MIX_H_

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "src/proto/adapter.h"
#include "src/testbed/world.h"

namespace psd {

// One weighted mix: how many connections of each protocol flavor run
// concurrently, and their per-connection knobs. Sized for the torture
// determinism matrix (every scenario runs 5 placements x 3 seeds x 2
// event-queue backends), so the defaults are deliberately small.
struct MixSpec {
  std::string name;
  std::string summary;
  // Pipelined request/response RPC over pfx framing (port 7100+k).
  int rpc_conns = 0;
  int rpc_calls = 24;
  int rpc_window = 8;
  size_t rpc_min_payload = 0;
  size_t rpc_max_payload = 384;
  // CRLF echo (port 7200+k). The first `line_conns` are clean; the next
  // `noisy_line_conns` each precede their lines with one overlong garbage
  // burst (no CR/LF, longer than the line bound) so the server's
  // resync-mode parser must skip-to-terminator exactly once.
  int line_conns = 0;
  int noisy_line_conns = 0;
  int lines_per_conn = 24;
  size_t max_line = 512;
  // In-band protocol switch (port 7400+k): `switch_pre_lines` echoed
  // lines, then STARTPFX, then a pipelined RPC run over the successor.
  int switch_conns = 0;
  int switch_pre_lines = 4;
  int switch_rpc_calls = 12;
  // DNS-like UDP query clients against one shared server socket (7005).
  int dns_clients = 0;
  int dns_queries = 6;
  int dns_retries = 8;
  size_t dns_payload = 48;
  SimDuration dns_timeout = Millis(400);
};

// The built-in mix registry ("rpc", "lines", "dns", "switchy", "mixed").
const std::vector<MixSpec>& TrafficMixes();
// nullptr when no mix has that name.
const MixSpec* FindTrafficMix(const std::string& name);

// Runs one mix inside a World. Construct before the World (stalled runs
// leave fibers blocked on this state while ~World unwinds them), Launch
// after the World exists, then check/report after the sim drains.
class TrafficMix {
 public:
  TrafficMix(const MixSpec& spec, uint64_t seed);

  // Spawns every server and client fiber (clients host 0, servers host 1).
  // Each fiber calls app_done exactly once, as the last thing it does — the
  // same completion accounting the torture watchdog already runs on.
  void Launch(World* w, std::function<void()> app_done);

  int apps_total() const;
  // Folded into the watchdog's progress signature: moves whenever any
  // adapter in the mix moves.
  uint64_t ProgressSignature() const;
  // Appends invariant 6-9 violations to `failures` (full accounting only
  // when `complete`; partial runs still check validity-type invariants).
  void CheckInvariants(bool complete, std::vector<std::string>* failures) const;
  // Deterministic per-protocol report lines ("mix-rpc: ...").
  void Report(std::ostream& os) const;
  // Registers both ends' adapter counters as proto.client.* /
  // proto.server.* gauges (the mix outlives any snapshot consumer).
  void ExportStats(StatsRegistry* reg) const;

  const MixSpec& spec() const { return spec_; }
  // Client- and server-side adapter counters, kept separate so the
  // invariants can compare the two ends (export as proto.client.* /
  // proto.server.*).
  const ProtoCounters& client_counters() const { return client_; }
  const ProtoCounters& server_counters() const { return server_; }

 private:
  MixSpec spec_;
  uint64_t seed_;
  ProtoCounters client_;
  ProtoCounters server_;

  // Per-connection outcomes (see traffic_mix.cc for the fiber bodies).
  std::vector<uint64_t> rpc_sent_, rpc_acked_, rpc_served_;
  std::vector<int> rpc_completed_;  // 0/1 per client connection
  std::vector<int> rpc_client_err_, rpc_server_err_;  // Err as int, kOk = 0

  std::vector<uint64_t> lines_sent_, lines_ok_, lines_bad_, lines_served_;
  std::vector<int> line_client_err_, line_server_err_;

  std::vector<int> switch_client_done_, switch_server_done_;
  std::vector<uint64_t> switch_pre_ok_, switch_rpc_acked_, switch_served_;
  std::vector<int> switch_completed_;
  std::vector<int> switch_client_err_, switch_server_err_;

  std::vector<uint64_t> dns_resolved_, dns_failed_, dns_tx_;
  uint64_t dns_answered_ = 0;
  int dns_clients_finished_ = 0;
  bool dns_stop_ = false;
};

}  // namespace psd

#endif  // PSD_SRC_TESTBED_TRAFFIC_MIX_H_
