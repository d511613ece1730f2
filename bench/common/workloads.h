// The paper's two microbenchmark programs (§4, "Platforms"):
//
//  * ttcp     — memory-to-memory TCP throughput: transfers 16 MB from one
//               host to another, reporting KB/s. The paper runs it "with
//               the best possible receive buffer size for each
//               implementation", found by increasing the buffer until
//               throughput stops improving; TtcpBestBuffer reproduces that
//               methodology.
//  * protolat — protocol round-trip latency for UDP and TCP across message
//               sizes (1, 100, 512, 1024, 1460/1472 bytes).
//
// All times are virtual; runs are deterministic.
#ifndef PSD_BENCH_COMMON_WORKLOADS_H_
#define PSD_BENCH_COMMON_WORKLOADS_H_

#include <cstddef>
#include <vector>

#include "src/testbed/world.h"

namespace psd {

struct TtcpOptions {
  size_t total_bytes = 16 * 1024 * 1024;
  size_t write_size = 8192;  // ttcp default buffer length
  size_t rcvbuf = 24 * 1024;
  size_t sndbuf = 24 * 1024;
  bool newapi = false;  // shared-buffer socket interface (paper §4.2)
  bool pio_nic = false;
};

struct TtcpResult {
  double kb_per_sec = 0;
  uint64_t retransmits = 0;
  uint64_t wakeups = 0;  // SHM-ring signals on the receiver (batching metric)
  uint64_t packets = 0;
};

TtcpResult RunTtcp(Config config, const MachineProfile& profile, const TtcpOptions& opt);

struct SweepResult {
  TtcpResult best;
  size_t best_rcvbuf = 0;
  std::vector<std::pair<size_t, double>> curve;  // (rcvbuf, KB/s)
};

// Paper methodology: increase the receive buffer until throughput stops
// improving (< 2% gain).
SweepResult TtcpBestBuffer(Config config, const MachineProfile& profile, TtcpOptions opt);

struct ProtolatOptions {
  IpProto proto = IpProto::kUdp;
  size_t msg_size = 1;
  int trials = 100;
  bool newapi = false;
  bool pio_nic = false;
};

// Observability hooks for an instrumented protolat run. The tracer (if any)
// is attached to both hosts before the run, so its sinks see the client's
// send path and the echo host's receive path.
struct ProtolatHooks {
  Tracer* tracer = nullptr;
  // Called right after the world is built, before any application thread
  // runs (use to attach pcap taps, export stats registries, or inject
  // wire faults).
  std::function<void(World&)> on_world;
  // Called on the client thread at the warmup/measurement boundary (use to
  // reset accumulating sinks so means cover only measured trials).
  std::function<void()> on_measure_begin;
  // Called on the client thread after the timed trials, while the world is
  // still alive (use to snapshot stats registries).
  std::function<void(World&)> on_done;
};

// Mean round-trip time in milliseconds, or -1 if the run did not complete
// (a lost UDP datagram stalls protolat, which has no retry). Hooks observe
// the run without changing its virtual-time behaviour (the tracer charges
// nothing).
double RunProtolat(Config config, const MachineProfile& profile, const ProtolatOptions& opt,
                   const ProtolatHooks& hooks = {});

// Table 4 convenience wrapper: runs protolat with a private Tracer feeding
// `recorder`, reset at the warmup boundary so cells cover only measured
// round trips.
double RunProtolatProbed(Config config, const MachineProfile& profile, const ProtolatOptions& opt,
                         StageRecorder* recorder);

}  // namespace psd

#endif  // PSD_BENCH_COMMON_WORKLOADS_H_
