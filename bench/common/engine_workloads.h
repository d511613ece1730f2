// The four canonical engine workloads (see bench/bench_engine.cc for the
// methodology they anchor), extracted so more than one binary can drive
// them: bench_engine measures them, `psdobs prof` profiles them, and the
// profiler tests re-run them at reduced scale.
//
//   tcp_stream — ttcp-style bulk TCP transfer, In-Kernel placement.
//   udp_blast  — one-way UDP datagram blast (the per-packet hot path).
//   churn_256  — 256 TCP sessions opened/transferred/closed, Library-SHM.
//   idle_128   — 128 In-Kernel clients each send one message to a server
//                and close, then idle in TIME_WAIT (the idle timer cost).
//
// Each run constructs a fresh World, runs the scenario to completion
// (std::exit(2) if it does not complete — these are benches, not tests) and
// reports the virtual quantities plus the host wall time of the simulation
// phase. `scale` in (0, 1] shrinks the transfer/packet/session count for
// short smoke or overhead runs; scale 1.0 is the measured configuration and
// must stay byte-identical run to run.
#ifndef PSD_BENCH_COMMON_ENGINE_WORKLOADS_H_
#define PSD_BENCH_COMMON_ENGINE_WORKLOADS_H_

#include <cstdint>

#include "src/base/time.h"
#include "src/cost/machine_profile.h"

namespace psd {

struct EngineRunOutcome {
  uint64_t frames = 0;    // wire frames carried (the "packets" denominator)
  uint64_t events = 0;    // simulator events executed
  uint64_t switches = 0;  // stack switches into fibers (Simulator::thread_switches)
  uint64_t elided = 0;    // of `events`, wakeups that skipped the queue (elided_wakeups)
  SimTime virtual_end = 0;
  double wall_ns = 0;     // host time for the simulation phase
};

EngineRunOutcome RunEngineTcpStream(const MachineProfile& prof, double scale = 1.0);
EngineRunOutcome RunEngineUdpBlast(const MachineProfile& prof, double scale = 1.0);
EngineRunOutcome RunEngineChurn256(const MachineProfile& prof, double scale = 1.0);
EngineRunOutcome RunEngineIdle128(const MachineProfile& prof, double scale = 1.0);

using EngineWorkloadFn = EngineRunOutcome (*)(const MachineProfile&, double);

// Resolves "tcp_stream" / "udp_blast" / "churn_256" / "idle_128"; nullptr
// if unknown.
EngineWorkloadFn FindEngineWorkload(const char* name);

}  // namespace psd

#endif  // PSD_BENCH_COMMON_ENGINE_WORKLOADS_H_
