// The C10K churn workload, shared by bench/bench_c10k (which measures it on
// every placement) and `psdobs top` (which renders one run of it).
//
// Topology: one server host in the placement under test faces `clients`
// plain in-kernel client hosts on the shared segment (World's
// placement_hosts knob). Each client opens `conns` connections in
// sequence: connect, push a heavy-tailed flow (bounded Pareto, most flows a
// few hundred bytes, a fat tail up to `flow_cap`), close, brief think time.
// The server runs a single-threaded event loop on the scalable readiness
// interface (PollCreate/PollAdd/PollWait): one listener registration, one
// registration per live child, one Accept or Recv per delivered event —
// level-triggered, the way an epoll server is written. With `migrate` = N
// on a library placement, N freshly accepted sessions are live-migrated
// mid-churn (ReturnToServer + Reacquire); every one must still complete.
//
// A virtual-time sampler reads metastate totals, the server's client-side
// RPC count, wire frames and the host profiler's prof.* gauges every
// `sample_interval`. The run exits the process with status 2 if fewer than
// 99% of flows complete and with status 4 on migration loss — these are
// benches, not tests.
#ifndef PSD_BENCH_COMMON_C10K_H_
#define PSD_BENCH_COMMON_C10K_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/rpc_account.h"
#include "src/testbed/world.h"

namespace psd {

struct C10kParams {
  int clients = 2048;
  int conns = 2;        // connections per client
  int backlog = 128;    // server listen backlog (accept half)
  int migrate = 8;      // live migrations mid-churn (library placements)
  size_t flow_min = 256;
  size_t flow_cap = 32 * 1024;
  SimDuration sample_interval = Millis(500);  // time-series sampler period
};

struct PhaseStat {
  std::string name;
  uint64_t count = 0;
  double p50_us = 0;
  double p99_us = 0;
};

struct C10kOutcome {
  // Virtual quantities — must be identical across trials.
  uint64_t accepts = 0;
  uint64_t flows_completed = 0;
  uint64_t flow_bytes = 0;
  uint64_t frames = 0;
  uint64_t events = 0;
  SimTime storm_ns = 0;        // first connect attempt -> last flow served
  SimTime virtual_end = 0;
  uint64_t poll_edges = 0;
  uint64_t poll_wakeups = 0;
  uint64_t poll_waits = 0;
  uint64_t listen_overflows = 0;
  std::vector<SimDuration> connect_ns;  // per successful connect
  // Observatory: per-op RPC accounting (server side, merged workers; only
  // ops with count > 0, in op order), client-side RPC total, trap baseline.
  std::vector<std::pair<std::string, RpcOpStats>> rpc_ops;
  uint64_t rpc_client_total = 0;
  uint64_t server_traps = 0;
  // Observatory: metastate totals, sampler rates, migration measurement.
  std::vector<std::pair<std::string, uint64_t>> meta_totals;
  std::vector<PhaseStat> phases;
  double rpcs_per_sec = 0;
  double arp_miss_per_sec = 0;
  double route_lookup_per_sec = 0;
  double port_acquire_per_sec = 0;
  uint64_t timeseries_samples = 0;
  // TimeSeriesSampler::Json() of the run, split in two: the virtual gauges
  // (byte-identical between runs of one binary) and the host wall-clock
  // prof.* gauges.
  std::string timeseries_json;
  std::string host_timeseries_json;
  uint64_t live_migrations = 0;
  uint64_t migrated_completed = 0;
  uint64_t migrated_errors = 0;
  std::vector<SimDuration> migrate_total_ns;  // end-to-end per live migration
  // Host quantity.
  double wall_ns = 0;
};

C10kOutcome RunC10k(Config config, const MachineProfile& prof, const C10kParams& p,
                    uint64_t seed);

// Nearest-rank percentile (pct in [0, 100]) of `v`, in the samples' unit.
double Percentile(std::vector<SimDuration> v, double pct);

// Nested JSON sections for one run: the per-op RPC table, and the
// migration report (`requested` is what the caller asked for).
std::string RpcOpsJson(const std::vector<std::pair<std::string, RpcOpStats>>& ops);
std::string MigrationsJson(const C10kOutcome& r, int requested);

}  // namespace psd

#endif  // PSD_BENCH_COMMON_C10K_H_
