// C10K scale-out bench: thousands of client hosts churning short TCP
// connections against one server per placement. The workload (the
// topology, the poll-driven server loop, heavy-tailed flows, live
// migrations mid-churn, the 500 ms observatory sampler) lives in
// bench/common/c10k.h, shared with `psdobs top`, which renders one run.
//
// Reported per placement:
//   accepts_per_sec      — connections admitted / virtual storm duration
//   connect_p99_ms       — 99th-percentile client connect latency (virtual;
//                          includes SYN-queue overflow retries under storm)
//   poll_edges / poll_wakeups / poll_waits
//                        — readiness-edge fan-in vs. actual thread wakeups
//                          (the PollSet counters; absent on library
//                          placements, whose poll rides cooperative select)
//   wakeup_cost_edges    — edges per wakeup: >1 means edges coalesced into
//                          one wakeup, the cost the subsystem exists to cut
//   wall_ns_per_pkt      — host ns per simulated wire frame (also in the
//                          summary as <placement>_wall_ns_per_pkt, so
//                          bench_diff compares two runs per placement)
//
// Observatory sections: each placement row also reports per-op RPC
// accounting from the server's worker recorders (count, bytes, queue-wait
// vs service p50/p99), the client-side RPC total and its per-connection
// amplification (traps for the in-kernel baseline), shared-metastate event
// totals plus sampler rates, and — with --migrate=N (default 8, library
// placements) — N live migrations with per-phase latency percentiles. The
// run exits 4 if any migrated connection fails to complete its flow.
//
// Virtual quantities (frames, flow bytes, accepts, RPC totals, migrations)
// must be bit-identical across --trials runs; divergence aborts the bench
// (wall-clock state must never leak into simulation behavior). Emits
// BENCH_c10k.json (shared schema).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>

#include "bench/common/bench_json.h"
#include "bench/common/c10k.h"
#include "bench/common/flags.h"
#include "src/obs/prof.h"

namespace psd {
namespace {

std::string MetastateJson(const C10kOutcome& r) {
  std::string out = "{\"totals\": {";
  for (size_t i = 0; i < r.meta_totals.size(); i++) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "%s\"%s\": %llu", i == 0 ? "" : ", ",
                  r.meta_totals[i].first.c_str(),
                  static_cast<unsigned long long>(r.meta_totals[i].second));
    out += buf;
  }
  char rates[256];
  std::snprintf(rates, sizeof rates,
                "}, \"rates_per_sec\": {\"rpc\": %.6g, \"arp_miss\": %.6g, "
                "\"route_lookup\": %.6g, \"port_acquire\": %.6g}, "
                "\"timeseries_samples\": %llu}",
                r.rpcs_per_sec, r.arp_miss_per_sec, r.route_lookup_per_sec,
                r.port_acquire_per_sec, static_cast<unsigned long long>(r.timeseries_samples));
  out += rates;
  return out;
}

Config kConfigs[] = {Config::kInKernel, Config::kServer, Config::kLibraryIpc,
                     Config::kLibraryShm, Config::kLibraryShmIpf};

}  // namespace
}  // namespace psd

int main(int argc, char** argv) {
  using namespace psd;
  C10kParams p;
  int trials = 1;
  uint64_t seed = 1993;
  for (int i = 1; i < argc; i++) {
    bool ok = true;
    if (std::strncmp(argv[i], "--clients=", 10) == 0) {
      ok = ParseInt(argv[i] + 10, 1, &p.clients);
    } else if (std::strncmp(argv[i], "--conns=", 8) == 0) {
      ok = ParseInt(argv[i] + 8, 1, &p.conns);
    } else if (std::strncmp(argv[i], "--trials=", 9) == 0) {
      ok = ParseInt(argv[i] + 9, 1, &trials);
    } else if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      ok = ParseInt(argv[i] + 7, 0, &seed);
    } else if (std::strncmp(argv[i], "--migrate=", 10) == 0) {
      ok = ParseInt(argv[i] + 10, 0, &p.migrate);
    } else {
      ok = false;
    }
    if (!ok) {
      std::fprintf(stderr,
                   "usage: %s [--clients=N] [--conns=N] [--trials=N] [--seed=N] [--migrate=N]\n",
                   argv[0]);
      return 1;
    }
  }
  MachineProfile prof = MachineProfile::DecStation5000();
  std::printf("-- C10K churn bench (%d clients x %d conns, profile %s, %d trial%s) --\n",
              p.clients, p.conns, prof.name.c_str(), trials, trials == 1 ? "" : "s");

  BenchJson out("c10k", prof.name);
  out.summary().Set("clients", p.clients);
  out.summary().Set("conns_per_client", p.conns);
  out.summary().Set("backlog", p.backlog);
  out.summary().Set("seed", seed);
  out.summary().Set("migrate", p.migrate);

  for (Config config : kConfigs) {
    C10kOutcome ref;
    double min_wall = 0;
    for (int t = 0; t < trials; t++) {
      C10kOutcome r = RunC10k(config, prof, p, seed);
      if (t == 0) {
        ref = r;
        min_wall = r.wall_ns;
      } else {
        if (r.frames != ref.frames || r.events != ref.events || r.accepts != ref.accepts ||
            r.flow_bytes != ref.flow_bytes || r.virtual_end != ref.virtual_end ||
            r.rpc_client_total != ref.rpc_client_total ||
            r.live_migrations != ref.live_migrations) {
          std::fprintf(stderr, "bench_c10k: %s trial %d diverged — wall-clock state leaked\n",
                       ConfigName(config), t);
          return 3;
        }
        min_wall = std::min(min_wall, r.wall_ns);
      }
    }
    // Extra run with the host profiler attached (kept out of the measured
    // trials so the reported wall numbers stay profiler-free). Virtual
    // quantities must still match: the profiler touches no virtual state.
    HostProfiler& hp = HostProfiler::Get();
    hp.Start();
    C10kOutcome prof_run = RunC10k(config, prof, p, seed);
    hp.Stop();
    HostProfReport host_rep = hp.Snapshot();
    if (host_rep.enabled &&
        (prof_run.frames != ref.frames || prof_run.events != ref.events ||
         prof_run.virtual_end != ref.virtual_end)) {
      std::fprintf(stderr, "bench_c10k: %s profiled run diverged — profiler touched virtual "
                           "state\n", ConfigName(config));
      return 3;
    }
    double storm_s = static_cast<double>(ref.storm_ns) * 1e-9;
    double accepts_per_sec = storm_s > 0 ? static_cast<double>(ref.accepts) / storm_s : 0;
    double p50 = Percentile(ref.connect_ns, 50) / 1e6;
    double p99 = Percentile(ref.connect_ns, 99) / 1e6;
    double wall_ns_per_pkt = min_wall / static_cast<double>(ref.frames);
    out.summary().Set(std::string(ConfigName(config)) + "_wall_ns_per_pkt", wall_ns_per_pkt);
    double edges_per_wakeup = ref.poll_wakeups > 0
                                  ? static_cast<double>(ref.poll_edges) /
                                        static_cast<double>(ref.poll_wakeups)
                                  : 0;
    std::printf(
        "%-15s %7llu accepts %9.0f acc/s  connect p50 %7.2f ms p99 %8.2f ms  %8llu frames  "
        "%6llu edges %6llu wakeups  %7.1f ns/pkt\n",
        ConfigName(config), static_cast<unsigned long long>(ref.accepts), accepts_per_sec, p50,
        p99, static_cast<unsigned long long>(ref.frames),
        static_cast<unsigned long long>(ref.poll_edges),
        static_cast<unsigned long long>(ref.poll_wakeups), wall_ns_per_pkt);
    double rpc_per_conn = ref.accepts > 0
                              ? static_cast<double>(ref.rpc_client_total) /
                                    static_cast<double>(ref.accepts)
                              : 0;
    std::printf(
        "                rpc %8llu calls (%5.2f/conn, %8.0f/s)  migrations %llu  "
        "migrate p99 %.2f ms\n",
        static_cast<unsigned long long>(ref.rpc_client_total), rpc_per_conn, ref.rpcs_per_sec,
        static_cast<unsigned long long>(ref.live_migrations),
        Percentile(ref.migrate_total_ns, 99) / 1e6);

    BenchJson::Obj& row = out.AddResult();
    row.Set("placement", ConfigName(config));
    row.Set("accepts", ref.accepts);
    row.Set("accepts_per_sec", accepts_per_sec);
    row.Set("flows_completed", ref.flows_completed);
    row.Set("flow_bytes", ref.flow_bytes);
    row.Set("connect_p50_ms", p50);
    row.Set("connect_p99_ms", p99);
    row.Set("listen_overflows", ref.listen_overflows);
    row.Set("poll_edges", ref.poll_edges);
    row.Set("poll_wakeups", ref.poll_wakeups);
    row.Set("poll_waits", ref.poll_waits);
    row.Set("wakeup_cost_edges", edges_per_wakeup);
    row.Set("frames", ref.frames);
    row.Set("events", ref.events);
    row.Set("storm_virtual_s", storm_s);
    row.Set("virtual_end_ms", static_cast<double>(ref.virtual_end) / 1e6);
    row.Set("wall_ns", min_wall);
    row.Set("wall_ns_per_pkt", wall_ns_per_pkt);
    row.Set("rpc_total", ref.rpc_client_total);
    row.Set("rpc_per_connection", rpc_per_conn);
    row.Set("server_traps", ref.server_traps);
    row.SetRaw("rpc_ops", RpcOpsJson(ref.rpc_ops));
    row.SetRaw("metastate", MetastateJson(ref));
    row.SetRaw("migrations",
               MigrationsJson(ref, IsLibraryConfig(config) ? p.migrate : 0));
    row.SetRaw("host_profile", HostProfileJsonFragment(host_rep));
  }
  out.WriteFile();
  return 0;
}
