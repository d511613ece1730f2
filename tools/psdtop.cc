// psdtop: top-style front end for the shared-metastate observatory. Runs a
// small accept/recv churn workload on one of the paper's placements (an
// in-kernel client fleet against one server host, the bench_c10k topology
// in miniature, with a few live migrations on library placements) and
// renders what the observatory saw:
//
//   * per-op RPC table — server-side worker recorders, one row per op with
//     count, payload bytes, and queue-wait vs service p50/p99;
//   * client-side RPC total and per-connection amplification;
//   * shared-metastate resource table — ledger event totals plus rates from
//     the virtual-time sampler;
//   * migration phase table — freeze/encode/transfer/install/resume
//     latency percentiles.
//
// Usage:
//   psdtop [--config NAME] [--clients N] [--conns N] [--migrate N]
//          [--interval MS] [--json]
//
// Defaults: --config library-shm --clients 8 --conns 2 --migrate 2
// --interval 100. --json emits one JSON object (including the raw time
// series) instead of the tables.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "src/obs/metastate.h"
#include "src/obs/prof.h"
#include "src/obs/stats.h"
#include "src/obs/timeseries.h"
#include "src/testbed/world.h"

using namespace psd;

namespace {

int Usage(const char* argv0) {
  fprintf(stderr,
          "usage: %s [--config in-kernel|server|library-ipc|library-shm|library-shm-ipf]\n"
          "          [--clients N] [--conns N] [--migrate N] [--interval MS] [--json]\n",
          argv0);
  return 2;
}

const char* Leaf(const char* name) {
  const char* slash = strchr(name, '/');
  return slash != nullptr ? slash + 1 : name;
}

struct OpRow {
  std::string name;
  RpcOpStats stats;
};

}  // namespace

int main(int argc, char** argv) {
  Config config = Config::kLibraryShm;
  int clients = 8;
  int conns = 2;
  int migrate = 2;
  int64_t interval_ms = 100;
  bool json = false;

  for (int i = 1; i < argc; i++) {
    auto need = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        fprintf(stderr, "%s requires an argument\n", flag);
        exit(Usage(argv[0]));
      }
      return argv[++i];
    };
    if (strcmp(argv[i], "--config") == 0) {
      const char* v = need("--config");
      if (!ParseConfig(v, &config)) {
        fprintf(stderr, "unknown config '%s'\n", v);
        return Usage(argv[0]);
      }
    } else if (strcmp(argv[i], "--clients") == 0) {
      clients = atoi(need("--clients"));
    } else if (strcmp(argv[i], "--conns") == 0) {
      conns = atoi(need("--conns"));
    } else if (strcmp(argv[i], "--migrate") == 0) {
      migrate = atoi(need("--migrate"));
    } else if (strcmp(argv[i], "--interval") == 0) {
      interval_ms = atoll(need("--interval"));
    } else if (strcmp(argv[i], "--json") == 0) {
      json = true;
    } else {
      fprintf(stderr, "unknown flag '%s'\n", argv[i]);
      return Usage(argv[0]);
    }
  }
  if (clients < 1 || conns < 1 || migrate < 0 || interval_ms < 1) {
    fprintf(stderr, "psdtop: bad parameters\n");
    return 2;
  }

  MachineProfile prof = MachineProfile::DecStation5000();
  const uint64_t total_conns = static_cast<uint64_t>(clients) * conns;
  uint64_t accepts = 0;
  uint64_t flows_completed = 0;
  uint64_t rpc_total = 0;
  uint64_t server_traps = 0;
  uint64_t migrations = 0;
  std::vector<OpRow> ops;
  std::string timeseries_json;
  double rpc_rate = 0, route_rate = 0;
  uint64_t samples_taken = 0;

  {
    World w(config, prof, /*hosts=*/1 + clients, /*pio_nic=*/false, /*placement_hosts=*/1);
    w.SeedStaticArp();
    MetastateLedger::Get().Reset();

    StatsRegistry reg;
    MetastateLedger::Get().ExportStats(&reg, "meta.");
    // Host wall-clock attribution rides the same sampler: prof.* gauges
    // are host ns per domain, so their sampled deltas are host-time rates.
    HostProfiler::Get().Start();
    HostProfiler::Get().ExportStats(&reg, "prof.");
    if (w.library(0) != nullptr) {
      reg.RegisterGauge("rpc.total", [&w] { return w.library(0)->rpc_calls().total(); });
    } else if (w.ux_node(0) != nullptr) {
      reg.RegisterGauge("rpc.total", [&w] { return w.ux_node(0)->rpc_calls().total(); });
    } else {
      reg.RegisterGauge("rpc.total", [&w] { return w.kernel_node(0)->traps(); });
    }
    TimeSeriesSampler sampler(&w.sim(), &reg, Millis(interval_ms));
    sampler.Start();

    LibraryNode* lib_node = w.library_node(0);
    const uint64_t migrate_n =
        lib_node != nullptr && migrate > 0 ? static_cast<uint64_t>(migrate) : 0;
    const uint64_t stride = std::max<uint64_t>(1, total_conns / (migrate_n + 1));

    w.SpawnApp(0, "psdtop-server", [&] {
      SocketApi* api = w.api(0);
      int lfd = *api->CreateSocket(IpProto::kTcp);
      api->Bind(lfd, SockAddrIn{Ipv4Addr::Any(), 5001});
      api->Listen(lfd, 64);
      int pfd = *api->PollCreate();
      api->PollAdd(pfd, lfd, kPollEventIn);
      std::vector<PollEvent> events;
      uint8_t buf[8192];
      while (flows_completed < total_conns) {
        Result<int> n = api->PollWait(pfd, &events, Seconds(60));
        if (!n.ok() || *n == 0) {
          break;
        }
        for (const PollEvent& ev : events) {
          if (ev.fd == lfd) {
            Result<int> cfd = api->Accept(lfd, nullptr);
            if (cfd.ok()) {
              accepts++;
              api->PollAdd(pfd, *cfd, kPollEventIn);
              if (migrations < migrate_n && accepts % stride == 0 &&
                  lib_node->ReturnToServer(*cfd).ok() && lib_node->Reacquire(*cfd).ok()) {
                migrations++;
              }
            }
            continue;
          }
          Result<size_t> got = api->Recv(ev.fd, buf, sizeof(buf), nullptr, false);
          if (!got.ok() || *got == 0) {
            api->Close(ev.fd);
            flows_completed++;
          }
        }
      }
      api->Close(lfd);
      sampler.Stop();
    });

    for (int c = 0; c < clients; c++) {
      w.SpawnApp(1 + c, "c" + std::to_string(c), [&, c] {
        SocketApi* api = w.api(1 + c);
        w.sim().current_thread()->SleepFor(Millis(1 + c * 7));
        std::vector<uint8_t> payload(2048, 0x5a);
        for (int k = 0; k < conns; k++) {
          int fd = -1;
          for (int attempt = 0; attempt < 5; attempt++) {
            fd = *api->CreateSocket(IpProto::kTcp);
            if (api->Connect(fd, SockAddrIn{w.addr(0), 5001}).ok()) {
              break;
            }
            api->Close(fd);
            fd = -1;
            w.sim().current_thread()->SleepFor(Millis(50 << attempt));
          }
          if (fd < 0) {
            continue;
          }
          size_t sent = 0;
          while (sent < payload.size()) {
            Result<size_t> n = api->Send(fd, payload.data(), payload.size() - sent);
            if (!n.ok()) {
              break;
            }
            sent += *n;
          }
          api->Close(fd);
          w.sim().current_thread()->SleepFor(Millis(5));
        }
      });
    }

    w.sim().Run(Seconds(600));

    samples_taken = sampler.taken();
    rpc_rate = sampler.RatePerSec("rpc.total");
    route_rate = sampler.RatePerSec("meta.route-lookup");
    timeseries_json = sampler.Json();
    if (w.net_server(0) != nullptr) {
      RpcOpRecorder rec = w.net_server(0)->MergedRpcStats();
      for (size_t i = 0; i < rec.slots(); i++) {
        if (rec.op(i).count > 0) {
          ops.push_back({Leaf(ProxyOpName(ProxyOpFromSlot(static_cast<int>(i)))), rec.op(i)});
        }
      }
    } else if (w.ux_server(0) != nullptr) {
      RpcOpRecorder rec = w.ux_server(0)->MergedRpcStats();
      for (size_t i = 0; i < rec.slots(); i++) {
        if (rec.op(i).count > 0) {
          ops.push_back(
              {Leaf(ServOpName(static_cast<ServOp>(kServOpFirst + static_cast<uint32_t>(i)))),
               rec.op(i)});
        }
      }
    }
    if (w.library(0) != nullptr) {
      rpc_total = w.library(0)->rpc_calls().total();
    } else if (w.ux_node(0) != nullptr) {
      rpc_total = w.ux_node(0)->rpc_calls().total();
    }
    if (w.kernel_node(0) != nullptr) {
      server_traps = w.kernel_node(0)->traps();
    }
  }
  HostProfiler::Get().Stop();
  const HostProfReport host_rep = HostProfiler::Get().Snapshot();

  std::sort(ops.begin(), ops.end(),
            [](const OpRow& a, const OpRow& b) { return a.stats.count > b.stats.count; });
  const MetastateLedger& meta = MetastateLedger::Get();
  double amplification =
      accepts > 0 ? static_cast<double>(rpc_total) / static_cast<double>(accepts) : 0;

  if (json) {
    printf("{\n  \"psdtop\": 1,\n  \"config\": \"%s\",\n", ConfigName(config));
    printf("  \"accepts\": %llu,\n  \"flows_completed\": %llu,\n",
           static_cast<unsigned long long>(accepts),
           static_cast<unsigned long long>(flows_completed));
    printf("  \"rpc_total\": %llu,\n  \"rpc_per_connection\": %.6g,\n  \"server_traps\": %llu,\n",
           static_cast<unsigned long long>(rpc_total), amplification,
           static_cast<unsigned long long>(server_traps));
    printf("  \"rpc_ops\": {");
    for (size_t i = 0; i < ops.size(); i++) {
      const RpcOpStats& st = ops[i].stats;
      printf("%s\n    \"%s\": {\"count\": %llu, \"bytes_in\": %llu, \"bytes_out\": %llu, "
             "\"queue_p50_us\": %.3f, \"queue_p99_us\": %.3f, "
             "\"service_p50_us\": %.3f, \"service_p99_us\": %.3f}",
             i == 0 ? "" : ",", ops[i].name.c_str(), static_cast<unsigned long long>(st.count),
             static_cast<unsigned long long>(st.bytes_in),
             static_cast<unsigned long long>(st.bytes_out), st.queue_wait.QuantileMicros(0.5),
             st.queue_wait.QuantileMicros(0.99), st.service.QuantileMicros(0.5),
             st.service.QuantileMicros(0.99));
    }
    printf("\n  },\n  \"metastate\": {");
    for (int e = 0; e < static_cast<int>(MetaEvent::kNumEvents); e++) {
      printf("%s\"%s\": %llu", e == 0 ? "" : ", ", MetaEventName(static_cast<MetaEvent>(e)),
             static_cast<unsigned long long>(meta.total(static_cast<MetaEvent>(e))));
    }
    printf("},\n  \"migrations\": {\"performed\": %llu, \"phases\": {",
           static_cast<unsigned long long>(migrations));
    for (int ph = 0; ph < static_cast<int>(MigrationPhase::kNumPhases); ph++) {
      const LatencyHistogram& h = meta.phase(static_cast<MigrationPhase>(ph));
      printf("%s\"%s\": {\"count\": %llu, \"p50_us\": %.3f, \"p99_us\": %.3f}",
             ph == 0 ? "" : ", ", MigrationPhaseName(static_cast<MigrationPhase>(ph)),
             static_cast<unsigned long long>(h.count()), h.QuantileMicros(0.5),
             h.QuantileMicros(0.99));
    }
    printf("}},\n  \"host_profile\": %s,\n  \"timeseries\": %s\n}\n",
           HostProfileJsonFragment(host_rep).c_str(), timeseries_json.c_str());
    return 0;
  }

  printf("psdtop: %s, %d clients x %d conns, %llu accepts, %llu flows\n", ConfigName(config),
         clients, conns, static_cast<unsigned long long>(accepts),
         static_cast<unsigned long long>(flows_completed));
  printf("rpc: %llu calls, %.2f per connection (traps %llu), %.0f/s; %llu samples @ %lld ms\n\n",
         static_cast<unsigned long long>(rpc_total), amplification,
         static_cast<unsigned long long>(server_traps), rpc_rate,
         static_cast<unsigned long long>(samples_taken),
         static_cast<long long>(interval_ms));

  printf("%-16s %8s %8s %8s %10s %10s %10s %10s\n", "OP", "COUNT", "B/IN", "B/OUT", "Q-P50us",
         "Q-P99us", "S-P50us", "S-P99us");
  if (ops.empty()) {
    printf("  (no RPC ops: the in-kernel placement makes no server calls)\n");
  }
  for (const OpRow& r : ops) {
    printf("%-16s %8llu %8llu %8llu %10.1f %10.1f %10.1f %10.1f\n", r.name.c_str(),
           static_cast<unsigned long long>(r.stats.count),
           static_cast<unsigned long long>(r.stats.bytes_in),
           static_cast<unsigned long long>(r.stats.bytes_out),
           r.stats.queue_wait.QuantileMicros(0.5), r.stats.queue_wait.QuantileMicros(0.99),
           r.stats.service.QuantileMicros(0.5), r.stats.service.QuantileMicros(0.99));
  }

  printf("\n%-16s %10s %10s\n", "RESOURCE", "TOTAL", "/SEC");
  for (int e = 0; e < static_cast<int>(MetaEvent::kNumEvents); e++) {
    MetaEvent ev = static_cast<MetaEvent>(e);
    if (meta.total(ev) == 0) {
      continue;
    }
    // Only the sampled gauges have rates; route-lookup is the hot one.
    double rate = ev == MetaEvent::kRouteLookup ? route_rate : 0;
    if (rate > 0) {
      printf("%-16s %10llu %10.1f\n", MetaEventName(ev),
             static_cast<unsigned long long>(meta.total(ev)), rate);
    } else {
      printf("%-16s %10llu %10s\n", MetaEventName(ev),
             static_cast<unsigned long long>(meta.total(ev)), "-");
    }
  }

  printf("\n%-16s %8s %10s %10s\n", "PHASE", "COUNT", "P50us", "P99us");
  for (int ph = 0; ph < static_cast<int>(MigrationPhase::kNumPhases); ph++) {
    const LatencyHistogram& h = meta.phase(static_cast<MigrationPhase>(ph));
    printf("%-16s %8llu %10.1f %10.1f\n", MigrationPhaseName(static_cast<MigrationPhase>(ph)),
           static_cast<unsigned long long>(h.count()), h.QuantileMicros(0.5),
           h.QuantileMicros(0.99));
  }
  printf("\nmigrations performed: %llu\n", static_cast<unsigned long long>(migrations));

  if (host_rep.enabled) {
    printf("\nhost: %.1f ms wall, %.1f%% attributed; top:", host_rep.wall_ns / 1e6,
           host_rep.attributed_pct());
    for (size_t i = 0; i < host_rep.domains.size() && i < 5; i++) {
      printf(" %s %.1f%%", host_rep.domains[i].name,
             100.0 * host_rep.domains[i].total_ns / host_rep.wall_ns);
    }
    printf("\n");
  }
  return 0;
}
