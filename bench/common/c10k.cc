#include "bench/common/c10k.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>

#include "src/base/rng.h"
#include "src/obs/journey.h"
#include "src/obs/metastate.h"
#include "src/obs/prof.h"
#include "src/obs/timeseries.h"

namespace psd {

namespace {

// Bounded Pareto flow size: alpha 1.2 keeps the mean near 4x the floor with
// a tail that actually exercises windowed streaming on some connections.
size_t FlowSize(Rng* rng, const C10kParams& p) {
  double u = (static_cast<double>(rng->Next() >> 11) + 1.0) / 9007199254740993.0;
  double size = static_cast<double>(p.flow_min) * std::pow(u, -1.0 / 1.2);
  return std::min(p.flow_cap, static_cast<size_t>(size));
}

}  // namespace

double Percentile(std::vector<SimDuration> v, double pct) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t idx = static_cast<size_t>(pct / 100.0 * static_cast<double>(v.size() - 1) + 0.5);
  return static_cast<double>(v[std::min(idx, v.size() - 1)]);
}

std::string RpcOpsJson(const std::vector<std::pair<std::string, RpcOpStats>>& ops) {
  std::string out = "{";
  for (size_t i = 0; i < ops.size(); i++) {
    const RpcOpStats& st = ops[i].second;
    char buf[320];
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"count\": %llu, \"bytes_in\": %llu, \"bytes_out\": %llu, "
                  "\"queue_p50_us\": %.3f, \"queue_p99_us\": %.3f, "
                  "\"service_p50_us\": %.3f, \"service_p99_us\": %.3f}",
                  i == 0 ? "" : ", ", ops[i].first.c_str(),
                  static_cast<unsigned long long>(st.count),
                  static_cast<unsigned long long>(st.bytes_in),
                  static_cast<unsigned long long>(st.bytes_out),
                  st.queue_wait.QuantileMicros(0.5), st.queue_wait.QuantileMicros(0.99),
                  st.service.QuantileMicros(0.5), st.service.QuantileMicros(0.99));
    out += buf;
  }
  out += "}";
  return out;
}

std::string MigrationsJson(const C10kOutcome& r, int requested) {
  char head[256];
  std::snprintf(head, sizeof head,
                "{\"requested\": %d, \"performed\": %llu, \"completed\": %llu, "
                "\"loss\": %llu, \"total_p50_ms\": %.4f, \"total_p99_ms\": %.4f, "
                "\"phases\": {",
                requested, static_cast<unsigned long long>(r.live_migrations),
                static_cast<unsigned long long>(r.migrated_completed),
                static_cast<unsigned long long>(r.live_migrations - r.migrated_completed +
                                                r.migrated_errors),
                Percentile(r.migrate_total_ns, 50) / 1e6,
                Percentile(r.migrate_total_ns, 99) / 1e6);
  std::string out = head;
  for (size_t i = 0; i < r.phases.size(); i++) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"count\": %llu, \"p50_us\": %.3f, \"p99_us\": %.3f}",
                  i == 0 ? "" : ", ", r.phases[i].name.c_str(),
                  static_cast<unsigned long long>(r.phases[i].count), r.phases[i].p50_us,
                  r.phases[i].p99_us);
    out += buf;
  }
  out += "}}";
  return out;
}

C10kOutcome RunC10k(Config config, const MachineProfile& prof, const C10kParams& p,
                    uint64_t seed) {
  C10kOutcome out;
  auto t0 = std::chrono::steady_clock::now();
  {
    // Host 0 is the server in the placement under test; every client host
    // runs the cheap in-kernel placement so the fleet scales.
    World w(config, prof, /*hosts=*/1 + p.clients, /*pio_nic=*/false, /*placement_hosts=*/1);
    w.SeedStaticArp();  // measure the churn, not O(clients^2) ARP bystanders
    // The ledger counts every host of the World, the client fleet included,
    // from construction on: the totals start from this post-setup baseline
    // so they cover the storm, not 2049 hosts' route installs.
    MetastateLedger& meta = w.obs().meta;
    const MetastateLedger::Totals setup = meta.totals();
    // Small observatory registry for the time-series sampler: metastate
    // event totals, the server's client-side RPC count, wire frames and
    // host wall-clock attribution (prof.* gauges are host ns per domain, so
    // their sampled deltas are host-time rates). Each snapshot copies every
    // gauge, so keep the set bounded — this is NOT the full per-host export.
    StatsRegistry reg;
    meta.ExportStats(&reg, "meta.", setup);
    if (w.library(0) != nullptr) {
      reg.RegisterGauge("rpc.total", [&w] { return w.library(0)->rpc_calls().total(); });
    } else if (w.ux_node(0) != nullptr) {
      reg.RegisterGauge("rpc.total", [&w] { return w.ux_node(0)->rpc_calls().total(); });
    } else {
      reg.RegisterGauge("rpc.total", [&w] { return w.kernel_node(0)->traps(); });
    }
    reg.RegisterGauge("wire.frames", [&w] { return w.wire().frames_carried(); });
    HostProfiler::Get().ExportStats(&reg, "prof.");
    TimeSeriesSampler sampler(&w.sim(), &reg, p.sample_interval);
    sampler.Start();

    const uint64_t total_conns = static_cast<uint64_t>(p.clients) * p.conns;
    SimTime first_connect = 0;
    SimTime last_served = 0;
    int server_pfd = -1;
    // Live-migration plan: N migrations spread evenly through the accept
    // stream (library placements only; the others have no app-managed
    // sessions to migrate). Triggered by accept count, so it is
    // deterministic across trials.
    LibraryNode* lib_node = w.library_node(0);
    const uint64_t migrate_n =
        lib_node != nullptr && p.migrate > 0 ? static_cast<uint64_t>(p.migrate) : 0;
    const uint64_t migrate_stride = std::max<uint64_t>(1, total_conns / (migrate_n + 1));
    std::set<int> migrated_fds;

    w.SpawnApp(0, "c10k-server", [&] {
      SocketApi* api = w.api(0);
      int lfd = *api->CreateSocket(IpProto::kTcp);
      api->Bind(lfd, SockAddrIn{Ipv4Addr::Any(), 5001});
      api->SetOpt(lfd, SockOpt::kRcvBuf, 16 * 1024);
      api->Listen(lfd, p.backlog);
      int pfd = *api->PollCreate();
      server_pfd = pfd;
      api->PollAdd(pfd, lfd, kPollEventIn);
      std::vector<PollEvent> events;
      uint8_t buf[8192];
      while (out.flows_completed < total_conns) {
        Result<int> n = api->PollWait(pfd, &events, Seconds(150));
        if (!n.ok() || *n == 0) {
          break;  // storm over (or stuck): leave the loop to the watchdog
        }
        for (const PollEvent& ev : events) {
          if (ev.fd == lfd) {
            // One accept per delivered event; level-triggered reporting
            // re-arms the listener while the accept queue stays non-empty.
            Result<int> cfd = api->Accept(lfd, nullptr);
            if (cfd.ok()) {
              out.accepts++;
              api->PollAdd(pfd, *cfd, kPollEventIn);
              if (out.live_migrations < migrate_n && out.accepts % migrate_stride == 0) {
                // Live migration under load: bounce the just-accepted
                // session out to the OS server and immediately reacquire it
                // while its client is mid-flow. The connection must still
                // complete (zero-loss check below).
                SimTime m0 = w.sim().Now();
                if (lib_node->ReturnToServer(*cfd).ok() && lib_node->Reacquire(*cfd).ok()) {
                  out.live_migrations++;
                  out.migrate_total_ns.push_back(w.sim().Now() - m0);
                  migrated_fds.insert(*cfd);
                } else {
                  out.migrated_errors++;
                }
              }
            }
            continue;
          }
          Result<size_t> got = api->Recv(ev.fd, buf, sizeof(buf), nullptr, false);
          if (!got.ok() || *got == 0) {
            api->Close(ev.fd);  // close drops the poll registration
            out.flows_completed++;
            last_served = w.sim().Now();
            if (migrated_fds.erase(ev.fd) > 0) {
              if (got.ok()) {
                out.migrated_completed++;  // clean EOF after migration
              } else {
                out.migrated_errors++;
              }
            }
          } else {
            out.flow_bytes += *got;
          }
        }
      }
      api->Close(lfd);
      // The storm is over: stop the sampler or its self-rescheduling tick
      // would keep the event loop alive to the Run horizon.
      sampler.Stop();
      // No PollClose: the set must outlive the loop so the bench can read
      // its edge/wakeup counters; World teardown reclaims it.
    });

    for (int c = 0; c < p.clients; c++) {
      w.SpawnApp(1 + c, "c" + std::to_string(c), [&, c] {
        SocketApi* api = w.api(1 + c);
        Rng rng = Rng::Stream(seed, static_cast<uint64_t>(c));
        // Staggered arrival over ~2 s: a storm front, not a single spike
        // the SYN queue could never honestly absorb.
        w.sim().current_thread()->SleepFor(Millis(1 + static_cast<int64_t>(rng.Below(2000))));
        std::vector<uint8_t> payload(p.flow_cap, 0x5a);
        for (int k = 0; k < p.conns; k++) {
          // Connect with retry, as a load generator does: the SYN half can
          // refuse a storm front; the latency percentile keeps the retries.
          SimTime t_conn = w.sim().Now();
          if (first_connect == 0) {
            first_connect = t_conn;
          }
          int fd = -1;
          for (int attempt = 0; attempt < 5; attempt++) {
            fd = *api->CreateSocket(IpProto::kTcp);
            if (api->Connect(fd, SockAddrIn{w.addr(0), 5001}).ok()) {
              break;
            }
            api->Close(fd);
            fd = -1;
            w.sim().current_thread()->SleepFor(
                Millis(200 + static_cast<int64_t>(rng.Below(400u << attempt))));
          }
          if (fd < 0) {
            continue;
          }
          out.connect_ns.push_back(w.sim().Now() - t_conn);
          size_t flow = FlowSize(&rng, p);
          size_t sent = 0;
          while (sent < flow) {
            Result<size_t> n = api->Send(fd, payload.data(), std::min(payload.size(), flow - sent));
            if (!n.ok()) {
              break;
            }
            sent += *n;
          }
          api->Close(fd);
          w.sim().current_thread()->SleepFor(Millis(static_cast<int64_t>(rng.Below(50))));
        }
      });
    }

    w.sim().Run(Seconds(3600));
    if (out.flows_completed < total_conns * 99 / 100) {
      std::fprintf(stderr, "c10k: %s storm incomplete (%llu/%llu flows)\n",
                   ConfigName(config), static_cast<unsigned long long>(out.flows_completed),
                   static_cast<unsigned long long>(total_conns));
      std::exit(2);
    }
    out.storm_ns = last_served - first_connect;
    out.frames = w.wire().frames_carried();
    out.events = w.sim().events_executed();
    out.virtual_end = w.sim().Now();
    out.listen_overflows = w.obs().drops.total(DropReason::kTcpListenOverflow);
    // Readiness counters live in the placement's PollSet (library configs
    // poll through cooperative select and have none).
    PollSet* set = nullptr;
    if (w.kernel_node(0) != nullptr) {
      set = w.kernel_node(0)->sockets().poll_set(server_pfd);
    } else if (w.ux_server(0) != nullptr) {
      set = w.ux_server(0)->sockets().poll_set(server_pfd);
    }
    if (set != nullptr) {
      out.poll_edges = set->edges();
      out.poll_wakeups = set->wakeups();
      out.poll_waits = set->wait_blocks();
    }

    // Zero-loss migration check: every live-migrated connection must have
    // completed its flow with a clean EOF.
    if (migrate_n > 0 &&
        (out.live_migrations < migrate_n || out.migrated_completed != out.live_migrations ||
         out.migrated_errors != 0)) {
      std::fprintf(stderr,
                   "c10k: %s migration loss — %llu requested, %llu performed, "
                   "%llu completed, %llu errors\n",
                   ConfigName(config), static_cast<unsigned long long>(migrate_n),
                   static_cast<unsigned long long>(out.live_migrations),
                   static_cast<unsigned long long>(out.migrated_completed),
                   static_cast<unsigned long long>(out.migrated_errors));
      std::exit(4);
    }

    // Observatory extraction (before the World and its recorders die).
    out.timeseries_samples = sampler.taken();
    out.timeseries_json = sampler.Json("", "prof.");
    out.host_timeseries_json = sampler.Json("prof.");
    out.rpcs_per_sec = sampler.RatePerSec("rpc.total");
    out.arp_miss_per_sec = sampler.RatePerSec("meta.arp-miss");
    out.route_lookup_per_sec = sampler.RatePerSec("meta.route-lookup");
    out.port_acquire_per_sec = sampler.RatePerSec("meta.port-acquire");
    for (int e = 0; e < static_cast<int>(MetaEvent::kNumEvents); e++) {
      out.meta_totals.emplace_back(MetaEventName(static_cast<MetaEvent>(e)),
                                   meta.total(static_cast<MetaEvent>(e)) - setup[e]);
    }
    for (int ph = 0; ph < static_cast<int>(MigrationPhase::kNumPhases); ph++) {
      const LatencyHistogram& h = meta.phase(static_cast<MigrationPhase>(ph));
      out.phases.push_back(PhaseStat{MigrationPhaseName(static_cast<MigrationPhase>(ph)),
                                     h.count(), h.QuantileMicros(0.5), h.QuantileMicros(0.99)});
    }
    if (w.net_server(0) != nullptr) {
      const RpcOpRecorder& rec = w.net_server(0)->MergedRpcStats();
      for (size_t i = 0; i < rec.slots(); i++) {
        if (rec.op(i).count == 0) {
          continue;
        }
        out.rpc_ops.emplace_back(OpLeafName(ProxyOpName(ProxyOpFromSlot(static_cast<int>(i)))),
                                 rec.op(i));
      }
    } else if (w.ux_server(0) != nullptr) {
      const RpcOpRecorder& rec = w.ux_server(0)->MergedRpcStats();
      for (size_t i = 0; i < rec.slots(); i++) {
        if (rec.op(i).count == 0) {
          continue;
        }
        out.rpc_ops.emplace_back(
            OpLeafName(ServOpName(static_cast<ServOp>(kServOpFirst + static_cast<uint32_t>(i)))),
            rec.op(i));
      }
    }
    if (w.library(0) != nullptr) {
      out.rpc_client_total = w.library(0)->rpc_calls().total();
    } else if (w.ux_node(0) != nullptr) {
      out.rpc_client_total = w.ux_node(0)->rpc_calls().total();
    }
    if (w.kernel_node(0) != nullptr) {
      out.server_traps = w.kernel_node(0)->traps();
    }
  }
  auto t1 = std::chrono::steady_clock::now();
  out.wall_ns =
      static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
  return out;
}

}  // namespace psd
