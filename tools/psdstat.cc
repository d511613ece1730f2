// psdstat: the flight-recorder front end. Runs a protolat workload on one
// of the paper's placements and dumps every node's protocol counter blocks
// (netstat -s style), per-session TCP counters, and virtual-time latency
// histograms (p50/p90/p99) — as text or as one JSON object.
//
// Usage:
//   psdstat [--config NAME] [--proto udp|tcp|both] [--size BYTES]
//           [--trials N] [--loss RATE] [--seed N] [--terse] [--json]
//           [--pcap FILE] [--kern-pcap FILE]
//
// Defaults: --config library-shm-ipf --proto both --size 1 --trials 50.
// With --proto both the workload runs once per protocol (two Worlds);
// counters are summed across the runs and histograms accumulate. The pcap
// taps are re-armed at the start of each run, so a capture file holds the
// final run's traffic with monotone virtual timestamps.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench/common/workloads.h"
#include "src/base/json.h"
#include "src/obs/histogram.h"
#include "src/obs/journey.h"
#include "src/obs/netstat.h"
#include "src/obs/pcap.h"
#include "src/obs/stats.h"
#include "src/obs/trace.h"

using namespace psd;

namespace {

int Usage(const char* argv0) {
  fprintf(stderr,
          "usage: %s [--config in-kernel|server|library-ipc|library-shm|library-shm-ipf]\n"
          "          [--proto udp|tcp|both] [--size BYTES] [--trials N]\n"
          "          [--loss RATE] [--seed N] [--terse] [--json]\n"
          "          [--pcap FILE] [--kern-pcap FILE]\n",
          argv0);
  return 2;
}

// Per-session TCP counters, appended to the snapshot under the same dotted
// namespace the aggregate blocks use ("h0.stack.tcp.session.3.segs_in").
void AppendSessionCounters(World& w, int i, std::vector<StatsRegistry::Entry>* out) {
  struct Src {
    Stack* stack;
    const char* comp;
  };
  const Src srcs[] = {
      {w.kernel_node(i) != nullptr ? w.kernel_node(i)->stack() : nullptr, "stack"},
      {w.ux_server(i) != nullptr ? w.ux_server(i)->stack() : nullptr, "ux.stack"},
      {w.net_server(i) != nullptr ? w.net_server(i)->stack() : nullptr, "ns.stack"},
      {w.library(i) != nullptr ? w.library(i)->stack() : nullptr, "lib.stack"},
  };
  std::string host = w.host(i)->name();
  for (const Src& s : srcs) {
    if (s.stack == nullptr) {
      continue;
    }
    for (const auto& p : s.stack->tcp().pcbs()) {
      std::string base =
          host + "." + s.comp + ".tcp.session." + std::to_string(p->id) + ".";
      out->push_back({base + "segs_in", p->segs_in});
      out->push_back({base + "segs_out", p->segs_out});
      out->push_back({base + "rexmt_segs", p->rexmt_segs});
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  Config config = Config::kLibraryShmIpf;
  ProtolatOptions opt;
  opt.msg_size = 1;
  opt.trials = 50;
  bool run_tcp = true;
  bool run_udp = true;
  double loss = 0.0;
  uint64_t seed = 1;
  bool terse = false;
  bool json = false;
  std::string pcap_path;
  std::string kern_pcap_path;

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
    } else if (strcmp(argv[i], "--proto") == 0) {
      const char* v = need("--proto");
      if (strcmp(v, "udp") == 0) {
        run_tcp = false;
      } else if (strcmp(v, "tcp") == 0) {
        run_udp = false;
      } else if (strcmp(v, "both") != 0) {
        fprintf(stderr, "unknown proto '%s'\n", v);
        return Usage(argv[0]);
      }
    } else if (strcmp(argv[i], "--size") == 0) {
      opt.msg_size = static_cast<size_t>(atol(need("--size")));
    } else if (strcmp(argv[i], "--trials") == 0) {
      opt.trials = atoi(need("--trials"));
    } else if (strcmp(argv[i], "--loss") == 0) {
      loss = atof(need("--loss"));
    } else if (strcmp(argv[i], "--seed") == 0) {
      seed = static_cast<uint64_t>(atoll(need("--seed")));
    } else if (strcmp(argv[i], "--terse") == 0) {
      terse = true;
    } else if (strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (strcmp(argv[i], "--pcap") == 0) {
      pcap_path = need("--pcap");
    } else if (strcmp(argv[i], "--kern-pcap") == 0) {
      kern_pcap_path = need("--kern-pcap");
    } else {
      fprintf(stderr, "unknown flag '%s'\n", argv[i]);
      return Usage(argv[0]);
    }
  }

  Tracer tracer;
  HistogramSink hist;
  tracer.AddSink(&hist);
  PcapCapture wire_pcap;
  PcapCapture kern_pcap;

  // Counters summed across runs (one World per protocol).
  std::map<std::string, uint64_t> counters;

  ProtolatHooks hooks;
  hooks.tracer = &tracer;
  hooks.on_world = [&](World& w) {
    if (loss > 0) {
      FaultPlan plan;
      plan.loss_rate = loss;
      plan.seed = seed;
      w.wire().SetFaults(plan);
    }
    if (!pcap_path.empty()) {
      wire_pcap.Reset();
      w.AttachWirePcap(&wire_pcap);
    }
    if (!kern_pcap_path.empty()) {
      kern_pcap.Reset();
      w.AttachKernelPcap(0, &kern_pcap);
      w.AttachKernelPcap(1, &kern_pcap);
    }
  };
  hooks.on_done = [&](World& w) {
    // The registry is per-run: gauges point into this World, so snapshot
    // now and Reset before the World dies (StatsRegistry::Reset contract).
    StatsRegistry reg;
    w.ExportStats(0, &reg);
    w.ExportStats(1, &reg);
    w.ExportWireStats(&reg);
    std::vector<StatsRegistry::Entry> entries = reg.Snapshot();
    reg.Reset();
    if (!terse) {
      // --terse asks for the aggregate picture only; per-session rows are
      // also the one block NetstatText's skip-zero filter can't thin out.
      AppendSessionCounters(w, 0, &entries);
      AppendSessionCounters(w, 1, &entries);
    }
    for (const auto& e : entries) {
      counters[e.name] += e.value;
    }
  };

  struct Run {
    const char* proto;
    double rtt_ms;
  };
  std::vector<Run> runs;
  MachineProfile prof = MachineProfile::DecStation5000();
  // The journey/ledger singletons accumulate across Worlds; start this
  // invocation's accounting from zero.
  DropLedger::Get().Reset();
  PacketJourney::Get().Reset();
  if (run_tcp) {
    opt.proto = IpProto::kTcp;
    double ms = RunProtolatTraced(config, prof, opt, hooks);
    if (ms < 0) {
      fprintf(stderr, "psdstat: tcp protolat run did not complete\n");
      return 1;
    }
    runs.push_back({"tcp", ms});
  }
  if (run_udp) {
    opt.proto = IpProto::kUdp;
    double ms = RunProtolatTraced(config, prof, opt, hooks);
    if (ms < 0) {
      fprintf(stderr, "psdstat: udp protolat run did not complete\n");
      return 1;
    }
    runs.push_back({"udp", ms});
  }

  if (!pcap_path.empty() && !wire_pcap.WriteFile(pcap_path)) {
    fprintf(stderr, "psdstat: cannot write %s\n", pcap_path.c_str());
    return 1;
  }
  if (!kern_pcap_path.empty() && !kern_pcap.WriteFile(kern_pcap_path)) {
    fprintf(stderr, "psdstat: cannot write %s\n", kern_pcap_path.c_str());
    return 1;
  }

  std::vector<StatsRegistry::Entry> merged;
  merged.reserve(counters.size());
  for (const auto& kv : counters) {
    merged.push_back({kv.first, kv.second});
  }

  if (json) {
    printf("{\n  \"psdstat\": 1,\n");
    printf("  \"config\": \"%s\",\n", ConfigName(config));
    printf("  \"msg_size\": %zu,\n  \"trials\": %d,\n  \"loss_rate\": %.6g,\n", opt.msg_size,
           opt.trials, loss);
    printf("  \"runs\": [");
    for (size_t i = 0; i < runs.size(); i++) {
      printf("%s{\"proto\": \"%s\", \"rtt_ms\": %.6g}", i > 0 ? ", " : "", runs[i].proto,
             runs[i].rtt_ms);
    }
    printf("],\n");
    printf("  \"counters\": %s,\n", NetstatJson(merged).c_str());
    printf("  \"histograms\": {");
    bool first = true;
    for (const auto& kv : hist.histograms()) {
      const LatencyHistogram& h = kv.second;
      printf("%s\n    \"%s\": {\"count\": %lu, \"mean_us\": %.6g, \"min_us\": %.6g, "
             "\"max_us\": %.6g, \"p50_us\": %.6g, \"p90_us\": %.6g, \"p99_us\": %.6g}",
             first ? "" : ",", JsonEscape(kv.first).c_str(),
             static_cast<unsigned long>(h.count()), h.MeanMicros(), ToMicros(h.min()),
             ToMicros(h.max()), h.QuantileMicros(0.50), h.QuantileMicros(0.90),
             h.QuantileMicros(0.99));
      first = false;
    }
    printf("\n  },\n");
    printf("  \"instants\": {");
    first = true;
    for (const auto& kv : hist.instants()) {
      printf("%s\"%s\": %lu", first ? "" : ", ", JsonEscape(kv.first).c_str(),
             static_cast<unsigned long>(kv.second));
      first = false;
    }
    printf("},\n");
    const DropLedger& led = DropLedger::Get();
    const PacketJourney& jn = PacketJourney::Get();
    printf("  \"drop_reasons\": {");
    first = true;
    for (size_t i = 1; i < static_cast<size_t>(DropReason::kNumReasons); i++) {
      DropReason r = static_cast<DropReason>(i);
      if (led.total(r) == 0) {
        continue;
      }
      printf("%s\"%s\": %lu", first ? "" : ", ", DropReasonName(r),
             static_cast<unsigned long>(led.total(r)));
      first = false;
    }
    printf("},\n");
    printf("  \"journey\": {\"minted\": %lu, \"delivered\": %lu, \"consumed\": %lu, "
           "\"dropped\": %lu, \"in_flight\": %lu, \"conflicts\": %lu}\n}\n",
           static_cast<unsigned long>(jn.minted()), static_cast<unsigned long>(jn.delivered()),
           static_cast<unsigned long>(jn.consumed()), static_cast<unsigned long>(jn.dropped()),
           static_cast<unsigned long>(jn.in_flight()), static_cast<unsigned long>(jn.conflicts()));
    return 0;
  }

  printf("psdstat: %s, %zu byte(s), %d trials", ConfigName(config), opt.msg_size, opt.trials);
  if (loss > 0) {
    printf(", loss %.3f", loss);
  }
  printf("\n");
  for (const Run& r : runs) {
    printf("  %s round trip: %.3f ms\n", r.proto, r.rtt_ms);
  }
  printf("\n%s", NetstatText(merged, terse).c_str());
  printf("\nlatency histograms (virtual time, us):\n");
  for (const auto& kv : hist.histograms()) {
    const LatencyHistogram& h = kv.second;
    printf("  %-24s count %-7lu mean %8.1f  p50 %8.1f  p90 %8.1f  p99 %8.1f\n", kv.first.c_str(),
           static_cast<unsigned long>(h.count()), h.MeanMicros(), h.QuantileMicros(0.50),
           h.QuantileMicros(0.90), h.QuantileMicros(0.99));
  }
  if (!hist.instants().empty()) {
    printf("\nprotocol events:\n");
    for (const auto& kv : hist.instants()) {
      printf("  %-24s %lu\n", kv.first.c_str(), static_cast<unsigned long>(kv.second));
    }
  }
  const DropLedger& led = DropLedger::Get();
  const PacketJourney& jn = PacketJourney::Get();
  printf("\ndrop reasons:\n");
  bool any_drop = false;
  for (size_t i = 1; i < static_cast<size_t>(DropReason::kNumReasons); i++) {
    DropReason r = static_cast<DropReason>(i);
    if (led.total(r) == 0) {
      continue;
    }
    any_drop = true;
    printf("  %-24s %lu%s\n", DropReasonName(r), static_cast<unsigned long>(led.total(r)),
           IsDropReason(r) ? "" : "  (event, not a drop)");
  }
  if (!any_drop) {
    printf("  (none)\n");
  }
  printf("\npacket journeys: %lu minted, %lu delivered, %lu consumed, %lu dropped, "
         "%lu in flight\n",
         static_cast<unsigned long>(jn.minted()), static_cast<unsigned long>(jn.delivered()),
         static_cast<unsigned long>(jn.consumed()), static_cast<unsigned long>(jn.dropped()),
         static_cast<unsigned long>(jn.in_flight()));
  return 0;
}
