// psdobs: one front end for every observation view. Each subcommand is a
// view over one selected run:
//
//   stat   a protolat run's protocol counter blocks (netstat -s style),
//          per-session TCP counters, virtual-time latency histograms, the
//          drop ledger and journey totals — text or one JSON object — with
//          optional wire / kernel-delivery pcap captures;
//   walk   the same run's packet life stories: every packet's hop-by-hop
//          path through wire / kernel / filter / stack and its terminal
//          disposition, plus the drop ledger;
//   trace  the same run's span stream as chrome://tracing JSON (load it in
//          chrome://tracing or https://ui.perfetto.dev), optionally with
//          the registry dump and a host wall-clock track;
//   top    a C10K churn run (bench_c10k's workload, bench/common/c10k.h):
//          per-op RPC table, RPC amplification, shared-metastate totals and
//          rates, migration phase latencies, host attribution;
//   prof   an engine workload (bench_engine's, at some scale) under the
//          host wall-clock profiler: per-domain table, JSON or flame lines.
//
// One parser serves every view; each flag takes "--flag value" or
// "--flag=value". A flag a view does not use, a malformed number or an
// out-of-range value prints the usage text and exits 2.
#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench/common/c10k.h"
#include "bench/common/engine_workloads.h"
#include "bench/common/flags.h"
#include "bench/common/workloads.h"
#include "src/base/json.h"
#include "src/obs/chrome_trace.h"
#include "src/obs/histogram.h"
#include "src/obs/journey.h"
#include "src/obs/metastate.h"
#include "src/obs/netstat.h"
#include "src/obs/pcap.h"
#include "src/obs/prof.h"
#include "src/obs/stats.h"
#include "src/obs/trace.h"

using namespace psd;

namespace {

const char kUsage[] =
    "usage: psdobs VIEW [flags]      (every flag also takes the form --flag=value)\n"
    "\n"
    "Views over one protolat run, chosen by the selector\n"
    "  [--config NAME] [--proto udp|tcp] [--size BYTES] [--trials N] [--loss RATE] [--seed N]:\n"
    "  stat   counters, latency histograms, drop ledger, journeys\n"
    "         [--proto both] [--terse] [--json] [--pcap FILE] [--kern-pcap FILE]\n"
    "         defaults: --proto both --size 1 --trials 50\n"
    "  walk   per-packet journeys\n"
    "         [--pkt N] [--drops] [--lost-only] [--json]\n"
    "         defaults: --proto tcp --size 64 --trials 20\n"
    "  trace  chrome://tracing JSON\n"
    "         [--out FILE] [--stats] [--host-prof]\n"
    "         defaults: --proto udp --size 1 --trials 10 --out trace.json\n"
    "Views over other runs:\n"
    "  top    C10K churn (bench_c10k's workload): RPC ops, metastate, migrations\n"
    "         [--config NAME] [--clients N] [--conns N] [--migrate N] [--interval MS] [--json]\n"
    "         defaults: --config library-shm --clients 8 --conns 2 --migrate 2 --interval 100\n"
    "  prof   host wall-clock profile of an engine workload\n"
    "         [--workload tcp_stream|udp_blast|churn_256] [--scale F] [--json] [--flame]\n"
    "         [--min-attributed PCT]\n"
    "         defaults: --workload udp_blast --scale 1\n"
    "\n"
    "NAME is in-kernel|server|library-ipc|library-shm|library-shm-ipf (default\n"
    "library-shm-ipf); --seed defaults to 1. RATE is in [0,1], F in (0,1], PCT in\n"
    "[0,100]; N, BYTES and MS are integers >= 1, except --migrate, --seed, --pkt >= 0.\n";

int Usage() {
  std::fputs(kUsage, stderr);
  return 2;
}

enum View : unsigned { kStat = 1, kWalk = 2, kTrace = 4, kTop = 8, kProf = 16 };
constexpr unsigned kLat = kStat | kWalk | kTrace;  // views over a protolat run

struct Opts {
  View view = kStat;
  // The selector.
  Config config = Config::kLibraryShmIpf;
  ProtolatOptions lat;
  bool tcp = false;
  bool udp = false;
  double loss = 0.0;
  uint64_t seed = 1;
  // View flags.
  bool json = false;
  bool terse = false;
  std::string pcap;
  std::string kern_pcap;
  PktwalkFilter walk;
  std::string out = "trace.json";
  bool stats = false;
  bool host_prof = false;
  C10kParams c10k;
  std::string workload = "udp_blast";
  double scale = 1.0;
  double min_attributed = -1.0;
  bool flame = false;
};

Opts DefaultsFor(View v) {
  Opts o;
  o.view = v;
  switch (v) {
    case kStat:
      o.tcp = o.udp = true;
      o.lat.msg_size = 1;
      o.lat.trials = 50;
      break;
    case kWalk:
      o.tcp = true;
      o.lat.msg_size = 64;
      o.lat.trials = 20;
      break;
    case kTrace:
      o.udp = true;
      o.lat.msg_size = 1;
      o.lat.trials = 10;
      break;
    case kTop:
      o.config = Config::kLibraryShm;
      o.c10k.clients = 8;
      o.c10k.conns = 2;
      o.c10k.migrate = 2;
      o.c10k.sample_interval = Millis(100);
      break;
    case kProf:
      break;
  }
  return o;
}

// Whole-string real; the callers' range checks are written so NaN fails.
bool ParseReal(const char* s, double* out) {
  char* end = nullptr;
  errno = 0;
  *out = std::strtod(s, &end);
  return end != s && *end == '\0' && errno == 0;
}

struct Flag {
  const char* name;  // without the leading "--"
  unsigned views;    // the views that accept it
  bool takes_value;
  bool (*set)(Opts* o, const char* v);  // false: malformed or out of range
};

const Flag kFlags[] = {
    {"config", kLat | kTop, true,
     [](Opts* o, const char* v) { return ParseConfig(v, &o->config); }},
    {"proto", kLat, true,
     [](Opts* o, const char* v) {
       bool both = std::strcmp(v, "both") == 0 && o->view == kStat;
       o->tcp = both || std::strcmp(v, "tcp") == 0;
       o->udp = both || std::strcmp(v, "udp") == 0;
       return o->tcp || o->udp;
     }},
    {"size", kLat, true, [](Opts* o, const char* v) { return ParseInt(v, 1, &o->lat.msg_size); }},
    {"trials", kLat, true, [](Opts* o, const char* v) { return ParseInt(v, 1, &o->lat.trials); }},
    {"loss", kLat, true,
     [](Opts* o, const char* v) {
       return ParseReal(v, &o->loss) && o->loss >= 0 && o->loss <= 1;
     }},
    {"seed", kLat, true, [](Opts* o, const char* v) { return ParseInt(v, 0, &o->seed); }},
    {"json", kStat | kWalk | kTop | kProf, false,
     [](Opts* o, const char*) { return o->json = true; }},
    {"terse", kStat, false, [](Opts* o, const char*) { return o->terse = true; }},
    {"pcap", kStat, true, [](Opts* o, const char* v) { return !(o->pcap = v).empty(); }},
    {"kern-pcap", kStat, true,
     [](Opts* o, const char* v) { return !(o->kern_pcap = v).empty(); }},
    {"pkt", kWalk, true, [](Opts* o, const char* v) { return ParseInt(v, 0, &o->walk.pkt); }},
    {"drops", kWalk, false, [](Opts* o, const char*) { return o->walk.drops_only = true; }},
    {"lost-only", kWalk, false, [](Opts* o, const char*) { return o->walk.lost_only = true; }},
    {"out", kTrace, true, [](Opts* o, const char* v) { return !(o->out = v).empty(); }},
    {"stats", kTrace, false, [](Opts* o, const char*) { return o->stats = true; }},
    {"host-prof", kTrace, false, [](Opts* o, const char*) { return o->host_prof = true; }},
    {"clients", kTop, true,
     [](Opts* o, const char* v) { return ParseInt(v, 1, &o->c10k.clients); }},
    {"conns", kTop, true, [](Opts* o, const char* v) { return ParseInt(v, 1, &o->c10k.conns); }},
    {"migrate", kTop, true,
     [](Opts* o, const char* v) { return ParseInt(v, 0, &o->c10k.migrate); }},
    {"interval", kTop, true,
     [](Opts* o, const char* v) {
       int ms = 0;
       bool ok = ParseInt(v, 1, &ms);
       o->c10k.sample_interval = Millis(ms);
       return ok;
     }},
    {"workload", kProf, true,
     [](Opts* o, const char* v) {
       return FindEngineWorkload((o->workload = v).c_str()) != nullptr;
     }},
    {"scale", kProf, true,
     [](Opts* o, const char* v) {
       return ParseReal(v, &o->scale) && o->scale > 0 && o->scale <= 1;
     }},
    {"flame", kProf, false, [](Opts* o, const char*) { return o->flame = true; }},
    {"min-attributed", kProf, true,
     [](Opts* o, const char* v) {
       return ParseReal(v, &o->min_attributed) && o->min_attributed >= 0 &&
              o->min_attributed <= 100;
     }},
};

bool Parse(int argc, char** argv, Opts* o) {
  for (int i = 2; i < argc; i++) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--", 2) != 0) {
      std::fprintf(stderr, "psdobs: unexpected argument '%s'\n", arg);
      return false;
    }
    std::string name = arg + 2;
    std::string inline_value;
    size_t eq = name.find('=');
    if (eq != std::string::npos) {
      inline_value = name.substr(eq + 1);
      name.resize(eq);
    }
    const Flag* f = nullptr;
    for (const Flag& cand : kFlags) {
      if (name == cand.name && (cand.views & o->view) != 0) {
        f = &cand;
      }
    }
    if (f == nullptr) {
      std::fprintf(stderr, "psdobs %s: unknown flag '--%s'\n", argv[1], name.c_str());
      return false;
    }
    const char* value = nullptr;
    if (!f->takes_value) {
      if (eq != std::string::npos) {
        std::fprintf(stderr, "psdobs: --%s takes no value\n", f->name);
        return false;
      }
    } else if (eq != std::string::npos) {
      value = inline_value.c_str();
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      std::fprintf(stderr, "psdobs: --%s requires a value\n", f->name);
      return false;
    }
    if (!f->set(o, value)) {
      std::fprintf(stderr, "psdobs: bad value '%s' for --%s\n", value, f->name);
      return false;
    }
  }
  return true;
}

struct LatRun {
  const char* proto;
  double rtt_ms;
};

// Runs the selected protolat workload — TCP then UDP when both are
// selected, one World each — with the selector's wire faults installed
// ahead of the view's own on_world hook. Each World's journey and drop
// rings are sized to hold every hop of the run so journeys are complete,
// not ring-truncated. False (after saying why) if a run did not complete.
bool RunLat(const Opts& o, ProtolatHooks hooks, std::vector<LatRun>* runs) {
  std::function<void(World&)> view_hook = std::move(hooks.on_world);
  hooks.on_world = [&o, &view_hook](World& w) {
    w.obs().journey.set_hop_capacity(1 << 20);
    w.obs().drops.set_ring_capacity(1 << 16);
    if (o.loss > 0) {
      FaultPlan plan;
      plan.loss_rate = o.loss;
      plan.seed = o.seed;
      w.wire().SetFaults(plan);
    }
    if (view_hook) {
      view_hook(w);
    }
  };
  ProtolatOptions opt = o.lat;
  for (IpProto proto : {IpProto::kTcp, IpProto::kUdp}) {
    const char* name = proto == IpProto::kTcp ? "tcp" : "udp";
    if (!(proto == IpProto::kTcp ? o.tcp : o.udp)) {
      continue;
    }
    opt.proto = proto;
    double ms = RunProtolat(o.config, MachineProfile::DecStation5000(), opt, hooks);
    if (ms < 0) {
      std::fprintf(stderr, "psdobs: %s protolat run did not complete\n", name);
      return false;
    }
    runs->push_back({name, ms});
  }
  return true;
}

// Every counter of both hosts and the wire, snapshotted while the World
// lives (the gauges point into it, hence the Reset before it dies).
std::vector<StatsRegistry::Entry> ExportRun(World& w) {
  StatsRegistry reg;
  w.ExportStats(0, &reg);
  w.ExportStats(1, &reg);
  w.ExportWireStats(&reg);
  std::vector<StatsRegistry::Entry> entries = reg.Snapshot();
  reg.Reset();
  return entries;
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

// The drop ledger and journey totals `stat` prints, added up over its
// protolat Worlds.
struct RecorderTotals {
  uint64_t drops[static_cast<size_t>(DropReason::kNumReasons)] = {};
  uint64_t minted = 0, delivered = 0, consumed = 0, dropped = 0, in_flight = 0, conflicts = 0;

  void Add(const Observatory& obs) {
    for (size_t i = 0; i < static_cast<size_t>(DropReason::kNumReasons); i++) {
      drops[i] += obs.drops.total(static_cast<DropReason>(i));
    }
    const PacketJourney& j = obs.journey;
    minted += j.minted();
    delivered += j.delivered();
    consumed += j.consumed();
    dropped += j.dropped();
    in_flight += j.in_flight();
    conflicts += j.conflicts();
  }
};

// With --proto both the workload runs once per protocol; counters and
// recorder totals are summed across the runs and histograms accumulate.
// The pcap taps are re-armed at the start of each run, so a capture file
// holds the final run's traffic with monotone virtual timestamps.
int Stat(const Opts& o) {
  HistogramSink hist;
  PcapCapture wire_pcap;
  PcapCapture kern_pcap;
  std::map<std::string, uint64_t> counters;

  ProtolatHooks hooks;
  hooks.sinks = {&hist};
  hooks.on_world = [&](World& w) {
    if (!o.pcap.empty()) {
      wire_pcap.Reset();
      w.AttachWirePcap(&wire_pcap);
    }
    if (!o.kern_pcap.empty()) {
      kern_pcap.Reset();
      w.AttachKernelPcap(0, &kern_pcap);
      w.AttachKernelPcap(1, &kern_pcap);
    }
  };
  hooks.on_done = [&](World& w) {
    std::vector<StatsRegistry::Entry> entries = ExportRun(w);
    if (!o.terse) {
      // --terse asks for the aggregate picture only; per-session rows are
      // also the one block NetstatText's skip-zero filter can't thin out.
      AppendSessionCounters(w, 0, &entries);
      AppendSessionCounters(w, 1, &entries);
    }
    for (const auto& e : entries) {
      counters[e.name] += e.value;
    }
  };
  RecorderTotals rec;
  hooks.on_end = [&rec](World& w) { rec.Add(w.obs()); };
  std::vector<LatRun> runs;
  if (!RunLat(o, hooks, &runs)) {
    return 1;
  }
  if (!o.pcap.empty() && !wire_pcap.WriteFile(o.pcap)) {
    std::fprintf(stderr, "psdobs: cannot write %s\n", o.pcap.c_str());
    return 1;
  }
  if (!o.kern_pcap.empty() && !kern_pcap.WriteFile(o.kern_pcap)) {
    std::fprintf(stderr, "psdobs: cannot write %s\n", o.kern_pcap.c_str());
    return 1;
  }

  std::vector<StatsRegistry::Entry> merged;
  merged.reserve(counters.size());
  for (const auto& kv : counters) {
    merged.push_back({kv.first, kv.second});
  }

  if (o.json) {
    printf("{\n  \"psdstat\": 1,\n");
    printf("  \"config\": \"%s\",\n", ConfigName(o.config));
    printf("  \"msg_size\": %zu,\n  \"trials\": %d,\n  \"loss_rate\": %.6g,\n", o.lat.msg_size,
           o.lat.trials, o.loss);
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
    printf("  \"drop_reasons\": {");
    first = true;
    for (size_t i = 1; i < static_cast<size_t>(DropReason::kNumReasons); i++) {
      DropReason r = static_cast<DropReason>(i);
      if (rec.drops[i] == 0) {
        continue;
      }
      printf("%s\"%s\": %lu", first ? "" : ", ", DropReasonName(r),
             static_cast<unsigned long>(rec.drops[i]));
      first = false;
    }
    printf("},\n");
    printf("  \"journey\": {\"minted\": %lu, \"delivered\": %lu, \"consumed\": %lu, "
           "\"dropped\": %lu, \"in_flight\": %lu, \"conflicts\": %lu}\n}\n",
           static_cast<unsigned long>(rec.minted), static_cast<unsigned long>(rec.delivered),
           static_cast<unsigned long>(rec.consumed), static_cast<unsigned long>(rec.dropped),
           static_cast<unsigned long>(rec.in_flight), static_cast<unsigned long>(rec.conflicts));
    return 0;
  }

  printf("psdstat: %s, %zu byte(s), %d trials", ConfigName(o.config), o.lat.msg_size,
         o.lat.trials);
  if (o.loss > 0) {
    printf(", loss %.3f", o.loss);
  }
  printf("\n");
  for (const LatRun& r : runs) {
    printf("  %s round trip: %.3f ms\n", r.proto, r.rtt_ms);
  }
  printf("\n%s", NetstatText(merged, o.terse).c_str());
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
  printf("\ndrop reasons:\n");
  bool any_drop = false;
  for (size_t i = 1; i < static_cast<size_t>(DropReason::kNumReasons); i++) {
    DropReason r = static_cast<DropReason>(i);
    if (rec.drops[i] == 0) {
      continue;
    }
    any_drop = true;
    printf("  %-24s %lu%s\n", DropReasonName(r), static_cast<unsigned long>(rec.drops[i]),
           IsDropReason(r) ? "" : "  (event, not a drop)");
  }
  if (!any_drop) {
    printf("  (none)\n");
  }
  printf("\npacket journeys: %lu minted, %lu delivered, %lu consumed, %lu dropped, "
         "%lu in flight\n",
         static_cast<unsigned long>(rec.minted), static_cast<unsigned long>(rec.delivered),
         static_cast<unsigned long>(rec.consumed), static_cast<unsigned long>(rec.dropped),
         static_cast<unsigned long>(rec.in_flight));
  return 0;
}

int Walk(const Opts& o) {
  std::string walk;
  ProtolatHooks hooks;
  hooks.on_end = [&o, &walk](World& w) {
    walk = o.json ? PktwalkJson(w.obs(), o.walk) : PktwalkText(w.obs(), o.walk);
  };
  std::vector<LatRun> runs;
  if (!RunLat(o, hooks, &runs)) {
    return 1;
  }
  std::fputs(walk.c_str(), stdout);
  return 0;
}

// --host-prof attaches the host wall-clock profiler and merges its span
// buffer into the trace as an extra "host wall clock" process group:
// virtual swimlanes and real engine time side by side.
int Trace(const Opts& o) {
  ChromeTraceSink sink;
  ProtolatHooks hooks;
  hooks.sinks = {&sink};
  std::vector<StatsRegistry::Entry> stats;
  if (o.stats) {
    hooks.on_done = [&stats](World& w) { stats = ExportRun(w); };
  }
  HostProfiler& hp = HostProfiler::Get();
  if (o.host_prof) {
    hp.RecordSpans(1 << 20);
    hp.Start();
  }
  std::vector<LatRun> runs;
  bool ok = RunLat(o, hooks, &runs);
  if (o.host_prof) {
    hp.Stop();
    HostProfReport rep = hp.Snapshot();
    sink.AddHostSpans(rep);
    printf("host profile: %.1f ms wall, %.1f%% attributed, %zu host spans merged\n",
           rep.wall_ns / 1e6, rep.attributed_pct(), rep.spans.size());
  }
  if (!ok) {
    return 1;
  }
  if (sink.span_count() == 0) {
    std::fprintf(stderr, "psdobs: trace is empty: no spans recorded\n");
    return 1;
  }
  std::ofstream os(o.out, std::ios::binary);
  if (!os) {
    std::fprintf(stderr, "psdobs: cannot open %s for writing\n", o.out.c_str());
    return 1;
  }
  sink.WriteJson(os);
  os.flush();
  if (!os) {
    std::fprintf(stderr, "psdobs: write to %s failed (disk full or path not writable?)\n",
                 o.out.c_str());
    return 1;
  }
  os.close();

  printf("%s %s %zuB x%d: rtt %.3f ms, %zu events -> %s\n", ConfigName(o.config), runs[0].proto,
         o.lat.msg_size, o.lat.trials, runs[0].rtt_ms, sink.span_count(), o.out.c_str());
  for (const StatsRegistry::Entry& e : stats) {
    printf("%s %llu\n", e.name.c_str(), static_cast<unsigned long long>(e.value));
  }
  return 0;
}

// bench_c10k's default seed, so `top --clients 2048 --conns 2 --migrate 8
// --interval 500` renders the run behind that bench's row.
constexpr uint64_t kC10kSeed = 1993;

int Top(const Opts& o) {
  HostProfiler& hp = HostProfiler::Get();
  hp.Start();
  C10kOutcome r = RunC10k(o.config, MachineProfile::DecStation5000(), o.c10k, kC10kSeed);
  hp.Stop();
  const HostProfReport host_rep = hp.Snapshot();

  std::vector<std::pair<std::string, RpcOpStats>> ops = r.rpc_ops;
  std::stable_sort(ops.begin(), ops.end(),
                   [](const auto& a, const auto& b) { return a.second.count > b.second.count; });
  double amplification = r.accepts > 0 ? static_cast<double>(r.rpc_client_total) /
                                             static_cast<double>(r.accepts)
                                       : 0;

  if (o.json) {
    printf("{\n  \"psdtop\": 1,\n  \"config\": \"%s\",\n", ConfigName(o.config));
    printf("  \"accepts\": %llu,\n  \"flows_completed\": %llu,\n",
           static_cast<unsigned long long>(r.accepts),
           static_cast<unsigned long long>(r.flows_completed));
    printf("  \"rpc_total\": %llu,\n  \"rpc_per_connection\": %.6g,\n  \"server_traps\": %llu,\n",
           static_cast<unsigned long long>(r.rpc_client_total), amplification,
           static_cast<unsigned long long>(r.server_traps));
    printf("  \"rpc_ops\": %s,\n  \"metastate\": {", RpcOpsJson(ops).c_str());
    for (size_t i = 0; i < r.meta_totals.size(); i++) {
      printf("%s\"%s\": %llu", i == 0 ? "" : ", ", r.meta_totals[i].first.c_str(),
             static_cast<unsigned long long>(r.meta_totals[i].second));
    }
    printf("},\n  \"migrations\": %s,\n",
           MigrationsJson(r, IsLibraryConfig(o.config) ? o.c10k.migrate : 0).c_str());
    printf("  \"host_profile\": %s,\n  \"timeseries\": %s\n}\n",
           HostProfileJsonFragment(host_rep).c_str(), r.timeseries_json.c_str());
    return 0;
  }

  printf("psdtop: %s, %d clients x %d conns, %llu accepts, %llu flows\n", ConfigName(o.config),
         o.c10k.clients, o.c10k.conns, static_cast<unsigned long long>(r.accepts),
         static_cast<unsigned long long>(r.flows_completed));
  printf("rpc: %llu calls, %.2f per connection (traps %llu), %.0f/s; %llu samples @ %lld ms\n\n",
         static_cast<unsigned long long>(r.rpc_client_total), amplification,
         static_cast<unsigned long long>(r.server_traps), r.rpcs_per_sec,
         static_cast<unsigned long long>(r.timeseries_samples),
         static_cast<long long>(o.c10k.sample_interval / Millis(1)));

  printf("%-16s %8s %8s %8s %10s %10s %10s %10s\n", "OP", "COUNT", "B/IN", "B/OUT", "Q-P50us",
         "Q-P99us", "S-P50us", "S-P99us");
  if (ops.empty()) {
    printf("  (no RPC ops: the in-kernel placement makes no server calls)\n");
  }
  for (const auto& [name, st] : ops) {
    printf("%-16s %8llu %8llu %8llu %10.1f %10.1f %10.1f %10.1f\n", name.c_str(),
           static_cast<unsigned long long>(st.count), static_cast<unsigned long long>(st.bytes_in),
           static_cast<unsigned long long>(st.bytes_out), st.queue_wait.QuantileMicros(0.5),
           st.queue_wait.QuantileMicros(0.99), st.service.QuantileMicros(0.5),
           st.service.QuantileMicros(0.99));
  }

  // Only the sampled gauges have rates; route-lookup is the hot one.
  printf("\n%-16s %10s %10s\n", "RESOURCE", "TOTAL", "/SEC");
  for (const auto& [name, total] : r.meta_totals) {
    if (total == 0) {
      continue;
    }
    double rate = name == MetaEventName(MetaEvent::kRouteLookup) ? r.route_lookup_per_sec : 0;
    if (rate > 0) {
      printf("%-16s %10llu %10.1f\n", name.c_str(), static_cast<unsigned long long>(total), rate);
    } else {
      printf("%-16s %10llu %10s\n", name.c_str(), static_cast<unsigned long long>(total), "-");
    }
  }

  printf("\n%-16s %8s %10s %10s\n", "PHASE", "COUNT", "P50us", "P99us");
  for (const PhaseStat& ph : r.phases) {
    printf("%-16s %8llu %10.1f %10.1f\n", ph.name.c_str(),
           static_cast<unsigned long long>(ph.count), ph.p50_us, ph.p99_us);
  }
  printf("\nmigrations performed: %llu\n", static_cast<unsigned long long>(r.live_migrations));

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

// The profiled run's virtual quantities are printed alongside so a reader
// can check them against bench_engine's reference row: the profiler must
// not perturb simulation behavior, only observe its host cost.
int Prof(const Opts& o) {
  HostProfiler& hp = HostProfiler::Get();
  hp.Start();
  EngineRunOutcome run =
      FindEngineWorkload(o.workload.c_str())(MachineProfile::DecStation5000(), o.scale);
  hp.Stop();
  HostProfReport rep = hp.Snapshot();

  if (o.flame) {
    std::fputs(RenderHostProfFlame(rep).c_str(), stdout);
  } else if (o.json) {
    std::fputs(RenderHostProfJson(rep).c_str(), stdout);
  } else {
    printf("-- psdprof: %s (scale %g) --\n", o.workload.c_str(), o.scale);
    printf("%llu frames, %llu events, %llu elided wakeups, %llu switches, virtual end %.3f s\n",
           static_cast<unsigned long long>(run.frames),
           static_cast<unsigned long long>(run.events),
           static_cast<unsigned long long>(run.elided),
           static_cast<unsigned long long>(run.switches),
           static_cast<double>(run.virtual_end) / 1e9);
    std::fputs(RenderHostProfTable(rep).c_str(), stdout);
  }
  // --min-attributed is the steering gate: exit 4 if named domains cover
  // less than PCT% of wall time.
  if (o.min_attributed >= 0 && rep.attributed_pct() < o.min_attributed) {
    std::fprintf(stderr, "psdobs: attribution %.1f%% below floor %.1f%%\n", rep.attributed_pct(),
                 o.min_attributed);
    return 4;
  }
  return 0;
}

struct ViewDef {
  const char* name;
  View view;
  int (*run)(const Opts&);
};

const ViewDef kViews[] = {
    {"stat", kStat, Stat}, {"walk", kWalk, Walk}, {"trace", kTrace, Trace},
    {"top", kTop, Top},    {"prof", kProf, Prof},
};

}  // namespace

int main(int argc, char** argv) {
  for (const ViewDef& v : kViews) {
    if (argc >= 2 && std::strcmp(argv[1], v.name) == 0) {
      Opts o = DefaultsFor(v.view);
      return Parse(argc, argv, &o) ? v.run(o) : Usage();
    }
  }
  return Usage();
}
