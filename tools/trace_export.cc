// trace_export: replay an instrumented protolat run and write the span
// stream as chrome://tracing JSON (load the file in chrome://tracing or
// https://ui.perfetto.dev to see the per-layer breakdown on a timeline).
//
// Usage:
//   trace_export [--config NAME] [--proto udp|tcp] [--size BYTES]
//                [--trials N] [--out FILE] [--stats] [--host-prof]
//
// Defaults: --config library-shm-ipf --proto udp --size 1 --trials 10
//           --out trace.json
//
// --host-prof attaches the host wall-clock profiler (src/obs/prof.h) and
// merges its span buffer into the trace as an extra "host wall clock"
// process group — virtual swimlanes and real engine time side by side.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "bench/common/workloads.h"
#include "src/obs/chrome_trace.h"
#include "src/obs/prof.h"
#include "src/obs/stats.h"
#include "src/obs/trace.h"

using namespace psd;

namespace {

int Usage(const char* argv0) {
  fprintf(stderr,
          "usage: %s [--config in-kernel|server|library-ipc|library-shm|library-shm-ipf]\n"
          "          [--proto udp|tcp] [--size BYTES] [--trials N] [--out FILE] [--stats]\n"
          "          [--host-prof]\n",
          argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Config config = Config::kLibraryShmIpf;
  ProtolatOptions opt;
  opt.proto = IpProto::kUdp;
  opt.msg_size = 1;
  opt.trials = 10;
  std::string out_path = "trace.json";
  bool dump_stats = false;
  bool host_prof = false;

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
        opt.proto = IpProto::kUdp;
      } else if (strcmp(v, "tcp") == 0) {
        opt.proto = IpProto::kTcp;
      } else {
        fprintf(stderr, "unknown proto '%s'\n", v);
        return Usage(argv[0]);
      }
    } else if (strcmp(argv[i], "--size") == 0) {
      opt.msg_size = static_cast<size_t>(atol(need("--size")));
    } else if (strcmp(argv[i], "--trials") == 0) {
      opt.trials = atoi(need("--trials"));
    } else if (strcmp(argv[i], "--out") == 0) {
      out_path = need("--out");
    } else if (strcmp(argv[i], "--stats") == 0) {
      dump_stats = true;
    } else if (strcmp(argv[i], "--host-prof") == 0) {
      host_prof = true;
    } else {
      fprintf(stderr, "unknown flag '%s'\n", argv[i]);
      return Usage(argv[0]);
    }
  }

  Tracer tracer;
  ChromeTraceSink sink;
  tracer.AddSink(&sink);

  ProtolatHooks hooks;
  hooks.tracer = &tracer;
  std::string stats_dump;
  if (dump_stats) {
    hooks.on_done = [&stats_dump](World& w) {
      StatsRegistry reg;
      w.ExportStats(0, &reg);
      w.ExportStats(1, &reg);
      w.ExportWireStats(&reg);
      stats_dump = reg.Dump();
    };
  }

  if (host_prof) {
    HostProfiler::Get().RecordSpans(1 << 20);
    HostProfiler::Get().Start();
  }
  double rtt_ms = RunProtolatTraced(config, MachineProfile::DecStation5000(), opt, hooks);
  if (host_prof) {
    HostProfiler::Get().Stop();
    HostProfReport rep = HostProfiler::Get().Snapshot();
    sink.AddHostSpans(rep);
    printf("host profile: %.1f ms wall, %.1f%% attributed, %zu host spans merged\n",
           rep.wall_ns / 1e6, rep.attributed_pct(), rep.spans.size());
  }
  if (rtt_ms < 0) {
    fprintf(stderr, "protolat run did not complete\n");
    return 1;
  }
  if (sink.span_count() == 0) {
    fprintf(stderr, "trace is empty: no spans recorded\n");
    return 1;
  }

  std::ofstream os(out_path, std::ios::binary);
  if (!os) {
    fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  sink.WriteJson(os);
  os.flush();
  if (!os) {
    fprintf(stderr, "write to %s failed (disk full or path not writable?)\n", out_path.c_str());
    return 1;
  }
  os.close();

  printf("%s %s %zuB x%d: rtt %.3f ms, %zu events -> %s\n", ConfigName(config),
         opt.proto == IpProto::kUdp ? "udp" : "tcp", opt.msg_size, opt.trials, rtt_ms,
         sink.span_count(), out_path.c_str());
  if (dump_stats) {
    fputs(stats_dump.c_str(), stdout);
  }
  return 0;
}
