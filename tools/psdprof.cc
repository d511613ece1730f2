// psdprof — host wall-clock profiler CLI over the canonical engine
// workloads (ISSUE 9). Runs one workload with the HostProfiler attached
// and renders where the engine's real time went:
//
//   psdprof --workload=udp_blast             per-domain table (default)
//   psdprof --workload=tcp_stream --json     machine-readable report
//   psdprof --workload=churn_256 --flame     collapsed stacks; feed to
//                                            flamegraph.pl or speedscope
//   psdprof --workload=udp_blast --scale=0.1 shrunk run for smoke tests
//   psdprof ... --min-attributed=90          exit 4 if attribution < 90%
//                                            (the CI steering gate)
//
// The profiled run's virtual quantities are printed alongside so a reader
// can check them against bench_engine's reference row: the profiler must
// not perturb simulation behavior, only observe its host cost.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench/common/engine_workloads.h"
#include "src/cost/machine_profile.h"
#include "src/obs/prof.h"

namespace psd {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: psdprof --workload=tcp_stream|udp_blast|churn_256 "
               "[--scale=F] [--json] [--flame] [--min-attributed=PCT]\n");
  return 64;
}

int Main(int argc, char** argv) {
  const char* workload = "udp_blast";
  double scale = 1.0;
  double min_attributed = -1.0;
  enum { kTable, kJson, kFlame } mode = kTable;
  for (int i = 1; i < argc; i++) {
    const char* a = argv[i];
    if (std::strncmp(a, "--workload=", 11) == 0) {
      workload = a + 11;
    } else if (std::strncmp(a, "--scale=", 8) == 0) {
      scale = std::atof(a + 8);
    } else if (std::strncmp(a, "--min-attributed=", 17) == 0) {
      min_attributed = std::atof(a + 17);
    } else if (std::strcmp(a, "--json") == 0) {
      mode = kJson;
    } else if (std::strcmp(a, "--flame") == 0) {
      mode = kFlame;
    } else {
      return Usage();
    }
  }
  EngineWorkloadFn fn = FindEngineWorkload(workload);
  if (fn == nullptr || scale <= 0 || scale > 1.0) {
    return Usage();
  }

  HostProfiler& hp = HostProfiler::Get();
  hp.Start();
  EngineRunOutcome run = fn(MachineProfile::DecStation5000(), scale);
  hp.Stop();
  HostProfReport rep = hp.Snapshot();

  switch (mode) {
    case kJson:
      std::fputs(RenderHostProfJson(rep).c_str(), stdout);
      break;
    case kFlame:
      std::fputs(RenderHostProfFlame(rep).c_str(), stdout);
      break;
    case kTable:
      std::printf("-- psdprof: %s (scale %g) --\n", workload, scale);
      std::printf("%llu frames, %llu events, %llu switches, virtual end %.3f s\n",
                  static_cast<unsigned long long>(run.frames),
                  static_cast<unsigned long long>(run.events),
                  static_cast<unsigned long long>(run.switches),
                  static_cast<double>(run.virtual_end) / 1e9);
      std::fputs(RenderHostProfTable(rep).c_str(), stdout);
      break;
  }
  if (min_attributed >= 0 && rep.attributed_pct() < min_attributed) {
    std::fprintf(stderr, "psdprof: attribution %.1f%% below floor %.1f%%\n", rep.attributed_pct(),
                 min_attributed);
    return 4;
  }
  return 0;
}

}  // namespace
}  // namespace psd

int main(int argc, char** argv) { return psd::Main(argc, argv); }
