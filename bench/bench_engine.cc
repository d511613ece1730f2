// Wall-clock speed of the simulation engine itself (ROADMAP item 2).
//
// Every other bench in this repo reports *virtual* time; this one reports
// how many real (host) nanoseconds the engine burns per simulated packet,
// which is what bounds the scenario sizes every other open item needs.
// The three canonical workloads live in bench/common/engine_workloads.{h,cc}
// (tools/psdprof and the profiler tests drive the same scenarios):
//
//   tcp_stream — one ttcp-style bulk TCP transfer, in-kernel placement
//                (windowed stream: timers, retransmit machinery armed,
//                sockbuf flow control).
//   udp_blast  — one-way UDP datagram blast at full wire utilization
//                (the per-packet hot path with no protocol back-pressure:
//                scheduler, pools, NIC delivery dominate).
//   churn_256  — 256 TCP sessions opened/transferred/closed on the
//                Library-SHM placement (session filter install/remove,
//                SHM rings, port churn: the C10K-shaped workload).
//
// Methodology (see EXPERIMENTS.md): one warmup run, then --trials measured
// runs of each workload. Virtual quantities (frames carried, events
// executed, virtual end time) must be bit-identical across trials — the
// bench aborts if they are not, since that would mean wall-clock state
// leaked into simulation behavior. Wall time is measured around the
// simulation phase only (world construction included: spawning hosts is
// part of the engine's job). Reported per workload:
//
//   wall_ns_per_pkt  — min over trials of wall_ns / frames_carried
//   events_per_sec   — events_executed / wall seconds, at the min trial
//
// After the measured trials each workload runs ONCE MORE with the host
// wall-clock profiler (src/obs/prof.h) attached — a separate run so the
// profiler's ~5-10% overhead never touches the gated wall numbers — and
// that run's per-domain attribution is emitted as the host_profile section
// of every row (plus a prof.<domain> summary on stdout).
//
// Emits BENCH_engine.json in the working directory (shared bench schema).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/common/bench_json.h"
#include "bench/common/engine_workloads.h"
#include "src/obs/prof.h"

namespace psd {
namespace {

struct WorkloadStats {
  std::string name;
  EngineRunOutcome ref;           // virtual quantities (identical every trial)
  std::vector<double> wall_ns;    // one entry per measured trial
  double min_wall_ns = 0;
  double mean_wall_ns = 0;
  std::string host_profile;       // JSON fragment from the extra profiled run

  double wall_ns_per_pkt() const { return min_wall_ns / static_cast<double>(ref.frames); }
  double mean_wall_ns_per_pkt() const { return mean_wall_ns / static_cast<double>(ref.frames); }
  double events_per_sec() const {
    return static_cast<double>(ref.events) / (min_wall_ns * 1e-9);
  }
};

WorkloadStats MeasureWorkload(const char* name, EngineWorkloadFn fn, const MachineProfile& prof,
                              int trials) {
  WorkloadStats st;
  st.name = name;
  fn(prof, 1.0);  // warmup: page in code, grow pools/freelists to steady state
  for (int t = 0; t < trials; t++) {
    EngineRunOutcome r = fn(prof, 1.0);
    if (t == 0) {
      st.ref = r;
    } else if (r.frames != st.ref.frames || r.events != st.ref.events ||
               r.virtual_end != st.ref.virtual_end) {
      std::fprintf(stderr,
                   "bench_engine: %s trial %d diverged (frames %llu vs %llu, events %llu vs "
                   "%llu) — virtual behavior leaked wall-clock state\n",
                   name, t, static_cast<unsigned long long>(r.frames),
                   static_cast<unsigned long long>(st.ref.frames),
                   static_cast<unsigned long long>(r.events),
                   static_cast<unsigned long long>(st.ref.events));
      std::exit(3);
    }
    st.wall_ns.push_back(r.wall_ns);
  }
  st.min_wall_ns = st.wall_ns[0];
  double sum = 0;
  for (double v : st.wall_ns) {
    st.min_wall_ns = std::min(st.min_wall_ns, v);
    sum += v;
  }
  st.mean_wall_ns = sum / static_cast<double>(st.wall_ns.size());
  std::printf(
      "%-12s %10llu pkts %12llu events %8llu switches  %9.1f ns/pkt (mean %9.1f)  %10.0f "
      "events/s\n",
      st.name.c_str(), static_cast<unsigned long long>(st.ref.frames),
      static_cast<unsigned long long>(st.ref.events),
      static_cast<unsigned long long>(st.ref.switches), st.wall_ns_per_pkt(),
      st.mean_wall_ns_per_pkt(), st.events_per_sec());

  // Extra profiled run (never part of the measured trials). The profiler is
  // proven not to change virtual behavior (determinism A/B with it attached)
  // and its virtual quantities are re-checked here for free.
  HostProfiler& hp = HostProfiler::Get();
  hp.Start();
  EngineRunOutcome pr = fn(prof, 1.0);
  hp.Stop();
  HostProfReport rep = hp.Snapshot();
  if (HostProfiler::enabled() || rep.enabled) {
    if (pr.frames != st.ref.frames || pr.events != st.ref.events ||
        pr.virtual_end != st.ref.virtual_end) {
      std::fprintf(stderr, "bench_engine: %s profiled run diverged — profiler touched virtual "
                           "state\n", name);
      std::exit(3);
    }
  }
  st.host_profile = HostProfileJsonFragment(rep);
  if (rep.enabled) {
    std::printf("  host attribution %.1f%%:", rep.attributed_pct());
    int shown = 0;
    for (const auto& d : rep.domains) {
      if (d.domain == ProfDomain::kOther || shown == 5) {
        continue;
      }
      std::printf(" %s %.1f%%", d.name, 100.0 * d.total_ns / rep.wall_ns);
      shown++;
    }
    std::printf("\n");
  }
  return st;
}

}  // namespace
}  // namespace psd

int main(int argc, char** argv) {
  using namespace psd;
  int trials = 3;
  for (int i = 1; i < argc; i++) {
    if (std::strncmp(argv[i], "--trials=", 9) == 0) {
      trials = std::atoi(argv[i] + 9);
    } else {
      std::fprintf(stderr, "usage: %s [--trials=N]\n", argv[0]);
      return 1;
    }
  }
  if (trials < 1) {
    trials = 1;
  }
  MachineProfile prof = MachineProfile::DecStation5000();

  std::printf("-- Engine wall-clock bench (profile %s, %d trial%s) --\n", prof.name.c_str(),
              trials, trials == 1 ? "" : "s");

  std::vector<WorkloadStats> all;
  all.push_back(MeasureWorkload("tcp_stream", RunEngineTcpStream, prof, trials));
  all.push_back(MeasureWorkload("udp_blast", RunEngineUdpBlast, prof, trials));
  all.push_back(MeasureWorkload("churn_256", RunEngineChurn256, prof, trials));

  BenchJson out("engine", prof.name);
  out.summary().Set("trials", trials);
  for (const WorkloadStats& st : all) {
    out.summary().Set(st.name + "_wall_ns_per_pkt", st.wall_ns_per_pkt());
    out.summary().Set(st.name + "_events_per_sec", st.events_per_sec());
  }

  for (const WorkloadStats& st : all) {
    for (size_t t = 0; t < st.wall_ns.size(); t++) {
      BenchJson::Obj& row = out.AddResult();
      row.Set("workload", st.name);
      row.Set("trial", static_cast<int>(t));
      row.Set("packets", st.ref.frames);
      row.Set("events", st.ref.events);
      row.Set("thread_switches", st.ref.switches);
      row.Set("virtual_end_ms", static_cast<double>(st.ref.virtual_end) / 1e6);
      row.Set("wall_ns", st.wall_ns[t]);
      row.Set("wall_ns_per_pkt", st.wall_ns[t] / static_cast<double>(st.ref.frames));
      row.SetRaw("host_profile", st.host_profile);
    }
  }
  out.WriteFile();
  return 0;
}
