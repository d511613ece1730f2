// Profiler overhead tripwire on the udp_blast engine workload — the
// per-packet hot path, where boundary density is highest.
//
// Two costs matter:
//
//  * Idle: every PSD_PROF_SCOPE site costs one static bool load. There is
//    one build, with every site in it, so this cost is part of every bench
//    number rather than a separate gate.
//
//  * Running: exact interval attribution stamps the TSC at every domain
//    boundary crossing — a scope's push and pop, a context switch's depart
//    and arrive — so a running profiler costs (crossings x per-crossing
//    cost). Both factors are the profiler's to keep small, and this test
//    bounds each on its own. A wall ratio would not: once the engine's
//    fiber switch stopped making a syscall, unprofiled udp_blast got ~2x
//    faster while the profiler's absolute cost per packet stayed put, and
//    the same profiler went from ~32% to ~80% overhead.
//      - Cost per crossing: the extra CPU time of a profiled run divided
//        by the crossings its own report counts (scope entries plus
//        fiber.swap arrivals), bounded at 2x the ~50 ns measured on a
//        2.1 GHz Xeon (two ~20 ns rdtsc stamps plus bookkeeping). Catches
//        a slower stamp path without flaking on loaded CI machines. Only
//        optimized, uninstrumented builds check it: under ASan at -O0 the
//        same crossing costs ~900 ns.
//      - Crossings per frame: deterministic, 58.5 today. It was 71.1
//        when the bound was set, and an earlier engine that opened a
//        sched scope on every fast-resume bail read 77.0, which the
//        original ratio form of this test flagged. The one dispatch loop
//        opens its sched scope once per loop call, on every context
//        (52.8 before it). A new hot-path scope should raise this
//        ceiling on purpose, not by accident.
//    Bench trials are never profiled (host_profile rows come from one
//    extra run), so neither cost reaches a bench number.
//
// Methodology mirrors bench_engine: min-of-trials on both sides (min, not
// mean, because host timing noise is strictly additive), with a warmup run
// first so page cache and allocator state don't bias the first side
// measured. Unprofiled and profiled trials alternate, so a burst of load
// from tests running in parallel hits both sides alike. Each trial is timed
// on this thread's CPU clock around the workload call (the engine runs
// every fiber on the calling thread), so time spent preempted by other
// processes is not counted: timed on the wall clock, this test failed in
// full `ctest -j4` runs and passed alone.
#include <gtest/gtest.h>
#include <time.h>

#include <algorithm>

#include "bench/common/engine_workloads.h"
#include "src/cost/machine_profile.h"
#include "src/obs/prof.h"

namespace psd {
namespace {

constexpr double kScale = 0.25;
constexpr int kTrials = 5;
constexpr double kMaxNsPerCrossing = 100.0;
constexpr double kMaxCrossingsPerFrame = 74.0;

// Scope entries plus fiber.swap arrivals: each is one stamped pair. The
// fiber.run count repeats the arrivals into fibers, so it is left out.
// CPU time this thread has consumed, in ns.
double ThreadCpuNs() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
}

uint64_t Crossings(const HostProfReport& r) {
  uint64_t n = 0;
  for (const HostProfReport::Dom& d : r.domains) {
    if (d.domain != ProfDomain::kFiberRun) {
      n += d.count;
    }
  }
  return n;
}

TEST(HostProfOverhead, UdpBlastRunningCostStaysBounded) {
  MachineProfile mp = MachineProfile::DecStation5000();
  RunEngineUdpBlast(mp, kScale);  // warmup
  double off_ns = 0;
  double on_ns = 0;
  uint64_t crossings = 0;  // the same every profiled trial: the run is deterministic
  uint64_t frames = 0;
  for (int t = 0; t < kTrials; t++) {
    double t0 = ThreadCpuNs();
    RunEngineUdpBlast(mp, kScale);
    double off = ThreadCpuNs() - t0;
    HostProfiler::Get().Start();
    t0 = ThreadCpuNs();
    EngineRunOutcome out = RunEngineUdpBlast(mp, kScale);
    double on = ThreadCpuNs() - t0;
    HostProfiler::Get().Stop();
    crossings = Crossings(HostProfiler::Get().Snapshot());
    frames = out.frames;
    off_ns = t == 0 ? off : std::min(off_ns, off);
    on_ns = t == 0 ? on : std::min(on_ns, on);
  }
  ASSERT_GT(off_ns, 0.0);
  ASSERT_GT(crossings, 0u);
  ASSERT_GT(frames, 0u);
  double per_frame = static_cast<double>(crossings) / static_cast<double>(frames);
  EXPECT_LE(per_frame, kMaxCrossingsPerFrame)
      << crossings << " profiler crossings over " << frames
      << " frames: a new hot-path scope or stamp, see the tripwire rationale above";
#if defined(__OPTIMIZE__) && !defined(__SANITIZE_ADDRESS__)
  // Host ns only mean something in an optimized, uninstrumented build.
  double ns_per_crossing = (on_ns - off_ns) / static_cast<double>(crossings);
  EXPECT_LE(ns_per_crossing, kMaxNsPerCrossing)
      << "profiled udp_blast CPU " << on_ns / 1e6 << " ms vs unprofiled " << off_ns / 1e6
      << " ms over " << crossings << " crossings: a profiler hot-path regression, see the "
      << "tripwire rationale above";
#endif
}

}  // namespace
}  // namespace psd
