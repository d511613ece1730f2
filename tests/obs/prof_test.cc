// HostProfiler unit tests: domain taxonomy, nested-scope exclusive
// attribution, scope counts, collapsed-stack flame paths, per-fiber
// attribution through real simulator fibers, stats export, renderer
// grammar, and the zero-perturbation contract (an attached profiler must
// not move any virtual quantity of an engine workload).
//
// Host-time assertions use generous floors (spin 400us, assert >= 100us)
// so the tests stay robust on loaded CI machines: the profiler's claim is
// attribution, not nanosecond precision.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <set>
#include <string>

#include "bench/common/engine_workloads.h"
#include "src/cost/machine_profile.h"
#include "src/obs/prof.h"
#include "src/obs/stats.h"
#include "src/sim/simulator.h"

namespace psd {
namespace {

// Busy-spins for roughly `us` host microseconds so open scopes accrue
// real, attributable time.
void Spin(int us) {
  auto until = std::chrono::steady_clock::now() + std::chrono::microseconds(us);
  while (std::chrono::steady_clock::now() < until) {
  }
}

double DomainNs(const HostProfReport& r, ProfDomain d) {
  for (const auto& row : r.domains) {
    if (row.domain == d) {
      return row.total_ns;
    }
  }
  return 0;
}

uint64_t DomainCount(const HostProfReport& r, ProfDomain d) {
  for (const auto& row : r.domains) {
    if (row.domain == d) {
      return row.count;
    }
  }
  return 0;
}

double StackNs(const HostProfReport& r, const std::string& path) {
  for (const auto& kv : r.stacks) {
    if (kv.first == path) {
      return kv.second;
    }
  }
  return -1;
}

TEST(HostProf, DomainNamesAreUniqueAndStable) {
  std::set<std::string> seen;
  for (int i = 0; i < static_cast<int>(ProfDomain::kNumDomains); i++) {
    const char* n = ProfDomainName(static_cast<ProfDomain>(i));
    ASSERT_NE(n, nullptr) << "domain " << i;
    EXPECT_TRUE(seen.insert(n).second) << "duplicate domain name: " << n;
  }
  // Names other tools key on (bench_diff direction heuristics, flame roots).
  EXPECT_STREQ(ProfDomainName(ProfDomain::kOther), "other");
  EXPECT_STREQ(ProfDomainName(ProfDomain::kSimSched), "sim.sched");
  EXPECT_STREQ(ProfDomainName(ProfDomain::kFiberSwap), "fiber.swap");
  EXPECT_STREQ(ProfDomainName(ProfDomain::kFiberRun), "fiber.run");
}

TEST(HostProf, NestedScopesAccrueExclusiveTime) {
  HostProfiler& p = HostProfiler::Get();
  p.Start();
  {
    ProfScope outer(ProfDomain::kIpcPort);
    Spin(400);
    {
      ProfScope inner(ProfDomain::kCoreRpc);
      Spin(400);
    }
    Spin(400);
  }
  p.Stop();
  HostProfReport r = p.Snapshot();
  ASSERT_TRUE(r.enabled);
  // Exclusive semantics: outer spun ~800us outside the inner scope, inner
  // ~400us. Inner time must NOT also be charged to outer.
  double outer_ns = DomainNs(r, ProfDomain::kIpcPort);
  double inner_ns = DomainNs(r, ProfDomain::kCoreRpc);
  EXPECT_GE(inner_ns, 100e3);
  EXPECT_GE(outer_ns, 200e3);
  EXPECT_LT(outer_ns + inner_ns, r.wall_ns * 1.01);
  // Everything lands somewhere: wall >= attributed + other, remainder >= 0.
  EXPECT_GE(r.unattributed_ns, 0.0);
  EXPECT_GE(r.wall_ns, r.attributed_ns + r.other_ns - 1.0);
}

TEST(HostProf, ScopeEntriesAreCounted) {
  HostProfiler& p = HostProfiler::Get();
  p.Start();
  for (int i = 0; i < 5; i++) {
    ProfScope s(ProfDomain::kApp);
  }
  p.Stop();
  EXPECT_EQ(DomainCount(p.Snapshot(), ProfDomain::kApp), 5u);
}

TEST(HostProf, CollapsedStacksFollowNesting) {
  HostProfiler& p = HostProfiler::Get();
  p.Start();
  {
    ProfScope a(ProfDomain::kIpcPort);
    Spin(300);
    {
      ProfScope b(ProfDomain::kCoreRpc);
      Spin(300);
    }
  }
  p.Stop();
  HostProfReport r = p.Snapshot();
  // Base-context root is "other"; nested scopes extend the path.
  EXPECT_GT(StackNs(r, "other;ipc.port"), 0.0);
  EXPECT_GT(StackNs(r, "other;ipc.port;core.rpc"), 0.0);
  EXPECT_EQ(StackNs(r, "other;core.rpc"), -1.0) << "inner scope leaked out of its parent path";
}

TEST(HostProf, FibersAttributeByNormalizedName) {
  HostProfiler& p = HostProfiler::Get();
  p.Start();
  Simulator sim;
  HostCpu cpu;
  for (int i = 0; i < 3; i++) {
    sim.Spawn("h0/worker" + std::to_string(i), &cpu, [&] {
      Spin(200);
      sim.current_thread()->SleepFor(Millis(1));
      Spin(200);
    });
  }
  sim.Run();
  p.Stop();
  HostProfReport r = p.Snapshot();
  // "h0/worker0..2" all normalize to "worker*" and aggregate.
  double worker_ns = 0;
  bool has_main = false;
  for (const auto& kv : r.fibers) {
    if (kv.first == "worker*") {
      worker_ns = kv.second;
    }
    if (kv.first == "(main)") {
      has_main = true;
    }
  }
  EXPECT_GE(worker_ns, 3 * 200e3) << "fiber spin time not attributed to the fiber";
  EXPECT_TRUE(has_main);
  // The sleep forces real context switches: swap edges and fiber bodies
  // must both show up in the domain table.
  EXPECT_GT(DomainNs(r, ProfDomain::kFiberSwap), 0.0);
  EXPECT_GT(DomainNs(r, ProfDomain::kFiberRun), 0.0);
  EXPECT_GT(DomainCount(r, ProfDomain::kFiberSwap), 0u);
}

TEST(HostProf, ExportStatsRegistersGauges) {
  HostProfiler& p = HostProfiler::Get();
  p.Start();
  {
    ProfScope s(ProfDomain::kApp);
    Spin(200);
  }
  p.Stop();
  StatsRegistry reg;
  p.ExportStats(&reg, "prof.");
  std::set<std::string> names;
  uint64_t app_ns = 0;
  uint64_t wall_ns = 0;
  for (const auto& e : reg.Snapshot()) {
    names.insert(e.name);
    if (e.name == "prof.app") {
      app_ns = e.value;
    }
    if (e.name == "prof.wall_ns") {
      wall_ns = e.value;
    }
  }
  ASSERT_TRUE(names.count("prof.wall_ns"));
  ASSERT_TRUE(names.count("prof.app"));
  EXPECT_GT(app_ns, 0u);
  EXPECT_GE(wall_ns, app_ns);
}

TEST(HostProf, RendererGrammar) {
  HostProfiler& p = HostProfiler::Get();
  p.Start();
  {
    ProfScope a(ProfDomain::kIpcPort);
    Spin(200);
    ProfScope b(ProfDomain::kCoreRpc);
    Spin(200);
  }
  p.Stop();
  HostProfReport r = p.Snapshot();

  std::string table = RenderHostProfTable(r);
  EXPECT_NE(table.find("ipc.port"), std::string::npos);
  EXPECT_NE(table.find("core.rpc"), std::string::npos);

  // Flame lines: "path;path;... <integer-ns>\n", no empty paths.
  std::string flame = RenderHostProfFlame(r);
  ASSERT_FALSE(flame.empty());
  size_t pos = 0;
  int lines = 0;
  while (pos < flame.size()) {
    size_t nl = flame.find('\n', pos);
    ASSERT_NE(nl, std::string::npos) << "flame output must end in newline";
    std::string line = flame.substr(pos, nl - pos);
    size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    ASSERT_GT(sp, 0u) << line;
    std::string count = line.substr(sp + 1);
    ASSERT_FALSE(count.empty()) << line;
    for (char c : count) {
      ASSERT_TRUE(c >= '0' && c <= '9') << "non-integer flame count: " << line;
    }
    lines++;
    pos = nl + 1;
  }
  EXPECT_GE(lines, 2);

  std::string json = RenderHostProfJson(r);
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"attributed_pct\""), std::string::npos);
  std::string frag = HostProfileJsonFragment(r);
  EXPECT_EQ(frag.front(), '{');
  EXPECT_NE(frag.find("\"domains\""), std::string::npos);
  size_t fibers = frag.find("\"fibers\": {");
  ASSERT_NE(fibers, std::string::npos) << frag;
  EXPECT_NE(frag.find("\"(main)\": ", fibers), std::string::npos) << frag;
}

TEST(HostProf, ZeroPerturbationOnEngineWorkload) {
  MachineProfile mp = MachineProfile::DecStation5000();
  EngineRunOutcome off = RunEngineUdpBlast(mp, 0.05);
  HostProfiler& p = HostProfiler::Get();
  p.Start();
  EngineRunOutcome on = RunEngineUdpBlast(mp, 0.05);
  p.Stop();
  HostProfReport r = p.Snapshot();
  ASSERT_TRUE(r.enabled);
  // Hooks were live through a full World (scheduler, fibers, NIC, stack) —
  // and every virtual quantity is bit-identical to the unprofiled run.
  EXPECT_GT(r.attributed_pct(), 50.0);
  EXPECT_EQ(off.frames, on.frames);
  EXPECT_EQ(off.events, on.events);
  EXPECT_EQ(off.switches, on.switches);
  EXPECT_EQ(off.virtual_end, on.virtual_end);
}

}  // namespace
}  // namespace psd
