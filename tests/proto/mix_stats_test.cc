// The traffic mixes surface their adapter counters through the unified
// StatsRegistry (proto.client.* / proto.server.*), the same interface every
// other subsystem exports through — so `psdobs stat`-style snapshot consumers see
// application-protocol activity next to the wire and stack gauges.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "src/obs/stats.h"
#include "src/testbed/traffic_mix.h"
#include "src/testbed/world.h"

namespace psd {
namespace {

TEST(MixStats, ExportsClientAndServerAdapterCounters) {
  const MixSpec* spec = FindTrafficMix("rpc");
  ASSERT_NE(spec, nullptr);

  TrafficMix mix(*spec, /*seed=*/7);
  StatsRegistry reg;
  {
    World w(Config::kInKernel, MachineProfile::DecStation5000());
    int apps_done = 0;
    mix.Launch(&w, [&apps_done] { apps_done++; });
    w.sim().Run(Seconds(120));
    ASSERT_EQ(apps_done, mix.apps_total());

    mix.ExportStats(&reg);
    EXPECT_EQ(reg.duplicates_rejected(), 0u);

    std::map<std::string, uint64_t> snap;
    for (const StatsRegistry::Entry& e : reg.Snapshot()) {
      snap[e.name] = e.value;
    }
    // Both ends registered, under distinct prefixes.
    ASSERT_TRUE(snap.count("proto.client.rpc_calls"));
    ASSERT_TRUE(snap.count("proto.server.rpc_replies"));
    // Gauges read the live mix counters: 3 conns x 24 calls, every call
    // answered (invariant 6 holds on a clean wire).
    const uint64_t want_calls = static_cast<uint64_t>(spec->rpc_conns) *
                                static_cast<uint64_t>(spec->rpc_calls);
    EXPECT_EQ(snap["proto.client.rpc_calls"], want_calls);
    EXPECT_EQ(snap["proto.client.rpc_replies"], want_calls);
    EXPECT_EQ(snap["proto.server.rpc_replies"], want_calls);
    EXPECT_EQ(snap["proto.client.frame_errors"], 0u);
    EXPECT_EQ(snap["proto.server.frame_errors"], 0u);
    EXPECT_GT(snap["proto.client.bytes_out"], 0u);
    // The mix outlives the registry consumer; gauges stay readable here.
  }
  reg.Reset();
}

}  // namespace
}  // namespace psd
