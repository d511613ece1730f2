// StatsRegistry unit tests: snapshot ordering, the duplicate-gauge guard
// (assert in debug builds, reject-and-count in release builds), and the
// Reset contract that lets one registry span back-to-back runs; and
// NetstatText's one header per counter block.
#include <gtest/gtest.h>

#include "src/obs/netstat.h"
#include "src/obs/stats.h"

namespace psd {
namespace {

TEST(StatsRegistry, SnapshotReadsLiveValuesSortedByName) {
  StatsRegistry reg;
  uint64_t a = 1;
  uint64_t b = 2;
  EXPECT_TRUE(reg.RegisterGauge("zeta", [&] { return b; }));
  EXPECT_TRUE(reg.RegisterGauge("alpha", [&] { return a; }));
  EXPECT_EQ(reg.size(), 2u);

  std::vector<StatsRegistry::Entry> snap = reg.Snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].name, "alpha");
  EXPECT_EQ(snap[0].value, 1u);
  EXPECT_EQ(snap[1].name, "zeta");
  EXPECT_EQ(snap[1].value, 2u);

  // Gauges are callbacks, not copies: a later snapshot sees the new value.
  a = 42;
  EXPECT_EQ(reg.Snapshot()[0].value, 42u);
}

#ifdef NDEBUG
TEST(StatsRegistry, DuplicateGaugeIsRejectedAndCounted) {
  // Release builds: the duplicate is refused, the first registration stays
  // live, and the collision is visible through duplicates_rejected().
  StatsRegistry reg;
  EXPECT_TRUE(reg.RegisterGauge("dup", [] { return uint64_t{1}; }));
  EXPECT_FALSE(reg.RegisterGauge("dup", [] { return uint64_t{2}; }));
  EXPECT_EQ(reg.duplicates_rejected(), 1u);
  EXPECT_EQ(reg.size(), 1u);

  std::vector<StatsRegistry::Entry> snap = reg.Snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].value, 1u) << "first registration must stay live";
}
#else
using StatsRegistryDeathTest = ::testing::Test;

TEST(StatsRegistryDeathTest, DuplicateGaugeAssertsInDebugBuilds) {
  StatsRegistry reg;
  EXPECT_TRUE(reg.RegisterGauge("dup", [] { return uint64_t{1}; }));
  EXPECT_DEATH(reg.RegisterGauge("dup", [] { return uint64_t{2}; }),
               "duplicate gauge name");
}
#endif

TEST(StatsRegistry, ResetClearsGaugesNamesAndRejectCount) {
  StatsRegistry reg;
  EXPECT_TRUE(reg.RegisterGauge("g", [] { return uint64_t{7}; }));
  reg.Reset();
  EXPECT_EQ(reg.size(), 0u);
  EXPECT_TRUE(reg.Snapshot().empty());
  // The name is free again after Reset — the next World's ExportStats can
  // re-register the same counter names.
  EXPECT_TRUE(reg.RegisterGauge("g", [] { return uint64_t{8}; }));
  EXPECT_EQ(reg.Snapshot()[0].value, 8u);
}

// A block with a sub-block keeps one header: "a.b.y" sorts between "a.x"
// and "a.z" by name but is printed under its own "a.b:" header after them.
TEST(Netstat, EachBlockHeaderPrintedOnce) {
  std::string text = NetstatText({{"a.x", 1}, {"a.b.y", 2}, {"a.z", 3}});
  EXPECT_EQ(text, "a:\n\t1 x\n\t3 z\na.b:\n\t2 y\n");
}

}  // namespace
}  // namespace psd
