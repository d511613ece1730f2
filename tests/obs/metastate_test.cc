// MetastateLedger unit tests: event counting, per-phase histograms and the
// stats-registry export surface, counted from construction or from a mid-run
// baseline. Each test owns its ledger.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/obs/metastate.h"
#include "src/obs/stats.h"

namespace psd {
namespace {

class MetastateTest : public ::testing::Test {
 protected:
  MetastateLedger m;
};

TEST_F(MetastateTest, EveryEventHasAUniqueStableName) {
  std::vector<std::string> seen;
  for (size_t i = 0; i < static_cast<size_t>(MetaEvent::kNumEvents); i++) {
    std::string name = MetaEventName(static_cast<MetaEvent>(i));
    EXPECT_FALSE(name.empty());
    EXPECT_EQ(name.find(' '), std::string::npos) << name << " is not kebab-case";
    for (const std::string& prev : seen) {
      EXPECT_NE(name, prev) << "duplicate event name";
    }
    seen.push_back(name);
  }
  EXPECT_STREQ(MetaEventName(MetaEvent::kPortAcquire), "port-acquire");
  EXPECT_STREQ(MetaEventName(MetaEvent::kArpGratuitous), "arp-gratuitous");
  EXPECT_STREQ(MetaEventName(MetaEvent::kMigrationIn), "migration-in");
}

TEST_F(MetastateTest, EveryPhaseHasAUniqueStableName) {
  std::vector<std::string> seen;
  for (size_t i = 0; i < static_cast<size_t>(MigrationPhase::kNumPhases); i++) {
    std::string name = MigrationPhaseName(static_cast<MigrationPhase>(i));
    EXPECT_FALSE(name.empty());
    for (const std::string& prev : seen) {
      EXPECT_NE(name, prev) << "duplicate phase name";
    }
    seen.push_back(name);
  }
  EXPECT_STREQ(MigrationPhaseName(MigrationPhase::kFreeze), "freeze");
  EXPECT_STREQ(MigrationPhaseName(MigrationPhase::kResume), "resume");
}

TEST_F(MetastateTest, CountAccumulatesPerEvent) {
  m.Count(MetaEvent::kArpMiss);
  m.Count(MetaEvent::kArpMiss);
  m.Count(MetaEvent::kRouteLookup, 10);
  EXPECT_EQ(m.total(MetaEvent::kArpMiss), 2u);
  EXPECT_EQ(m.total(MetaEvent::kRouteLookup), 10u);
  EXPECT_EQ(m.total(MetaEvent::kArpHit), 0u);
}

TEST_F(MetastateTest, PhasesRecordIntoIndependentHistograms) {
  m.RecordPhase(MigrationPhase::kFreeze, Micros(100));
  m.RecordPhase(MigrationPhase::kFreeze, Micros(300));
  m.RecordPhase(MigrationPhase::kTransfer, Millis(2));
  EXPECT_EQ(m.phase(MigrationPhase::kFreeze).count(), 2u);
  EXPECT_EQ(m.phase(MigrationPhase::kFreeze).max(), Micros(300));
  EXPECT_EQ(m.phase(MigrationPhase::kTransfer).count(), 1u);
  EXPECT_EQ(m.phase(MigrationPhase::kEncode).count(), 0u);
}

TEST_F(MetastateTest, ExportRegistersEveryEventAndPhaseGauge) {
  m.Count(MetaEvent::kFilterInstall, 3);
  m.RecordPhase(MigrationPhase::kInstall, Micros(7));

  StatsRegistry reg;
  m.ExportStats(&reg, "meta.");
  EXPECT_EQ(reg.duplicates_rejected(), 0u);
  EXPECT_EQ(reg.size(), static_cast<size_t>(MetaEvent::kNumEvents) +
                            static_cast<size_t>(MigrationPhase::kNumPhases));

  uint64_t filter_install = 0;
  uint64_t install_count = 0;
  for (const StatsRegistry::Entry& e : reg.Snapshot()) {
    if (e.name == "meta.filter-install") {
      filter_install = e.value;
    }
    if (e.name == "meta.migration.install.count") {
      install_count = e.value;
    }
  }
  EXPECT_EQ(filter_install, 3u);
  EXPECT_EQ(install_count, 1u);
}

// A run that must not count its set-up (bench_c10k's 2,049-host World)
// exports from a post-setup baseline: the gauges and the totals() deltas
// cover only what happened after it, and the phases are untouched.
TEST_F(MetastateTest, ExportCountsFromBaseline) {
  m.Count(MetaEvent::kRouteInstall, 5);
  m.Count(MetaEvent::kPortAcquire, 2);
  const MetastateLedger::Totals setup = m.totals();
  StatsRegistry reg;
  m.ExportStats(&reg, "meta.", setup);
  m.Count(MetaEvent::kPortAcquire, 3);
  m.RecordPhase(MigrationPhase::kResume, Micros(9));
  uint64_t route_install = ~uint64_t{0};
  uint64_t port_acquire = 0;
  uint64_t resume_count = 0;
  for (const StatsRegistry::Entry& e : reg.Snapshot()) {
    if (e.name == "meta.route-install") {
      route_install = e.value;
    }
    if (e.name == "meta.port-acquire") {
      port_acquire = e.value;
    }
    if (e.name == "meta.migration.resume.count") {
      resume_count = e.value;
    }
  }
  EXPECT_EQ(route_install, 0u);
  EXPECT_EQ(port_acquire, 3u);
  EXPECT_EQ(resume_count, 1u);
  EXPECT_EQ(m.total(MetaEvent::kPortAcquire) - setup[static_cast<size_t>(MetaEvent::kPortAcquire)],
            3u);
  EXPECT_EQ(m.total(MetaEvent::kRouteInstall), 5u);
}

}  // namespace
}  // namespace psd
