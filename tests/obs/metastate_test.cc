// MetastateLedger unit tests: event counting, the runtime kill switch,
// per-phase histograms, the stats-registry export surface, and the Reset
// contract. The ledger is a process-wide singleton, so every test starts
// and ends from a Reset() state.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/obs/metastate.h"
#include "src/obs/stats.h"

namespace psd {
namespace {

class MetastateTest : public ::testing::Test {
 protected:
  void SetUp() override { MetastateLedger::Get().Reset(); }
  void TearDown() override { MetastateLedger::Get().Reset(); }
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
  MetastateLedger& m = MetastateLedger::Get();
  m.Count(MetaEvent::kArpMiss);
  m.Count(MetaEvent::kArpMiss);
  m.Count(MetaEvent::kRouteLookup, 10);
  EXPECT_EQ(m.total(MetaEvent::kArpMiss), 2u);
  EXPECT_EQ(m.total(MetaEvent::kRouteLookup), 10u);
  EXPECT_EQ(m.total(MetaEvent::kArpHit), 0u);
}

TEST_F(MetastateTest, KillSwitchStopsCountingAndPhases) {
  MetastateLedger& m = MetastateLedger::Get();
  m.set_enabled(false);
  m.Count(MetaEvent::kPortAcquire);
  m.RecordPhase(MigrationPhase::kFreeze, Micros(5));
  EXPECT_EQ(m.total(MetaEvent::kPortAcquire), 0u);
  EXPECT_EQ(m.phase(MigrationPhase::kFreeze).count(), 0u);
  m.set_enabled(true);
  m.Count(MetaEvent::kPortAcquire);
  EXPECT_EQ(m.total(MetaEvent::kPortAcquire), 1u);
}

TEST_F(MetastateTest, PhasesRecordIntoIndependentHistograms) {
  MetastateLedger& m = MetastateLedger::Get();
  m.RecordPhase(MigrationPhase::kFreeze, Micros(100));
  m.RecordPhase(MigrationPhase::kFreeze, Micros(300));
  m.RecordPhase(MigrationPhase::kTransfer, Millis(2));
  EXPECT_EQ(m.phase(MigrationPhase::kFreeze).count(), 2u);
  EXPECT_EQ(m.phase(MigrationPhase::kFreeze).max(), Micros(300));
  EXPECT_EQ(m.phase(MigrationPhase::kTransfer).count(), 1u);
  EXPECT_EQ(m.phase(MigrationPhase::kEncode).count(), 0u);
}

TEST_F(MetastateTest, ExportRegistersEveryEventAndPhaseGauge) {
  MetastateLedger& m = MetastateLedger::Get();
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
  reg.Reset();
}

TEST_F(MetastateTest, ResetZeroesTotalsAndPhases) {
  MetastateLedger& m = MetastateLedger::Get();
  m.Count(MetaEvent::kPortRelease, 5);
  m.RecordPhase(MigrationPhase::kResume, Micros(9));
  m.Reset();
  for (size_t i = 0; i < static_cast<size_t>(MetaEvent::kNumEvents); i++) {
    EXPECT_EQ(m.total(static_cast<MetaEvent>(i)), 0u);
  }
  for (size_t i = 0; i < static_cast<size_t>(MigrationPhase::kNumPhases); i++) {
    EXPECT_EQ(m.phase(static_cast<MigrationPhase>(i)).count(), 0u);
  }
  EXPECT_TRUE(m.enabled()) << "Reset must re-arm the ledger";
}

}  // namespace
}  // namespace psd
