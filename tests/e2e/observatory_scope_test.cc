// Run-scoped observability: every World owns its Observatory (journeys,
// drop ledger, metastate ledger), so what one run records is exactly what
// it would record alone — however many other Worlds the thread builds,
// runs or keeps alive around it, and with no reset call anywhere.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/obs/observatory.h"
#include "src/testbed/torture.h"
#include "src/testbed/world.h"

namespace psd {
namespace {

constexpr SimDuration kHorizon = Seconds(600);

// Everything a run's recorders hold that a report would print.
struct RecorderSnapshot {
  std::vector<uint64_t> drops;
  std::vector<uint64_t> journey;  // minted, delivered, consumed, dropped, in flight, conflicts
  std::vector<uint64_t> meta;     // event totals, then phase counts
  std::string pktwalk;

  static RecorderSnapshot Of(World& w) {
    const Observatory& obs = w.obs();
    RecorderSnapshot s;
    for (size_t i = 0; i < static_cast<size_t>(DropReason::kNumReasons); i++) {
      s.drops.push_back(obs.drops.total(static_cast<DropReason>(i)));
    }
    const PacketJourney& j = obs.journey;
    s.journey = {j.minted(),  j.delivered(), j.consumed(),
                 j.dropped(), j.in_flight(), j.conflicts()};
    s.meta.assign(obs.meta.totals().begin(), obs.meta.totals().end());
    for (size_t i = 0; i < static_cast<size_t>(MigrationPhase::kNumPhases); i++) {
      s.meta.push_back(obs.meta.phase(static_cast<MigrationPhase>(i)).count());
    }
    s.pktwalk = PktwalkText(obs, PktwalkFilter{});
    return s;
  }
};

void ExpectSame(const RecorderSnapshot& got, const RecorderSnapshot& alone, const char* run) {
  EXPECT_EQ(got.drops, alone.drops) << run << ": drop totals";
  EXPECT_EQ(got.journey, alone.journey) << run << ": journey counts";
  EXPECT_EQ(got.meta, alone.meta) << run << ": metastate totals";
  EXPECT_EQ(got.pktwalk, alone.pktwalk) << run << ": pktwalk";
}

// A World with a TCP stream from host 0 to host 1 spawned, not yet run.
struct StreamRun {
  size_t received = 0;  // before w: ~World unwinds fibers that write it
  std::unique_ptr<World> w;

  StreamRun(Config config, const FaultPlan& faults, size_t bytes)
      : w(std::make_unique<World>(config, MachineProfile::DecStation5000())) {
    w->wire().SetFaults(faults);
    w->obs().journey.set_hop_capacity(1 << 20);
    w->obs().drops.set_ring_capacity(1 << 16);
    World* world = w.get();
    w->SpawnApp(1, "rx", [this, world] {
      SocketApi* api = world->api(1);
      int lfd = *api->CreateSocket(IpProto::kTcp);
      api->Bind(lfd, SockAddrIn{Ipv4Addr::Any(), 5001});
      api->Listen(lfd, 1);
      Result<int> cfd = api->Accept(lfd, nullptr);
      if (!cfd.ok()) {
        return;
      }
      uint8_t buf[4096];
      for (;;) {
        Result<size_t> n = api->Recv(*cfd, buf, sizeof(buf), nullptr, false);
        if (!n.ok() || *n == 0) {
          break;
        }
        received += *n;
      }
      api->Close(*cfd);
      api->Close(lfd);
    });
    w->SpawnApp(0, "tx", [world, bytes] {
      SocketApi* api = world->api(0);
      int fd = *api->CreateSocket(IpProto::kTcp);
      world->sim().current_thread()->SleepFor(Millis(5));
      if (!api->Connect(fd, SockAddrIn{world->addr(1), 5001}).ok()) {
        return;
      }
      std::vector<uint8_t> data(bytes, 0x5a);
      size_t sent = 0;
      while (sent < bytes) {
        Result<size_t> n = api->Send(fd, data.data() + sent, bytes - sent, nullptr);
        if (!n.ok()) {
          return;
        }
        sent += *n;
      }
      api->Close(fd);
    });
  }
};

constexpr size_t kLossyBytes = 48 * 1024;
constexpr size_t kCleanBytes = 16 * 1024;

// World A: torture's `loss` fault plan on Library-SHM-IPF.
std::unique_ptr<StreamRun> BuildLossy() {
  FaultPlan faults = FindTortureScenario("loss")->faults;
  faults.seed = 7;
  return std::make_unique<StreamRun>(Config::kLibraryShmIpf, faults, kLossyBytes);
}

// World B: a clean wire on the Server placement.
std::unique_ptr<StreamRun> BuildClean() {
  return std::make_unique<StreamRun>(Config::kServer, FaultPlan{}, kCleanBytes);
}

TEST(ObservatoryScope, TwoWorldsInOneThreadMatchTheirSoloRuns) {
  RecorderSnapshot lossy_alone;
  {
    std::unique_ptr<StreamRun> a = BuildLossy();
    a->w->sim().Run(kHorizon);
    ASSERT_EQ(a->received, kLossyBytes);
    lossy_alone = RecorderSnapshot::Of(*a->w);
  }
  RecorderSnapshot clean_alone;
  {
    std::unique_ptr<StreamRun> b = BuildClean();
    b->w->sim().Run(kHorizon);
    ASSERT_EQ(b->received, kCleanBytes);
    clean_alone = RecorderSnapshot::Of(*b->w);
  }
  // The lossy run really dropped frames; the clean one dropped none.
  ASSERT_GT(lossy_alone.drops[static_cast<size_t>(DropReason::kWireFault)], 0u);
  ASSERT_EQ(clean_alone.journey[3], 0u);

  // Both Worlds exist before either runs; A runs to completion while B is
  // alive, then B runs while A, finished, is still alive.
  std::unique_ptr<StreamRun> a = BuildLossy();
  std::unique_ptr<StreamRun> b = BuildClean();
  a->w->sim().Run(kHorizon);
  ASSERT_EQ(a->received, kLossyBytes);
  ExpectSame(RecorderSnapshot::Of(*a->w), lossy_alone, "lossy world");
  b->w->sim().Run(kHorizon);
  ASSERT_EQ(b->received, kCleanBytes);
  ExpectSame(RecorderSnapshot::Of(*b->w), clean_alone, "clean world");
  ExpectSame(RecorderSnapshot::Of(*a->w), lossy_alone, "lossy world after the clean run");
}

// Each World starts its recorders in their constructed state, so a resized
// ring or recorded traffic from one run cannot leak into the next run in the
// same process (torture sizes the hop ring to 1 << 20 for its run).
TEST(ObservatoryScope, NewWorldStartsFromConstructedState) {
  const MachineProfile prof = MachineProfile::DecStation5000();
  {
    World first(Config::kInKernel, prof);
    first.obs().drops.set_ring_capacity(2);
    first.obs().journey.set_hop_capacity(1 << 20);
    first.obs().journey.Mint();
  }
  World w(Config::kInKernel, prof);
  DropLedger& led = w.obs().drops;
  PacketJourney& j = w.obs().journey;
  const uint64_t pkt = j.Mint();
  EXPECT_EQ(pkt, 1u) << "ids restart at 1";
  EXPECT_FALSE(j.HasTerminal(pkt));
  for (size_t i = 0; i < DropLedger::kDefaultRingCapacity + 5; i++) {
    led.Record(0, TraceLayer::kKern, DropReason::kQueueOverflow, static_cast<SimTime>(i));
  }
  EXPECT_EQ(led.recent().size(), DropLedger::kDefaultRingCapacity)
      << "ring capacity must be at its default";
  EXPECT_EQ(led.total(DropReason::kQueueOverflow), DropLedger::kDefaultRingCapacity + 5);
  for (size_t i = 0; i < PacketJourney::kDefaultHopCapacity + 5; i++) {
    j.Hop(pkt, TraceLayer::kWire, 0, static_cast<SimTime>(i));
  }
  EXPECT_EQ(j.hops().size(), PacketJourney::kDefaultHopCapacity)
      << "hop capacity must be at its default";
}

}  // namespace
}  // namespace psd
