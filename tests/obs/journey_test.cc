// Packet journeys and the unified drop-reason ledger (src/obs/journey.h):
//  * taxonomy — stable unique kebab-case names, event pseudo-reasons are not
//    drops;
//  * recorder semantics — bounded rings, first-terminal-wins, interned
//    node names, a fresh Observatory per World;
//  * reconciliation — under 5% wire loss every legacy drop counter equals
//    the sum of its ledger reasons, in every placement;
//  * conservation — minted = delivered + consumed + dropped + in-flight,
//    with zero terminal conflicts;
//  * migration — strays arriving in the handover window are attributed to
//    migration-window, not lumped into generic no-pcb drops;
//  * pktwalk — golden text/JSON rendering incl. --lost-only.
#include <gtest/gtest.h>

#include <cctype>
#include <set>
#include <string>
#include <vector>

#include "bench/common/workloads.h"
#include "src/obs/observatory.h"
#include "src/obs/stats.h"
#include "src/testbed/world.h"

namespace psd {
namespace {

// Sizes a World's rings to hold every drop event and hop of a short run.
void WidenRings(World& w) {
  w.obs().drops.set_ring_capacity(1 << 14);
  w.obs().journey.set_hop_capacity(1 << 20);
}

// Sums every counter whose dotted name ends with `suffix`.
uint64_t SumSuffix(const std::vector<StatsRegistry::Entry>& entries, const std::string& suffix) {
  uint64_t sum = 0;
  for (const auto& e : entries) {
    if (e.name.size() >= suffix.size() &&
        e.name.compare(e.name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      sum += e.value;
    }
  }
  return sum;
}

TEST(DropTaxonomy, NamesAreUniqueKebabCase) {
  std::set<std::string> seen;
  for (size_t i = 0; i < static_cast<size_t>(DropReason::kNumReasons); ++i) {
    std::string name = DropReasonName(static_cast<DropReason>(i));
    EXPECT_TRUE(seen.insert(name).second) << "duplicate reason name: " << name;
    ASSERT_FALSE(name.empty());
    for (char c : name) {
      EXPECT_TRUE((std::islower(static_cast<unsigned char>(c)) != 0) ||
                  (std::isdigit(static_cast<unsigned char>(c)) != 0) || c == '-')
          << "non-kebab character '" << c << "' in " << name;
    }
  }
}

TEST(DropTaxonomy, EventPseudoReasonsAreNotDrops) {
  EXPECT_FALSE(IsDropReason(DropReason::kNone));
  EXPECT_FALSE(IsDropReason(DropReason::kWireDup));
  EXPECT_FALSE(IsDropReason(DropReason::kWireDelay));
  EXPECT_FALSE(IsDropReason(DropReason::kNumReasons));
  EXPECT_TRUE(IsDropReason(DropReason::kWireFault));
  EXPECT_TRUE(IsDropReason(DropReason::kMigrationWindow));
  EXPECT_TRUE(IsDropReason(DropReason::kCrashCleanup));
  EXPECT_TRUE(IsDropReason(DropReason::kTcpAfterClose));
}

TEST(DropLedgerUnit, RecordBumpsTotalsAndSetsTerminal) {
  Observatory obs;
  PacketJourney& j = obs.journey;
  DropLedger& led = obs.drops;
  const uint32_t wire = j.Intern("wire");

  uint64_t pkt = j.Mint();
  ASSERT_NE(pkt, 0u);
  led.Record(pkt, TraceLayer::kWire, DropReason::kWireFault, 100, wire);
  EXPECT_EQ(led.total(DropReason::kWireFault), 1u);
  EXPECT_EQ(led.total_drops(), 1u);
  ASSERT_EQ(led.recent().size(), 1u);
  EXPECT_EQ(led.recent().front().pkt, pkt);
  EXPECT_EQ(j.NodeName(led.recent().front().node), "wire");
  // The drop is the packet's terminal, at the event's node.
  EXPECT_EQ(j.DispositionOf(pkt), PktDisposition::kDropped);
  EXPECT_EQ(j.ReasonOf(pkt), DropReason::kWireFault);
  EXPECT_EQ(j.JourneyOf(pkt).back().node, wire);
  EXPECT_EQ(j.dropped(), 1u);
  EXPECT_EQ(j.in_flight(), 0u);

  // A dup/delay event is ledgered but leaves the packet alive.
  uint64_t live = j.Mint();
  led.Record(live, TraceLayer::kWire, DropReason::kWireDup, 200, wire);
  EXPECT_EQ(led.total(DropReason::kWireDup), 1u);
  EXPECT_EQ(led.total_drops(), 1u) << "dup is an event, not a drop";
  EXPECT_FALSE(j.HasTerminal(live));
  EXPECT_EQ(j.in_flight(), 1u);

  // Tx-side drops before mint carry pkt 0 and set no terminal.
  led.Record(0, TraceLayer::kInet, DropReason::kIpNoRoute, 300, j.Intern("h0/ns"));
  EXPECT_EQ(led.total(DropReason::kIpNoRoute), 1u);
  EXPECT_EQ(j.dropped(), 1u);
}

TEST(DropLedgerUnit, RecentRingIsBoundedButTotalsAreExact) {
  Observatory obs;
  DropLedger& led = obs.drops;
  led.set_ring_capacity(4);
  for (int i = 0; i < 10; i++) {
    led.Record(0, TraceLayer::kKern, DropReason::kQueueOverflow, i);
  }
  EXPECT_EQ(led.recent().size(), 4u);
  EXPECT_EQ(led.recent().front().at, 6) << "ring keeps the most recent events";
  EXPECT_EQ(led.total(DropReason::kQueueOverflow), 10u);
}

TEST(DropLedgerUnit, ExportStatsRegistersOneGaugePerReason) {
  Observatory obs;
  DropLedger& led = obs.drops;
  led.Record(0, TraceLayer::kWire, DropReason::kWireFault, 1);
  led.Record(0, TraceLayer::kWire, DropReason::kWireFault, 2);
  StatsRegistry reg;
  led.ExportStats(&reg, "drops.");
  std::vector<StatsRegistry::Entry> snap = reg.Snapshot();
  // One gauge per real reason plus the two event pseudo-reasons.
  EXPECT_EQ(snap.size(), static_cast<size_t>(DropReason::kNumReasons) - 1);
  EXPECT_EQ(SumSuffix(snap, "drops.wire-fault"), 2u);
  EXPECT_EQ(SumSuffix(snap, "drops.migration-window"), 0u);
}

TEST(PacketJourneyUnit, MintIsMonotonicAndNeverZero) {
  PacketJourney j;
  uint64_t prev = 0;
  for (int i = 0; i < 100; i++) {
    uint64_t id = j.Mint();
    ASSERT_NE(id, 0u);
    ASSERT_GT(id, prev);
    prev = id;
  }
  EXPECT_EQ(j.minted(), 100u);
  EXPECT_EQ(j.in_flight(), 100u);
}

TEST(PacketJourneyUnit, FirstTerminalWinsAndConflictsAreCounted) {
  PacketJourney j;
  const uint32_t h1 = j.Intern("h1/ns");
  uint64_t pkt = j.Mint();
  j.Deliver(pkt, TraceLayer::kSock, h1, 10);
  EXPECT_EQ(j.DispositionOf(pkt), PktDisposition::kDelivered);
  EXPECT_EQ(j.conflicts(), 0u);
  // A later drop attempt must not overwrite the delivery.
  j.Dropped(pkt, TraceLayer::kInet, DropReason::kTcpSeqTrim, h1, 20);
  EXPECT_EQ(j.DispositionOf(pkt), PktDisposition::kDelivered);
  EXPECT_EQ(j.dropped(), 0u);
  EXPECT_EQ(j.conflicts(), 1u);
  // ConsumeIfOpen is a no-op on a terminated packet and counts no conflict.
  j.ConsumeIfOpen(pkt, TraceLayer::kInet, h1, 30);
  EXPECT_EQ(j.consumed(), 0u);
  EXPECT_EQ(j.conflicts(), 1u);
  // ... but consumes an open one.
  uint64_t ack = j.Mint();
  j.ConsumeIfOpen(ack, TraceLayer::kInet, j.Intern("h0/ns"), 40);
  EXPECT_EQ(j.DispositionOf(ack), PktDisposition::kConsumed);
  EXPECT_EQ(j.in_flight(), 0u);
}

TEST(PacketJourneyUnit, JourneyOfReturnsHopsInOrder) {
  PacketJourney j;
  const uint32_t tx = j.Intern("h0/ns/tx");
  uint64_t a = j.Mint();
  uint64_t b = j.Mint();
  j.Hop(a, TraceLayer::kInet, tx, 10, 64);
  j.Hop(b, TraceLayer::kInet, tx, 11, 64);
  j.Hop(a, TraceLayer::kWire, j.Intern("wire/transmit"), 20);
  j.Hop(a, TraceLayer::kKern, j.Intern("h1/deliver"), 30);
  j.Deliver(a, TraceLayer::kSock, j.Intern("h1/ns"), 40);
  std::vector<HopEvent> hops = j.JourneyOf(a);
  ASSERT_EQ(hops.size(), 4u);
  EXPECT_EQ(j.NodeName(hops[0].node), "h0/ns/tx");
  EXPECT_EQ(hops[0].aux, 64u);
  EXPECT_EQ(j.NodeName(hops[1].node), "wire/transmit");
  EXPECT_EQ(j.NodeName(hops[2].node), "h1/deliver");
  EXPECT_EQ(hops[3].disp, PktDisposition::kDelivered);
  EXPECT_EQ(j.JourneyOf(b).size(), 1u);
}

TEST(PacketJourneyUnit, InternedNamesAreStablePerJourney) {
  PacketJourney j;
  const uint32_t tx = j.Intern("h0/ns/tx");
  EXPECT_NE(tx, 0u);
  EXPECT_EQ(j.Intern(std::string("h0/ns") + "/tx"), tx);
  EXPECT_NE(j.Intern("h1/ns/tx"), tx);
  EXPECT_EQ(j.Intern(""), 0u);
  EXPECT_EQ(j.NodeName(0), "");
  uint64_t pkt = j.Mint();
  j.Hop(pkt, TraceLayer::kInet, tx, 10, 64);
  j.Hop(pkt, TraceLayer::kWire, j.Intern("wire/transmit"), 20);
  std::vector<HopEvent> hops = j.JourneyOf(pkt);
  ASSERT_EQ(hops.size(), 2u);
  EXPECT_EQ(hops[0].node, tx);
  EXPECT_EQ(hops[1].node, j.Intern("wire/transmit"));
  // A component's JourneyNode resolves to the same id, first use or not,
  // and interns nothing until its first use.
  JourneyNode node(&j, "h0/ns/tx");
  EXPECT_EQ(node.id(), tx);
  PacketJourney other;
  JourneyNode fresh(&other, "h7/ns");
  EXPECT_EQ(other.Intern("h8/ns"), 1u) << "construction must not intern";
  const uint32_t id = fresh.id();
  EXPECT_EQ(other.NodeName(id), "h7/ns");
  EXPECT_EQ(fresh.id(), id);
  EXPECT_EQ(j.Intern("h7/ns"), 4u) << "another journey's names are not this one's";
}

TEST(PacketJourneyUnit, UnmintedIdsHaveNoTerminal) {
  PacketJourney j;
  for (uint64_t id : {uint64_t{0}, uint64_t{1}, uint64_t{1000}, ~uint64_t{0}}) {
    EXPECT_FALSE(j.HasTerminal(id)) << id;
    EXPECT_EQ(j.DispositionOf(id), PktDisposition::kNone) << id;
    EXPECT_EQ(j.ReasonOf(id), DropReason::kNone) << id;
  }
  uint64_t a = j.Mint();
  uint64_t b = j.Mint();
  j.Dropped(b, TraceLayer::kWire, DropReason::kWireFault, j.Intern("wire"), 10);
  // Terminating a later id leaves earlier and never-minted ids open.
  EXPECT_FALSE(j.HasTerminal(a));
  EXPECT_FALSE(j.HasTerminal(b + 1));
  EXPECT_EQ(j.DispositionOf(b + 1000), PktDisposition::kNone);
  // Packet 0 never gets a terminal.
  j.Deliver(0, TraceLayer::kSock, j.Intern("h1/ns"), 20);
  EXPECT_FALSE(j.HasTerminal(0));
  EXPECT_EQ(j.delivered(), 0u);
}

TEST(PacketJourneyUnit, FirstTerminalWinsOutOfMintOrder) {
  PacketJourney j;
  std::vector<uint64_t> ids;
  for (int i = 0; i < 8; i++) ids.push_back(j.Mint());
  const uint32_t node = j.Intern("h1/ns");
  // Terminals arrive in reverse mint order; each id keeps its first one.
  for (size_t i = ids.size(); i-- > 0;) {
    if (i % 2 == 0) {
      j.Deliver(ids[i], TraceLayer::kSock, node, 10);
    } else {
      j.Dropped(ids[i], TraceLayer::kInet, DropReason::kTcpSeqTrim, node, 10);
    }
  }
  for (uint64_t id : ids) {
    j.Consume(id, TraceLayer::kInet, node, 20);
  }
  EXPECT_EQ(j.conflicts(), ids.size());
  for (size_t i = 0; i < ids.size(); i++) {
    EXPECT_EQ(j.DispositionOf(ids[i]),
              i % 2 == 0 ? PktDisposition::kDelivered : PktDisposition::kDropped);
  }
  EXPECT_EQ(j.ReasonOf(ids[1]), DropReason::kTcpSeqTrim);
  EXPECT_EQ(j.delivered(), 4u);
  EXPECT_EQ(j.dropped(), 4u);
  EXPECT_EQ(j.consumed(), 0u);
}

// ---------------------------------------------------------------------------
// pktwalk rendering goldens (unit-driven for exact determinism).

class PktwalkGolden : public ::testing::Test {
 protected:
  void SetUp() override {
    PacketJourney& j = obs_.journey;
    const uint32_t tx = j.Intern("h0/ns/tx");
    p1_ = j.Mint();
    j.Hop(p1_, TraceLayer::kInet, tx, 10, 42);
    j.Hop(p1_, TraceLayer::kWire, j.Intern("wire/transmit"), 20);
    j.Deliver(p1_, TraceLayer::kSock, j.Intern("h1/ns"), 30);
    p2_ = j.Mint();
    j.Hop(p2_, TraceLayer::kInet, tx, 40, 42);
    obs_.drops.Record(p2_, TraceLayer::kWire, DropReason::kWireFault, 50, j.Intern("wire"));
    p3_ = j.Mint();
    j.Hop(p3_, TraceLayer::kInet, tx, 60, 42);  // never terminates
  }
  Observatory obs_;
  uint64_t p1_ = 0, p2_ = 0, p3_ = 0;
};

TEST_F(PktwalkGolden, LostOnlyTextShowsDroppedAndInFlightPacketsOnly) {
  PktwalkFilter f;
  f.lost_only = true;
  EXPECT_EQ(PktwalkText(obs_, f),
            "packets: 3 minted, 1 delivered, 0 consumed, 1 dropped, 1 in flight\n"
            "pkt 2: dropped(wire-fault)\n"
            "  @40 inet h0/ns/tx aux=42\n"
            "  @50 wire wire -> dropped(wire-fault)\n"
            "pkt 3: in-flight-at-exit\n"
            "  @60 inet h0/ns/tx aux=42\n"
            "drop reasons:\n"
            "  1 wire-fault\n"
            "recent drop events: 1\n"
            "  pkt 2 @50 wire wire-fault node=wire\n");
}

TEST_F(PktwalkGolden, SinglePacketFilterShowsOneJourney) {
  PktwalkFilter f;
  f.pkt = p1_;
  EXPECT_EQ(PktwalkText(obs_, f),
            "packets: 3 minted, 1 delivered, 0 consumed, 1 dropped, 1 in flight\n"
            "pkt 1: delivered\n"
            "  @10 inet h0/ns/tx aux=42\n"
            "  @20 wire wire/transmit\n"
            "  @30 sock h1/ns -> delivered\n"
            "drop reasons:\n"
            "  1 wire-fault\n"
            "recent drop events: 1\n"
            "  pkt 2 @50 wire wire-fault node=wire\n");
}

TEST_F(PktwalkGolden, DropsOnlySkipsJourneys) {
  PktwalkFilter f;
  f.drops_only = true;
  std::string text = PktwalkText(obs_, f);
  EXPECT_EQ(text.find("packets:"), std::string::npos);
  EXPECT_EQ(text.find("pkt 1:"), std::string::npos);
  EXPECT_NE(text.find("drop reasons:\n  1 wire-fault\n"), std::string::npos);
}

TEST_F(PktwalkGolden, JsonCarriesSummaryReasonsAndHops) {
  PktwalkFilter f;
  std::string json = PktwalkJson(obs_, f);
  EXPECT_NE(json.find("\"summary\": {\"minted\": 3, \"delivered\": 1, \"consumed\": 0, "
                      "\"dropped\": 1, \"in_flight\": 1, \"conflicts\": 0}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"drop_reasons\": {\"wire-fault\": 1}"), std::string::npos) << json;
  EXPECT_NE(json.find("\"pkt\": 2, \"terminal\": \"dropped(wire-fault)\""), std::string::npos);
  EXPECT_NE(json.find("\"disp\": \"dropped\", \"reason\": \"wire-fault\""), std::string::npos);
  EXPECT_NE(json.find("\"pkt\": 3, \"terminal\": \"in-flight-at-exit\""), std::string::npos);
  // Dup/delay events must never surface as terminals.
  EXPECT_EQ(json.find("wire-dup"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Integration: conservation + exact counter reconciliation.

struct LedgerSnapshot {
  uint64_t totals[static_cast<size_t>(DropReason::kNumReasons)] = {};
  uint64_t minted = 0, delivered = 0, consumed = 0, dropped = 0, in_flight = 0, conflicts = 0;

  static LedgerSnapshot Of(const Observatory& obs) {
    LedgerSnapshot s;
    for (size_t i = 0; i < static_cast<size_t>(DropReason::kNumReasons); ++i) {
      s.totals[i] = obs.drops.total(static_cast<DropReason>(i));
    }
    const PacketJourney& j = obs.journey;
    s.minted = j.minted();
    s.delivered = j.delivered();
    s.consumed = j.consumed();
    s.dropped = j.dropped();
    s.in_flight = j.in_flight();
    s.conflicts = j.conflicts();
    return s;
  }
  uint64_t of(DropReason r) const { return totals[static_cast<size_t>(r)]; }
};

// Every legacy drop counter must equal the sum of its ledger reasons — the
// taxonomy covers every drop site exactly once. Snapshot counters and ledger
// at the same virtual instant (on_done): the TCP close keeps running after.
TEST(JourneyReconciliation, LegacyCountersEqualLedgerUnderLossEverywhere) {
  ProtolatOptions opt;
  opt.proto = IpProto::kTcp;
  opt.msg_size = 512;
  opt.trials = 40;
  const MachineProfile prof = MachineProfile::DecStation5000();
  for (Config config : {Config::kInKernel, Config::kServer, Config::kLibraryIpc,
                        Config::kLibraryShm, Config::kLibraryShmIpf}) {
    std::vector<StatsRegistry::Entry> snap;
    LedgerSnapshot led;
    uint64_t wire_dropped = 0, nic_dropped = 0;
    ProtolatHooks hooks;
    hooks.on_world = [](World& w) {
      FaultPlan plan;
      plan.loss_rate = 0.05;
      plan.seed = 7;
      w.wire().SetFaults(plan);
    };
    hooks.on_done = [&](World& w) {
      StatsRegistry reg;
      w.ExportStats(0, &reg);
      w.ExportStats(1, &reg);
      snap = reg.Snapshot();
      led = LedgerSnapshot::Of(w.obs());
      wire_dropped = w.wire().frames_dropped();
      nic_dropped = w.host(0)->nic()->rx_dropped() + w.host(1)->nic()->rx_dropped();
    };
    ASSERT_GT(RunProtolat(config, prof, opt, hooks), 0.0) << ConfigName(config);

    SCOPED_TRACE(ConfigName(config));
    // The run must actually have lost frames, and each one must be ledgered.
    ASSERT_GT(wire_dropped, 0u);
    EXPECT_EQ(wire_dropped, led.of(DropReason::kWireFault));
    EXPECT_EQ(nic_dropped, led.of(DropReason::kNicRingOverflow));
    // Kernel demux.
    EXPECT_EQ(SumSuffix(snap, ".rx_unmatched"),
              led.of(DropReason::kNoFilterMatch) + led.of(DropReason::kFilterRemoved));
    EXPECT_EQ(SumSuffix(snap, ".dropped"), led.of(DropReason::kQueueOverflow));
    // Ether / IP.
    EXPECT_EQ(SumSuffix(snap, ".ether.bad_frames"), led.of(DropReason::kEtherBadFrame));
    EXPECT_EQ(SumSuffix(snap, ".ether.unresolved_drops"), led.of(DropReason::kEtherUnresolved));
    EXPECT_EQ(SumSuffix(snap, ".ip.bad_header"), led.of(DropReason::kIpBadHeader));
    EXPECT_EQ(SumSuffix(snap, ".ip.bad_checksum"), led.of(DropReason::kIpBadChecksum));
    EXPECT_EQ(SumSuffix(snap, ".ip.not_ours"), led.of(DropReason::kIpNotOurs));
    EXPECT_EQ(SumSuffix(snap, ".ip.no_route"), led.of(DropReason::kIpNoRoute));
    EXPECT_EQ(SumSuffix(snap, ".ip.no_proto"), led.of(DropReason::kIpNoProto));
    EXPECT_EQ(SumSuffix(snap, ".ip.reassembly_timeouts"),
              led.of(DropReason::kIpReassemblyTimeout));
    // UDP / TCP.
    EXPECT_EQ(SumSuffix(snap, ".udp.bad_checksum"), led.of(DropReason::kUdpBadChecksum));
    EXPECT_EQ(SumSuffix(snap, ".udp.no_port"), led.of(DropReason::kUdpNoPort));
    EXPECT_EQ(SumSuffix(snap, ".udp.full_drops"), led.of(DropReason::kUdpBufferFull));
    EXPECT_EQ(SumSuffix(snap, ".tcp.bad_checksum"), led.of(DropReason::kTcpBadChecksum));
    EXPECT_EQ(SumSuffix(snap, ".tcp.dropped_no_pcb"),
              led.of(DropReason::kTcpNoPcb) + led.of(DropReason::kMigrationWindow));
    // Conservation at the snapshot instant, and no double terminals ever.
    EXPECT_EQ(led.minted, led.delivered + led.consumed + led.dropped + led.in_flight);
    EXPECT_EQ(led.conflicts, 0u);
    EXPECT_GT(led.minted, 0u);
    EXPECT_GT(led.delivered, 0u);
    EXPECT_GT(led.dropped, 0u);
  }
}

// A clean UDP echo run terminates every packet: nothing in flight once the
// workload's last response has been received, and nothing dropped.
TEST(JourneyConservation, CleanUdpRunLeavesNothingInFlight) {
  ProtolatOptions opt;
  opt.proto = IpProto::kUdp;
  opt.msg_size = 64;
  opt.trials = 20;
  LedgerSnapshot led;
  ProtolatHooks hooks;
  hooks.on_end = [&led](World& w) { led = LedgerSnapshot::Of(w.obs()); };
  ASSERT_GT(
      RunProtolat(Config::kLibraryShmIpf, MachineProfile::DecStation5000(), opt, hooks), 0.0);
  EXPECT_GT(led.minted, 0u);
  // Request + response per trial (plus warmup), all delivered to sockbufs.
  EXPECT_GE(led.delivered, 2u * static_cast<uint64_t>(opt.trials));
  EXPECT_GT(led.consumed, 0u) << "ARP traffic must be consumed, not leaked";
  EXPECT_EQ(led.dropped, 0u);
  EXPECT_EQ(led.in_flight, 0u);
  EXPECT_EQ(led.conflicts, 0u);
  uint64_t drops = 0;
  for (size_t i = 0; i < static_cast<size_t>(DropReason::kNumReasons); ++i) {
    drops += IsDropReason(static_cast<DropReason>(i)) ? led.totals[i] : 0;
  }
  EXPECT_EQ(drops, 0u);
}

// Wire dup/delay fault events are ledgered as events: the duplicate is its
// own packet id linked to its parent, and neither event terminates a packet.
TEST(JourneyFaults, DupAndDelayAreEventsNotDrops) {
  ProtolatOptions opt;
  opt.proto = IpProto::kUdp;
  opt.msg_size = 64;
  opt.trials = 20;
  ProtolatHooks hooks;
  hooks.on_world = [](World& w) {
    WidenRings(w);
    FaultPlan plan;
    plan.dup_rate = 0.2;
    plan.delay_rate = 0.2;
    plan.seed = 11;
    w.wire().SetFaults(plan);
  };
  bool checked = false;
  hooks.on_end = [&checked](World& w) {
    checked = true;
    const DropLedger& led = w.obs().drops;
    const PacketJourney& j = w.obs().journey;
    ASSERT_GT(led.total(DropReason::kWireDup), 0u);
    ASSERT_GT(led.total(DropReason::kWireDelay), 0u);
    // The dup/delay events themselves are not drops. Some duplicates DO die
    // downstream — a cloned response echoing into a since-closed UDP port —
    // and each of those deaths is attributed to its real reason.
    EXPECT_EQ(led.total_drops(), led.total(DropReason::kUdpNoPort));
    EXPECT_EQ(j.dropped(), led.total_drops()) << "every drop carried a packet id";
    EXPECT_EQ(j.conflicts(), 0u);
    // Every no-port death has a complete journey: born at a stack tx point
    // or as a wire clone, and terminated exactly once.
    for (const auto& ev : led.recent()) {
      if (ev.reason != DropReason::kUdpNoPort) {
        continue;
      }
      std::vector<HopEvent> hops = j.JourneyOf(ev.pkt);
      ASSERT_FALSE(hops.empty());
      const std::string& first = j.NodeName(hops.front().node);
      EXPECT_TRUE(first == "wire/dup" || first.find("/tx") != std::string::npos) << first;
      EXPECT_EQ(hops.back().disp, PktDisposition::kDropped);
    }
    // Every duplicate minted a fresh id whose first hop links the parent id.
    uint64_t dup_clones = 0;
    for (const auto& ev : j.hops()) {
      if (j.NodeName(ev.node) == "wire/dup") {
        dup_clones++;
        EXPECT_NE(ev.aux, 0u) << "dup clone must link its parent packet";
        EXPECT_LT(ev.aux, ev.pkt) << "parent was minted before the clone";
      }
    }
    EXPECT_EQ(dup_clones, led.total(DropReason::kWireDup));
  };
  ASSERT_GT(RunProtolat(Config::kInKernel, MachineProfile::DecStation5000(), opt, hooks), 0.0);
  EXPECT_TRUE(checked);
}

// ---------------------------------------------------------------------------
// Migration handover: strays hitting a stack whose pcb is mid-migration are
// attributed to migration-window, and still reconcile with dropped_no_pcb.

TEST(JourneyMigration, HandoverStraysAttributedToMigrationWindow) {
  // The handover window — pcb extracted on the library, session filter not
  // yet removed on the server — lasts about a millisecond of virtual time,
  // roughly one data-frame slot at 10Mb/s. A peer streaming into the library
  // host at line rate crosses the filter every ~1.2ms, so a frame lands in
  // the window on most handovers; wire delay faults add stragglers for the
  // rest. The simulator is deterministic, so scan seeds until one handover
  // catches a stray: the first hitting seed is stable run to run.
  constexpr size_t kTotal = 40 * 1024;
  std::vector<StatsRegistry::Entry> snap;
  bool caught = false;
  for (uint64_t seed = 1; seed <= 8 && !caught; seed++) {
    World w(Config::kLibraryShmIpf, MachineProfile::DecStation5000());
    WidenRings(w);
    FaultPlan plan;
    plan.delay_rate = 0.3;
    plan.extra_delay = Millis(3);
    plan.seed = seed;
    w.wire().SetFaults(plan);
    bool done = false;

    // The peer streams toward the library host at line rate.
    w.SpawnApp(1, "tx", [&] {
      SocketApi* api = w.api(1);
      int lfd = *api->CreateSocket(IpProto::kTcp);
      api->Bind(lfd, SockAddrIn{Ipv4Addr::Any(), 5001});
      api->Listen(lfd, 1);
      Result<int> cfd = api->Accept(lfd, nullptr);
      ASSERT_TRUE(cfd.ok());
      std::vector<uint8_t> data(kTotal, 0xab);
      size_t sent = 0;
      while (sent < kTotal) {
        Result<size_t> n =
            api->Send(*cfd, data.data() + sent, std::min<size_t>(4096, kTotal - sent), nullptr);
        ASSERT_TRUE(n.ok()) << ErrName(n.error());
        sent += *n;
      }
      api->Close(*cfd);
      api->Close(lfd);
    });

    // The library host reads just fast enough to keep the window open, then
    // hands the session back mid-stream: data segments racing the return
    // land on a stack whose pcb has been extracted and must be ledgered as
    // migration-window strays, not answered with RST.
    w.SpawnApp(0, "rx", [&] {
      LibraryNode* node = w.library_node(0);
      w.sim().current_thread()->SleepFor(Millis(10));
      int fd = *node->CreateSocket(IpProto::kTcp);
      ASSERT_TRUE(node->Connect(fd, SockAddrIn{w.addr(1), 5001}).ok());
      size_t got = 0;
      bool returned = false;
      bool content_ok = true;
      uint8_t buf[4096];
      for (;;) {
        Result<size_t> n = node->Recv(fd, buf, sizeof(buf), nullptr, false);
        if (!n.ok() || *n == 0) {
          break;
        }
        for (size_t i = 0; i < *n; i++) {
          content_ok &= buf[i] == 0xab;
        }
        got += *n;
        if (!returned && got >= kTotal / 2) {
          ASSERT_TRUE(node->PrepareFork().ok());
          returned = true;
        }
        w.sim().current_thread()->SleepFor(Millis(1));
      }
      node->Close(fd);
      done = returned && content_ok && got == kTotal;
    });

    w.sim().Run(Seconds(120));
    ASSERT_TRUE(done) << "byte stream must survive the handover (seed " << seed << ")";
    ASSERT_EQ(w.net_server(0)->migrations_in(), 1u);
    const DropLedger& led = w.obs().drops;
    const PacketJourney& j = w.obs().journey;
    if (led.total(DropReason::kMigrationWindow) == 0) {
      continue;
    }
    caught = true;
    StatsRegistry reg;
    w.ExportStats(0, &reg);
    w.ExportStats(1, &reg);
    // Reconciliation: every no-pcb drop in either stack is ledgered as
    // either a real no-pcb (RST answered) or a suppressed migration-window
    // stray.
    EXPECT_EQ(SumSuffix(reg.Snapshot(), ".tcp.dropped_no_pcb"),
              led.total(DropReason::kTcpNoPcb) + led.total(DropReason::kMigrationWindow));
    // Each migration-window stray carries a packet id whose journey ends in
    // dropped(migration-window).
    for (const auto& ev : led.recent()) {
      if (ev.reason != DropReason::kMigrationWindow) {
        continue;
      }
      ASSERT_NE(ev.pkt, 0u);
      EXPECT_EQ(j.DispositionOf(ev.pkt), PktDisposition::kDropped);
      EXPECT_EQ(j.ReasonOf(ev.pkt), DropReason::kMigrationWindow);
    }
    EXPECT_EQ(j.conflicts(), 0u);
  }
  EXPECT_TRUE(caught) << "no handover caught a stray in 8 seeds";
}

// ---------------------------------------------------------------------------
// Per-queue gauges (Kernel::ExportStats): dropped / depth / high_watermark.

TEST(QueueGauges, EveryPacketQueueExportsDepthDroppedAndHighWatermark) {
  std::vector<StatsRegistry::Entry> snap;
  ProtolatHooks hooks;
  hooks.on_done = [&](World& w) {
    StatsRegistry reg;
    w.ExportStats(0, &reg);
    w.ExportStats(1, &reg);
    snap = reg.Snapshot();
  };
  ProtolatOptions opt;
  opt.proto = IpProto::kUdp;
  opt.msg_size = 64;
  opt.trials = 10;
  ASSERT_GT(
      RunProtolat(Config::kLibraryShmIpf, MachineProfile::DecStation5000(), opt, hooks), 0.0);
  size_t hwm_gauges = 0, depth_gauges = 0, dropped_gauges = 0;
  uint64_t max_hwm = 0;
  for (const auto& e : snap) {
    auto ends_with = [&](const std::string& s) {
      return e.name.size() >= s.size() &&
             e.name.compare(e.name.size() - s.size(), s.size(), s) == 0;
    };
    if (ends_with(".high_watermark")) {
      hwm_gauges++;
      max_hwm = std::max(max_hwm, e.value);
      // The matching depth/dropped gauges exist for the same queue.
      std::string base = e.name.substr(0, e.name.size() - std::string(".high_watermark").size());
      bool have_depth = false, have_dropped = false;
      for (const auto& o : snap) {
        have_depth |= o.name == base + ".depth";
        have_dropped |= o.name == base + ".dropped";
      }
      EXPECT_TRUE(have_depth) << base;
      EXPECT_TRUE(have_dropped) << base;
    }
    if (ends_with(".depth")) depth_gauges++;
    if (ends_with(".dropped")) dropped_gauges++;
  }
  ASSERT_GT(hwm_gauges, 0u) << "no per-queue gauges registered";
  EXPECT_EQ(hwm_gauges, depth_gauges);
  EXPECT_GE(dropped_gauges, hwm_gauges);
  EXPECT_GT(max_hwm, 0u) << "traffic must have raised some queue's high watermark";
}

}  // namespace
}  // namespace psd
