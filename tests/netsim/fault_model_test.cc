// Fault-model unit tests for EthernetSegment: per-class RNG stream
// independence (the regression this file exists for), Gilbert–Elliott
// burstiness, asymmetric partitions with scheduled heal, shaper tail-drop,
// bandwidth scaling, and corruption placement.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "src/base/bytes.h"
#include "src/netsim/nic.h"
#include "src/obs/observatory.h"

namespace psd {
namespace {

// A minimal corruption-eligible frame: unicast IPv4/UDP addressed to host 2.
Frame MakeFrame(size_t payload = 64) {
  Frame f;
  f.resize(kEtherHeaderLen + 20 + 8 + payload, 0xA5);
  MacAddr dst = MacAddr::FromHostId(2);
  std::copy(dst.b.begin(), dst.b.end(), f.begin());
  MacAddr src = MacAddr::FromHostId(1);
  std::copy(src.b.begin(), src.b.end(), f.begin() + 6);
  Store16(f.data() + 12, kEtherTypeIpv4);
  f[kEtherHeaderLen] = 0x45;
  Store16(f.data() + kEtherHeaderLen + 2, static_cast<uint16_t>(20 + 8 + payload));
  f[kEtherHeaderLen + 9] = 17;  // UDP
  return f;
}

class FaultModelTest : public ::testing::Test {
 protected:
  FaultModelTest() : wire(&sim, &obs) {
    nic_a = std::make_unique<Nic>(&sim, &obs, &cpu_a, "a", NicParams::Lance(prof));
    nic_b = std::make_unique<Nic>(&sim, &obs, &cpu_b, "b", NicParams::Lance(prof));
    nic_a->Attach(&wire, MacAddr::FromHostId(1));
    nic_b->Attach(&wire, MacAddr::FromHostId(2));
    // Drain rings on arrival so the 32-frame device buffer never overflows
    // (tests that want the raw frames replace the notify hook).
    nic_a->SetRxNotify([this] {
      while (nic_a->RxPending()) {
        nic_a->RxPop();
      }
    });
    nic_b->SetRxNotify([this] {
      while (nic_b->RxPending()) {
        nic_b->RxPop();
      }
    });
  }

  // Transmits `n` frames from a, spaced far enough apart that the medium is
  // always free, each with a pre-minted id. Returns the ids in send order.
  std::vector<uint64_t> Blast(int n, SimDuration spacing = Millis(2)) {
    std::vector<uint64_t> ids;
    for (int i = 0; i < n; i++) {
      Frame f = MakeFrame();
      f.pkt_id = obs.journey.Mint();
      obs.journey.Hop(f.pkt_id, TraceLayer::kWire, tx_node.id(), sim.Now(), f.size());
      ids.push_back(f.pkt_id);
      sim.Schedule(static_cast<SimTime>(i) * spacing,
                   [this, f] { wire.Transmit(nic_a.get(), f); });
    }
    sim.Run(static_cast<SimTime>(n) * spacing + Seconds(1));
    return ids;
  }

  std::set<uint64_t> DroppedOf(const std::vector<uint64_t>& ids, DropReason why) {
    std::set<uint64_t> out;
    for (uint64_t id : ids) {
      if (obs.journey.DispositionOf(id) == PktDisposition::kDropped &&
          obs.journey.ReasonOf(id) == why) {
        out.insert(id);
      }
    }
    return out;
  }

  MachineProfile prof = MachineProfile::DecStation5000();
  Observatory obs;
  JourneyNode tx_node{&obs.journey, "test/tx"};
  Simulator sim;
  HostCpu cpu_a, cpu_b;
  EthernetSegment wire;
  std::unique_ptr<Nic> nic_a, nic_b;
};

// The pinned regression: every fault class has a private RNG stream, so
// enabling duplication must not change which frames independent loss drops.
// (Before the streams were split, one shared RNG meant every dup draw
// shifted the loss sequence.)
TEST_F(FaultModelTest, DupDoesNotPerturbLossDecisions) {
  constexpr int kFrames = 400;
  constexpr uint64_t kSeed = 77;

  FaultPlan loss_only;
  loss_only.loss_rate = 0.1;
  loss_only.seed = kSeed;
  wire.SetFaults(loss_only);
  std::vector<uint64_t> ids_a = Blast(kFrames);
  std::set<uint64_t> dropped_a = DroppedOf(ids_a, DropReason::kWireFault);
  ASSERT_GT(dropped_a.size(), 0u);
  ASSERT_LT(dropped_a.size(), static_cast<size_t>(kFrames));

  // Same seed, same traffic, but now every carried frame also rolls a dup
  // die (and some frames dup, minting extra ids in between).
  FaultPlan loss_and_dup = loss_only;
  loss_and_dup.dup_rate = 0.3;
  wire.SetFaults(loss_and_dup);
  std::vector<uint64_t> ids_b = Blast(kFrames);
  std::set<uint64_t> dropped_b = DroppedOf(ids_b, DropReason::kWireFault);

  // Compare by send ordinal: the i-th transmitted frame must meet the same
  // loss fate in both runs.
  std::set<int> ord_a, ord_b;
  for (int i = 0; i < kFrames; i++) {
    if (dropped_a.count(ids_a[i])) {
      ord_a.insert(i);
    }
    if (dropped_b.count(ids_b[i])) {
      ord_b.insert(i);
    }
  }
  EXPECT_EQ(ord_a, ord_b);
}

// Same independence property for the other direction: corruption and delay
// draws must not perturb loss either.
TEST_F(FaultModelTest, CorruptAndDelayDoNotPerturbLossDecisions) {
  constexpr int kFrames = 400;
  FaultPlan base;
  base.loss_rate = 0.08;
  base.seed = 1993;
  wire.SetFaults(base);
  std::vector<uint64_t> ids_a = Blast(kFrames);
  std::set<int> ord_a;
  for (int i = 0; i < kFrames; i++) {
    if (DroppedOf({ids_a[i]}, DropReason::kWireFault).size() == 1) {
      ord_a.insert(i);
    }
  }

  FaultPlan noisy = base;
  noisy.corrupt_rate = 0.2;
  noisy.delay_rate = 0.15;
  wire.SetFaults(noisy);
  std::vector<uint64_t> ids_b = Blast(kFrames);
  std::set<int> ord_b;
  for (int i = 0; i < kFrames; i++) {
    if (DroppedOf({ids_b[i]}, DropReason::kWireFault).size() == 1) {
      ord_b.insert(i);
    }
  }
  EXPECT_EQ(ord_a, ord_b);
}

// Gilbert–Elliott must produce bursty loss: with loss_good=0 every drop
// happens in the bad state, and bad states persist across frames, so drops
// must cluster into runs — something independent loss at the same average
// rate essentially never does for this many frames.
TEST_F(FaultModelTest, GilbertElliottDropsInBursts) {
  constexpr int kFrames = 600;
  FaultPlan plan;
  plan.burst.enabled = true;
  plan.burst.p_good_to_bad = 0.05;
  plan.burst.p_bad_to_good = 0.3;
  plan.burst.loss_good = 0.0;
  plan.burst.loss_bad = 1.0;
  plan.seed = 42;
  wire.SetFaults(plan);
  std::vector<uint64_t> ids = Blast(kFrames);

  int drops = 0, bursts = 0, longest = 0, run = 0;
  for (uint64_t id : ids) {
    bool dropped = obs.journey.DispositionOf(id) == PktDisposition::kDropped;
    if (dropped) {
      drops++;
      run++;
      longest = std::max(longest, run);
    } else {
      if (run > 0) {
        bursts++;
      }
      run = 0;
    }
  }
  if (run > 0) {
    bursts++;
  }
  ASSERT_GT(drops, 0);
  // Loss happens (stationary bad-state share ~1/7 of frames)…
  EXPECT_GT(drops, kFrames / 20);
  EXPECT_LT(drops, kFrames / 2);
  // …and it clusters: mean burst length comfortably above 1, with at least
  // one multi-frame fade.
  EXPECT_GT(static_cast<double>(drops) / bursts, 1.2);
  EXPECT_GE(longest, 3);
}

// A partition is one-directional and heals on schedule: a->b frames die
// with kWirePartition during the outage, b->a flows the whole time, and
// a->b delivers again after the heal time.
TEST_F(FaultModelTest, PartitionIsAsymmetricAndHeals) {
  FaultPlan plan;
  plan.partitions.push_back(LinkPartition{0, 1, Millis(0), Millis(100)});
  wire.SetFaults(plan);

  Frame fwd1 = MakeFrame();
  fwd1.pkt_id = obs.journey.Mint();
  Frame rev = MakeFrame();
  std::swap_ranges(rev.begin(), rev.begin() + 6, rev.begin() + 6);  // b -> a
  rev.pkt_id = obs.journey.Mint();
  Frame fwd2 = MakeFrame();
  fwd2.pkt_id = obs.journey.Mint();

  sim.Schedule(Millis(10), [&] { wire.Transmit(nic_a.get(), fwd1); });
  sim.Schedule(Millis(20), [&] { wire.Transmit(nic_b.get(), rev); });
  sim.Schedule(Millis(150), [&] { wire.Transmit(nic_a.get(), fwd2); });
  sim.Run(Seconds(1));

  EXPECT_EQ(obs.journey.DispositionOf(fwd1.pkt_id), PktDisposition::kDropped);
  EXPECT_EQ(obs.journey.ReasonOf(fwd1.pkt_id), DropReason::kWirePartition);
  EXPECT_EQ(nic_a->rx_frames(), 1u);  // the reverse frame got through
  EXPECT_EQ(nic_b->rx_frames(), 1u);  // only the post-heal forward frame
  EXPECT_EQ(wire.frames_partitioned(), 1u);
}

// Shaper with a bounded queue tail-drops the overflow before it occupies
// the medium, and the books balance: carried + shaper-dropped == offered.
TEST_F(FaultModelTest, ShaperQueueTailDrops) {
  FaultPlan plan;
  plan.queue_frames = 2;
  plan.bandwidth_scale = 4.0;
  wire.SetFaults(plan);

  constexpr int kOffered = 12;
  for (int i = 0; i < kOffered; i++) {
    Frame f = MakeFrame(1000);
    f.pkt_id = obs.journey.Mint();
    // All at t=0: way past what a 2-frame backlog admits.
    sim.Schedule(0, [this, f] { wire.Transmit(nic_a.get(), f); });
  }
  sim.Run(Seconds(5));

  EXPECT_GT(wire.frames_shaper_dropped(), 0u);
  EXPECT_GT(wire.frames_carried(), 0u);
  EXPECT_EQ(wire.frames_carried() + wire.frames_shaper_dropped(),
            static_cast<uint64_t>(kOffered));
  EXPECT_EQ(nic_b->rx_frames(), wire.frames_carried());
}

// bandwidth_scale stretches serialization: the same frame takes exactly
// scale× longer to arrive.
TEST_F(FaultModelTest, BandwidthScaleStretchesWireTime) {
  SimTime arrival_1x = 0, arrival_4x = 0;

  Frame f1 = MakeFrame(500);
  f1.pkt_id = obs.journey.Mint();
  sim.Schedule(0, [&] { wire.Transmit(nic_a.get(), f1); });
  sim.Run(Seconds(1));
  ASSERT_EQ(nic_b->rx_frames(), 1u);
  std::vector<HopEvent> rec = obs.journey.JourneyOf(f1.pkt_id);
  ASSERT_FALSE(rec.empty());
  arrival_1x = rec.back().at;

  FaultPlan plan;
  plan.bandwidth_scale = 4.0;
  wire.SetFaults(plan);
  Frame f2 = MakeFrame(500);
  f2.pkt_id = obs.journey.Mint();
  SimTime start = sim.Now();
  sim.Schedule(start, [&] { wire.Transmit(nic_a.get(), f2); });
  sim.Run(start + Seconds(1));
  std::vector<HopEvent> rec2 = obs.journey.JourneyOf(f2.pkt_id);
  ASSERT_FALSE(rec2.empty());
  arrival_4x = rec2.back().at;

  EXPECT_EQ(arrival_4x - start, 4 * arrival_1x);
}

// Corruption only ever touches the IP datagram of an eligible frame, flips
// at most corrupt_bits bits within one aligned 16-bit word, and books every
// hit in both the segment counter and the ledger.
TEST_F(FaultModelTest, CorruptionFlipsBitsInOneAlignedWord) {
  FaultPlan plan;
  plan.corrupt_rate = 1.0;
  plan.corrupt_bits = 2;
  plan.seed = 7;
  wire.SetFaults(plan);

  constexpr int kFrames = 50;
  Frame pristine = MakeFrame();
  std::vector<Frame> received;
  nic_b->SetRxNotify([&] {
    while (nic_b->RxPending()) {
      received.push_back(nic_b->RxPop());
    }
  });
  for (int i = 0; i < kFrames; i++) {
    Frame f = pristine;
    f.pkt_id = obs.journey.Mint();
    sim.Schedule(static_cast<SimTime>(i) * Millis(2), [this, f] { wire.Transmit(nic_a.get(), f); });
  }
  sim.Run(Seconds(2));

  ASSERT_EQ(received.size(), static_cast<size_t>(kFrames));
  EXPECT_EQ(wire.frames_corrupted(), static_cast<uint64_t>(kFrames));
  EXPECT_EQ(obs.drops.total(DropReason::kWireCorrupt), static_cast<uint64_t>(kFrames));
  for (const Frame& f : received) {
    ASSERT_EQ(f.size(), pristine.size());
    // Ethernet header untouched.
    EXPECT_TRUE(std::equal(f.begin(), f.begin() + kEtherHeaderLen, pristine.begin()));
    // All differing bits live in one aligned 16-bit word, 1-2 of them.
    int flipped = 0;
    int words_touched = 0;
    for (size_t w = kEtherHeaderLen; w + 1 < f.size(); w += 2) {
      uint16_t diff = static_cast<uint16_t>((f[w] ^ pristine[w]) | ((f[w + 1] ^ pristine[w + 1]))
                                            << 8);
      if (diff != 0) {
        words_touched++;
        flipped += __builtin_popcount(diff);
      }
    }
    EXPECT_EQ(words_touched, 1);
    EXPECT_GE(flipped, 1);
    EXPECT_LE(flipped, 2);
  }
}

// The stored UDP checksum word is never selected for corruption: a flip
// that zeroed it would read as "sender computed no checksum" (RFC 768),
// the receiver would skip validation, and the corrupted datagram would be
// consumed — breaking the injector's detectability guarantee.
TEST_F(FaultModelTest, CorruptionNeverTouchesTheUdpChecksumWord) {
  FaultPlan plan;
  plan.corrupt_rate = 1.0;
  plan.corrupt_bits = 2;
  plan.seed = 3;
  wire.SetFaults(plan);

  // Tiny payload: few eligible words, so an unexcluded checksum word would
  // be hit many times across the run.
  Frame pristine = MakeFrame(2);
  std::vector<Frame> received;
  nic_b->SetRxNotify([&] {
    while (nic_b->RxPending()) {
      received.push_back(nic_b->RxPop());
    }
  });
  constexpr int kFrames = 200;
  for (int i = 0; i < kFrames; i++) {
    Frame f = pristine;
    f.pkt_id = obs.journey.Mint();
    sim.Schedule(static_cast<SimTime>(i) * Millis(2), [this, f] { wire.Transmit(nic_a.get(), f); });
  }
  sim.Run(Seconds(2));

  ASSERT_EQ(received.size(), static_cast<size_t>(kFrames));
  EXPECT_EQ(wire.frames_corrupted(), static_cast<uint64_t>(kFrames));
  const size_t cksum = kEtherHeaderLen + 20 + 6;  // IHL=5, UDP checksum offset
  for (const Frame& f : received) {
    EXPECT_EQ(f[cksum], pristine[cksum]);
    EXPECT_EQ(f[cksum + 1], pristine[cksum + 1]);
  }
}

// With every class off (the default FaultPlan), the segment is a perfect
// wire: no drops, no corruption, no surprises — the property that keeps
// the bench tables byte-identical.
TEST_F(FaultModelTest, DefaultPlanIsPerfectWire) {
  wire.SetFaults(FaultPlan{});
  Blast(100);
  EXPECT_EQ(wire.frames_carried(), 100u);
  EXPECT_EQ(wire.frames_dropped(), 0u);
  EXPECT_EQ(wire.frames_corrupted(), 0u);
  EXPECT_EQ(wire.frames_reordered(), 0u);
  EXPECT_EQ(wire.frames_partitioned(), 0u);
  EXPECT_EQ(wire.frames_shaper_dropped(), 0u);
  EXPECT_EQ(nic_b->rx_frames(), 100u);
}

}  // namespace
}  // namespace psd
