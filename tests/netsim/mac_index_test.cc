// EthernetSegment delivery through its MAC index must be indistinguishable
// from the plain scan it replaces: the same target NICs, in the same order,
// with the same partition accounting. The reference below is that scan,
// written out over the attach list.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "src/base/bytes.h"
#include "src/netsim/nic.h"
#include "src/obs/observatory.h"

namespace psd {
namespace {

// Attach order is deliberately not MAC order, and ids 2 and 5 are shared.
constexpr uint16_t kMacIds[] = {5, 2, 9, 2, 7, 5, 2, 3};
constexpr int kNics = sizeof(kMacIds) / sizeof(kMacIds[0]);

struct Send {
  int src;        // attach index of the sender
  MacAddr dst;
};

class MacIndexTest : public ::testing::Test {
 protected:
  MacIndexTest() : wire(&sim, &obs) {
    for (int i = 0; i < kNics; i++) {
      cpus.push_back(std::make_unique<HostCpu>());
      nics.push_back(std::make_unique<Nic>(&sim, &obs, cpus.back().get(),
                                           "nic" + std::to_string(i), NicParams::Lance(prof)));
      nics[i]->Attach(&wire, MacAddr::FromHostId(kMacIds[i]));
      nics[i]->SetRxNotify([this, i] {
        while (nics[i]->RxPending()) {
          Frame f = nics[i]->RxPop();
          log.emplace_back(i, Load16(f.data() + kEtherHeaderLen));
        }
      });
    }
  }

  // Every sender to every known MAC, an unknown MAC and broadcast; frames
  // are spaced so the medium is always free.
  std::vector<Send> AllSends() const {
    std::vector<MacAddr> dsts;
    for (uint16_t id : {2, 3, 5, 7, 9, 4}) {  // 4 is attached nowhere
      dsts.push_back(MacAddr::FromHostId(id));
    }
    dsts.push_back(MacAddr::Broadcast());
    std::vector<Send> sends;
    for (int src = 0; src < kNics; src++) {
      for (const MacAddr& d : dsts) {
        sends.push_back(Send{src, d});
      }
    }
    return sends;
  }

  void Run(const std::vector<Send>& sends) {
    for (size_t k = 0; k < sends.size(); k++) {
      Frame f;
      f.resize(64, 0);
      std::copy(sends[k].dst.b.begin(), sends[k].dst.b.end(), f.begin());
      Store16(f.data() + 12, kEtherTypeIpv4);
      Store16(f.data() + kEtherHeaderLen, static_cast<uint16_t>(k));
      Nic* src = nics[sends[k].src].get();
      sim.Schedule(static_cast<SimTime>(k) * Millis(1),
                   [this, src, f]() mutable { wire.Transmit(src, std::move(f)); });
    }
    sim.Run();
  }

  // The linear scan: attach order, skip the sender, drop (and count) what a
  // partition blocks, keep broadcast and matching MACs.
  std::vector<std::pair<int, uint16_t>> Reference(const std::vector<Send>& sends,
                                                  const std::vector<LinkPartition>& parts,
                                                  uint64_t* partitioned) const {
    std::vector<std::pair<int, uint16_t>> out;
    for (size_t k = 0; k < sends.size(); k++) {
      for (int i = 0; i < kNics; i++) {
        if (i == sends[k].src) {
          continue;
        }
        bool blocked = false;
        for (const LinkPartition& p : parts) {
          blocked = blocked || ((p.src == -1 || p.src == sends[k].src) && (p.dst == -1 || p.dst == i));
        }
        if (blocked) {
          ++*partitioned;
        } else if (sends[k].dst.IsBroadcast() || sends[k].dst == nics[i]->mac()) {
          out.emplace_back(i, static_cast<uint16_t>(k));
        }
      }
    }
    return out;
  }

  Observatory obs;
  Simulator sim;
  MachineProfile prof = MachineProfile::DecStation5000();
  EthernetSegment wire;
  std::vector<std::unique_ptr<HostCpu>> cpus;
  std::vector<std::unique_ptr<Nic>> nics;
  std::vector<std::pair<int, uint16_t>> log;  // (receiving attach index, frame number)
};

TEST_F(MacIndexTest, UnpartitionedDeliveryMatchesScan) {
  std::vector<Send> sends = AllSends();
  Run(sends);
  uint64_t partitioned = 0;
  EXPECT_EQ(log, Reference(sends, {}, &partitioned));
  EXPECT_EQ(wire.frames_partitioned(), 0u);
  // Shared MACs really fan out: frame 0 (nic0 -> id 2) reaches nics 1, 3, 6.
  ASSERT_GE(log.size(), 3u);
  EXPECT_EQ(log[0], std::make_pair(1, uint16_t{0}));
  EXPECT_EQ(log[1], std::make_pair(3, uint16_t{0}));
  EXPECT_EQ(log[2], std::make_pair(6, uint16_t{0}));
}

TEST_F(MacIndexTest, PartitionedDeliveryMatchesScan) {
  // One directed cut into a shared MAC, and one sender cut off from all.
  std::vector<LinkPartition> parts = {LinkPartition{0, 3}, LinkPartition{4, -1}};
  FaultPlan plan;
  plan.partitions = parts;
  wire.SetFaults(plan);
  std::vector<Send> sends = AllSends();
  Run(sends);
  uint64_t partitioned = 0;
  EXPECT_EQ(log, Reference(sends, parts, &partitioned));
  EXPECT_EQ(wire.frames_partitioned(), partitioned);
  EXPECT_GT(partitioned, 0u);
}

}  // namespace
}  // namespace psd
