// Holds the frame and mbuf pools to their recycling contracts:
//  * a reissued buffer carries nothing from its previous life — no stale
//    payload bytes, no stale packet-journey id;
//  * copies round-trip bytes exactly;
//  * hit/miss/live/high-watermark counters move the way dashboards expect;
//  * parked inventory is bounded;
//  * frames delivered over the kernel's IPC packet port stay in the pool;
//  * each host thread has pools of its own.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "src/mbuf/mbuf.h"
#include "src/netsim/ether.h"
#include "src/netsim/frame_pool.h"
#include "src/obs/stats.h"
#include "src/testbed/world.h"

namespace psd {
namespace {

class PoolLifecycleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FramePool::ResetForTest();
    MbufPool::ResetForTest();
  }
};

TEST_F(PoolLifecycleTest, RecycledFrameCarriesNoStalePayload) {
  {
    Frame f = Frame::OfSize(FramePool::kMtuBytes);
    EXPECT_EQ(FramePool::misses(), 1u);  // cold pool
    std::memset(f.data(), 0xAB, f.size());
    f.pkt_id = 777;
  }  // recycled here
  EXPECT_EQ(FramePool::recycles(), 1u);
  EXPECT_EQ(FramePool::parked(), 1u);

  Frame g = Frame::OfSize(200);  // same size class: must reuse the buffer
  EXPECT_EQ(FramePool::hits(), 1u);
  EXPECT_EQ(g.pkt_id, 0u) << "pkt_id must never travel with recycled storage";
  for (uint8_t b : g) {
    ASSERT_EQ(b, 0u) << "stale payload leaked through the pool";
  }
}

TEST_F(PoolLifecycleTest, CopyRoundTripsBytesAndPktId) {
  Frame src = Frame::OfSize(64);
  for (size_t i = 0; i < src.size(); i++) {
    src[i] = static_cast<uint8_t>(i * 7);
  }
  src.pkt_id = 42;
  Frame copy(src);
  EXPECT_EQ(copy.pkt_id, 42u);
  ASSERT_EQ(copy.size(), src.size());
  EXPECT_EQ(0, std::memcmp(copy.data(), src.data(), src.size()));
}

TEST_F(PoolLifecycleTest, SteadyStateChurnIsAllHits) {
  // Warm the pool, then hammer one size class: after the first allocation
  // every acquire must be a hit and live never exceeds the working set.
  for (int i = 0; i < 100; i++) {
    Frame f = Frame::OfSize(1000);
    (void)f;
  }
  EXPECT_EQ(FramePool::misses(), 1u);
  EXPECT_EQ(FramePool::hits(), 99u);
  EXPECT_EQ(FramePool::live(), 0u);
  EXPECT_EQ(FramePool::high_watermark(), 1u);
  EXPECT_LE(FramePool::parked(), FramePool::kMaxParkedPerClass);
}

TEST_F(PoolLifecycleTest, HighWatermarkTracksPeakWorkingSet) {
  {
    std::vector<Frame> burst;
    for (int i = 0; i < 10; i++) {
      burst.push_back(Frame::OfSize(100));
    }
    EXPECT_EQ(FramePool::live(), 10u);
  }
  EXPECT_EQ(FramePool::live(), 0u);
  EXPECT_EQ(FramePool::high_watermark(), 10u);
  EXPECT_EQ(FramePool::parked(), 10u);
}

TEST_F(PoolLifecycleTest, RecycledClusterIsRezeroed) {
  {
    auto m = Mbuf::GetCluster();
    EXPECT_EQ(MbufPool::cluster_misses(), 1u);
    std::memset(m->AppendInPlace(512), 0xCD, 512);
  }  // last reference: cluster parks
  EXPECT_EQ(MbufPool::parked_clusters(), 1u);

  auto m2 = Mbuf::GetCluster();
  EXPECT_EQ(MbufPool::cluster_hits(), 1u);
  const uint8_t* p = m2->AppendInPlace(512);
  for (size_t i = 0; i < 512; i++) {
    ASSERT_EQ(p[i], 0u) << "recycled cluster leaked bytes at " << i;
  }
}

TEST_F(PoolLifecycleTest, SharedClusterOnlyParksAtLastReference) {
  auto m = Mbuf::GetCluster();
  m->AppendInPlace(64);
  auto shared = m->ShareCopy(0, 64);
  ASSERT_TRUE(shared->shared());
  m.reset();  // cluster still referenced by `shared`
  EXPECT_EQ(MbufPool::parked_clusters(), 0u);
  shared.reset();  // last reference
  EXPECT_EQ(MbufPool::parked_clusters(), 1u);
  EXPECT_EQ(MbufPool::live_clusters(), 0u);
}

TEST_F(PoolLifecycleTest, MbufObjectsComeFromFreelist) {
  { auto m = Mbuf::Get(); (void)m; }
  EXPECT_EQ(MbufPool::mbuf_misses(), 1u);
  EXPECT_EQ(MbufPool::parked_mbufs(), 1u);
  { auto m = Mbuf::Get(); (void)m; }
  EXPECT_EQ(MbufPool::mbuf_hits(), 1u);
  EXPECT_EQ(MbufPool::live_mbufs(), 0u);
  EXPECT_EQ(MbufPool::mbuf_high_watermark(), 1u);
}

TEST_F(PoolLifecycleTest, GaugesExportedAndMoveUnderTrafficChurn) {
  // The engine.* gauges must be reachable through the registry and must
  // have moved after real traffic: a UDP exchange through the full kernel
  // delivery path copies frames and builds mbuf chains on both hosts.
  World w(Config::kInKernel, MachineProfile::DecStation5000());
  StatsRegistry reg;
  w.ExportEngineStats(&reg);
  w.SpawnApp(1, "sink", [&] {
    SocketApi* api = w.api(1);
    int fd = *api->CreateSocket(IpProto::kUdp);
    ASSERT_TRUE(api->Bind(fd, SockAddrIn{Ipv4Addr::Any(), 9000}).ok());
    uint8_t buf[2048];
    for (int i = 0; i < 32; i++) {
      api->Recv(fd, buf, sizeof(buf), nullptr, false);
    }
    api->Close(fd);
  });
  w.SpawnApp(0, "blaster", [&] {
    SocketApi* api = w.api(0);
    int fd = *api->CreateSocket(IpProto::kUdp);
    SockAddrIn dst{w.addr(1), 9000};
    std::vector<uint8_t> payload(512, 0x5A);
    w.sim().current_thread()->SleepFor(Millis(10));
    for (int i = 0; i < 32; i++) {
      api->Send(fd, payload.data(), payload.size(), &dst);
    }
    api->Close(fd);
  });
  w.sim().Run(Seconds(10));

  std::map<std::string, uint64_t> snap;
  for (const StatsRegistry::Entry& e : reg.Snapshot()) {
    snap[e.name] = e.value;
  }
  ASSERT_TRUE(snap.count("engine.frame_pool.high_watermark"));
  ASSERT_TRUE(snap.count("engine.mbuf_pool.cluster_high_watermark"));
  EXPECT_GT(snap["engine.frame_pool.hits"], 0u) << "traffic never reused a pooled frame";
  EXPECT_GT(snap["engine.frame_pool.high_watermark"], 0u);
  EXPECT_GT(snap["engine.mbuf_pool.mbuf_hits"], 0u);
  EXPECT_GT(snap["engine.events_executed"], 0u);
  EXPECT_EQ(snap["engine.past_time_clamps"], 0u) << "traffic scheduled events into the past";
  reg.Reset();  // gauges capture &w.sim(): drop them before the World dies
}

TEST_F(PoolLifecycleTest, IpcPacketDeliveryStopsMissingAfterWarmUp) {
  // On the Server placement the kernel hands every accepted frame to the
  // UX server as an IPC message and the server rebuilds a Frame from it.
  // Neither leg may take a buffer out of the pool: once the first round
  // has warmed it, further rounds of the same traffic draw only hits.
  constexpr int kRounds = 4;
  constexpr int kPerRound = 32;
  World w(Config::kServer, MachineProfile::DecStation5000());
  ASSERT_NE(w.ux_server(1), nullptr);
  std::vector<uint64_t> misses;  // after each round
  int received = 0;
  w.SpawnApp(1, "sink", [&] {
    SocketApi* api = w.api(1);
    int fd = *api->CreateSocket(IpProto::kUdp);
    ASSERT_TRUE(api->Bind(fd, SockAddrIn{Ipv4Addr::Any(), 9000}).ok());
    uint8_t buf[2048];
    for (int i = 0; i < kRounds * kPerRound; i++) {
      if (api->Recv(fd, buf, sizeof(buf), nullptr, false).ok()) {
        received++;
      }
    }
    api->Close(fd);
  });
  w.SpawnApp(0, "blaster", [&] {
    SocketApi* api = w.api(0);
    int fd = *api->CreateSocket(IpProto::kUdp);
    SockAddrIn dst{w.addr(1), 9000};
    std::vector<uint8_t> payload(512, 0x5A);
    for (int round = 0; round < kRounds; round++) {
      w.sim().current_thread()->SleepFor(Millis(100));
      for (int i = 0; i < kPerRound; i++) {
        api->Send(fd, payload.data(), payload.size(), &dst);
      }
      w.sim().current_thread()->SleepFor(Millis(100));
      misses.push_back(FramePool::misses());
    }
    api->Close(fd);
  });
  w.sim().Run(Seconds(10));

  ASSERT_EQ(misses.size(), static_cast<size_t>(kRounds));
  EXPECT_EQ(received, kRounds * kPerRound);
  for (int round = 1; round < kRounds; round++) {
    EXPECT_EQ(misses[round], misses[0]) << "round " << round << " drew fresh frame buffers";
  }
}

TEST_F(PoolLifecycleTest, PoolsArePerThread) {
  // Churn on this thread first, so its counters are nonzero.
  { Frame f = Frame::OfSize(FramePool::kMtuBytes); }
  { auto m = Mbuf::GetCluster(); }
  const uint64_t frame_misses = FramePool::misses();
  const uint64_t frame_recycles = FramePool::recycles();
  const uint64_t mbuf_misses = MbufPool::mbuf_misses();
  const uint64_t cluster_misses = MbufPool::cluster_misses();
  const size_t parked_frames = FramePool::parked();
  const size_t parked_mbufs = MbufPool::parked_mbufs();
  ASSERT_GT(frame_misses, 0u);
  ASSERT_GT(mbuf_misses, 0u);

  std::vector<uint64_t> fresh;  // the thread's counters before its churn
  std::vector<uint64_t> after;  // and after
  std::thread t([&] {
    fresh = {FramePool::hits(), FramePool::misses(), FramePool::recycles(), FramePool::parked(),
             MbufPool::mbuf_hits(), MbufPool::mbuf_misses(), MbufPool::cluster_hits(),
             MbufPool::cluster_misses(), MbufPool::parked_mbufs(), MbufPool::parked_clusters()};
    for (int i = 0; i < 8; i++) {
      Frame f = Frame::OfSize(FramePool::kMtuBytes);
      auto m = Mbuf::GetCluster();
    }
    after = {FramePool::hits(), FramePool::misses(), MbufPool::mbuf_hits(),
             MbufPool::cluster_hits()};
  });
  t.join();

  EXPECT_EQ(fresh, std::vector<uint64_t>(10, 0)) << "a new thread inherited pool state";
  EXPECT_EQ(after, (std::vector<uint64_t>{7, 1, 7, 7})) << "the thread's churn missed its pools";
  EXPECT_EQ(FramePool::misses(), frame_misses);
  EXPECT_EQ(FramePool::recycles(), frame_recycles);
  EXPECT_EQ(FramePool::parked(), parked_frames);
  EXPECT_EQ(MbufPool::mbuf_misses(), mbuf_misses);
  EXPECT_EQ(MbufPool::cluster_misses(), cluster_misses);
  EXPECT_EQ(MbufPool::parked_mbufs(), parked_mbufs);
}

TEST_F(PoolLifecycleTest, ChainChurnStaysBounded) {
  // Build and destroy packet-sized chains; the pool inventory must stay
  // within its caps and the live gauges must return to zero.
  for (int round = 0; round < 50; round++) {
    Chain c;
    std::vector<uint8_t> payload(3000, static_cast<uint8_t>(round));
    c = Chain::FromBytes(payload.data(), payload.size());
    Frame f = Frame::OfSize(c.len());
    c.CopyOut(0, f.data(), f.size());
    EXPECT_EQ(f[100], static_cast<uint8_t>(round));
  }
  EXPECT_EQ(MbufPool::live_mbufs(), 0u);
  EXPECT_EQ(MbufPool::live_clusters(), 0u);
  EXPECT_EQ(FramePool::live(), 0u);
  EXPECT_LE(MbufPool::parked_mbufs(), MbufPool::kMaxParkedMbufs);
  EXPECT_LE(MbufPool::parked_clusters(), MbufPool::kMaxParkedClusters);
}

}  // namespace
}  // namespace psd
