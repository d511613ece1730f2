// The stack's timer thread visits the 200 ms fast grid only while a
// delayed ACK can be owed. An idle-ish host (its only pcb in TIME_WAIT)
// wakes at slow ticks alone, and a delayed ACK armed while the fast grid is
// being skipped still leaves at the grid instant it always did.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/base/bytes.h"
#include "src/obs/pcap.h"
#include "src/testbed/world.h"

namespace psd {
namespace {

// Host 0 closes first and keeps its pcb in TIME_WAIT for 2MSL (60 s); host
// 1's pcbs are gone soon after, and nothing else in the world runs. In a
// 30 s window inside TIME_WAIT host 0's timer thread then wakes at the 60
// slow ticks and at none of the 150 fast grid points. Each wake is three
// events: the wakeup itself and the sync-pair charge of each of its two
// domain-lock acquisitions.
TEST(TcpFastTimeout, TimeWaitHostWakesOnlyAtSlowTicks) {
  World w(Config::kInKernel, MachineProfile::DecStation5000());
  w.SeedStaticArp();
  bool closed = false;
  w.SpawnApp(1, "rx", [&] {
    SocketApi* api = w.api(1);
    int lfd = *api->CreateSocket(IpProto::kTcp);
    ASSERT_TRUE(api->Bind(lfd, SockAddrIn{Ipv4Addr::Any(), 5001}).ok());
    ASSERT_TRUE(api->Listen(lfd, 1).ok());
    Result<int> cfd = api->Accept(lfd, nullptr);
    ASSERT_TRUE(cfd.ok());
    uint8_t b[4];
    (void)api->Recv(*cfd, b, sizeof(b), nullptr, false);  // EOF
    api->Close(*cfd);
    api->Close(lfd);
  });
  w.SpawnApp(0, "tx", [&] {
    SocketApi* api = w.api(0);
    int fd = *api->CreateSocket(IpProto::kTcp);
    w.sim().current_thread()->SleepFor(Millis(5));
    ASSERT_TRUE(api->Connect(fd, SockAddrIn{w.addr(1), 5001}).ok());
    api->Close(fd);
    closed = true;
  });
  w.sim().Run(Seconds(5));
  ASSERT_TRUE(closed);
  const auto& pcbs = w.stack(0)->tcp().pcbs();
  ASSERT_EQ(pcbs.size(), 1u);
  ASSERT_EQ(pcbs[0]->state, TcpState::kTimeWait);
  ASSERT_TRUE(w.stack(1)->tcp().pcbs().empty());

  uint64_t before = w.sim().events_executed();
  w.sim().Run(Seconds(35));
  EXPECT_EQ(w.sim().events_executed() - before, 60u * 3);
  EXPECT_EQ(pcbs[0]->state, TcpState::kTimeWait);
}

size_t TcpPayloadLen(const std::vector<uint8_t>& f) {
  const uint8_t* ip = f.data() + kEtherHeaderLen;
  size_t ihl = static_cast<size_t>(ip[0] & 0x0f) * 4;
  size_t tcp_hlen = static_cast<size_t>(ip[ihl + 12] >> 4) * 4;
  return Load16(ip + 2) - ihl - tcp_hlen;
}

bool FromHost(const std::vector<uint8_t>& f, int host) {
  MacAddr mac = MacAddr::FromHostId(static_cast<uint16_t>(host + 1));
  return std::equal(mac.b.begin(), mac.b.end(), f.begin() + 6);
}

// The first SYN-ACK is lost, so the client sits in SYN_SENT across many
// fast grid points until its SYN retransmit. The server then sends one
// small segment; the client's delayed ACK for it must leave at the first
// fast grid instant after the segment arrived. The instant is pinned.
TEST(TcpFastTimeout, DelayedAckLeavesOnTheFastGridAfterSkippedPoints) {
  World w(Config::kInKernel, MachineProfile::DecStation5000());
  w.SeedStaticArp();
  PcapCapture pcap;
  w.AttachWirePcap(&pcap);
  FaultPlan plan;
  plan.partitions.push_back(LinkPartition{1, 0, 0, Seconds(1)});  // server -> client
  w.wire().SetFaults(plan);
  bool established = false;
  size_t got = 0;
  w.SpawnApp(1, "server", [&] {
    SocketApi* api = w.api(1);
    int lfd = *api->CreateSocket(IpProto::kTcp);
    ASSERT_TRUE(api->Bind(lfd, SockAddrIn{Ipv4Addr::Any(), 5002}).ok());
    ASSERT_TRUE(api->Listen(lfd, 1).ok());
    Result<int> cfd = api->Accept(lfd, nullptr);
    ASSERT_TRUE(cfd.ok());
    uint8_t data[100] = {};
    ASSERT_TRUE(api->Send(*cfd, data, sizeof(data), nullptr).ok());
    w.sim().current_thread()->SleepFor(Seconds(30));
  });
  w.SpawnApp(0, "client", [&] {
    SocketApi* api = w.api(0);
    int fd = *api->CreateSocket(IpProto::kTcp);
    w.sim().current_thread()->SleepFor(Millis(10));
    ASSERT_TRUE(api->Connect(fd, SockAddrIn{w.addr(1), 5002}).ok());
    established = true;
    uint8_t buf[200];
    Result<size_t> n = api->Recv(fd, buf, sizeof(buf), nullptr, false);
    ASSERT_TRUE(n.ok());
    got = *n;
    w.sim().current_thread()->SleepFor(Seconds(30));
  });
  w.sim().Run(Seconds(15));
  ASSERT_TRUE(established);
  ASSERT_EQ(got, 100u);
  ASSERT_GT(w.stack(0)->tcp().stats().acks_delayed, 0u);

  size_t data = pcap.packet_count();
  for (size_t i = 0; i < pcap.packet_count(); i++) {
    if (FromHost(pcap.record_bytes(i), 1) && TcpPayloadLen(pcap.record_bytes(i)) == 100) {
      data = i;
      break;
    }
  }
  ASSERT_LT(data, pcap.packet_count());
  size_t ack = data + 1;
  while (ack < pcap.packet_count() && !FromHost(pcap.record_bytes(ack), 0)) {
    ack++;
  }
  ASSERT_LT(ack, pcap.packet_count());
  EXPECT_EQ(TcpPayloadLen(pcap.record_bytes(ack)), 0u);
  // The handshake waited for the SYN retransmit, so the segment arrived
  // five fast grid points after the client's grid started (at connect,
  // 10.330112 ms). The ACK leaves at the sixth.
  EXPECT_GT(pcap.timestamp(data), Millis(1000));
  EXPECT_EQ(pcap.timestamp(ack), 1210330112);
}

}  // namespace
}  // namespace psd
