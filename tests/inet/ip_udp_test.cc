// IP fragmentation/reassembly, UDP semantics (boundaries, checksums,
// truncation, ICMP port-unreachable), and ARP behaviour.
#include <gtest/gtest.h>

#include "src/testbed/world.h"

namespace psd {
namespace {

class InetTest : public ::testing::Test {
 protected:
  InetTest() : w(Config::kInKernel, MachineProfile::DecStation5000()) {}

  // Host 0 sends host 1 one 8,000 B datagram (> 5 fragments at 1480 bytes
  // each) after an ARP warm-up probe; *ok is set once host 1 has received
  // it intact. Run the world for 10 s to complete the exchange.
  static constexpr size_t kBigDatagram = 8000;
  void SendFragmentedDatagram(bool* ok) {
    w.SpawnApp(1, "rx", [this, ok] {
      SocketApi* api = w.api(1);
      int fd = *api->CreateSocket(IpProto::kUdp);
      api->SetOpt(fd, SockOpt::kRcvBuf, 64 * 1024);
      api->Bind(fd, SockAddrIn{Ipv4Addr::Any(), 7000});
      std::vector<uint8_t> buf(kBigDatagram);
      Result<size_t> n = api->Recv(fd, buf.data(), buf.size(), nullptr, false);
      if (n.ok() && *n == 1) {
        n = api->Recv(fd, buf.data(), buf.size(), nullptr, false);  // skip ARP warm-up probe
      }
      if (n.ok() && *n == kBigDatagram) {
        *ok = true;
        for (size_t i = 0; i < kBigDatagram; i++) {
          if (buf[i] != static_cast<uint8_t>(i % 251)) {
            *ok = false;
            break;
          }
        }
      }
    });
    w.SpawnApp(0, "tx", [this] {
      SocketApi* api = w.api(0);
      int fd = *api->CreateSocket(IpProto::kUdp);
      api->SetOpt(fd, SockOpt::kSndBuf, 64 * 1024);
      w.sim().current_thread()->SleepFor(Millis(10));
      SockAddrIn dst{w.addr(1), 7000};
      // Warm ARP first: a cold multi-fragment burst would overflow the ARP
      // hold queue (BSD holds few packets per unresolved entry) and UDP
      // does not retransmit lost fragments.
      uint8_t probe[1] = {0xff};
      api->Send(fd, probe, 1, &dst);
      w.sim().current_thread()->SleepFor(Millis(20));
      std::vector<uint8_t> data(kBigDatagram);
      for (size_t i = 0; i < kBigDatagram; i++) {
        data[i] = static_cast<uint8_t>(i % 251);
      }
      api->Send(fd, data.data(), data.size(), &dst);
    });
  }

  World w;
};

TEST_F(InetTest, UdpDatagramLargerThanMtuFragmentsAndReassembles) {
  bool ok = false;
  SendFragmentedDatagram(&ok);
  w.sim().Run(Seconds(10));
  EXPECT_TRUE(ok);
  EXPECT_GT(w.kernel_node(0)->stack()->ip().stats().fragments_sent, 4u);
  EXPECT_EQ(w.kernel_node(1)->stack()->ip().stats().reassembled, 1u);
}

// A reassembled datagram leaves no reassembly state behind, so with no
// other work the receiving stack's timer thread goes idle for good: a
// quiet hour runs no event and no thread switch. (Reassembly used to look
// pending while fragments received exceeded datagrams reassembled, which
// stays true after any multi-fragment datagram.)
TEST_F(InetTest, TimerGoesIdleAfterReassembly) {
  bool ok = false;
  SendFragmentedDatagram(&ok);
  w.sim().Run(Seconds(10));
  ASSERT_TRUE(ok);
  ASSERT_EQ(w.kernel_node(1)->stack()->ip().stats().reassembled, 1u);
  const uint64_t events = w.sim().events_executed();
  const uint64_t switches = w.sim().thread_switches();
  w.sim().Run(Seconds(3600));
  EXPECT_EQ(w.sim().events_executed() - events, 0u);
  EXPECT_EQ(w.sim().thread_switches() - switches, 0u);
}

TEST_F(InetTest, LostFragmentTimesOutReassembly) {
  bool got = false;
  w.SpawnApp(1, "rx", [&] {
    SocketApi* api = w.api(1);
    int fd = *api->CreateSocket(IpProto::kUdp);
    api->SetOpt(fd, SockOpt::kRcvBuf, 64 * 1024);
    api->Bind(fd, SockAddrIn{Ipv4Addr::Any(), 7000});
    std::vector<uint8_t> buf(8000);
    Result<size_t> n = api->Recv(fd, buf.data(), buf.size(), nullptr, false);
    if (n.ok() && *n == 1) {
      // That was the ARP warm-up probe; the fragmented datagram never
      // completes, so this second receive must block forever.
      n = api->Recv(fd, buf.data(), buf.size(), nullptr, false);
    }
    got = n.ok() && *n > 1;
  });
  w.SpawnApp(0, "tx", [&] {
    SocketApi* api = w.api(0);
    int fd = *api->CreateSocket(IpProto::kUdp);
    api->SetOpt(fd, SockOpt::kSndBuf, 64 * 1024);
    w.sim().current_thread()->SleepFor(Millis(10));
    SockAddrIn dst{w.addr(1), 7000};
    uint8_t probe[1] = {0xff};
    api->Send(fd, probe, 1, &dst);  // warm ARP (see above)
    w.sim().current_thread()->SleepFor(Millis(20));
    // Lose exactly the fragments of this datagram with certainty: the
    // fault plan starts only now, after ARP and the probe went through.
    FaultPlan faults;
    faults.loss_rate = 0.5;
    faults.seed = 4;
    w.wire().SetFaults(faults);
    std::vector<uint8_t> data(7000, 0x3c);
    api->Send(fd, data.data(), data.size(), &dst);
  });
  // The datagram cannot reassemble (UDP does not retransmit); the partial
  // state must be garbage-collected by the reassembly timeout.
  w.sim().Run(Seconds(60));
  Stack* st = w.kernel_node(1)->stack();
  EXPECT_EQ(st->ip().stats().reassembled, 0u);
  EXPECT_EQ(w.obs().drops.total(DropReason::kIpReassemblyTimeout, st->env()->node), 1u);
  EXPECT_FALSE(got);
}

TEST_F(InetTest, UdpPreservesMessageBoundaries) {
  std::vector<size_t> sizes;
  w.SpawnApp(1, "rx", [&] {
    SocketApi* api = w.api(1);
    int fd = *api->CreateSocket(IpProto::kUdp);
    api->Bind(fd, SockAddrIn{Ipv4Addr::Any(), 7000});
    uint8_t buf[512];
    for (int i = 0; i < 3; i++) {
      Result<size_t> n = api->Recv(fd, buf, sizeof(buf), nullptr, false);
      if (n.ok()) {
        sizes.push_back(*n);
      }
    }
  });
  w.SpawnApp(0, "tx", [&] {
    SocketApi* api = w.api(0);
    int fd = *api->CreateSocket(IpProto::kUdp);
    w.sim().current_thread()->SleepFor(Millis(10));
    SockAddrIn dst{w.addr(1), 7000};
    uint8_t buf[300] = {};
    api->Send(fd, buf, 10, &dst);
    api->Send(fd, buf, 300, &dst);
    api->Send(fd, buf, 1, &dst);
  });
  w.sim().Run(Seconds(10));
  EXPECT_EQ(sizes, (std::vector<size_t>{10, 300, 1}));
}

TEST_F(InetTest, UdpTruncatesOversizedDatagramOnRecv) {
  size_t got = 0;
  w.SpawnApp(1, "rx", [&] {
    SocketApi* api = w.api(1);
    int fd = *api->CreateSocket(IpProto::kUdp);
    api->Bind(fd, SockAddrIn{Ipv4Addr::Any(), 7000});
    uint8_t small[16];
    Result<size_t> n = api->Recv(fd, small, sizeof(small), nullptr, false);
    got = n.ok() ? *n : 0;
  });
  w.SpawnApp(0, "tx", [&] {
    SocketApi* api = w.api(0);
    int fd = *api->CreateSocket(IpProto::kUdp);
    w.sim().current_thread()->SleepFor(Millis(10));
    uint8_t big[200] = {};
    SockAddrIn dst{w.addr(1), 7000};
    api->Send(fd, big, sizeof(big), &dst);
  });
  w.sim().Run(Seconds(10));
  EXPECT_EQ(got, 16u);  // BSD: excess datagram bytes are discarded
}

TEST_F(InetTest, UdpOversizedSendReturnsMsgSize) {
  Err err = Err::kOk;
  w.SpawnApp(0, "tx", [&] {
    SocketApi* api = w.api(0);
    int fd = *api->CreateSocket(IpProto::kUdp);
    std::vector<uint8_t> huge(kUdpSendSpace + 1);
    SockAddrIn dst{w.addr(1), 7000};
    Result<size_t> r = api->Send(fd, huge.data(), huge.size(), &dst);
    err = r.error();
  });
  w.sim().Run(Seconds(5));
  EXPECT_EQ(err, Err::kMsgSize);
}

TEST_F(InetTest, IcmpPortUnreachableBecomesConnRefused) {
  Err err = Err::kOk;
  w.SpawnApp(0, "tx", [&] {
    SocketApi* api = w.api(0);
    int fd = *api->CreateSocket(IpProto::kUdp);
    // Connected UDP socket to a port nobody listens on.
    api->Connect(fd, SockAddrIn{w.addr(1), 4444});
    uint8_t b[4] = {};
    api->Send(fd, b, sizeof(b), nullptr);
    w.sim().current_thread()->SleepFor(Millis(50));
    // BSD reports the asynchronous error on the next operation.
    Result<size_t> r = api->Send(fd, b, sizeof(b), nullptr);
    if (!r.ok()) {
      err = r.error();
    }
  });
  w.sim().Run(Seconds(10));
  EXPECT_EQ(err, Err::kConnRefused);
  EXPECT_GE(w.kernel_node(1)->stack()->icmp().unreachables_sent(), 1u);
}

TEST_F(InetTest, ArpResolvesOnceThenCaches) {
  w.SpawnApp(1, "rx", [&] {
    SocketApi* api = w.api(1);
    int fd = *api->CreateSocket(IpProto::kUdp);
    api->Bind(fd, SockAddrIn{Ipv4Addr::Any(), 7000});
    uint8_t buf[32];
    for (int i = 0; i < 5; i++) {
      api->Recv(fd, buf, sizeof(buf), nullptr, false);
    }
  });
  w.SpawnApp(0, "tx", [&] {
    SocketApi* api = w.api(0);
    int fd = *api->CreateSocket(IpProto::kUdp);
    w.sim().current_thread()->SleepFor(Millis(10));
    SockAddrIn dst{w.addr(1), 7000};
    uint8_t b[8] = {};
    for (int i = 0; i < 5; i++) {
      api->Send(fd, b, sizeof(b), &dst);
    }
  });
  w.sim().Run(Seconds(10));
  // One request resolves the peer; later sends hit the cache.
  EXPECT_EQ(w.kernel_node(0)->stack()->arp()->requests_sent(), 1u);
  EXPECT_GE(w.kernel_node(1)->stack()->arp()->replies_sent(), 1u);
}

TEST_F(InetTest, ArpGivesUpOnNonexistentHost) {
  Err err = Err::kOk;
  w.SpawnApp(0, "tx", [&] {
    SocketApi* api = w.api(0);
    int fd = *api->CreateSocket(IpProto::kUdp);
    SockAddrIn ghost{Ipv4Addr::FromOctets(10, 0, 0, 200), 7000};
    uint8_t b[4] = {};
    // Sends queue behind the unresolvable ARP entry; a saturated hold
    // queue silently drops the oldest held packet (BSD arpresolve
    // behaviour) — the sender never sees an error, datagrams just
    // vanish until ARP gives up and clears the entry.
    for (int i = 0; i < 8 && err == Err::kOk; i++) {
      Result<size_t> r = api->Send(fd, b, sizeof(b), &ghost);
      if (!r.ok()) {
        err = r.error();
      }
      w.sim().current_thread()->SleepFor(Millis(100));
    }
  });
  w.sim().Run(Seconds(30));
  EXPECT_EQ(err, Err::kOk);
  EXPECT_GT(w.kernel_node(0)->stack()->arp()->requests_sent(), 1u);  // retried
  // 8 datagrams raced a hold queue of kMaxHold=4: the overflow was
  // dropped silently, not surfaced.
  EXPECT_GT(w.obs().drops.total(DropReason::kEtherUnresolved, w.kernel_node(0)->stack()->env()->node),
            0u);
}

}  // namespace
}  // namespace psd
