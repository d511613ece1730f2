// Listen-queue accounting under adversarial handshakes: the split SYN/accept
// backlog bounds, the embryonic-slot release when the connection-establishment
// timer reaps a half-open child (the slot-leak regression), and listen-path
// MSS selection with and without the peer's MSS option.
//
// These tests drive TcpLayer::Input directly with hand-built segments (via
// the TcpTestPeer friend) so a SYN can arrive and then simply never be
// ACKed — something no well-behaved Socket client can be made to do.
#include <gtest/gtest.h>

#include <vector>

#include "src/base/bytes.h"
#include "src/base/checksum.h"
#include "src/obs/journey.h"
#include "src/testbed/world.h"

namespace psd {

// Friend of TcpLayer: injects raw segments as if they arrived from IP.
class TcpTestPeer {
 public:
  static void Inject(TcpLayer* tcp, Chain seg, Ipv4Addr src, Ipv4Addr dst) {
    tcp->Input(std::move(seg), src, dst);
  }
};

namespace {

// Builds a checksummed TCP segment. `mss` of 0 omits the MSS option.
std::vector<uint8_t> BuildSegment(Ipv4Addr src, Ipv4Addr dst, uint16_t sport, uint16_t dport,
                                  uint32_t seq, uint32_t ack, uint8_t flags, uint16_t mss) {
  size_t hdrlen = mss != 0 ? 24 : 20;
  std::vector<uint8_t> seg(hdrlen, 0);
  Store16(&seg[0], sport);
  Store16(&seg[2], dport);
  Store32(&seg[4], seq);
  Store32(&seg[8], ack);
  seg[12] = static_cast<uint8_t>((hdrlen / 4) << 4);
  seg[13] = flags;
  Store16(&seg[14], 4096);  // window
  if (mss != 0) {
    seg[20] = 2;  // kind: MSS
    seg[21] = 4;  // length
    Store16(&seg[22], mss);
  }
  ChecksumAccumulator acc;
  acc.AddWord(static_cast<uint16_t>(src.v >> 16));
  acc.AddWord(static_cast<uint16_t>(src.v));
  acc.AddWord(static_cast<uint16_t>(dst.v >> 16));
  acc.AddWord(static_cast<uint16_t>(dst.v));
  acc.AddWord(static_cast<uint16_t>(IpProto::kTcp));
  acc.AddWord(static_cast<uint16_t>(seg.size()));
  acc.Add(seg.data(), seg.size());
  Store16(&seg[16], acc.Finish());
  return seg;
}

class ListenQueueTest : public ::testing::Test {
 protected:
  ListenQueueTest() : w(Config::kInKernel, MachineProfile::DecStation5000()) {}

  TcpLayer* tcp(int i) { return &w.kernel_node(i)->stack()->tcp(); }

  // Injects a segment into host `i`'s stack from a (possibly fictional)
  // on-link source address. Must run on an app fiber.
  void Inject(int i, Ipv4Addr src, uint16_t sport, uint16_t dport, uint32_t seq, uint8_t flags,
              uint16_t mss = 0) {
    Stack* st = w.kernel_node(i)->stack();
    {
      DomainLock lock(st->sync());
      std::vector<uint8_t> seg = BuildSegment(src, w.addr(i), sport, dport, seq, 0, flags, mss);
      TcpTestPeer::Inject(&st->tcp(), Chain::FromVector(seg), src, w.addr(i));
    }
    // The normal receive path kicks the stack's timer fiber after input;
    // direct injection must do the same or the new pcb's timers never run.
    st->Kick();
  }

  TcpPcb* FindListener(int i, uint16_t port) {
    for (const auto& p : tcp(i)->pcbs()) {
      if (p->state == TcpState::kListen && p->local.port == port) {
        return p.get();
      }
    }
    return nullptr;
  }

  TcpPcb* FindByRemote(int i, const SockAddrIn& remote) {
    for (const auto& p : tcp(i)->pcbs()) {
      if (p->state != TcpState::kListen && p->remote == remote) {
        return p.get();
      }
    }
    return nullptr;
  }

  World w;
};

// The slot-leak regression. A flood of SYNs that are never ACKed fills the
// listener's SYN half; each half-open child must give its slot back when the
// connection-establishment timer (kTcpConnEstablishTicks) reaps it, or the
// listener is wedged forever and no client can ever connect again.
TEST_F(ListenQueueTest, EstablishTimerReleasesEmbryonicSlots) {
  // Fictional on-link peers: their SYNs arrive, but they will never answer
  // the SYN-ACK (there is nobody there — the SYN-ACKs die in ARP).
  const Ipv4Addr ghost = Ipv4Addr::FromOctets(10, 0, 200, 1);

  w.SpawnApp(1, "srv", [&] {
    SocketApi* api = w.api(1);
    int lfd = *api->CreateSocket(IpProto::kTcp);
    ASSERT_TRUE(api->Bind(lfd, SockAddrIn{Ipv4Addr::Any(), 5001}).ok());
    ASSERT_TRUE(api->Listen(lfd, 2).ok());  // SYN half: max(1, 3) = 3
    // Accept whatever eventually completes; the fd parks here.
    api->Accept(lfd, nullptr);
  });

  w.SpawnApp(1, "flood", [&] {
    w.sim().current_thread()->SleepFor(Millis(10));
    // Fill the SYN half exactly...
    for (uint16_t k = 0; k < 3; k++) {
      Inject(1, ghost, static_cast<uint16_t>(20000 + k), 5001, 1000 + k, kTcpSyn);
    }
    // ...and one more, which must bounce off the full SYN half.
    Inject(1, ghost, 20099, 5001, 99, kTcpSyn);
  });

  w.sim().RunFor(Seconds(1));
  TcpPcb* listener = FindListener(1, 5001);
  ASSERT_NE(listener, nullptr);
  // The simulation is stopped, so pcbs are read without the domain lock
  // (taking it needs a fiber).
  EXPECT_EQ(listener->syn_backlog, 3);
  EXPECT_EQ(listener->embryonic, 3);
  EXPECT_EQ(w.obs().drops.total(DropReason::kTcpListenOverflow), 1u);

  // The establishment timer (75 s) reaps all three half-open children and
  // must hand their SYN-half slots back.
  w.sim().RunFor(Seconds(80));
  EXPECT_EQ(listener->embryonic, 0) << "reaped embryonic children leaked their listen slots";

  // With the slots released a real client connects; with the leak it is
  // refused until its own establishment timer gives up.
  bool connected = false;
  w.SpawnApp(0, "late-client", [&] {
    SocketApi* api = w.api(0);
    int fd = *api->CreateSocket(IpProto::kTcp);
    Result<void> c = api->Connect(fd, SockAddrIn{w.addr(1), 5001});
    ASSERT_TRUE(c.ok()) << ErrName(c.error());
    connected = true;
    api->Close(fd);
  });
  w.sim().RunFor(Seconds(90));
  EXPECT_TRUE(connected) << "listener never recovered from the SYN flood";
}

// A SYN that refuses to die: as long as the handshake is alive the child
// keeps its slot, and destroying the listener's whole pcb set at teardown
// must not trip the accounting (covered implicitly by World teardown).
TEST_F(ListenQueueTest, SynHalfBoundIsIndependentOfAcceptHalf) {
  const Ipv4Addr ghost = Ipv4Addr::FromOctets(10, 0, 200, 2);

  w.SpawnApp(1, "srv", [&] {
    SocketApi* api = w.api(1);
    int lfd = *api->CreateSocket(IpProto::kTcp);
    ASSERT_TRUE(api->Bind(lfd, SockAddrIn{Ipv4Addr::Any(), 5002}).ok());
    ASSERT_TRUE(api->Listen(lfd, 4).ok());  // accept half 4, SYN half 6
  });
  w.SpawnApp(1, "flood", [&] {
    w.sim().current_thread()->SleepFor(Millis(10));
    for (uint16_t k = 0; k < 8; k++) {
      Inject(1, ghost, static_cast<uint16_t>(21000 + k), 5002, 2000 + k, kTcpSyn);
    }
  });
  w.sim().RunFor(Seconds(1));
  TcpPcb* listener = FindListener(1, 5002);
  ASSERT_NE(listener, nullptr);
  EXPECT_EQ(listener->syn_backlog, 6);
  EXPECT_EQ(listener->embryonic, 6);  // 8 SYNs, 6 admitted
  EXPECT_TRUE(listener->accept_ready.empty());
  EXPECT_EQ(w.obs().drops.total(DropReason::kTcpListenOverflow), 2u);
}

// Listen-path MSS: a peer that advertises an MSS gets it (clamped by the
// route), and a peer that omits the option still gets route-sized segments
// instead of the 536-byte global default — matching the active-open path.
TEST_F(ListenQueueTest, ListenPathMssFollowsRouteWhenOptionAbsent) {
  const Ipv4Addr ghost = Ipv4Addr::FromOctets(10, 0, 200, 3);

  w.SpawnApp(1, "srv", [&] {
    SocketApi* api = w.api(1);
    int lfd = *api->CreateSocket(IpProto::kTcp);
    ASSERT_TRUE(api->Bind(lfd, SockAddrIn{Ipv4Addr::Any(), 5003}).ok());
    ASSERT_TRUE(api->Listen(lfd, 4).ok());
  });
  w.SpawnApp(1, "peers", [&] {
    w.sim().current_thread()->SleepFor(Millis(10));
    Inject(1, ghost, 22001, 5003, 3001, kTcpSyn, /*mss=*/1000);  // small advertised MSS
    Inject(1, ghost, 22002, 5003, 3002, kTcpSyn, /*mss=*/9000);  // larger than the route
    Inject(1, ghost, 22003, 5003, 3003, kTcpSyn);                // no MSS option at all
  });
  w.sim().RunFor(Seconds(1));

  TcpPcb* with_small = FindByRemote(1, SockAddrIn{ghost, 22001});
  TcpPcb* with_large = FindByRemote(1, SockAddrIn{ghost, 22002});
  TcpPcb* without = FindByRemote(1, SockAddrIn{ghost, 22003});
  ASSERT_NE(with_small, nullptr);
  ASSERT_NE(with_large, nullptr);
  ASSERT_NE(without, nullptr);
  EXPECT_EQ(with_small->t_maxseg, 1000);       // peer's advertisement honoured
  EXPECT_EQ(with_large->t_maxseg, kTcpEtherMss);  // clamped to the on-link route
  EXPECT_EQ(without->t_maxseg, kTcpEtherMss)
      << "peer without an MSS option fell back to the global default "
         "instead of the route MSS";
}

}  // namespace
}  // namespace psd
