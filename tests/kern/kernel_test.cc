#include <gtest/gtest.h>

#include "src/base/bytes.h"
#include "src/filter/session_filter.h"
#include "src/kern/host.h"

namespace psd {
namespace {

std::vector<uint8_t> MakeUdpFrame(Ipv4Addr src, Ipv4Addr dst, uint16_t sport, uint16_t dport,
                                  size_t payload = 8) {
  std::vector<uint8_t> f(14 + 20 + 8 + payload, 0);
  Store16(f.data() + 12, kEtherTypeIpv4);
  f[14] = 0x45;
  f[23] = static_cast<uint8_t>(IpProto::kUdp);
  Store32(f.data() + 26, src.v);
  Store32(f.data() + 30, dst.v);
  Store16(f.data() + 34, sport);
  Store16(f.data() + 36, dport);
  // Destination MAC: host id 2.
  MacAddr dst_mac = MacAddr::FromHostId(2);
  std::copy(dst_mac.b.begin(), dst_mac.b.end(), f.begin());
  return f;
}

class KernelTest : public ::testing::Test {
 protected:
  KernelTest()
      : wire(&sim, &obs),
        a(&sim, "a", &prof, &wire, Ipv4Addr::FromOctets(10, 0, 0, 1), 1),
        b(&sim, "b", &prof, &wire, Ipv4Addr::FromOctets(10, 0, 0, 2), 2) {}

  MachineProfile prof = MachineProfile::DecStation5000();
  Observatory obs;
  Simulator sim;
  EthernetSegment wire;
  SimHost a, b;
};

TEST_F(KernelTest, FilterRoutesToQueueEndpoint) {
  PacketQueue* q = b.kernel()->MakeQueueEndpoint("q", 0);
  SessionTuple t{IpProto::kUdp, {b.ip(), 7000}, {}};
  uint64_t id = b.kernel()->InstallFilter(CompileSessionFilter(t), 10,
                                          DeliveryEndpoint{DeliverKind::kShm, q, nullptr});
  ASSERT_NE(id, 0u);

  sim.Spawn("tx", a.cpu(), [&] {
    b.nic();  // silence unused warnings in some configs
    a.kernel()->NetSendFromUser(MakeUdpFrame(a.ip(), b.ip(), 1234, 7000));
  });
  size_t got_len = 0;
  sim.Spawn("rx", b.cpu(), [&] {
    Frame f;
    if (q->Pop(&f, sim.Now() + Seconds(1))) {
      got_len = f.size();
    }
  });
  sim.Run(Seconds(2));
  EXPECT_EQ(got_len, 14u + 20 + 8 + 8);
  EXPECT_EQ(b.kernel()->rx_delivered(), 1u);
}

TEST_F(KernelTest, IndexedDemuxRoutesAmongManySessions) {
  // With several sessions installed (each with its FlowSpec), receive demux
  // resolves via the flow table — one classification, zero program runs —
  // and still lands each frame on the right endpoint.
  constexpr int kSessions = 16;
  std::vector<PacketQueue*> queues;
  for (int i = 0; i < kSessions; i++) {
    PacketQueue* q = b.kernel()->MakeQueueEndpoint("q" + std::to_string(i), 0);
    queues.push_back(q);
    SessionTuple t{IpProto::kUdp, {b.ip(), static_cast<uint16_t>(7000 + i)}, {}};
    FlowSpec flow = SessionFlowSpec(t);
    uint64_t id = b.kernel()->InstallFilter(CompileSessionFilter(t), 10,
                                            DeliveryEndpoint{DeliverKind::kShm, q, nullptr},
                                            &flow);
    ASSERT_NE(id, 0u);
  }
  sim.Spawn("tx", a.cpu(), [&] {
    a.kernel()->NetSendFromUser(MakeUdpFrame(a.ip(), b.ip(), 1234, 7000));
    a.kernel()->NetSendFromUser(MakeUdpFrame(a.ip(), b.ip(), 1234, 7000 + kSessions - 1));
  });
  sim.Run(Seconds(1));
  EXPECT_EQ(queues.front()->size(), 1u);
  EXPECT_EQ(queues.back()->size(), 1u);
  EXPECT_EQ(b.kernel()->rx_delivered(), 2u);
  EXPECT_EQ(b.kernel()->rx_flow_hits(), 2u);
  EXPECT_EQ(b.kernel()->demux_classifies(), 2u);
  // No VM program ran: the flow table resolved both frames.
  EXPECT_EQ(b.kernel()->filter_insns(), 0u);
}

TEST_F(KernelTest, UnmatchedFramesAreDropped) {
  // No filters installed on b at all.
  sim.Spawn("tx", a.cpu(), [&] {
    a.kernel()->NetSendFromUser(MakeUdpFrame(a.ip(), b.ip(), 1, 2));
  });
  sim.Run(Seconds(1));
  EXPECT_EQ(obs.drops.total(DropReason::kNoFilterMatch, obs.journey.Find("b")), 1u);
  EXPECT_EQ(b.kernel()->rx_delivered(), 0u);
}

TEST_F(KernelTest, IpcDeliveryPath) {
  Port port(&sim, &obs, "pkt", PortCosts::PacketDelivery(prof));
  b.kernel()->InstallFilter(CompileCatchAllFilter(), 0,
                            DeliveryEndpoint{DeliverKind::kIpc, nullptr, &port});
  sim.Spawn("tx", a.cpu(), [&] {
    a.kernel()->NetSendFromUser(MakeUdpFrame(a.ip(), b.ip(), 5, 6));
  });
  uint32_t kind = 0;
  sim.Spawn("rx", b.cpu(), [&] {
    IpcMessage m;
    if (port.Receive(&m, sim.Now() + Seconds(1))) {
      kind = m.kind;
    }
  });
  sim.Run(Seconds(2));
  EXPECT_EQ(kind, kMsgPacketDelivery);
}

TEST_F(KernelTest, ShmSignalsBatchWhenConsumerBusy) {
  PacketQueue* q = b.kernel()->MakeQueueEndpoint("ring", prof.shm_signal, 64);
  b.kernel()->InstallFilter(CompileCatchAllFilter(), 0,
                            DeliveryEndpoint{DeliverKind::kShm, q, nullptr});
  sim.Spawn("tx", a.cpu(), [&] {
    for (int i = 0; i < 10; i++) {
      a.kernel()->NetSendFromUser(MakeUdpFrame(a.ip(), b.ip(), 5, 6, 1000));
    }
  });
  int popped = 0;
  sim.Spawn("rx", b.cpu(), [&] {
    SimThread* self = sim.current_thread();
    // Consumer shows up after the train has queued: it drains the whole
    // ring with at most one wakeup.
    self->SleepFor(Millis(100));
    Frame f;
    while (q->Pop(&f, sim.Now() + Millis(500))) {
      popped++;
    }
  });
  sim.Run(Seconds(5));
  EXPECT_EQ(popped, 10);
  // The whole train cost at most one wakeup signal: the amortization the
  // paper measures ("multiple packets with a single wakeup").
  EXPECT_LE(q->signals(), 1u);
}

TEST_F(KernelTest, RingOverflowDrops) {
  PacketQueue* q = b.kernel()->MakeQueueEndpoint("tiny", 0, /*capacity=*/2);
  b.kernel()->InstallFilter(CompileCatchAllFilter(), 0,
                            DeliveryEndpoint{DeliverKind::kShm, q, nullptr});
  sim.Spawn("tx", a.cpu(), [&] {
    for (int i = 0; i < 6; i++) {
      a.kernel()->NetSendFromUser(MakeUdpFrame(a.ip(), b.ip(), 5, 6));
    }
  });
  sim.Run(Seconds(1));  // nobody consumes
  EXPECT_EQ(q->size(), 2u);
  EXPECT_EQ(obs.drops.total(DropReason::kQueueOverflow, q->node()), 4u);
}

TEST_F(KernelTest, WireFaultInjectionDropsFrames) {
  FaultPlan faults;
  faults.loss_rate = 1.0;  // drop everything
  wire.SetFaults(faults);
  PacketQueue* q = b.kernel()->MakeQueueEndpoint("q", 0);
  b.kernel()->InstallFilter(CompileCatchAllFilter(), 0,
                            DeliveryEndpoint{DeliverKind::kShm, q, nullptr});
  sim.Spawn("tx", a.cpu(), [&] {
    a.kernel()->NetSendFromUser(MakeUdpFrame(a.ip(), b.ip(), 5, 6));
  });
  sim.Run(Seconds(1));
  EXPECT_EQ(obs.drops.total(DropReason::kWireFault, obs.journey.Find("wire")), 1u);
  EXPECT_EQ(b.nic()->rx_frames(), 0u);
}

TEST_F(KernelTest, WireSerializesAtLineRate) {
  // A 1518-byte frame takes (1518+4)*800ns on the wire.
  PacketQueue* q = b.kernel()->MakeQueueEndpoint("q", 0);
  b.kernel()->InstallFilter(CompileCatchAllFilter(), 0,
                            DeliveryEndpoint{DeliverKind::kShm, q, nullptr});
  SimTime t0 = 0;
  sim.Spawn("tx", a.cpu(), [&] {
    t0 = sim.Now();
    a.kernel()->NetSendFromUser(MakeUdpFrame(a.ip(), b.ip(), 5, 6, 1476));
  });
  SimTime arrival = 0;
  sim.Spawn("rx", b.cpu(), [&] {
    Frame f;
    if (q->Pop(&f, sim.Now() + Seconds(1))) {
      arrival = sim.Now();
    }
  });
  sim.Run(Seconds(2));
  ASSERT_GT(arrival, 0);
  EXPECT_GE(arrival - t0, (1518 + 4) * Nanos(800));
}

}  // namespace
}  // namespace psd
