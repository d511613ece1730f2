// TCP correctness under adverse network conditions: loss, duplication,
// reordering, and combinations — the byte stream must arrive intact and in
// order regardless. Runs on the in-kernel placement (the protocol code is
// identical in all placements).
#include <gtest/gtest.h>

#include <numeric>

#include "src/testbed/world.h"

namespace psd {
namespace {

struct TransferResult {
  bool ok = false;
  uint64_t retransmits = 0;
  uint64_t fast_retransmits = 0;
  uint64_t out_of_order = 0;
};

// Transfers `total` patterned bytes under the given fault plan and verifies
// content integrity end to end.
TransferResult Transfer(const FaultPlan& faults, size_t total, SimDuration deadline = Seconds(300)) {
  World w(Config::kInKernel, MachineProfile::DecStation5000());
  w.wire().SetFaults(faults);
  TransferResult result;
  bool content_ok = true;

  w.SpawnApp(1, "rx", [&] {
    SocketApi* api = w.api(1);
    int lfd = *api->CreateSocket(IpProto::kTcp);
    api->SetOpt(lfd, SockOpt::kRcvBuf, 16 * 1024);
    api->Bind(lfd, SockAddrIn{Ipv4Addr::Any(), 5001});
    api->Listen(lfd, 1);
    Result<int> cfd = api->Accept(lfd, nullptr);
    if (!cfd.ok()) {
      return;
    }
    size_t got = 0;
    uint8_t buf[4096];
    for (;;) {
      Result<size_t> n = api->Recv(*cfd, buf, sizeof(buf), nullptr, false);
      if (!n.ok() || *n == 0) {
        break;
      }
      for (size_t i = 0; i < *n; i++) {
        if (buf[i] != static_cast<uint8_t>((got + i) % 253)) {
          content_ok = false;
        }
      }
      got += *n;
    }
    result.ok = content_ok && got == total;
    api->Close(*cfd);
    api->Close(lfd);
  });
  w.SpawnApp(0, "tx", [&] {
    SocketApi* api = w.api(0);
    int fd = *api->CreateSocket(IpProto::kTcp);
    w.sim().current_thread()->SleepFor(Millis(5));
    if (!api->Connect(fd, SockAddrIn{w.addr(1), 5001}).ok()) {
      return;
    }
    std::vector<uint8_t> data(total);
    for (size_t i = 0; i < total; i++) {
      data[i] = static_cast<uint8_t>(i % 253);
    }
    size_t sent = 0;
    while (sent < total) {
      Result<size_t> n = api->Send(fd, data.data() + sent, total - sent, nullptr);
      if (!n.ok()) {
        return;
      }
      sent += *n;
    }
    api->Close(fd);
  });
  w.sim().Run(deadline);
  const TcpStats& tx = w.kernel_node(0)->stack()->tcp().stats();
  const TcpStats& rx = w.kernel_node(1)->stack()->tcp().stats();
  result.retransmits = tx.retransmits;
  result.fast_retransmits = tx.fast_retransmits;
  result.out_of_order = rx.out_of_order;
  return result;
}

TEST(TcpRobustness, LosslessBaseline) {
  TransferResult r = Transfer(FaultPlan{}, 100 * 1024);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.retransmits, 0u);
}

TEST(TcpRobustness, SurvivesPacketLoss) {
  FaultPlan faults;
  faults.loss_rate = 0.02;
  faults.seed = 7;
  TransferResult r = Transfer(faults, 100 * 1024);
  EXPECT_TRUE(r.ok);
  EXPECT_GT(r.retransmits, 0u);
}

TEST(TcpRobustness, SurvivesHeavyLoss) {
  FaultPlan faults;
  faults.loss_rate = 0.10;
  faults.seed = 11;
  TransferResult r = Transfer(faults, 30 * 1024, Seconds(600));
  EXPECT_TRUE(r.ok);
}

TEST(TcpRobustness, SurvivesDuplication) {
  FaultPlan faults;
  faults.dup_rate = 0.2;
  faults.seed = 3;
  TransferResult r = Transfer(faults, 60 * 1024);
  EXPECT_TRUE(r.ok);
}

TEST(TcpRobustness, SurvivesReordering) {
  FaultPlan faults;
  faults.delay_rate = 0.15;
  faults.extra_delay = Millis(8);
  faults.seed = 5;
  TransferResult r = Transfer(faults, 60 * 1024);
  EXPECT_TRUE(r.ok);
  EXPECT_GT(r.out_of_order, 0u);
}

TEST(TcpRobustness, SurvivesEverythingAtOnce) {
  FaultPlan faults;
  faults.loss_rate = 0.03;
  faults.dup_rate = 0.05;
  faults.delay_rate = 0.08;
  faults.extra_delay = Millis(6);
  faults.seed = 13;
  TransferResult r = Transfer(faults, 50 * 1024, Seconds(600));
  EXPECT_TRUE(r.ok);
}

TEST(TcpRobustness, FastRetransmitTriggersUnderMildLoss) {
  FaultPlan faults;
  faults.loss_rate = 0.01;
  faults.seed = 21;
  TransferResult r = Transfer(faults, 300 * 1024, Seconds(600));
  EXPECT_TRUE(r.ok);
  EXPECT_GT(r.fast_retransmits, 0u)
      << "a lost data segment inside a window should recover via 3 dup ACKs";
}

TEST(TcpRobustness, ConnectTimesOutWhenPeerUnreachable) {
  FaultPlan faults;
  faults.loss_rate = 1.0;  // black hole
  World w(Config::kInKernel, MachineProfile::DecStation5000());
  w.wire().SetFaults(faults);
  Err err = Err::kOk;
  w.SpawnApp(0, "tx", [&] {
    SocketApi* api = w.api(0);
    int fd = *api->CreateSocket(IpProto::kTcp);
    Result<void> r = api->Connect(fd, SockAddrIn{w.addr(1), 5001});
    err = r.error();
  });
  w.sim().Run(Seconds(200));
  EXPECT_EQ(err, Err::kTimedOut);
}

TEST(TcpRobustness, ListenBacklogLimitsPendingConnections) {
  DropLedger::Get().Reset();
  World w(Config::kInKernel, MachineProfile::DecStation5000());
  int established = 0;
  w.SpawnApp(1, "listener", [&] {
    SocketApi* api = w.api(1);
    int lfd = *api->CreateSocket(IpProto::kTcp);
    api->Bind(lfd, SockAddrIn{Ipv4Addr::Any(), 5001});
    api->Listen(lfd, 2);
    // Never accepts: the accept queue must cap at the backlog.
    w.sim().current_thread()->SleepFor(Seconds(400));
  });
  for (int i = 0; i < 4; i++) {
    w.SpawnApp(0, "c" + std::to_string(i), [&, i] {
      SocketApi* api = w.api(0);
      int fd = *api->CreateSocket(IpProto::kTcp);
      w.sim().current_thread()->SleepFor(Millis(10 + i));
      if (api->Connect(fd, SockAddrIn{w.addr(1), 5001}).ok()) {
        established++;
      }
    });
  }
  w.sim().Run(Seconds(300));
  // BSD sonewconn semantics: the combined population of embryonic plus
  // accept-ready children is bounded at SYN admission by 3 * backlog / 2
  // (here 3). The first three handshakes are admitted and — since an
  // admitted handshake is never refused at completion — all three
  // establish. The fourth SYN finds the listener full and is dropped, so
  // that client's connect times out.
  EXPECT_EQ(established, 3);
  // Every refused SYN (including retransmits) is ledgered.
  EXPECT_GE(DropLedger::Get().total(DropReason::kTcpListenOverflow), 1u);
  // The admitted children all completed their handshakes, so the listener
  // holds exactly syn_backlog accept-ready children and no embryonic ones.
  // The simulation is stopped, so no domain lock (that needs a fiber).
  Stack* server = w.stack(1);
  TcpPcb* listener = nullptr;
  for (const auto& pcb : server->tcp().pcbs()) {
    if (pcb->state == TcpState::kListen) {
      listener = pcb.get();
    }
  }
  ASSERT_NE(listener, nullptr);
  EXPECT_EQ(listener->embryonic, 0);
  EXPECT_EQ(static_cast<int>(listener->accept_ready.size()), 3);
}

}  // namespace
}  // namespace psd
