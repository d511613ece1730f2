// A slow tick that only counts down runs in event context, inside the
// timer thread's own timeout event, with no switch onto the thread. It
// makes the same two sync-pair charges the thread would, and every other
// slow tick still wakes the thread: one that fires a timer, one that finds
// the domain lock held or another event due before its charges end, and
// one that finds a pcb ESTABLISHED since the wait began.
#include <gtest/gtest.h>

#include "src/inet/stack_env.h"
#include "src/testbed/world.h"

namespace psd {
namespace {

// Host 0 closes first and holds its pcb in TIME_WAIT for 2MSL (120 slow
// ticks); host 1's pcbs are gone within 5 s, and nothing else in the world
// runs. Host 0's timer thread then waits for one slow tick after another.
class TimeWaitHost : public ::testing::Test {
 protected:
  void SetUp() override {
    w_.SeedStaticArp();
    w_.SpawnApp(1, "rx", [this] {
      SocketApi* api = w_.api(1);
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
    w_.SpawnApp(0, "tx", [this] {
      SocketApi* api = w_.api(0);
      int fd = *api->CreateSocket(IpProto::kTcp);
      w_.sim().current_thread()->SleepFor(Millis(5));
      ASSERT_TRUE(api->Connect(fd, SockAddrIn{w_.addr(1), 5001}).ok());
      api->Close(fd);
    });
    w_.sim().Run(Seconds(5));
    ASSERT_EQ(w_.stack(0)->tcp().pcbs().size(), 1u);
    pcb_ = w_.stack(0)->tcp().pcbs()[0].get();
    ASSERT_EQ(pcb_->state, TcpState::kTimeWait);
    ASSERT_TRUE(w_.stack(1)->tcp().pcbs().empty());
    pair_ = w_.stack(0)->sync()->pair_cost();
    ASSERT_GT(pair_, 0);
    // An idle tick's two sync-pair charges are the last CPU host 0 spent,
    // ending two pairs after the tick: that pins the slow grid.
    w_.sim().Run(Seconds(5) + Millis(500));
    tick_ = cpu()->free_at() - 2 * pair_;
  }

  HostCpu* cpu() { return w_.host(0)->cpu(); }
  uint64_t switches() { return w_.sim().thread_switches(); }

  // Runs from halfway before the next slow tick to halfway after it.
  void RunOneTick() {
    tick_ += Millis(500);
    w_.sim().Run(tick_ + Millis(250));
  }

  World w_{Config::kInKernel, MachineProfile::DecStation5000()};
  TcpPcb* pcb_ = nullptr;
  SimDuration pair_ = 0;
  SimTime tick_ = 0;  // the slow tick last run on host 0
};

// No segment reaches the pcb in TIME_WAIT, so t_idle counts every tick
// since it began, and the 2MSL timer closes it at exactly the 120th. Each
// tick before that costs two sync pairs and no thread switch.
TEST_F(TimeWaitHost, CountsDownInEventContextAndClosesAtTick120) {
  ASSERT_EQ(pcb_->t_idle + pcb_->t_timer[TcpPcb::kTimer2Msl], 120);
  int idle_ticks = 0;
  while (pcb_->t_timer[TcpPcb::kTimer2Msl] > 1) {
    const SimDuration busy = cpu()->busy();
    const uint64_t before = switches();
    const int idle = pcb_->t_idle;
    RunOneTick();
    ASSERT_EQ(switches(), before) << "idle tick " << idle_ticks;
    ASSERT_EQ(cpu()->busy() - busy, 2 * pair_);
    ASSERT_EQ(pcb_->t_idle, idle + 1);
    ASSERT_EQ(pcb_->t_idle + pcb_->t_timer[TcpPcb::kTimer2Msl], 120);
    idle_ticks++;
  }
  EXPECT_GT(idle_ticks, 100);
  ASSERT_EQ(pcb_->state, TcpState::kTimeWait);
  const uint64_t before = switches();
  RunOneTick();
  EXPECT_EQ(switches(), before + 1) << "a tick that fires a timer wakes the thread";
  EXPECT_EQ(pcb_->state, TcpState::kClosed);
  EXPECT_EQ(pcb_->t_idle, 120);
}

// An event queued at or before the tick's second charge ends (end2, two
// pairs after the tick) would run in between: the thread wakes and takes
// that event in turn. One just after end2 leaves the tick in event context.
TEST_F(TimeWaitHost, EventDueBeforeTheChargesEndWakesTheThread) {
  for (SimDuration at : {SimDuration{0}, pair_, 2 * pair_}) {
    w_.sim().Schedule(tick_ + Millis(500) + at, [] {});
    const uint64_t before = switches();
    const SimDuration busy = cpu()->busy();
    RunOneTick();
    EXPECT_EQ(switches(), before + 1) << "event at tick + " << at;
    EXPECT_EQ(cpu()->busy() - busy, 2 * pair_);
  }
  w_.sim().Schedule(tick_ + Millis(500) + 2 * pair_ + 1, [] {});
  const uint64_t before = switches();
  RunOneTick();
  EXPECT_EQ(switches(), before);
}

// A thread holding the domain lock across the tick: the timer thread wakes
// and queues for the lock. Four switches into fibers: the holder's start;
// the holder's sleep pops the tick's timeout and hands off to the timer
// thread; the timer thread blocks on the lock and its loop pops the
// holder's wakeup; the holder unlocks and exits, and its last loop pops the
// timer thread's wakeup. The timer thread then waits with nothing left to
// run and switches to Run's caller, which is not counted.
TEST_F(TimeWaitHost, HeldDomainLockWakesTheThread) {
  const SimTime next = tick_ + Millis(500);
  const int idle = pcb_->t_idle;
  const uint64_t before = switches();
  w_.SpawnApp(0, "holder", [this, next] {
    SimThread* self = w_.sim().current_thread();
    self->SleepUntil(next - Millis(100));
    DomainLock lock(w_.stack(0)->sync());
    self->SleepUntil(next + Millis(100));
  });
  RunOneTick();
  EXPECT_EQ(switches(), before + 4);
  EXPECT_EQ(pcb_->t_idle, idle + 1);
  // The grid is unchanged: the next tick is idle again.
  const uint64_t after = switches();
  RunOneTick();
  EXPECT_EQ(switches(), after);
  EXPECT_EQ(pcb_->t_idle, idle + 2);
}

// The first SYN-ACK is lost, so the client's only pcb sits in SYN_SENT and
// its timer thread waits for slow ticks alone. The SYN retransmit's SYN-ACK
// then makes the pcb ESTABLISHED during such a wait, with no delayed ACK to
// wake the thread. The next tick must still wake it: from then on it visits
// the fast grid as well, six wakes a second (five 200 ms points and two
// 500 ms ticks, one of them shared) of two sync pairs each.
TEST(IdleSlowTick, PcbEstablishedDuringTheWaitWakesTheThread) {
  World w(Config::kInKernel, MachineProfile::DecStation5000());
  w.SeedStaticArp();
  FaultPlan plan;
  plan.partitions.push_back(LinkPartition{1, 0, 0, Seconds(1)});  // server -> client
  w.wire().SetFaults(plan);
  bool established = false;
  w.SpawnApp(1, "server", [&] {
    SocketApi* api = w.api(1);
    int lfd = *api->CreateSocket(IpProto::kTcp);
    ASSERT_TRUE(api->Bind(lfd, SockAddrIn{Ipv4Addr::Any(), 5002}).ok());
    ASSERT_TRUE(api->Listen(lfd, 1).ok());
    ASSERT_TRUE(api->Accept(lfd, nullptr).ok());
    w.sim().current_thread()->SleepFor(Seconds(30));
  });
  w.SpawnApp(0, "client", [&] {
    SocketApi* api = w.api(0);
    int fd = *api->CreateSocket(IpProto::kTcp);
    w.sim().current_thread()->SleepFor(Millis(10));
    ASSERT_TRUE(api->Connect(fd, SockAddrIn{w.addr(1), 5002}).ok());
    established = true;
    w.sim().current_thread()->SleepFor(Seconds(30));
  });
  w.sim().Run(Seconds(5));
  ASSERT_TRUE(established);
  ASSERT_EQ(w.stack(0)->tcp().stats().acks_delayed, 0u);
  const SimDuration pair = w.stack(0)->sync()->pair_cost();
  HostCpu* cpu = w.host(0)->cpu();
  const SimDuration busy = cpu->busy();
  w.sim().Run(Seconds(7));
  EXPECT_EQ(cpu->busy() - busy, 2 * 6 * 2 * pair);
}

}  // namespace
}  // namespace psd
