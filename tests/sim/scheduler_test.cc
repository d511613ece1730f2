// Scheduler-focused regression tests: (time, seq) ordering across
// microsecond-to-second time scales, inserts from event context, scheduling
// after an idle Run(until), past-time clamping, the self-wakeup queue skip,
// direct hand-offs between fibers, wait-queue intrusive-list integrity and
// timed waits' deadline hooks. The replay harness (replay_ab_test.cc)
// covers whole-system determinism; these pin down the scheduler primitives
// it rests on.
#include <gtest/gtest.h>

#include <deque>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/simulator.h"

namespace psd {
namespace {

// Two reference times that split the cases into short (protocol fast-path),
// medium and long (protocol-timer) scales: 2^22 ns (~4.19 ms) and 2^32 ns
// (~4.29 s).
constexpr SimTime kShortHorizon = SimTime{1} << 22;
constexpr SimTime kLongHorizon = SimTime{1} << 32;

TEST(Scheduler, OrderingAcrossTimeScales) {
  // Times below, between and past the two reference times, inserted in
  // shuffled order; execution must come back globally sorted with ties in
  // schedule order.
  Simulator sim;
  std::vector<SimTime> times;
  for (int i = 0; i < 64; i++) {
    times.push_back(Micros(1) + i * (kShortHorizon / 97));          // short
    times.push_back(kShortHorizon + i * (kLongHorizon / 131));      // medium
    times.push_back(kLongHorizon + Seconds(1) + i * Millis(37));    // long
  }
  std::mt19937 rng(42);
  std::shuffle(times.begin(), times.end(), rng);

  std::vector<SimTime> fired;
  for (SimTime t : times) {
    sim.Schedule(t, [&fired, &sim] { fired.push_back(sim.Now()); });
  }
  sim.Run();

  std::sort(times.begin(), times.end());
  EXPECT_EQ(fired, times);
}

TEST(Scheduler, InsertFromEventContextInterleaves) {
  // Events scheduled from inside an event, one just after it and one past a
  // reference time, must interleave exactly with events queued earlier.
  Simulator sim;
  std::vector<int> order;
  const SimTime near_edge = kShortHorizon - Micros(2);
  sim.Schedule(near_edge, [&] {
    order.push_back(1);
    // Past the reference time.
    sim.Schedule(kShortHorizon + Micros(2), [&] { order.push_back(3); });
    // Before it, later than now.
    sim.Schedule(near_edge + Micros(1), [&] { order.push_back(2); });
  });
  sim.Schedule(kShortHorizon + Micros(5), [&] { order.push_back(4); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(Scheduler, DistantEventsInterleaveWithLaterNearTermInserts) {
  // Long protocol-timer territory: events seconds away must still
  // interleave exactly with near-term events scheduled later.
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(kLongHorizon + Seconds(3), [&] { order.push_back(4); });
  sim.Schedule(kLongHorizon + Seconds(2), [&] {
    order.push_back(2);
    // Scheduled from deep-future context; lands after this instant.
    sim.Schedule(sim.Now() + Micros(1), [&] { order.push_back(3); });
  });
  sim.Schedule(Millis(1), [&] { order.push_back(1); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(Scheduler, RewindAfterIdleGap) {
  // Run(until) advances the clock across an idle stretch; an insert just
  // after the new Now() must still run.
  Simulator sim;
  sim.Run(Seconds(2));  // no events: the clock jumps to the deadline
  ASSERT_EQ(sim.Now(), Seconds(2));
  bool ran = false;
  sim.Schedule(Seconds(2) + Micros(3), [&] { ran = true; });
  sim.Run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim.Now(), Seconds(2) + Micros(3));
}

TEST(Simulator, PastTimeScheduleClampsToNow) {
  // Scheduling behind the clock clamps to Now() and runs in schedule order
  // after everything already queued at this instant — and is counted, since
  // a past-time schedule is almost always a component bug worth surfacing.
  Simulator sim;
  std::vector<int> order;
  ASSERT_EQ(sim.past_time_clamps(), 0u);
  sim.Schedule(Millis(1), [&] {
    sim.Schedule(sim.Now(), [&] { order.push_back(1); });    // queued at now
    sim.Schedule(sim.Now() - Micros(500), [&] {              // the clamp
      order.push_back(2);
      EXPECT_EQ(sim.Now(), Millis(1));
    });
  });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.past_time_clamps(), 1u);
  EXPECT_EQ(sim.Now(), Millis(1));
}

// --- Self-wakeup queue skip (Simulator::CanElideWakeup/ElideWakeup) --------

// Counter snapshot around one blocking call inside a thread.
struct Counters {
  uint64_t events;
  uint64_t elided;
  uint64_t clamps;
  SimTime now;
};

Counters Snap(const Simulator& sim) {
  return {sim.events_executed(), sim.elided_wakeups(), sim.past_time_clamps(), sim.Now()};
}

TEST(SelfWakeup, LoneChargeSkipsTheQueue) {
  Simulator sim;
  HostCpu cpu;
  Counters before{}, after{};
  sim.Spawn("t", &cpu, [&] {
    before = Snap(sim);
    sim.current_thread()->Charge(Micros(5));
    after = Snap(sim);
  });
  sim.Run();
  EXPECT_EQ(after.elided, before.elided + 1);
  EXPECT_EQ(after.events, before.events + 1) << "a skipped wakeup is still an event";
  EXPECT_EQ(after.now, before.now + Micros(5));
  EXPECT_EQ(sim.elided_wakeups(), 1u);
  EXPECT_EQ(sim.past_time_clamps(), 0u);
}

TEST(SelfWakeup, PendingEventAtTheSameTimeRunsFirst) {
  // An event already queued at the wakeup time has a lower seq, so it must
  // run before the thread continues: no skip. A strictly later event does
  // not block the skip.
  Simulator sim;
  HostCpu cpu;
  std::vector<int> order;
  Counters mid{}, end{};
  sim.Spawn("t", &cpu, [&] {
    sim.Schedule(sim.Now() + Micros(5), [&] { order.push_back(1); });
    sim.current_thread()->SleepFor(Micros(5));
    order.push_back(2);
    mid = Snap(sim);
    sim.Schedule(sim.Now() + Micros(10), [&] { order.push_back(4); });
    sim.current_thread()->SleepFor(Micros(5));
    order.push_back(3);
    end = Snap(sim);
  });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(mid.elided, 0u);
  EXPECT_EQ(mid.now, Micros(5));
  EXPECT_EQ(end.elided, 1u);
  EXPECT_EQ(end.events, mid.events + 1);
  EXPECT_EQ(end.now, Micros(10));
}

TEST(SelfWakeup, WakeupPastTheDeadlineParks) {
  Simulator sim;
  HostCpu cpu;
  bool woke = false;
  sim.Spawn("t", &cpu, [&] {
    sim.current_thread()->SleepFor(Micros(20));
    woke = true;
  });
  sim.Run(Micros(10));
  EXPECT_FALSE(woke);
  EXPECT_EQ(sim.Now(), Micros(10));
  EXPECT_EQ(sim.elided_wakeups(), 0u);
  sim.Run();
  EXPECT_TRUE(woke);
  EXPECT_EQ(sim.Now(), Micros(20));
}

TEST(SelfWakeup, NothingIsSkippedAfterStop) {
  Simulator sim;
  HostCpu cpu;
  bool woke = false;
  sim.Spawn("t", &cpu, [&] {
    sim.Stop();
    sim.current_thread()->Charge(Micros(5));
    woke = true;
  });
  sim.Run();
  EXPECT_FALSE(woke) << "a stopped Run must not let the thread continue";
  EXPECT_EQ(sim.Now(), 0);
  EXPECT_EQ(sim.elided_wakeups(), 0u);
  sim.Run();
  EXPECT_TRUE(woke);
  EXPECT_EQ(sim.Now(), Micros(5));
}

TEST(SelfWakeup, YieldBehindTheReadyFifoIsNotSkipped) {
  Simulator sim;
  HostCpu cpu;
  std::vector<int> order;
  Counters alone{}, behind{};
  sim.Spawn("t", &cpu, [&] {
    sim.current_thread()->Yield();  // nothing else at Now(): skipped
    alone = Snap(sim);
    sim.Schedule(sim.Now(), [&] { order.push_back(1); });
    sim.current_thread()->Yield();  // the ready event runs first
    order.push_back(2);
    behind = Snap(sim);
  });
  sim.Run();
  EXPECT_EQ(alone.elided, 1u);
  EXPECT_EQ(alone.now, 0);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(behind.elided, 1u);
  EXPECT_EQ(behind.events, alone.events + 2);
}

TEST(SelfWakeup, PastTimeTargetIsCountedOnce) {
  // Whether the wakeup skips the queue or not, a target behind the clock
  // is one clamp.
  Simulator sim;
  HostCpu cpu;
  Counters skipped{}, queued{};
  sim.Spawn("t", &cpu, [&] {
    sim.current_thread()->SleepFor(Micros(10));
    sim.current_thread()->SleepUntil(sim.Now() - Micros(3));
    skipped = Snap(sim);
    sim.Schedule(sim.Now(), [] {});
    sim.current_thread()->SleepUntil(sim.Now() - Micros(3));
    queued = Snap(sim);
  });
  sim.Run();
  EXPECT_EQ(skipped.clamps, 1u);
  EXPECT_EQ(skipped.elided, 2u);
  EXPECT_EQ(skipped.now, Micros(10));
  EXPECT_EQ(queued.clamps, 2u);
  EXPECT_EQ(queued.elided, 2u);
  EXPECT_EQ(queued.now, Micros(10));
}

TEST(SelfWakeup, EventContextElisionMatchesTheThreadsOwn) {
  // An event standing in for a sleeping thread makes the same move the
  // thread's SleepUntil would: the same clock, event count and elision.
  Simulator sim;
  bool blocked = true;
  bool elided = false;
  sim.Schedule(Micros(10), [&] {
    sim.Schedule(Micros(30), [] {});
    blocked = sim.CanElideWakeup(Micros(30));  // an equal-time event runs first
    elided = sim.CanElideWakeup(Micros(29));
    sim.ElideWakeup(Micros(29));
  });
  sim.Run();
  EXPECT_FALSE(blocked);
  EXPECT_TRUE(elided);
  EXPECT_EQ(sim.elided_wakeups(), 1u);
  EXPECT_EQ(sim.events_executed(), 3u);
  EXPECT_EQ(sim.Now(), Micros(30));
  EXPECT_FALSE(sim.CanElideWakeup(Micros(40))) << "outside Run nothing is elided";
}

// --- Hand-offs between fibers --------------------------------------------

// The chain pattern of a connection storm: each woken fiber wakes the next
// and then charges, so every charge is still running when the next fiber
// wakes. Each hand-off is one switch, straight from the fiber that pops the
// wakeup into the fiber it wakes, however deep the chain.
TEST(HandOff, OneSwitchPerHandOffAtAnyChainDepth) {
  constexpr int kFibers = 64;
  Simulator sim;
  std::vector<HostCpu> cpus(kFibers);
  std::deque<WaitQueue> queues;
  for (int i = 0; i < kFibers; i++) {
    queues.emplace_back(&sim);
  }
  std::vector<std::pair<int, SimTime>> order;  // (fiber, time); fiber + 100 at its end
  for (int i = 0; i < kFibers; i++) {
    sim.Spawn("link" + std::to_string(i), &cpus[i], [&, i] {
      sim.current_thread()->WaitOn(&queues[i]);
      order.emplace_back(i, sim.Now());
      if (i + 1 < kFibers) {
        queues[i + 1].NotifyOne();
      }
      sim.current_thread()->Charge(Micros(10));
      order.emplace_back(i + 100, sim.Now());
    });
  }
  sim.Schedule(Millis(1), [&] { queues[0].NotifyOne(); });

  // Up to the middle of the charges: N starts (each start's wait pops the
  // next start) and the N hand-offs of the chain, the first from the loop
  // that runs the kick; one switch each. A nested drain entered each fiber
  // and later switched back out of it: two stack switches per hand-off.
  sim.Run(Millis(1) + Micros(5));
  std::vector<std::pair<int, SimTime>> want;
  for (int i = 0; i < kFibers; i++) {
    want.emplace_back(i, Millis(1));
  }
  EXPECT_EQ(order, want);
  EXPECT_EQ(sim.thread_switches(), uint64_t{2 * kFibers}) << "N starts + N hand-offs";

  // The charges end in wakeup order: the loop that finds nothing left before
  // the deadline went to Run's caller, which now pops the first charge end;
  // each fiber then exits and its last loop pops the next one.
  sim.Run();
  for (int i = 0; i < kFibers; i++) {
    want.emplace_back(i + 100, Millis(1) + Micros(10));
  }
  EXPECT_EQ(order, want);
  EXPECT_EQ(sim.thread_switches(), uint64_t{3 * kFibers}) << "and one per charge end";
  EXPECT_EQ(sim.events_executed(), uint64_t{3 * kFibers + 1});
  EXPECT_EQ(sim.elided_wakeups(), 0u);
}

TEST(WaitQueue, TimeoutRemovesFromMiddleOfQueue) {
  // Three waiters; the middle one times out first. The intrusive list must
  // unlink it cleanly and keep FIFO order for the survivors.
  Simulator sim;
  HostCpu cpu;
  WaitQueue q(&sim);
  std::vector<int> woken;
  auto waiter = [&](int id, SimTime deadline) {
    sim.Spawn("w" + std::to_string(id), &cpu, [&, id, deadline] {
      bool notified = sim.current_thread()->WaitOn(&q, deadline);
      woken.push_back(notified ? id : -id);
    });
  };
  waiter(1, kTimeNever);
  waiter(2, Millis(1));  // times out before the notify below
  waiter(3, kTimeNever);
  sim.Schedule(Millis(5), [&] { q.NotifyAll(); });
  sim.Run();
  EXPECT_EQ(woken, (std::vector<int>{-2, 1, 3}));
  EXPECT_TRUE(q.empty());
}

TEST(WaitQueue, NotifyInvalidatesPendingTimeout) {
  // A notify before the deadline must cancel the timeout event: when the
  // stale event fires, the thread may already be waiting again.
  Simulator sim;
  HostCpu cpu;
  WaitQueue q(&sim);
  std::vector<bool> results;
  sim.Spawn("w", &cpu, [&] {
    results.push_back(sim.current_thread()->WaitOn(&q, sim.Now() + Millis(2)));
    results.push_back(sim.current_thread()->WaitOn(&q, sim.Now() + Millis(10)));
  });
  sim.Schedule(Millis(1), [&] { q.NotifyOne(); });  // beats the 2ms deadline
  sim.Schedule(Millis(4), [&] { q.NotifyOne(); });  // after the stale event
  sim.Run();
  EXPECT_EQ(results, (std::vector<bool>{true, true}));
}

// --- Deadline hooks on timed waits -------------------------------------------

// A hook that re-arms three times runs in event context at each deadline,
// keeps the thread parked (no switch into it) and then lets the wait time
// out at the fourth.
TEST(DeadlineHook, RearmsThenTimesOut) {
  Simulator sim;
  HostCpu cpu;
  WaitQueue q(&sim);
  std::vector<SimTime> ran;
  const SimThread::DeadlineHook hook = [&]() -> std::optional<SimTime> {
    EXPECT_EQ(sim.current_thread(), nullptr);
    ran.push_back(sim.Now());
    if (ran.size() == 4) {
      return std::nullopt;
    }
    return sim.Now() + Millis(1);
  };
  bool notified = true;
  SimTime woke = 0;
  sim.Spawn("w", &cpu, [&] {
    notified = sim.current_thread()->WaitOn(&q, Millis(1), &hook);
    woke = sim.Now();
  });
  sim.Run();
  EXPECT_EQ(ran, (std::vector<SimTime>{Millis(1), Millis(2), Millis(3), Millis(4)}));
  EXPECT_FALSE(notified);
  EXPECT_EQ(woke, Millis(4));
  // One switch, the start. The wait's dispatch loop runs on the thread's
  // own stack: it pops every deadline itself, and the timeout hands the
  // thread back to that loop with no switch. Exiting finds nothing to run
  // and switches to Run's caller, which is not a switch into a fiber.
  EXPECT_EQ(sim.thread_switches(), 1u) << "the start, nothing per re-arm or for the timeout";
  EXPECT_EQ(sim.events_executed(), 5u);
  EXPECT_TRUE(q.empty());
}

// A notify during a re-armed wait wakes the thread at the notify instant,
// and the wait's pending deadline never runs the hook again.
TEST(DeadlineHook, NotifyDuringRearmedWaitWakesAtOnce) {
  Simulator sim;
  HostCpu cpu;
  WaitQueue q(&sim);
  int hooks = 0;
  const SimThread::DeadlineHook hook = [&]() -> std::optional<SimTime> {
    hooks++;
    return sim.Now() + Millis(1);
  };
  bool notified = false;
  SimTime woke = 0;
  sim.Spawn("w", &cpu, [&] {
    notified = sim.current_thread()->WaitOn(&q, Millis(1), &hook);
    woke = sim.Now();
  });
  sim.Schedule(Millis(2) + Micros(500), [&] { EXPECT_TRUE(q.NotifyOne()); });
  sim.Run();
  EXPECT_TRUE(notified);
  EXPECT_EQ(woke, Millis(2) + Micros(500));
  EXPECT_EQ(hooks, 2);
  EXPECT_EQ(sim.Now(), Millis(3)) << "the stale deadline still runs, as an empty event";
}

// After a notify, the first wait's deadline is stale: it must neither run
// that wait's hook nor time out the thread's next wait on the same queue.
TEST(DeadlineHook, StaleEpochNeverRunsTheHook) {
  Simulator sim;
  HostCpu cpu;
  WaitQueue q(&sim);
  int hooks = 0;
  const SimThread::DeadlineHook hook = [&]() -> std::optional<SimTime> {
    hooks++;
    return std::nullopt;
  };
  std::vector<bool> results;
  SimTime second_woke = 0;
  sim.Spawn("w", &cpu, [&] {
    results.push_back(sim.current_thread()->WaitOn(&q, Millis(2), &hook));
    results.push_back(sim.current_thread()->WaitOn(&q, Millis(5)));
    second_woke = sim.Now();
  });
  sim.Schedule(Millis(1), [&] { q.NotifyOne(); });
  sim.Run();
  EXPECT_EQ(results, (std::vector<bool>{true, false}));
  EXPECT_EQ(second_woke, Millis(5));
  EXPECT_EQ(hooks, 0);
}

}  // namespace
}  // namespace psd