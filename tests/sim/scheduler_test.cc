// Scheduler-focused regression tests: (time, seq) ordering across short,
// medium and long horizons, inserts from event context, scheduling after an
// idle Run(until), past-time clamping, and wait-queue intrusive-list
// integrity. The replay harness (replay_ab_test.cc) covers whole-system
// determinism; these pin down the scheduler primitives it rests on.
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "src/sim/simulator.h"

namespace psd {
namespace {

// Two horizons the cases straddle: 2^22 ns (~4.19 ms) and 2^32 ns (~4.29 s).
constexpr SimTime kShortHorizon = SimTime{1} << 22;
constexpr SimTime kLongHorizon = SimTime{1} << 32;

TEST(Scheduler, OrderingAcrossAllLevels) {
  // Times below, between and past the two horizons, inserted in shuffled
  // order; execution must come back globally sorted with ties in schedule
  // order.
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

TEST(Scheduler, PageCrossingInsertWhileRunning) {
  // Events scheduled from inside an event just before a horizon boundary,
  // on both sides of it, must interleave exactly with events queued
  // earlier.
  Simulator sim;
  std::vector<int> order;
  const SimTime near_edge = kShortHorizon - Micros(2);
  sim.Schedule(near_edge, [&] {
    order.push_back(1);
    // Past the boundary.
    sim.Schedule(kShortHorizon + Micros(2), [&] { order.push_back(3); });
    // Before the boundary, later than now.
    sim.Schedule(near_edge + Micros(1), [&] { order.push_back(2); });
  });
  sim.Schedule(kShortHorizon + Micros(5), [&] { order.push_back(4); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(Scheduler, OverflowPulledBackInPagePortions) {
  // Long protocol-timer territory: events far past the long horizon must
  // still interleave exactly with near-term events scheduled later.
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

}  // namespace
}  // namespace psd
