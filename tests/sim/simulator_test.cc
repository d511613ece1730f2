#include <gtest/gtest.h>

#include <signal.h>
#include <unistd.h>

#include <cfenv>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/obs/observatory.h"
#include "src/obs/probe.h"
#include "src/sim/simulator.h"

namespace psd {
namespace {

TEST(Simulator, EventsRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(Micros(30), [&] { order.push_back(3); });
  sim.Schedule(Micros(10), [&] { order.push_back(1); });
  sim.Schedule(Micros(20), [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), Micros(30));
}

TEST(Simulator, EqualTimesRunInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; i++) {
    sim.Schedule(Micros(5), [&, i] { order.push_back(i); });
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  bool ran = false;
  sim.Schedule(Seconds(5), [&] { ran = true; });
  sim.Run(Seconds(1));
  EXPECT_FALSE(ran);
  EXPECT_EQ(sim.Now(), Seconds(1));
  sim.Run(Seconds(10));
  EXPECT_TRUE(ran);
}

TEST(SimThread, ChargeAdvancesVirtualTime) {
  Simulator sim;
  HostCpu cpu;
  SimTime after = 0;
  sim.Spawn("t", &cpu, [&] {
    sim.current_thread()->Charge(Micros(100));
    after = sim.Now();
  });
  sim.Run();
  EXPECT_EQ(after, Micros(100));
  EXPECT_EQ(cpu.busy(), Micros(100));
}

TEST(SimThread, CpuSerializesConcurrentCharges) {
  // Two threads each burn 100us on one CPU: total virtual time 200us.
  Simulator sim;
  HostCpu cpu;
  SimTime t1 = 0, t2 = 0;
  sim.Spawn("a", &cpu, [&] {
    sim.current_thread()->Charge(Micros(100));
    t1 = sim.Now();
  });
  sim.Spawn("b", &cpu, [&] {
    sim.current_thread()->Charge(Micros(100));
    t2 = sim.Now();
  });
  sim.Run();
  EXPECT_EQ(std::max(t1, t2), Micros(200));
}

TEST(SimThread, SeparateCpusRunInParallel) {
  Simulator sim;
  HostCpu cpu_a, cpu_b;
  SimTime t1 = 0, t2 = 0;
  sim.Spawn("a", &cpu_a, [&] {
    sim.current_thread()->Charge(Micros(100));
    t1 = sim.Now();
  });
  sim.Spawn("b", &cpu_b, [&] {
    sim.current_thread()->Charge(Micros(100));
    t2 = sim.Now();
  });
  sim.Run();
  EXPECT_EQ(t1, Micros(100));
  EXPECT_EQ(t2, Micros(100));
}

TEST(SimThread, WaitAndNotify) {
  Simulator sim;
  HostCpu cpu;
  WaitQueue q(&sim);
  SimTime woken_at = 0;
  sim.Spawn("waiter", &cpu, [&] {
    sim.current_thread()->WaitOn(&q);
    woken_at = sim.Now();
  });
  sim.Spawn("waker", &cpu, [&] {
    sim.current_thread()->SleepFor(Millis(3));
    q.NotifyOne();
  });
  sim.Run();
  EXPECT_EQ(woken_at, Millis(3));
}

TEST(SimThread, WaitTimeout) {
  Simulator sim;
  HostCpu cpu;
  WaitQueue q(&sim);
  bool notified = true;
  sim.Spawn("waiter", &cpu, [&] {
    notified = sim.current_thread()->WaitOn(&q, sim.Now() + Millis(5));
  });
  sim.Run();
  EXPECT_FALSE(notified);
  EXPECT_EQ(sim.Now(), Millis(5));
}

TEST(SimThread, NotifyBeatsTimeout) {
  Simulator sim;
  HostCpu cpu;
  WaitQueue q(&sim);
  bool notified = false;
  SimTime woke_at = 0;
  sim.Spawn("waiter", &cpu, [&] {
    notified = sim.current_thread()->WaitOn(&q, sim.Now() + Millis(50));
    woke_at = sim.Now();
  });
  sim.Schedule(Millis(1), [&] { q.NotifyOne(); });
  sim.Run();
  EXPECT_TRUE(notified);
  EXPECT_EQ(woke_at, Millis(1));
}

TEST(SimMutex, MutualExclusion) {
  Simulator sim;
  HostCpu cpu;
  SimMutex mu(&sim);
  int in_critical = 0;
  int max_in_critical = 0;
  for (int i = 0; i < 3; i++) {
    sim.Spawn("t" + std::to_string(i), &cpu, [&] {
      mu.Lock();
      in_critical++;
      max_in_critical = std::max(max_in_critical, in_critical);
      sim.current_thread()->Charge(Micros(50));  // yields while holding
      in_critical--;
      mu.Unlock();
    });
  }
  sim.Run();
  EXPECT_EQ(max_in_critical, 1);
}

TEST(SimCondition, WaitReleasesMutex) {
  Simulator sim;
  HostCpu cpu;
  SimMutex mu(&sim);
  SimCondition cv(&sim);
  bool consumed = false;
  sim.Spawn("consumer", &cpu, [&] {
    mu.Lock();
    cv.Wait(&mu);
    consumed = true;
    mu.Unlock();
  });
  sim.Spawn("producer", &cpu, [&] {
    sim.current_thread()->SleepFor(Millis(1));
    mu.Lock();  // succeeds because the consumer's Wait released it
    cv.NotifyOne();
    mu.Unlock();
  });
  sim.Run();
  EXPECT_TRUE(consumed);
}

TEST(Simulator, KillThreadUnwinds) {
  Simulator sim;
  HostCpu cpu;
  WaitQueue q(&sim);
  bool finished_normally = false;
  SimThread* t = sim.Spawn("stuck", &cpu, [&] {
    sim.current_thread()->WaitOn(&q);
    finished_normally = true;  // unreached: the wait never completes
  });
  sim.Run();
  EXPECT_FALSE(t->finished());
  sim.KillThread(t);
  EXPECT_TRUE(t->finished());
  EXPECT_FALSE(finished_normally);
  EXPECT_TRUE(q.empty()) << "killed thread must not linger in wait queues";
}

// Recurses until the stack runs out. Each frame is a few hundred bytes,
// well under the 4 KB guard page, so the overflow cannot step over it.
volatile bool keep_recursing = true;

size_t Recurse(size_t depth) {
  volatile char frame[256];
  frame[depth % sizeof(frame)] = 1;
  if (!keep_recursing) {
    return depth;
  }
  return Recurse(depth + 1) + frame[0];
}

// Set on entry to the overflowing fiber. Its stack's page-aligned top is
// the next page boundary up; the 1 MB stack and then the guard page lie
// below that.
uintptr_t deep_fiber_entry = 0;

// Lets the fault kill the process only if it landed on the guard page: a
// fault anywhere else means the overflow ran past the stack's end first.
void OnOverflowFault(int, siginfo_t* info, void*) {
  constexpr uintptr_t kPage = 4096;
  uintptr_t top = (deep_fiber_entry + kPage - 1) & ~(kPage - 1);
  uintptr_t guard_hi = top - 1024 * 1024;
  uintptr_t addr = reinterpret_cast<uintptr_t>(info->si_addr);
  if (addr < guard_hi - kPage || addr >= guard_hi) {
    _exit(1);
  }
  signal(SIGSEGV, SIG_DFL);  // the faulting write re-runs, now fatally
}

TEST(SimThreadDeathTest, StackOverflowFaultsOnGuardPage) {
  EXPECT_EXIT(
      {
        // The fiber stack is exhausted, so the handler needs its own.
        static char alt_stack[64 * 1024];
        stack_t ss{};
        ss.ss_sp = alt_stack;
        ss.ss_size = sizeof(alt_stack);
        sigaltstack(&ss, nullptr);
        struct sigaction sa {};
        sa.sa_sigaction = OnOverflowFault;
        sa.sa_flags = SA_SIGINFO | SA_ONSTACK;
        sigaction(SIGSEGV, &sa, nullptr);
        Simulator sim;
        HostCpu cpu;
        sim.Spawn("deep", &cpu, [] {
          deep_fiber_entry = reinterpret_cast<uintptr_t>(__builtin_frame_address(0));
          Recurse(0);
        });
        sim.Run();
      },
      ::testing::KilledBySignal(SIGSEGV), "");
}

// fegetround reads the x87 control word and the SSE division obeys MXCSR,
// so the test covers both halves of the FP environment.
TEST(SimThread, FloatingPointEnvironmentIsPerContext) {
  volatile double one = 1.0;
  volatile double three = 3.0;
  const double nearest_third = one / three;
  Simulator sim;
  HostCpu cpu;
  WaitQueue q(&sim);
  int event_round = -1;
  double event_third = 0;
  int resumed_round = -1;
  double resumed_third = 0;
  sim.Spawn("upward", &cpu, [&] {
    std::fesetround(FE_UPWARD);
    // A timed wait parks the fiber outright, so the event at 1 ms runs on
    // the event loop's own context rather than drained on this fiber.
    sim.current_thread()->WaitOn(&q, Millis(2));
    resumed_round = std::fegetround();
    resumed_third = one / three;
    std::fesetround(FE_TONEAREST);
  });
  sim.Schedule(Millis(1), [&] {
    event_round = std::fegetround();
    event_third = one / three;
  });
  sim.Run();
  EXPECT_EQ(event_round, FE_TONEAREST);
  EXPECT_EQ(event_third, nearest_third);
  EXPECT_EQ(resumed_round, FE_UPWARD);
  EXPECT_GT(resumed_third, nearest_third);
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
}

// The drained case: the fiber's charge outlasts the event at 1 ms, so its
// own dispatch loop pops and runs that closure on the fiber's stack (one
// switch, the start). The closure must still see Run's caller's rounding
// mode, and the fiber its own once the charge ends.
TEST(SimThread, FloatingPointEnvironmentOfDrainedEvents) {
  volatile double one = 1.0;
  volatile double three = 3.0;
  const double nearest_third = one / three;
  Simulator sim;
  HostCpu cpu;
  int event_round = -1;
  double event_third = 0;
  int resumed_round = -1;
  double resumed_third = 0;
  sim.Spawn("upward", &cpu, [&] {
    std::fesetround(FE_UPWARD);
    sim.current_thread()->Charge(Millis(2));
    resumed_round = std::fegetround();
    resumed_third = one / three;
    std::fesetround(FE_TONEAREST);
  });
  sim.Schedule(Millis(1), [&] {
    event_round = std::fegetround();
    event_third = one / three;
  });
  sim.Run();
  EXPECT_EQ(sim.thread_switches(), 1u) << "the closure was not drained on the fiber";
  EXPECT_EQ(event_round, FE_TONEAREST);
  EXPECT_EQ(event_third, nearest_third);
  EXPECT_EQ(resumed_round, FE_UPWARD);
  EXPECT_GT(resumed_third, nearest_third);
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
}

TEST(Simulator, DeterministicAcrossRuns) {
  auto run = [] {
    Simulator sim;
    HostCpu a, b;
    uint64_t trace = 0;
    WaitQueue q(&sim);
    sim.Spawn("x", &a, [&] {
      for (int i = 0; i < 10; i++) {
        sim.current_thread()->Charge(Micros(7));
        trace = trace * 31 + static_cast<uint64_t>(sim.Now());
        q.NotifyOne();
      }
    });
    sim.Spawn("y", &b, [&] {
      for (int i = 0; i < 5; i++) {
        sim.current_thread()->WaitOn(&q, sim.Now() + Micros(13));
        trace = trace * 37 + static_cast<uint64_t>(sim.Now());
      }
    });
    sim.Run();
    return trace;
  };
  EXPECT_EQ(run(), run());
}

TEST(Probe, NestedSpansExcludeChildren) {
  Simulator sim;
  HostCpu cpu;
  Observatory obs;
  StageRecorder rec;
  obs.tracer.AddSink(&rec);
  sim.Spawn("t", &cpu, [&] {
    ProbeSpan outer(obs.tracer, &sim, Stage::kEntryCopyin);
    sim.current_thread()->Charge(Micros(10));
    {
      ProbeSpan inner(obs.tracer, &sim, Stage::kProtoOutput);
      sim.current_thread()->Charge(Micros(25));
    }
    sim.current_thread()->Charge(Micros(5));
  });
  sim.Run();
  EXPECT_DOUBLE_EQ(rec.cell(Stage::kEntryCopyin).MeanMicros(), 15.0);
  EXPECT_DOUBLE_EQ(rec.cell(Stage::kProtoOutput).MeanMicros(), 25.0);
}

TEST(Probe, ConditionalSpanNotRecordedUnlessCommitted) {
  Simulator sim;
  HostCpu cpu;
  Observatory obs;
  StageRecorder rec;
  obs.tracer.AddSink(&rec);
  sim.Spawn("t", &cpu, [&] {
    {
      ProbeSpan s(obs.tracer, &sim, Stage::kProtoOutput);
      s.MarkConditional();
      sim.current_thread()->Charge(Micros(10));
    }
    {
      ProbeSpan s(obs.tracer, &sim, Stage::kProtoOutput);
      s.MarkConditional();
      sim.current_thread()->Charge(Micros(20));
      s.Commit();
    }
  });
  sim.Run();
  EXPECT_EQ(rec.cell(Stage::kProtoOutput).count, 1u);
  EXPECT_DOUBLE_EQ(rec.cell(Stage::kProtoOutput).MeanMicros(), 20.0);
}

}  // namespace
}  // namespace psd
