// Deterministic discrete-event simulator.
//
// Execution model:
//  * A single thread of control — literally: SimThreads are fibers
//    multiplexed on the caller's OS thread. User code still runs in
//    ordinary blocking style; a control transfer is a ~15 ns user-space
//    stack switch (callee-saved registers + rsp, no syscall), so the
//    per-event cost is independent of host scheduler load. Fiber stacks
//    are pooled 1 MB mappings with a PROT_NONE guard page: an overflow
//    faults instead of corrupting the heap.
//    Exactly one context (Run's caller or some SimThread) runs at any
//    instant, so simulation state needs no locking and runs are
//    bit-for-bit reproducible.
//  * Virtual time advances only between events. Events at equal times run in
//    schedule order (monotonic sequence tie-break).
//  * CPU time is modelled per host by HostCpu: charging N ns of CPU occupies
//    the host CPU for N virtual ns, serializing against every other charge on
//    the same host (threads, softirqs and interrupt handlers contend for the
//    CPU exactly as on the paper's uniprocessor DECstation).
//
// Scheduler internals (see DESIGN.md "Engine internals"): one event queue.
// Events are arena-recycled EventNodes ordered by (time, seq) in a binary
// heap, plus a FIFO for events scheduled at exactly Now() (no ordering
// structure needed there — sequence numbers are monotonic). One dispatch
// loop pops them, and every context runs it: Run's caller, and a thread
// that blocks. It runs closures inline on the current stack, returns when
// its own thread's wakeup comes up, and switches straight to the fiber
// whose wakeup comes up otherwise; when nothing is runnable it switches to
// Run's caller. A thread that sleeps while nothing is queued at or before
// its wakeup skips the queue altogether: the clock, seq and event count
// advance as if its wakeup were pushed and popped (counted in
// elided_wakeups()). Neither changes virtual behavior.
#ifndef PSD_SRC_SIM_SIMULATOR_H_
#define PSD_SRC_SIM_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/base/time.h"
#include "src/obs/prof.h"
#include "src/sim/event_node.h"

namespace psd {

class Simulator;
class SimThread;
class WaitQueue;

// Serializes charged CPU time on one simulated host. Not a scheduler: it
// computes when a newly requested slice of CPU completes, given all slices
// already granted. (Non-preemptive at slice granularity; slices are small.)
class HostCpu {
 public:
  // Requests `cost` ns of CPU starting no earlier than `now`. Returns the
  // virtual time at which the slice completes.
  SimTime Acquire(SimTime now, SimDuration cost) {
    SimTime start = std::max(now, free_at_);
    free_at_ = start + cost;
    return free_at_;
  }

  SimTime free_at() const { return free_at_; }

  // Accumulated busy time, for utilization reporting.
  void AccountBusy(SimDuration cost) { busy_ += cost; }
  SimDuration busy() const { return busy_; }

 private:
  SimTime free_at_ = 0;
  SimDuration busy_ = 0;
};

// Thrown inside SimThreads when the simulator shuts down while they are
// blocked; unwinds the thread body. Never catch it (catch(...) must rethrow).
struct SimShutdown {};

// A context's floating-point environment: MXCSR and the x87 control word.
struct FpEnv {
  uint32_t mxcsr = 0;
  uint16_t x87_cw = 0;
  bool operator==(const FpEnv&) const = default;
};

class Simulator {
 public:
  Simulator();
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime Now() const { return now_; }

  // Schedules `fn` to run in event context at virtual time `t`. A `t`
  // already in the past is clamped to Now() (and counted — see
  // past_time_clamps()): the event runs after everything already queued at
  // Now(), which is the only order that doesn't reorder against intent.
  template <typename F>
  void Schedule(SimTime t, F&& fn) {
    EventNode* n = NewNode(t);
    n->EmplaceCallable(std::forward<F>(fn));
    InsertNode(n);
  }

  template <typename F>
  void ScheduleAfter(SimDuration d, F&& fn) {
    Schedule(now_ + d, std::forward<F>(fn));
  }

  // Spawns a simulated thread executing `body`. The thread starts at the
  // current virtual time (after currently queued events at this time).
  // Returned pointer is owned by the simulator and valid until destruction.
  SimThread* Spawn(std::string name, HostCpu* cpu, std::function<void()> body);

  // Forcibly unwinds a thread (SimShutdown propagates through its body).
  // Must be called outside Run() (not from event or thread context). Used
  // by component destructors to stop their service threads while their
  // state is still alive.
  void KillThread(SimThread* t);

  // Runs until the event queue is empty or a deadline/stop is reached.
  void Run(SimTime until = kTimeNever);
  void RunFor(SimDuration d) { Run(now_ + d); }
  void Stop() { stopped_ = true; }

  // The currently executing SimThread, or nullptr in event context.
  SimThread* current_thread() const { return current_; }

  bool shutting_down() const { return shutting_down_; }

  // Number of events executed; useful for run-cost diagnostics.
  uint64_t events_executed() const { return events_executed_; }

  // Number of Schedule() calls whose target time was already in the past.
  uint64_t past_time_clamps() const { return past_time_clamps_; }

  // Number of thread wakeups that skipped the event queue because they were
  // the next event anyway (each is also counted in events_executed()).
  uint64_t elided_wakeups() const { return elided_wakeups_; }

  // Number of stack switches into a SimThread's fiber: one per hand-off,
  // made by whichever context's dispatch loop popped the wakeup. A switch
  // back to Run's caller (nothing left to run) is not counted. The engine
  // fast paths exist to minimize this number; bench/bench_engine reports it
  // per packet.
  uint64_t thread_switches() const { return thread_switches_; }

  // The self-wakeup queue skip, as a test and an advance (SleepUntil tries
  // them first, and event-context code that stands in for a sleeping thread
  // makes the same moves). CanElideWakeup(t) is true when a wakeup at `t`
  // would be the next event: in Run, not stopped or shutting down, `t`
  // clamped to Now() within the deadline, and nothing queued at or before
  // it. ElideWakeup(t), valid only then, advances the clock, seq and event
  // count exactly as scheduling and popping that wakeup would (counted in
  // elided_wakeups()), without touching the queue.
  bool CanElideWakeup(SimTime t) const;
  void ElideWakeup(SimTime t);

 private:
  friend class SimThread;
  friend class WaitQueue;

  EventNode* NewNode(SimTime t) {
    if (t < now_) {
      t = now_;
      past_time_clamps_++;
    }
    EventNode* n = arena_.Alloc();
    n->time = t;
    n->seq = next_seq_++;
    return n;
  }

  void InsertNode(EventNode* n);
  void ScheduleResume(SimThread* t, SimTime when);

  // The pending node with the smallest (time, seq), or nullptr.
  EventNode* PeekNext() const;
  // Removes `n`, which the immediately preceding PeekNext() returned.
  void RemovePeeked(EventNode* n);

  // Thread-context fast path, tried first by SleepUntil: ElideWakeup(t) if
  // CanElideWakeup(t) (returns true), else changes nothing (returns false).
  bool TrySkipWakeup(SimTime t);

  // The dispatch loop, run by `self` (nullptr: Run's caller) on its own
  // stack. Pops events in (time, seq) order and runs closures inline in
  // event context, under Run's caller's FP environment. Returns when
  // `self`'s wakeup comes up; switches to a fiber whose wakeup comes up
  // and returns once something switches back; and, when nothing is
  // runnable, returns (Run's caller) or switches to Run's caller. A thread
  // thus resumes only after its own wakeup was consumed, or to unwind.
  void Dispatch(SimThread* self);
  // The one stack switch: from the running context `from` to `to` (nullptr
  // is Run's caller); returns once something switches back to `from`.
  void SwitchTo(SimThread* from, SimThread* to);
  // What a context does on arriving from a switch (FiberMain's first entry
  // included): ASan and profiler edges, the exited fiber's stack, current_.
  void Arrived(SimThread* self, void* fake_stack);
  // From event context (a wait's timeout): `t` runs right after the closure.
  void ResumeThread(SimThread* t);

  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t events_executed_ = 0;
  uint64_t past_time_clamps_ = 0;
  uint64_t elided_wakeups_ = 0;
  uint64_t thread_switches_ = 0;
  bool stopped_ = false;
  bool shutting_down_ = false;
  bool in_run_ = false;
  SimTime run_until_ = 0;
  SimThread* current_ = nullptr;
  FpEnv run_fp_env_;                // Run's caller's, for closures on fibers
  SimThread* handoff_ = nullptr;    // set by ResumeThread during a closure
  SimThread* exited_ = nullptr;     // finished; the next arrival frees its stack
  void* main_sp_ = nullptr;         // Run's caller, while a fiber runs
  // Run's caller's stack bounds, for ASan (unused in other builds): taken
  // at the first switch ever made, which always leaves that context.
  const void* main_stack_lo_ = nullptr;
  size_t main_stack_size_ = 0;

  EventArena arena_;
  // FIFO of events scheduled at exactly Now(): they are younger (higher
  // seq) than anything else at Now(), so plain append order is (time, seq)
  // order. Drained against the heap front by (time, seq) comparison.
  EventNode* ready_head_ = nullptr;
  EventNode* ready_tail_ = nullptr;
  std::vector<EventNode*> heap_;  // min-heap on (time, seq) of later events

  std::vector<std::unique_ptr<SimThread>> threads_;
};

// A simulated thread. User code runs on a dedicated fiber stack under
// strict hand-off with the dispatch loop; use the blocking primitives below
// instead of OS synchronization.
class SimThread {
 public:
  ~SimThread();

  SimThread(const SimThread&) = delete;
  SimThread& operator=(const SimThread&) = delete;

  const std::string& name() const { return name_; }
  HostCpu* cpu() const { return cpu_; }
  bool finished() const { return finished_; }

  // --- Callable only from within this thread's body ---

  // Consumes `cost` ns of CPU on this thread's host.
  void Charge(SimDuration cost);

  // Sleeps without consuming CPU (e.g. waiting for a timer).
  void SleepUntil(SimTime t);
  void SleepFor(SimDuration d);

  // Runs in event context when a timed wait reaches its deadline with the
  // thread still waiting. A returned time keeps the thread waiting, queued
  // where it was and under the same epoch, until that new deadline (where
  // the hook runs again); nullopt times the wait out, resuming the thread.
  using DeadlineHook = std::function<std::optional<SimTime>()>;

  // Blocks on `q` until notified or `deadline` passes. Returns true if
  // notified, false on timeout. `*on_deadline`, if given, must outlive the
  // call; it runs at each deadline the wait reaches (see DeadlineHook).
  bool WaitOn(WaitQueue* q, SimTime deadline = kTimeNever,
              const DeadlineHook* on_deadline = nullptr);

  // Yields to let same-time events run (reschedules self at Now()).
  void Yield();

 private:
  friend class Simulator;
  friend class WaitQueue;

  SimThread(Simulator* sim, std::string name, HostCpu* cpu, std::function<void()> body);

  static void FiberEntry(SimThread* t) { t->FiberMain(); }
  [[noreturn]] void FiberMain();
  void CheckShutdown();
  // Schedules the deadline event of the wait on `q` tagged `epoch`.
  void ArmWaitDeadline(WaitQueue* q, uint64_t epoch, SimTime deadline);

  Simulator* sim_;
  std::string name_;
  HostCpu* cpu_;

  // Fiber machinery. The body runs on its own pooled stack, which goes back
  // to the pool the moment the body finishes (threads accumulate in
  // Simulator::threads_ over a run, their stacks must not). A suspended
  // context is just its saved stack pointer: the switch keeps everything
  // else on that context's own stack.
  uint8_t* stack_ = nullptr;     // lowest usable byte; the guard page is below
  void* fiber_sp_ = nullptr;     // this fiber, while it is not running
  std::function<void()> body_;   // consumed at first entry

  bool finished_ = false;

  // Wait bookkeeping (touched only under the simulation's logical lock).
  WaitQueue* waiting_on_ = nullptr;
  SimThread* wait_next_ = nullptr;  // intrusive WaitQueue links
  SimThread* wait_prev_ = nullptr;
  uint64_t wait_epoch_ = 0;
  const DeadlineHook* on_deadline_ = nullptr;
  bool timed_out_ = false;
  bool killed_ = false;

  // Host profiler context id, lazily registered on first arrival inside a
  // profiling window (0 = not yet registered). Host-side bookkeeping only;
  // never read by simulation logic.
  uint32_t prof_ctx_ = 0;
};

// FIFO wait queue (condition-variable-like). Notify wakes in wait order.
// Waiters are chained intrusively through SimThread (a thread blocks on at
// most one queue), so waiting allocates nothing and removal is O(1).
class WaitQueue {
 public:
  explicit WaitQueue(Simulator* sim) : sim_(sim) {}

  WaitQueue(const WaitQueue&) = delete;
  WaitQueue& operator=(const WaitQueue&) = delete;

  // Wakes the longest-waiting thread, if any. Returns true if one was woken.
  bool NotifyOne();
  void NotifyAll();

  bool empty() const { return head_ == nullptr; }
  size_t size() const { return size_; }
  Simulator* simulator() const { return sim_; }

 private:
  friend class SimThread;

  void PushBack(SimThread* t);
  SimThread* PopFront();
  void Remove(SimThread* t);

  Simulator* sim_;
  SimThread* head_ = nullptr;
  SimThread* tail_ = nullptr;
  size_t size_ = 0;
};

// Recursive-free sleeping mutex for protocol critical sections. Lock may
// block (yielding to the simulator); protocol code paths that sleep while
// holding a mutex must use SimCondition::Wait which releases it.
class SimMutex {
 public:
  explicit SimMutex(Simulator* sim) : waiters_(sim) {}

  void Lock();
  void Unlock();
  bool held() const { return owner_ != nullptr; }
  // No owner and nobody queued: a Lock now takes it at once, and the
  // matching Unlock wakes no one.
  bool idle() const { return owner_ == nullptr && waiters_.empty(); }
  SimThread* owner() const { return owner_; }

 private:
  friend class SimCondition;
  SimThread* owner_ = nullptr;
  WaitQueue waiters_;
};

// Condition variable over SimMutex.
class SimCondition {
 public:
  explicit SimCondition(Simulator* sim) : q_(sim) {}

  // Atomically releases `mu` and waits; reacquires before returning.
  // Returns false on timeout.
  bool Wait(SimMutex* mu, SimTime deadline = kTimeNever);
  void NotifyOne() { q_.NotifyOne(); }
  void NotifyAll() { q_.NotifyAll(); }
  bool has_waiters() const { return !q_.empty(); }

 private:
  WaitQueue q_;
};

}  // namespace psd

#endif  // PSD_SRC_SIM_SIMULATOR_H_
