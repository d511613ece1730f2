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
//    Exactly one of {event loop, some SimThread} runs at any instant, so
//    simulation state needs no locking and runs are bit-for-bit
//    reproducible.
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
// structure needed there — sequence numbers are monotonic). Two wall-clock
// fast paths never change virtual behavior. A thread that sleeps while
// nothing is queued at or before its wakeup skips the queue altogether: the
// clock, seq and event count advance as if its wakeup were pushed and popped
// (counted in elided_wakeups()). Otherwise the wakeup is queued and the
// thread drains the events ahead of it inline; if its own wakeup then comes
// up it continues without handing control back to the event loop.
#ifndef PSD_SRC_SIM_SIMULATOR_H_
#define PSD_SRC_SIM_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <memory>
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

  // Number of control transfers into a SimThread (each implies a matching
  // switch back out when it parks: two fiber stack switches). The engine
  // fast paths exist to minimize this number; bench/bench_engine reports it
  // per packet.
  uint64_t thread_switches() const { return thread_switches_; }

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
  EventNode* ScheduleResume(SimThread* t, SimTime when);

  // The pending node with the smallest (time, seq), or nullptr.
  EventNode* PeekNext();
  // Removes `n`, which the immediately preceding PeekNext() returned.
  void RemovePeeked(EventNode* n);

  // Thread-context fast path, tried first by SleepUntil: when the calling
  // thread's wakeup at `t` would be the next event (in Run, not stopped or
  // shutting down, `t` clamped to Now() is within the deadline, and nothing
  // is queued at or before it), advances the clock and the counters exactly
  // as scheduling and popping that wakeup would, and returns true without
  // touching the queue. Otherwise changes nothing and returns false.
  bool TrySkipWakeup(SimTime t);

  // Thread-context fast path: drain events inline on the calling thread's
  // OS thread — closures run in event context exactly as the loop would run
  // them — until `n` (the caller's own wakeup) comes up, in which case the
  // thread continues with zero handoffs (returns true), or a foreign
  // thread's resume surfaces / the deadline passes, in which case the
  // caller parks normally (returns false). Virtual behavior (time, event
  // count, order) is exactly as if the loop ran everything.
  bool TryFastResume(SimThread* t, EventNode* n);

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
// strict hand-off with the simulator loop; use the blocking primitives below
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

  // Blocks on `q` until notified or `deadline` passes. Returns true if
  // notified, false on timeout.
  bool WaitOn(WaitQueue* q, SimTime deadline = kTimeNever);

  // Yields to let same-time events run (reschedules self at Now()).
  void Yield();

 private:
  friend class Simulator;
  friend class WaitQueue;

  SimThread(Simulator* sim, std::string name, HostCpu* cpu, std::function<void()> body);

  static void FiberEntry(SimThread* t) { t->FiberMain(); }
  [[noreturn]] void FiberMain();
  // Transfers control into this thread's fiber; returns when it yields or
  // finishes. The caller's context becomes this fiber's return target.
  void RunUntilBlocked();
  // Transfers control: fiber -> whoever entered it via RunUntilBlocked.
  void YieldToSimulator();
  void CheckShutdown();

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
  void* return_sp_ = nullptr;    // whoever entered it via RunUntilBlocked
  std::function<void()> body_;   // consumed at first entry
  // Bounds of the stack that last entered this fiber, which ASan must be
  // told about when the fiber switches back to it (unused in other builds).
  const void* return_stack_lo_ = nullptr;
  size_t return_stack_size_ = 0;

  bool finished_ = false;
  // True while this thread is parked (yielded, or not yet started):
  // entering it via RunUntilBlocked is safe from any running context.
  // False while running or while blocked inside another thread's
  // RunUntilBlocked (on the control-transfer chain) — entering it then
  // would abandon the frame that is waiting for that transfer to return.
  bool parked_ = true;

  // Wait bookkeeping (touched only under the simulation's logical lock).
  WaitQueue* waiting_on_ = nullptr;
  SimThread* wait_next_ = nullptr;  // intrusive WaitQueue links
  SimThread* wait_prev_ = nullptr;
  uint64_t wait_epoch_ = 0;
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
