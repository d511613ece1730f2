#include "src/sim/simulator.h"

#include <malloc.h>
#include <sys/mman.h>

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <optional>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif

#if !defined(__x86_64__)
#error "src/sim implements the fiber context switch for x86-64 only"
#endif

// Fiber context switch. psd_fiber_switch saves the running context on its
// own stack — the callee-saved registers, MXCSR and the x87 control word —
// stores rsp into *save_sp, loads load_sp, restores the same layout from
// the new stack and returns into that context. No signal mask, no syscall.
// A new fiber's stack is pre-built in that layout with its return address
// at psd_fiber_entry, which calls r13(r12) — SimThread::FiberEntry(this) —
// and marks itself the outermost frame for unwinders.
extern "C" {
void psd_fiber_switch(void** save_sp, void* load_sp);
void psd_fiber_entry();
}

asm(R"(
  .pushsection .text
  .p2align 4
  .globl psd_fiber_switch
  .hidden psd_fiber_switch
  .type psd_fiber_switch, @function
psd_fiber_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $16, %rsp
  stmxcsr 8(%rsp)
  fnstcw 12(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr 8(%rsp)
  fldcw 12(%rsp)
  addq $16, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size psd_fiber_switch, .-psd_fiber_switch

  .p2align 4
  .globl psd_fiber_entry
  .hidden psd_fiber_entry
  .type psd_fiber_entry, @function
psd_fiber_entry:
  .cfi_startproc
  .cfi_undefined rip
  movq %r12, %rdi
  callq *%r13
  ud2
  .cfi_endproc
  .size psd_fiber_entry, .-psd_fiber_entry
  .popsection
)");

namespace psd {

namespace {

// Min-heap comparator for heap_: true when `a` executes later.
bool NodeAfter(const EventNode* a, const EventNode* b) { return b->Before(*a); }

constexpr size_t kStackBytes = 1024 * 1024;
constexpr size_t kGuardBytes = 4096;

[[noreturn]] void DieErrno(const char* what) {
  std::fprintf(stderr, "psd: fiber stack %s failed: %s\n", what, std::strerror(errno));
  std::abort();
}

// Fiber stacks, recycled per OS thread so a warm Spawn makes no syscall.
// Each is a 1 MB MAP_NORESERVE mapping (only touched pages cost memory)
// above a PROT_NONE guard page, so running off the end faults.
struct StackPool {
  std::vector<uint8_t*> free;

  StackPool() = default;
  StackPool(const StackPool&) = delete;
  StackPool& operator=(const StackPool&) = delete;
  ~StackPool() {
    for (uint8_t* lo : free) {
      munmap(lo - kGuardBytes, kGuardBytes + kStackBytes);
    }
  }

  uint8_t* Acquire() {
    if (!free.empty()) {
      uint8_t* lo = free.back();
      free.pop_back();
      return lo;
    }
    void* base = mmap(nullptr, kGuardBytes + kStackBytes, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK, -1, 0);
    if (base == MAP_FAILED) {
      DieErrno("mmap");
    }
    if (mprotect(base, kGuardBytes, PROT_NONE) != 0) {
      DieErrno("guard mprotect");
    }
    return static_cast<uint8_t*>(base) + kGuardBytes;
  }

  void Release(uint8_t* lo) {
#if defined(__SANITIZE_ADDRESS__)
    // A finished fiber leaves its frames' redzones poisoned; the next fiber
    // on this stack must not inherit them.
    __asan_unpoison_memory_region(lo, kStackBytes);
#endif
    free.push_back(lo);
  }
};

thread_local StackPool stack_pool;

// Heap memory is likewise kept for the next run. glibc hands a freed block
// back to the OS (or serves a large request with a fresh mapping) above a
// threshold that it raises only after freeing a large mapping, so whether a
// run's big buffers came back as recycled heap or as fresh zeroed pages, a
// fault per page, depended on what earlier runs in the process happened to
// free. Fixing both thresholds at glibc's own dynamic ceiling (32 MB, and
// twice that for trimming) lets every warm run reuse the heap.
void KeepHeapAcrossRuns() {
#if defined(__GLIBC__)
  static const bool pinned = [] {
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
    mallopt(M_TRIM_THRESHOLD, 64 << 20);
    return true;
  }();
  (void)pinned;
#endif
}

// ASan must be told about every stack switch, or it mistakes the fiber
// stacks for wild memory. No-ops in other builds.
inline void AsanStartSwitch(void** fake_stack, const void* to_lo, size_t to_size) {
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_start_switch_fiber(fake_stack, to_lo, to_size);
#else
  (void)fake_stack, (void)to_lo, (void)to_size;
#endif
}

inline void AsanFinishSwitch(void* fake_stack, const void** from_lo, size_t* from_size) {
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_finish_switch_fiber(fake_stack, from_lo, from_size);
#else
  (void)fake_stack, (void)from_lo, (void)from_size;
#endif
}

// Switches from the running context to `load_sp`, saving ours in *save_sp;
// returns once some context switches back. [to_lo, to_lo + to_size) bounds
// the stack being entered; the bounds of the stack that eventually switches
// back land in *from_lo/*from_size (either may be null).
inline void SwitchStack(void** save_sp, void* load_sp, const void* to_lo, size_t to_size,
                        const void** from_lo, size_t* from_size) {
  void* fake_stack = nullptr;
  AsanStartSwitch(&fake_stack, to_lo, to_size);
  psd_fiber_switch(save_sp, load_sp);
  AsanFinishSwitch(fake_stack, from_lo, from_size);
}

}  // namespace

Simulator::Simulator() { KeepHeapAcrossRuns(); }

Simulator::~Simulator() {
  shutting_down_ = true;
  // Force every live thread to unwind: resuming a thread makes its blocking
  // primitive return, and CheckShutdown throws SimShutdown through the body.
  for (auto& t : threads_) {
    while (!t->finished_) {
      current_ = t.get();
      t->RunUntilBlocked();
      current_ = nullptr;
    }
  }
  threads_.clear();
  // Destroy pending callables without running them. Nodes themselves are
  // freed with the arena's chunks.
  for (EventNode* n = ready_head_; n != nullptr; n = n->next) {
    n->DestroyCallable();
  }
  for (EventNode* n : heap_) {
    n->DestroyCallable();
  }
}

void Simulator::InsertNode(EventNode* n) {
  if (n->time <= now_) {
    // Scheduled for "right now": seq monotonicity makes FIFO order the
    // (time, seq) order, so no ordering structure is needed.
    assert(n->time == now_);
    n->next = nullptr;
    if (ready_tail_ != nullptr) {
      ready_tail_->next = n;
    } else {
      ready_head_ = n;
    }
    ready_tail_ = n;
  } else {
    heap_.push_back(n);
    std::push_heap(heap_.begin(), heap_.end(), NodeAfter);
  }
}

EventNode* Simulator::ScheduleResume(SimThread* t, SimTime when) {
  EventNode* n = NewNode(when);
  n->resumes = t;
  InsertNode(n);
  return n;
}

EventNode* Simulator::PeekNext() const {
  EventNode* b = heap_.empty() ? nullptr : heap_.front();
  EventNode* r = ready_head_;
  if (r == nullptr) {
    return b;
  }
  if (b == nullptr) {
    return r;
  }
  return r->Before(*b) ? r : b;
}

void Simulator::RemovePeeked(EventNode* n) {
  if (n == ready_head_) {
    ready_head_ = n->next;
    if (ready_head_ == nullptr) {
      ready_tail_ = nullptr;
    }
    n->next = nullptr;
  } else {
    std::pop_heap(heap_.begin(), heap_.end(), NodeAfter);
    assert(heap_.back() == n);
    heap_.pop_back();
  }
}

SimThread* Simulator::Spawn(std::string name, HostCpu* cpu, std::function<void()> body) {
  auto t = std::unique_ptr<SimThread>(new SimThread(this, std::move(name), cpu, std::move(body)));
  SimThread* raw = t.get();
  threads_.push_back(std::move(t));
  ScheduleResume(raw, now_);
  return raw;
}

void Simulator::Run(SimTime until) {
  stopped_ = false;
  in_run_ = true;
  run_until_ = until;
  // Host-profiler attribution (reads the TSC, never virtual state): loop
  // dispatch — heap peek/pop, arena frees — charges to sim.sched
  // exclusively; closure bodies charge to sim.event; time while a resumed
  // fiber runs charges to that fiber via the Depart/Arrive edges in
  // RunUntilBlocked.
  ProfScope prof_sched(ProfDomain::kSimSched);
  for (;;) {
    EventNode* n = PeekNext();
    if (stopped_ || n == nullptr || n->time > until) {
      break;
    }
    RemovePeeked(n);
    now_ = n->time;
    events_executed_++;
    if (n->resumes != nullptr) {
      SimThread* t = n->resumes;
      arena_.Free(n);
      ResumeThread(t);
    } else {
      {
        ProfScope prof_ev(ProfDomain::kSimEvent);
        n->invoke(n);
      }
      n->DestroyCallable();
      arena_.Free(n);
    }
  }
  in_run_ = false;
  if (until != kTimeNever && now_ < until && !stopped_) {
    now_ = until;
  }
}

bool Simulator::TryFastResume(SimThread* t, EventNode* n) {
  assert(current_ == t);
  if (!in_run_ || shutting_down_) {
    return false;
  }
  // Drain events inline on this OS thread until the calling thread's own
  // wakeup `n` comes up, in which case the thread just keeps going — zero
  // handoffs. Closures run in event context exactly as the loop would run
  // them, and a parked foreign thread is resumed directly (one wake/park
  // pair instead of two via the event-loop thread); this OS thread blocks
  // until it yields, then keeps draining. The one case that aborts the
  // drain is a resume for a non-parked thread: that thread is blocked
  // inside someone's RunUntilBlocked further up the token chain, so the
  // only way to reach it is to park — the token then unwinds resumer by
  // resumer until the drain loop holding that thread's frame continues and
  // finds its own wakeup on top. Virtual behavior (time, order, event
  // count) is identical to the loop running everything.
  // The drain IS the scheduler, just running on a fiber's OS context: charge
  // it to sim.sched (nested under whatever scope the fiber holds open), with
  // closure bodies under sim.event, exactly like the main loop. The scope
  // opens lazily, once the drain commits to processing an event: most calls
  // bail on the first peek, and paying two TSC stamps on that path roughly
  // doubled the profiler's whole-run overhead (the peek itself is a few ns
  // and charges to whatever scope the caller holds — noise).
  std::optional<ProfScope> prof_sched;
  while (!stopped_) {
    EventNode* top = PeekNext();
    if (top == nullptr || top->time > run_until_) {
      return false;
    }
    SimThread* u = top->resumes;
    if (u != nullptr && u != t && !u->parked_ && !u->finished_) {
      return false;  // on the token chain above us: unwind to it
    }
    if (!prof_sched.has_value()) {
      prof_sched.emplace(ProfDomain::kSimSched);
    }
    RemovePeeked(top);
    now_ = top->time;
    events_executed_++;
    if (top == n) {
      arena_.Free(n);
      return true;
    }
    if (u != nullptr) {
      arena_.Free(top);
      if (!u->finished_) {
        thread_switches_++;
        current_ = u;
        u->RunUntilBlocked();
        current_ = t;
      }
    } else {
      current_ = nullptr;
      {
        ProfScope prof_ev(ProfDomain::kSimEvent);
        top->invoke(top);
      }
      top->DestroyCallable();
      current_ = t;
      arena_.Free(top);
    }
  }
  return false;
}

bool Simulator::CanElideWakeup(SimTime t) const {
  if (!in_run_ || stopped_ || shutting_down_) {
    return false;
  }
  t = std::max(t, now_);
  if (t > run_until_) {
    return false;
  }
  // Every queued node has a lower seq than the wakeup would get, so an
  // equal time runs first: only a strictly later (or no) next event lets
  // the wakeup go straight to the front.
  const EventNode* next = PeekNext();
  return next == nullptr || next->time > t;
}

void Simulator::ElideWakeup(SimTime t) {
  assert(CanElideWakeup(t));
  // Exactly TryFastResume's `top == n` exit, minus the node: the same clock,
  // seq and event count, with no arena node and no heap operation.
  if (t < now_) {
    t = now_;
    past_time_clamps_++;
  }
  now_ = t;
  next_seq_++;
  events_executed_++;
  elided_wakeups_++;
}

bool Simulator::TrySkipWakeup(SimTime t) {
  if (!CanElideWakeup(t)) {
    return false;
  }
  ElideWakeup(t);
  return true;
}

void Simulator::KillThread(SimThread* t) {
  assert(current_ == nullptr && "KillThread must be called outside Run()");
  t->killed_ = true;
  while (!t->finished_) {
    current_ = t;
    t->RunUntilBlocked();
    current_ = nullptr;
  }
}

void Simulator::ResumeThread(SimThread* t) {
  if (t->finished_) {
    return;  // stale wakeup for a killed thread
  }
  assert(current_ == nullptr && "nested thread resume");
  thread_switches_++;
  current_ = t;
  t->RunUntilBlocked();
  current_ = nullptr;
}

// ---------------------------------------------------------------------------
// SimThread

SimThread::SimThread(Simulator* sim, std::string name, HostCpu* cpu, std::function<void()> body)
    : sim_(sim), name_(std::move(name)), cpu_(cpu), body_(std::move(body)) {
  stack_ = stack_pool.Acquire();
  // The frame psd_fiber_switch pops on first entry, which leaves rsp 16-byte
  // aligned at psd_fiber_entry's call, as the ABI requires. The fiber
  // inherits the spawning context's FP environment.
  uint32_t mxcsr = __builtin_ia32_stmxcsr();
  uint16_t fpucw;
  asm("fnstcw %0" : "=m"(fpucw));
  auto* frame = reinterpret_cast<uint64_t*>(stack_ + kStackBytes) - 9;
  frame[0] = 0;                                             // pad
  frame[1] = mxcsr | static_cast<uint64_t>(fpucw) << 32;    // MXCSR, x87 CW
  frame[2] = 0;                                             // r15
  frame[3] = 0;                                             // r14
  frame[4] = reinterpret_cast<uint64_t>(&FiberEntry);       // r13
  frame[5] = reinterpret_cast<uint64_t>(this);              // r12
  frame[6] = 0;                                             // rbx
  frame[7] = 0;                                             // rbp: ends frame-pointer walks
  frame[8] = reinterpret_cast<uint64_t>(&psd_fiber_entry);  // return address
  fiber_sp_ = frame;
}

SimThread::~SimThread() {
  if (stack_ != nullptr) {
    stack_pool.Release(stack_);
  }
}

void SimThread::FiberMain() {
  AsanFinishSwitch(nullptr, &return_stack_lo_, &return_stack_size_);
  if (HostProfiler::enabled()) {
    HostProfiler::Get().ArriveFiber(&prof_ctx_, name_);
  }
  try {
    CheckShutdown();
    // Run the body from a local so its captures die with the body, not with
    // the SimThread object (which outlives it in Simulator::threads_).
    std::function<void()> body = std::move(body_);
    body();
  } catch (const SimShutdown&) {
    // Normal teardown path.
  }
  finished_ = true;
  parked_ = true;
  if (HostProfiler::enabled()) {
    HostProfiler::Get().Depart();
  }
  // Final exit; whoever entered this fiber returns the stack to the pool.
  AsanStartSwitch(nullptr, return_stack_lo_, return_stack_size_);
  psd_fiber_switch(&fiber_sp_, return_sp_);
  __builtin_unreachable();
}

void SimThread::RunUntilBlocked() {
  parked_ = false;
  // Host-profiler context-switch edges: remember whose host time was accruing
  // (this frame's context survives the swap on our stack), charge the swap
  // gap to fiber.swap, and restore on return.
  uint32_t prof_prev = 0;
  if (HostProfiler::enabled()) {
    prof_prev = HostProfiler::Get().Depart();
  }
  // Each entry freshly records the caller's context, so nested drain chains
  // (fiber A drains and enters fiber B, which later yields) unwind to the
  // right frame.
  SwitchStack(&return_sp_, fiber_sp_, stack_, kStackBytes, nullptr, nullptr);
  if (HostProfiler::enabled()) {
    HostProfiler::Get().Arrive(prof_prev);
  }
  if (finished_ && stack_ != nullptr) {
    stack_pool.Release(stack_);  // dead fibers keep their SimThread, not their stack
    stack_ = nullptr;
  }
}

void SimThread::YieldToSimulator() {
  parked_ = true;
  if (HostProfiler::enabled()) {
    HostProfiler::Get().Depart();
  }
  SwitchStack(&fiber_sp_, return_sp_, return_stack_lo_, return_stack_size_, &return_stack_lo_,
              &return_stack_size_);
  if (HostProfiler::enabled()) {
    HostProfiler::Get().ArriveFiber(&prof_ctx_, name_);
  }
  CheckShutdown();
}

void SimThread::CheckShutdown() {
  if ((sim_->shutting_down_ || killed_) && std::uncaught_exceptions() == 0) {
    throw SimShutdown{};
  }
}

void SimThread::Charge(SimDuration cost) {
  assert(sim_->current_thread() == this);
  if (cost <= 0) {
    return;
  }
  assert(cpu_ != nullptr && "Charge on a thread with no host CPU");
  SimTime end = cpu_->Acquire(sim_->Now(), cost);
  cpu_->AccountBusy(cost);
  SleepUntil(end);
}

void SimThread::SleepUntil(SimTime t) {
  assert(sim_->current_thread() == this);
  if (sim_->shutting_down_ || killed_) {
    return;
  }
  if (sim_->TrySkipWakeup(t)) {
    return;
  }
  EventNode* n = sim_->ScheduleResume(this, t);
  if (sim_->TryFastResume(this, n)) {
    // Our wakeup was the next event anyway: time advanced, the event was
    // consumed and counted, and this OS thread just keeps going — no
    // round trip through the event-loop thread.
    return;
  }
  YieldToSimulator();
}

void SimThread::SleepFor(SimDuration d) { SleepUntil(sim_->Now() + d); }

void SimThread::Yield() { SleepUntil(sim_->Now()); }

bool SimThread::WaitOn(WaitQueue* q, SimTime deadline, const DeadlineHook* on_deadline) {
  assert(sim_->current_thread() == this);
  if (sim_->shutting_down_ || killed_) {
    return false;
  }
  wait_epoch_++;
  timed_out_ = false;
  waiting_on_ = q;
  on_deadline_ = on_deadline;
  q->PushBack(this);
  if (deadline != kTimeNever) {
    ArmWaitDeadline(q, wait_epoch_, deadline);
  }
  try {
    YieldToSimulator();
  } catch (...) {
    // Forced unwind: leave no dangling queue entry behind. During whole-
    // simulator shutdown the queue's owner may already be destroyed, so the
    // entry is only removed on targeted kills (component destructors kill
    // their threads before freeing the queues they wait on).
    if (!sim_->shutting_down_ && waiting_on_ != nullptr) {
      waiting_on_->Remove(this);
      waiting_on_ = nullptr;
    }
    throw;
  }
  return !timed_out_;
}

void SimThread::ArmWaitDeadline(WaitQueue* q, uint64_t epoch, SimTime deadline) {
  sim_->Schedule(deadline, [this, q, epoch] {
    if (waiting_on_ != q || wait_epoch_ != epoch) {
      return;  // notified or unwound since
    }
    if (on_deadline_ != nullptr) {
      if (std::optional<SimTime> next = (*on_deadline_)()) {
        ArmWaitDeadline(q, epoch, *next);
        return;
      }
    }
    timed_out_ = true;
    waiting_on_ = nullptr;
    q->Remove(this);
    sim_->ResumeThread(this);
  });
}

// ---------------------------------------------------------------------------
// WaitQueue

void WaitQueue::PushBack(SimThread* t) {
  t->wait_prev_ = tail_;
  t->wait_next_ = nullptr;
  if (tail_ != nullptr) {
    tail_->wait_next_ = t;
  } else {
    head_ = t;
  }
  tail_ = t;
  size_++;
}

SimThread* WaitQueue::PopFront() {
  SimThread* t = head_;
  if (t != nullptr) {
    Remove(t);
  }
  return t;
}

void WaitQueue::Remove(SimThread* t) {
  if (t->wait_prev_ != nullptr) {
    t->wait_prev_->wait_next_ = t->wait_next_;
  } else {
    assert(head_ == t);
    head_ = t->wait_next_;
  }
  if (t->wait_next_ != nullptr) {
    t->wait_next_->wait_prev_ = t->wait_prev_;
  } else {
    assert(tail_ == t);
    tail_ = t->wait_prev_;
  }
  t->wait_next_ = nullptr;
  t->wait_prev_ = nullptr;
  size_--;
}

bool WaitQueue::NotifyOne() {
  SimThread* t = PopFront();
  if (t == nullptr) {
    return false;
  }
  t->waiting_on_ = nullptr;
  t->wait_epoch_++;  // invalidates any pending timeout event
  t->timed_out_ = false;
  sim_->ScheduleResume(t, sim_->now_);
  return true;
}

void WaitQueue::NotifyAll() {
  while (NotifyOne()) {
  }
}

// ---------------------------------------------------------------------------
// SimMutex / SimCondition

void SimMutex::Lock() {
  Simulator* sim = waiters_.simulator();
  SimThread* self = sim->current_thread();
  assert(self != nullptr && "SimMutex requires thread context");
  while (owner_ != nullptr) {
    self->WaitOn(&waiters_);
  }
  owner_ = self;
}

void SimMutex::Unlock() {
  SimThread* self = waiters_.simulator()->current_thread();
  if (owner_ != self) {
    // Only legal during forced unwind: a SimCondition::Wait interrupted by
    // shutdown/kill never reacquired the mutex, but the RAII lock guard
    // still runs. Outside unwind this is a bug.
    assert(std::uncaught_exceptions() > 0);
    return;
  }
  owner_ = nullptr;
  waiters_.NotifyOne();
}

bool SimCondition::Wait(SimMutex* mu, SimTime deadline) {
  Simulator* sim = q_.simulator();
  SimThread* self = sim->current_thread();
  assert(self != nullptr);
  assert(mu->owner() == self);
  mu->Unlock();
  bool notified = self->WaitOn(&q_, deadline);
  mu->Lock();
  return notified;
}

}  // namespace psd
