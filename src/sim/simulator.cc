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

// Min-heap comparator for heap_: true when `a` executes later. A function
// object, so the heap algorithms inline it.
struct NodeAfter {
  bool operator()(const EventNode* a, const EventNode* b) const { return b->Before(*a); }
};

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

FpEnv ReadFpEnv() {
  FpEnv e;
  e.mxcsr = __builtin_ia32_stmxcsr();
  asm volatile("fnstcw %0" : "=m"(e.x87_cw));
  return e;
}

void LoadFpEnv(const FpEnv& e) {
  __builtin_ia32_ldmxcsr(e.mxcsr);
  asm volatile("fldcw %0" : : "m"(e.x87_cw));
}

}  // namespace

Simulator::Simulator() { KeepHeapAcrossRuns(); }

Simulator::~Simulator() {
  shutting_down_ = true;
  // Force every live thread to unwind: resuming a thread makes its blocking
  // primitive return, and CheckShutdown throws SimShutdown through the body.
  for (auto& t : threads_) {
    while (!t->finished_) {
      SwitchTo(nullptr, t.get());
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
    std::push_heap(heap_.begin(), heap_.end(), NodeAfter{});
  }
}

void Simulator::ScheduleResume(SimThread* t, SimTime when) {
  EventNode* n = NewNode(when);
  n->resumes = t;
  InsertNode(n);
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
    std::pop_heap(heap_.begin(), heap_.end(), NodeAfter{});
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
  run_fp_env_ = ReadFpEnv();
  Dispatch(nullptr);
  in_run_ = false;
  if (until != kTimeNever && now_ < until && !stopped_) {
    now_ = until;
  }
}

void Simulator::Dispatch(SimThread* self) {
  // Host-profiler attribution (reads the TSC, never virtual state): the
  // loop — heap peek/pop, arena frees — charges to sim.sched, closure
  // bodies to sim.event. The scope closes before the switch, whose
  // Depart/Arrive edges charge the gap to fiber.swap.
  SimThread* next = nullptr;
  // Closures run under Run's caller's FP environment. On a fiber's stack,
  // the first closure swaps it in if the fiber's differs, and the fiber's
  // comes back on return; the switch keeps each context's own.
  bool fp_env_checked = self == nullptr;
  bool fp_env_swapped = false;
  FpEnv own_fp_env;
  {
    ProfScope prof_sched(ProfDomain::kSimSched);
    while (next == nullptr) {
      EventNode* n = PeekNext();
      if (!in_run_ || stopped_ || shutting_down_ || n == nullptr || n->time > run_until_) {
        break;
      }
      RemovePeeked(n);
      now_ = n->time;
      events_executed_++;
      if (n->resumes != nullptr) {
        next = n->resumes;
        arena_.Free(n);
      } else {
        if (!fp_env_checked) {
          fp_env_checked = true;
          own_fp_env = ReadFpEnv();
          fp_env_swapped = own_fp_env != run_fp_env_;
          if (fp_env_swapped) {
            LoadFpEnv(run_fp_env_);
          }
        }
        current_ = nullptr;
        {
          ProfScope prof_ev(ProfDomain::kSimEvent);
          n->invoke(n);
        }
        n->DestroyCallable();
        arena_.Free(n);
        next = handoff_;
        handoff_ = nullptr;
      }
      if (next != nullptr && next->finished_) {
        next = nullptr;  // stale wakeup for a killed thread
      }
    }
  }
  if (next != self) {
    SwitchTo(self, next);
  } else {
    current_ = self;
  }
  if (fp_env_swapped) {
    LoadFpEnv(own_fp_env);
  }
}

void Simulator::SwitchTo(SimThread* from, SimThread* to) {
  if (HostProfiler::enabled()) {
    HostProfiler::Get().Depart();
  }
  void** save_sp = from != nullptr ? &from->fiber_sp_ : &main_sp_;
  void* fake_stack = nullptr;
  void** fake_stack_slot = &fake_stack;
  if (from != nullptr && from->finished_) {
    // Never resumed: whoever comes next frees its stack, and ASan its fake
    // stack.
    exited_ = from;
    fake_stack_slot = nullptr;
  }
  if (to != nullptr) {
    thread_switches_++;
    AsanStartSwitch(fake_stack_slot, to->stack_, kStackBytes);
    psd_fiber_switch(save_sp, to->fiber_sp_);
  } else {
    AsanStartSwitch(fake_stack_slot, main_stack_lo_, main_stack_size_);
    psd_fiber_switch(save_sp, main_sp_);
  }
  Arrived(from, fake_stack);
}

void Simulator::Arrived(SimThread* self, void* fake_stack) {
  if (main_stack_size_ == 0) {
    AsanFinishSwitch(fake_stack, &main_stack_lo_, &main_stack_size_);
  } else {
    AsanFinishSwitch(fake_stack, nullptr, nullptr);
  }
  if (HostProfiler::enabled()) {
    if (self != nullptr) {
      HostProfiler::Get().ArriveFiber(&self->prof_ctx_, self->name_);
    } else {
      HostProfiler::Get().Arrive(0);  // Run's caller is the profiler's base context
    }
  }
  if (exited_ != nullptr) {
    stack_pool.Release(exited_->stack_);  // dead fibers keep their SimThread, not their stack
    exited_->stack_ = nullptr;
    exited_ = nullptr;
  }
  current_ = self;
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
  // Exactly Dispatch popping the thread's own wakeup, minus the node: the
  // same clock, seq and event count, with no arena node and no heap
  // operation.
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
    SwitchTo(nullptr, t);
  }
}

void Simulator::ResumeThread(SimThread* t) {
  assert(current_ == nullptr && handoff_ == nullptr && "one resume per closure");
  handoff_ = t;
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
  sim_->Arrived(this, nullptr);
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
  // Final exit: dispatch on until a switch leaves this stack for good.
  sim_->Dispatch(this);
  __builtin_unreachable();
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
  sim_->ScheduleResume(this, t);
  sim_->Dispatch(this);
  CheckShutdown();
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
    sim_->Dispatch(this);
    CheckShutdown();
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
