#include "src/sock/pollset.h"

#include <algorithm>
#include <memory>

namespace psd {

namespace {

// Retired entries, reused by the next registration on this thread. The
// bound keeps a closed 2,048-member set from parking every entry for good.
constexpr size_t kMaxParkedEntries = 4096;

std::vector<std::unique_ptr<PollEntry>>& ParkedEntries() {
  thread_local std::vector<std::unique_ptr<PollEntry>> parked;
  return parked;
}

PollEntry* NewEntry() {
  std::vector<std::unique_ptr<PollEntry>>& parked = ParkedEntries();
  if (parked.empty()) {
    return new PollEntry();
  }
  PollEntry* e = parked.back().release();
  parked.pop_back();
  return e;
}

void FreeEntry(PollEntry* e) {
  std::vector<std::unique_ptr<PollEntry>>& parked = ParkedEntries();
  if (parked.size() < kMaxParkedEntries) {
    *e = PollEntry{};
    parked.emplace_back(e);
  } else {
    delete e;
  }
}

}  // namespace

template <PollEntry::Link PollEntry::*L>
void PollEntryList<L>::PushBack(PollEntry* e) {
  (e->*L).prev = tail_;
  (e->*L).next = nullptr;
  if (tail_ != nullptr) {
    (tail_->*L).next = e;
  } else {
    head_ = e;
  }
  tail_ = e;
  size_++;
}

template <PollEntry::Link PollEntry::*L>
void PollEntryList<L>::Unlink(PollEntry* e) {
  PollEntry::Link& link = e->*L;
  if (link.prev != nullptr) {
    (link.prev->*L).next = link.next;
  } else {
    head_ = link.next;
  }
  if (link.next != nullptr) {
    (link.next->*L).prev = link.prev;
  } else {
    tail_ = link.prev;
  }
  link = PollEntry::Link{};
  size_--;
}

PollSet::PollSet(Stack* stack) : stack_(stack), cv_(stack->env()->sim), wake_cv_(&cv_) {}

PollSet::~PollSet() {
  Simulator* sim = stack_->env()->sim;
  if (sim->current_thread() != nullptr && !sim->shutting_down()) {
    DomainLock lock(stack_->sync());
    Unhook();
    return;
  }
  // Simulation-external teardown (world destruction): no thread context to
  // charge or block, so just unhook — same convention as ~Socket.
  Unhook();
}

void PollSet::Unhook() {
  while (PollEntry* e = members_.front()) {
    auto& v = e->sock->poll_entries_;
    v.erase(std::find(v.begin(), v.end(), e));
    Drop(e);
  }
}

PollEntry* PollSet::Find(Socket* s) const {
  for (PollEntry* e : s->poll_entries_) {
    if (e->set == this) {
      return e;
    }
  }
  return nullptr;
}

Result<void> PollSet::Add(Socket* s, uint32_t mask, uint64_t data) {
  if (s == nullptr) {
    return Err::kBadF;
  }
  DomainLock lock(stack_->sync());
  if (PollEntry* e = Find(s)) {
    e->mask = mask;
    e->data = data;
    return OkResult();
  }
  PollEntry* e = NewEntry();
  e->set = this;
  e->sock = s;
  e->mask = mask;
  e->data = data;
  members_.PushBack(e);
  s->poll_entries_.push_back(e);
  // Level-at-add: readiness that predates registration must still report.
  if (((mask & kPollIn) && s->Readable()) || ((mask & kPollOut) && s->Writable()) ||
      s->HasError()) {
    PushEdge(e);
  }
  return OkResult();
}

Result<void> PollSet::Remove(Socket* s) {
  DomainLock lock(stack_->sync());
  PollEntry* e = Find(s);
  if (e == nullptr) {
    return Err::kBadF;
  }
  auto& v = s->poll_entries_;
  v.erase(std::find(v.begin(), v.end(), e));
  Drop(e);
  return OkResult();
}

void PollSet::Drop(PollEntry* e) {
  if (e->queued) {
    ready_.Unlink(e);
  }
  members_.Unlink(e);
  FreeEntry(e);
}

void PollSet::PushEdge(PollEntry* e) {
  edges_++;
  if (e->queued) {
    return;
  }
  e->queued = true;
  ready_.PushBack(e);
  if (wake_cv_->has_waiters()) {
    // Same pricing as a socket wakeup: the waiter is a real thread being
    // made runnable across the placement's protection boundary.
    wakeups_++;
    stack_->sock_stats().wakeups++;
    stack_->env()->Charge(e->sock->WakeupCost());
    wake_cv_->NotifyAll();
  }
}

int PollSet::HarvestLocked(std::vector<PollReady>* out) {
  int n = 0;
  // Scan only what was queued when we started: entries re-queued below
  // (still-ready, level-triggered) land at the back and are not re-read.
  size_t scan = ready_.size();
  while (scan-- > 0) {
    PollEntry* e = ready_.front();
    ready_.Unlink(e);
    e->queued = false;
    uint32_t ev = 0;
    if ((e->mask & kPollIn) && e->sock->Readable()) {
      ev |= kPollIn;
    }
    if ((e->mask & kPollOut) && e->sock->Writable()) {
      ev |= kPollOut;
    }
    if (e->sock->HasError()) {
      ev |= kPollErr;
    }
    if (ev == 0) {
      continue;  // stale edge: the condition was consumed before harvest
    }
    out->push_back(PollReady{e->sock, e->data, ev});
    n++;
    // Level-triggered: stay queued until a harvest observes not-ready.
    e->queued = true;
    ready_.PushBack(e);
  }
  return n;
}

int PollSet::Wait(std::vector<PollReady>* out, SimDuration timeout, SimCondition* extra_cv,
                  bool* extra_flag) {
  DomainLock lock(stack_->sync());
  Simulator* sim = stack_->env()->sim;
  SimTime deadline = timeout < 0 ? kTimeNever : sim->Now() + timeout;
  SimCondition* wait_cv = extra_cv != nullptr ? extra_cv : &cv_;
  wake_cv_ = wait_cv;
  int n = 0;
  for (;;) {
    n = HarvestLocked(out);
    if (n > 0 || timeout == 0 || sim->Now() >= deadline) {
      break;
    }
    if (extra_flag != nullptr && *extra_flag) {
      break;
    }
    wait_blocks_++;
    wait_cv->Wait(stack_->sync()->mutex(), deadline);
  }
  wake_cv_ = &cv_;
  return n;
}

}  // namespace psd
