#include "src/sock/pollset.h"

#include <algorithm>

namespace psd {

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
  for (auto& [sock, entry] : entries_) {
    auto& v = sock->poll_entries_;
    v.erase(std::remove(v.begin(), v.end(), entry.get()), v.end());
  }
}

Result<void> PollSet::Add(Socket* s, uint32_t mask, uint64_t data) {
  if (s == nullptr) {
    return Err::kBadF;
  }
  DomainLock lock(stack_->sync());
  auto it = entries_.find(s);
  if (it != entries_.end()) {
    it->second->mask = mask;
    it->second->data = data;
    return OkResult();
  }
  auto entry = std::make_unique<PollEntry>();
  PollEntry* e = entry.get();
  e->set = this;
  e->sock = s;
  e->mask = mask;
  e->data = data;
  entries_.emplace(s, std::move(entry));
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
  auto it = entries_.find(s);
  if (it == entries_.end()) {
    return Err::kBadF;
  }
  PollEntry* e = it->second.get();
  if (e->queued) {
    ready_.erase(std::remove(ready_.begin(), ready_.end(), e), ready_.end());
  }
  auto& v = s->poll_entries_;
  v.erase(std::remove(v.begin(), v.end(), e), v.end());
  entries_.erase(it);
  return OkResult();
}

void PollSet::DropSocket(Socket* s) {
  auto it = entries_.find(s);
  if (it == entries_.end()) {
    return;
  }
  PollEntry* e = it->second.get();
  if (e->queued) {
    ready_.erase(std::remove(ready_.begin(), ready_.end(), e), ready_.end());
  }
  entries_.erase(it);
}

void PollSet::PushEdge(PollEntry* e) {
  edges_++;
  if (e->queued) {
    return;
  }
  e->queued = true;
  ready_.push_back(e);
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
    ready_.pop_front();
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
    ready_.push_back(e);
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
