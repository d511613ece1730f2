// Scalable readiness: an epoll-style interest set over sockets in one
// protocol domain. Sockets push readiness *edges* into the ready-list of
// every set they are registered with, so a waiter wakes and harvests in
// O(ready) instead of re-polling its whole interest set the way select()
// does. Registration and removal are O(1): a socket finds its entry for a
// set among its own few registrations (the duplicate check), and both the
// member list and the ready list are threaded through the entries. The
// level-triggered contract matches epoll's default: an event keeps
// reporting until the condition it reports is consumed.
//
// The same object backs all placements: the in-kernel and UX-server
// placements expose it through a trap/RPC boundary (PollWait blocks a
// kernel thread or a server worker), and SelectSockets is a thin
// compatibility layer that builds a transient PollSet per call. Building a
// PollSet allocates nothing, and entries come from a per-thread free list,
// so a transient set costs no heap traffic once the list is warm.
#ifndef PSD_SRC_SOCK_POLLSET_H_
#define PSD_SRC_SOCK_POLLSET_H_

#include <cstdint>
#include <vector>

#include "src/sock/socket.h"

namespace psd {

class PollSet;

// Event masks (requested and reported).
constexpr uint32_t kPollIn = 0x1;
constexpr uint32_t kPollOut = 0x2;
// Reported whether or not requested, like POLLERR.
constexpr uint32_t kPollErr = 0x4;

// One registration: the link between a Socket and a PollSet. Owned by the
// PollSet; the Socket keeps a raw back-pointer so its wake paths can push
// edges without a lookup.
struct PollEntry {
  // A place in one of the set's two intrusive lists.
  struct Link {
    PollEntry* prev = nullptr;
    PollEntry* next = nullptr;
  };

  PollSet* set = nullptr;
  Socket* sock = nullptr;
  uint32_t mask = 0;    // kPollIn/kPollOut interest
  uint64_t data = 0;    // caller cookie (placements store the fd here)
  bool queued = false;  // on the set's ready list
  Link member;          // the set's members, in registration order
  Link ready;           // the set's ready list, oldest edge first
};

// A doubly-linked list threaded through the PollEntry link `L`: O(1) push,
// pop and unlink, no storage of its own.
template <PollEntry::Link PollEntry::*L>
class PollEntryList {
 public:
  PollEntry* front() const { return head_; }
  size_t size() const { return size_; }
  void PushBack(PollEntry* e);
  void Unlink(PollEntry* e);

 private:
  PollEntry* head_ = nullptr;
  PollEntry* tail_ = nullptr;
  size_t size_ = 0;
};

// A harvested event.
struct PollReady {
  Socket* sock = nullptr;
  uint64_t data = 0;
  uint32_t events = 0;
};

class PollSet {
 public:
  explicit PollSet(Stack* stack);
  ~PollSet();

  PollSet(const PollSet&) = delete;
  PollSet& operator=(const PollSet&) = delete;

  // Registers `s` with the given interest mask and cookie. If the socket
  // is already ready the entry is queued immediately (level-triggered
  // semantics at registration, like epoll). Re-adding an existing socket
  // updates mask/cookie in place.
  Result<void> Add(Socket* s, uint32_t mask, uint64_t data);
  Result<void> Remove(Socket* s);

  // Blocks until at least one registered socket has a pending event, the
  // timeout expires (timeout == 0 polls, < 0 waits forever), or
  // `extra_flag` becomes true after a notify of `extra_cv` (the
  // cross-placement cooperation hook, same contract as SelectSockets).
  // Returns the number of events appended to *out.
  int Wait(std::vector<PollReady>* out, SimDuration timeout, SimCondition* extra_cv = nullptr,
           bool* extra_flag = nullptr);

  // Non-blocking harvest with the domain lock already held (placement
  // internals); returns the number of events appended.
  int HarvestLocked(std::vector<PollReady>* out);

  Stack* stack() const { return stack_; }
  size_t size() const { return members_.size(); }
  size_t ready_count() const { return ready_.size(); }

  // Observability: edges pushed by sockets, waiter wakeups charged, and
  // times a Wait() actually blocked.
  uint64_t edges() const { return edges_; }
  uint64_t wakeups() const { return wakeups_; }
  uint64_t wait_blocks() const { return wait_blocks_; }

 private:
  friend class Socket;

  // This set's entry for `s`, or nullptr: a socket sits in one or two
  // sets, so its own registration list is the index.
  PollEntry* Find(Socket* s) const;
  // Called from Socket wake paths (domain lock held): queue the entry on
  // the ready list and wake the waiter.
  void PushEdge(PollEntry* e);
  // Unlinks `e` from this set's lists and frees it; the caller unlinks it
  // from its socket. Socket teardown calls it with each of its entries.
  void Drop(PollEntry* e);
  // Severs every socket back-pointer (destructor body; lock optional
  // during simulation-external teardown).
  void Unhook();

  Stack* stack_;
  PollEntryList<&PollEntry::member> members_;
  PollEntryList<&PollEntry::ready> ready_;
  SimCondition cv_;
  // Where PushEdge sends its notify: &cv_ normally, the caller's extra cv
  // while a cooperative Wait is in progress.
  SimCondition* wake_cv_;
  uint64_t edges_ = 0;
  uint64_t wakeups_ = 0;
  uint64_t wait_blocks_ = 0;
};

}  // namespace psd

#endif  // PSD_SRC_SOCK_POLLSET_H_
