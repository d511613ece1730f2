// Scalable readiness: an epoll-style interest set over sockets in one
// protocol domain. Sockets push readiness *edges* into the ready-list of
// every set they are registered with, so a waiter wakes and harvests in
// O(ready) instead of re-polling its whole interest set the way select()
// does. Registration is O(log n) (sorted map — also the duplicate check),
// and the level-triggered contract matches epoll's default: an event keeps
// reporting until the condition it reports is consumed.
//
// The same object backs all placements: the in-kernel and UX-server
// placements expose it through a trap/RPC boundary (PollWait blocks a
// kernel thread or a server worker), and SelectSockets is a thin
// compatibility layer that builds a transient PollSet per call.
#ifndef PSD_SRC_SOCK_POLLSET_H_
#define PSD_SRC_SOCK_POLLSET_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
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
  PollSet* set = nullptr;
  Socket* sock = nullptr;
  uint32_t mask = 0;    // kPollIn/kPollOut interest
  uint64_t data = 0;    // caller cookie (placements store the fd here)
  bool queued = false;  // already on the set's ready list
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
  size_t size() const { return entries_.size(); }
  size_t ready_count() const { return ready_.size(); }

  // Observability: edges pushed by sockets, waiter wakeups charged, and
  // times a Wait() actually blocked.
  uint64_t edges() const { return edges_; }
  uint64_t wakeups() const { return wakeups_; }
  uint64_t wait_blocks() const { return wait_blocks_; }

 private:
  friend class Socket;

  // Called from Socket wake paths (domain lock held): queue the entry on
  // the ready list and wake the waiter.
  void PushEdge(PollEntry* e);
  // Called from Socket teardown: the socket is dying, forget it.
  void DropSocket(Socket* s);
  // Severs every socket back-pointer (destructor body; lock optional
  // during simulation-external teardown).
  void Unhook();

  Stack* stack_;
  // Sorted by socket pointer: doubles as the O(log n) duplicate check.
  std::map<Socket*, std::unique_ptr<PollEntry>> entries_;
  std::deque<PollEntry*> ready_;
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
