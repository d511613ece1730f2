// Arena-allocated event nodes for the simulator's scheduler.
//
// Every scheduled event used to be a std::priority_queue element carrying a
// std::function — one type-erasure heap allocation per event, on the path
// every simulated packet takes several times. EventNode replaces that with a
// recycled fixed-size node: the callback is constructed into an inline
// buffer when it fits (every callback in the tree today does), and nodes
// come from EventArena's freelist, so steady-state scheduling never touches
// the system allocator.
//
// A node is exactly one of:
//   * a plain thread resume (`resumes != nullptr`, no callable) — the
//     dominant event kind (SleepUntil/Charge/NotifyOne wakeups), or
//   * a callable (`invoke != nullptr`), with `destroy` set when the
//     callable has a non-trivial destructor.
#ifndef PSD_SRC_SIM_EVENT_NODE_H_
#define PSD_SRC_SIM_EVENT_NODE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/base/time.h"

namespace psd {

class SimThread;

struct EventNode {
  static constexpr size_t kInlineFnBytes = 64;

  SimTime time = 0;
  uint64_t seq = 0;
  EventNode* next = nullptr;  // freelist / ready-FIFO link
  SimThread* resumes = nullptr;
  void (*invoke)(EventNode*) = nullptr;
  void (*destroy)(EventNode*) = nullptr;
  alignas(std::max_align_t) unsigned char fn_buf[kInlineFnBytes];

  // (time, seq) is the simulator's total execution order.
  bool Before(const EventNode& o) const { return time != o.time ? time < o.time : seq < o.seq; }

  template <typename F>
  void EmplaceCallable(F&& fn) {
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineFnBytes && alignof(Fn) <= alignof(std::max_align_t)) {
      new (static_cast<void*>(fn_buf)) Fn(std::forward<F>(fn));
      invoke = [](EventNode* n) { (*reinterpret_cast<Fn*>(n->fn_buf))(); };
      if constexpr (!std::is_trivially_destructible_v<Fn>) {
        destroy = [](EventNode* n) { reinterpret_cast<Fn*>(n->fn_buf)->~Fn(); };
      }
    } else {
      // Oversized callable: one heap allocation, the pointer parked inline.
      *reinterpret_cast<Fn**>(static_cast<void*>(fn_buf)) = new Fn(std::forward<F>(fn));
      invoke = [](EventNode* n) { (**reinterpret_cast<Fn**>(static_cast<void*>(n->fn_buf)))(); };
      destroy = [](EventNode* n) { delete *reinterpret_cast<Fn**>(static_cast<void*>(n->fn_buf)); };
    }
  }

  // Frees the stored callable without invoking it (teardown path; also run
  // after a normal invoke).
  void DestroyCallable() {
    if (destroy != nullptr) {
      destroy(this);
      destroy = nullptr;
    }
    invoke = nullptr;
  }
};

// Chunk-allocating freelist of EventNodes. Nodes are stable (never moved);
// chunks are only released when the arena dies.
class EventArena {
 public:
  EventNode* Alloc() {
    if (free_ == nullptr) {
      Grow();
    }
    EventNode* n = free_;
    free_ = n->next;
    n->next = nullptr;
    return n;
  }

  // The caller must have destroyed any stored callable first.
  void Free(EventNode* n) {
    n->resumes = nullptr;
    n->invoke = nullptr;
    n->destroy = nullptr;
    n->next = free_;
    free_ = n;
  }

 private:
  static constexpr size_t kChunkNodes = 256;

  void Grow() {
    chunks_.push_back(std::make_unique<EventNode[]>(kChunkNodes));
    EventNode* chunk = chunks_.back().get();
    for (size_t i = 0; i < kChunkNodes; i++) {
      chunk[i].next = free_;
      free_ = &chunk[i];
    }
  }

  EventNode* free_ = nullptr;
  std::vector<std::unique_ptr<EventNode[]>> chunks_;
};

}  // namespace psd

#endif  // PSD_SRC_SIM_EVENT_NODE_H_
