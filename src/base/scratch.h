// Per-call working storage that keeps its capacity between calls.
//
// A hot path that needs temporary vectors borrows a T from a per-thread
// free list and hands it back when the borrow ends, so the vectors keep
// their capacity and steady-state calls allocate nothing. Every live borrow
// has a T of its own: a fiber that blocks while holding one (a select
// waiting in the OS server) cannot have its storage reused under it by
// another fiber entering the same function. The free list never holds more
// Ts than were ever borrowed at once. A borrower clears what it reads.
#ifndef PSD_SRC_BASE_SCRATCH_H_
#define PSD_SRC_BASE_SCRATCH_H_

#include <memory>
#include <vector>

namespace psd {

template <typename T>
class Scratch {
 public:
  Scratch() {
    std::vector<std::unique_ptr<T>>& free = FreeList();
    if (free.empty()) {
      item_ = std::make_unique<T>();
    } else {
      item_ = std::move(free.back());
      free.pop_back();
    }
  }
  ~Scratch() { FreeList().push_back(std::move(item_)); }

  Scratch(const Scratch&) = delete;
  Scratch& operator=(const Scratch&) = delete;

  T& operator*() { return *item_; }
  T* operator->() { return item_.get(); }

 private:
  static std::vector<std::unique_ptr<T>>& FreeList() {
    thread_local std::vector<std::unique_ptr<T>> free;
    return free;
  }

  std::unique_ptr<T> item_;
};

}  // namespace psd

#endif  // PSD_SRC_BASE_SCRATCH_H_
