#include "src/netsim/frame_pool.h"

#include <utility>

#include "src/obs/prof.h"

namespace psd {

namespace {

struct PoolState {
  std::vector<std::vector<uint8_t>> small;
  std::vector<std::vector<uint8_t>> mtu;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t recycles = 0;
  uint64_t live = 0;
  uint64_t high_watermark = 0;
};

// One pool per host thread, like the fiber StackPool: simulations run on
// different threads never share (or race on) parked buffers or counters.
PoolState& S() {
  thread_local PoolState s;
  return s;
}

}  // namespace

std::vector<uint8_t> FramePool::Acquire(size_t n) {
  PSD_PROF_SCOPE(kPoolFrame);
  PoolState& s = S();
  std::vector<std::vector<uint8_t>>* cls = nullptr;
  size_t cls_bytes = n;
  if (n <= kSmallBytes) {
    cls = &s.small;
    cls_bytes = kSmallBytes;
  } else if (n <= kMtuBytes) {
    cls = &s.mtu;
    cls_bytes = kMtuBytes;
  }
  std::vector<uint8_t> buf;
  if (cls != nullptr && !cls->empty()) {
    buf = std::move(cls->back());
    cls->pop_back();
    s.hits++;
  } else {
    s.misses++;
    buf.reserve(cls_bytes);
  }
  s.live++;
  if (s.live > s.high_watermark) {
    s.high_watermark = s.live;
  }
  return buf;
}

std::vector<uint8_t> FramePool::CopyOf(const std::vector<uint8_t>& src) {
  std::vector<uint8_t> buf = Acquire(src.size());
  buf.assign(src.begin(), src.end());
  return buf;
}

void FramePool::Recycle(std::vector<uint8_t>&& buf) {
  PSD_PROF_SCOPE(kPoolFrame);
  PoolState& s = S();
  s.recycles++;
  if (s.live > 0) {
    s.live--;
  }
  buf.clear();
  size_t cap = buf.capacity();
  if (cap >= kMtuBytes) {
    if (s.mtu.size() < kMaxParkedPerClass) {
      s.mtu.push_back(std::move(buf));
    }
  } else if (cap >= kSmallBytes) {
    if (s.small.size() < kMaxParkedPerClass) {
      s.small.push_back(std::move(buf));
    }
  }
}

uint64_t FramePool::hits() { return S().hits; }
uint64_t FramePool::misses() { return S().misses; }
uint64_t FramePool::recycles() { return S().recycles; }
uint64_t FramePool::live() { return S().live; }
uint64_t FramePool::high_watermark() { return S().high_watermark; }
size_t FramePool::parked() { return S().small.size() + S().mtu.size(); }

void FramePool::ResetForTest() {
  PoolState& s = S();
  s.small.clear();
  s.mtu.clear();
  s.hits = s.misses = s.recycles = s.live = s.high_watermark = 0;
}

}  // namespace psd
