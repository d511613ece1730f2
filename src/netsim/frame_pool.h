// Recycles the heap buffers behind Frame (src/netsim/ether.h).
//
// Frames are copied at every hand-over point of the delivery path — wire
// fan-out closures, NIC rx rings, kernel queues, SHM rings — and each copy
// used to be a fresh heap allocation that died microseconds later. The pool
// parks retired buffers in two size classes (small control frames, full MTU
// frames) and hands them back to Frame's copy constructor and to
// Frame::OfSize, so steady-state traffic allocates nothing.
//
// Recycled buffers are cleared (size 0) when parked and either zero-filled
// (Acquire/OfSize) or fully overwritten (CopyOf) when reissued, so a reused
// frame can never leak a previous packet's payload; pkt_id lives in the
// Frame object itself, not the buffer, and never travels with recycled
// storage. tests/netsim/pool_lifecycle_test.cc holds the pool to this.
//
// The pool, its counters included, is per host thread. No locking within a
// thread: everything in the simulation runs under the simulator's strict
// token handoff (one logical thread), which is the same discipline that
// protects every other engine structure; simulations on different threads
// never share a pool.
#ifndef PSD_SRC_NETSIM_FRAME_POOL_H_
#define PSD_SRC_NETSIM_FRAME_POOL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace psd {

class FramePool {
 public:
  static constexpr size_t kSmallBytes = 128;   // ACKs, control frames
  static constexpr size_t kMtuBytes = 1514;    // kEtherHeaderLen + kEtherMtu
  static constexpr size_t kMaxParkedPerClass = 4096;

  // An empty buffer (size 0) with capacity for the size class covering `n`
  // (or exactly `n` if it exceeds every class). Counted as a hit when a
  // parked buffer was reused.
  static std::vector<uint8_t> Acquire(size_t n);

  // A pooled buffer holding an exact copy of `src`.
  static std::vector<uint8_t> CopyOf(const std::vector<uint8_t>& src);

  // Parks `buf` for reuse (called by ~Frame). Buffers smaller than the
  // small class, or beyond the per-class bound, are simply freed.
  static void Recycle(std::vector<uint8_t>&& buf);

  static uint64_t hits();
  static uint64_t misses();
  static uint64_t recycles();
  // Buffers currently issued and not yet recycled (approximate: frames
  // built without the pool recycle into it too; clamped at zero).
  static uint64_t live();
  static uint64_t high_watermark();
  static size_t parked();

  // Frees every parked buffer and zeroes the counters (test isolation).
  static void ResetForTest();
};

}  // namespace psd

#endif  // PSD_SRC_NETSIM_FRAME_POOL_H_
