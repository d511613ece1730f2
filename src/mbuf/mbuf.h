// BSD-style mbuf chains: the unit of packet memory in the protocol stack.
//
// An mbuf either carries a small amount of inline data, or references a
// refcounted external buffer (a "cluster"). Cluster references make
// m_copy-style range copies cheap (TCP's retransmission queue shares data
// with in-flight segments instead of duplicating it) and support the NEWAPI
// shared-buffer socket interface, where application and stack exchange
// buffer ownership instead of copying (paper §4.2).
//
// Unlike historical BSD, ownership is explicit: Mbuf links are unique_ptrs
// and cluster storage is shared_ptr-managed. The invariants that matter to
// the protocols (chain length bookkeeping, headroom behaviour, sharing) are
// covered by property tests in tests/mbuf/.
#ifndef PSD_SRC_MBUF_MBUF_H_
#define PSD_SRC_MBUF_MBUF_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "src/base/checksum.h"

namespace psd {

// Default cluster capacity, matching the BSD MCLBYTES of the era.
constexpr size_t kClusterBytes = 2048;
// Inline capacity of a small mbuf (BSD: MLEN ~ 108 on 4.3).
constexpr size_t kMbufInline = 112;

// Recycling pools behind Mbuf allocation (stats side; the pools themselves
// are internal to mbuf.cc). Mbuf objects are recycled through class-level
// operator new/delete; kClusterBytes cluster buffers are recycled —
// control block, vector and heap storage together — when the last
// reference dies, and re-zeroed on reissue so a recycled cluster is
// indistinguishable from a fresh one. The pools, their counters included,
// are per host thread: within a thread they rely on the simulator's strict
// token handoff instead of locks, and simulations on different threads
// never share them.
class MbufPool {
 public:
  static constexpr size_t kMaxParkedMbufs = 8192;
  static constexpr size_t kMaxParkedClusters = 4096;

  static uint64_t mbuf_hits();
  static uint64_t mbuf_misses();
  static uint64_t cluster_hits();
  static uint64_t cluster_misses();
  static uint64_t live_mbufs();
  static uint64_t mbuf_high_watermark();
  static uint64_t live_clusters();
  static uint64_t cluster_high_watermark();
  static size_t parked_mbufs();
  static size_t parked_clusters();

  // Frees every parked object and zeroes the counters (test isolation).
  static void ResetForTest();
};

class Mbuf {
 public:
  // Small mbuf with inline storage. `leading` reserves headroom for
  // protocol headers to be prepended later.
  static std::unique_ptr<Mbuf> Get(size_t leading = 0);

  // Cluster mbuf owning `capacity` bytes of external storage.
  static std::unique_ptr<Mbuf> GetCluster(size_t capacity = kClusterBytes, size_t leading = 0);

  // Mbuf referencing a caller-owned immutable buffer without copying
  // (library UDP send path; NEWAPI). `owner` keeps the storage alive.
  static std::unique_ptr<Mbuf> Reference(std::shared_ptr<const std::vector<uint8_t>> owner,
                                         size_t offset, size_t len);

  // References raw caller-owned bytes with no ownership transfer. Only
  // safe when the caller's buffer outlives the chain (synchronous sends:
  // the library UDP path serializes to a frame before returning).
  static std::unique_ptr<Mbuf> ReferenceRaw(const uint8_t* data, size_t len);

  const uint8_t* data() const { return base() + off_; }
  uint8_t* mutable_data();
  size_t len() const { return len_; }
  bool is_cluster() const { return cluster_ != nullptr; }
  bool is_readonly() const { return ro_ref_ != nullptr || raw_ != nullptr; }
  // True if the cluster storage is shared with another mbuf (copy-on-write
  // needed before mutation).
  bool shared() const { return cluster_ && cluster_.use_count() > 1; }

  size_t leading_space() const { return off_; }
  size_t trailing_space() const { return capacity() - off_ - len_; }
  size_t capacity() const;

  // Extends the data region forward into the headroom. Requires space.
  uint8_t* PrependInPlace(size_t n);
  // Extends the data region into trailing space. Requires space.
  uint8_t* AppendInPlace(size_t n);
  void TrimFront(size_t n);
  void TrimBack(size_t n);

  Mbuf* next() const { return next_.get(); }
  std::unique_ptr<Mbuf> TakeNext() { return std::move(next_); }
  void SetNext(std::unique_ptr<Mbuf> n) { next_ = std::move(n); }

  // Shallow copy sharing cluster storage; inline data is duplicated.
  std::unique_ptr<Mbuf> ShareCopy(size_t offset, size_t n) const;

  // Recycles the cluster into MbufPool when this was its last reference.
  ~Mbuf();
  // Mbuf objects themselves come from a freelist.
  static void* operator new(size_t size);
  static void operator delete(void* p);

 private:
  Mbuf() = default;
  const uint8_t* base() const;

  std::unique_ptr<Mbuf> next_;
  size_t off_ = 0;
  size_t len_ = 0;
  uint8_t inline_[kMbufInline];
  std::shared_ptr<std::vector<uint8_t>> cluster_;
  std::shared_ptr<const std::vector<uint8_t>> ro_ref_;
  const uint8_t* raw_ = nullptr;
};

// A chain of mbufs representing one packet or a byte stream segment.
// Maintains total length as an invariant (checked by tests).
class Chain {
 public:
  Chain() = default;
  Chain(Chain&&) = default;
  Chain& operator=(Chain&&) = default;
  Chain(const Chain&) = delete;
  Chain& operator=(const Chain&) = delete;

  static Chain FromBytes(const uint8_t* p, size_t n);
  static Chain FromVector(const std::vector<uint8_t>& v) { return FromBytes(v.data(), v.size()); }
  // Zero-copy chain referencing caller-owned storage.
  static Chain Referencing(std::shared_ptr<const std::vector<uint8_t>> owner, size_t offset,
                           size_t len);
  // Zero-copy chain over raw bytes (see Mbuf::ReferenceRaw safety note).
  static Chain ReferencingRaw(const uint8_t* data, size_t len);

  size_t len() const { return total_; }
  bool empty() const { return total_ == 0; }
  Mbuf* head() const { return head_.get(); }

  // Appends `n` bytes by copy, using trailing space then new clusters.
  // Returns the number of mbuf/cluster allocations performed (for cost
  // accounting by the caller).
  int Append(const uint8_t* p, size_t n);
  void AppendChain(Chain&& other);

  // Prepends `n` bytes of header space and returns a contiguous pointer to
  // it. Allocates a new leading mbuf if the head lacks headroom.
  uint8_t* Prepend(size_t n);

  void TrimFront(size_t n);
  void TrimBack(size_t n);

  // Removes the first min(n, len) bytes into a new chain (m_split).
  Chain SplitFront(size_t n);

  // Copies [off, off+n) into a new chain; cluster storage is shared, not
  // duplicated (BSD m_copy). Used by TCP to transmit from the send queue
  // while retaining the data for retransmission.
  Chain CopyRange(size_t off, size_t n) const;

  void CopyOut(size_t off, uint8_t* dst, size_t n) const;
  std::vector<uint8_t> ToVector() const;

  // Ensures the first `n` bytes are contiguous in the head mbuf and returns
  // a pointer to them (m_pullup). Returns nullptr if n > len or n exceeds
  // what a single mbuf can hold.
  const uint8_t* Pullup(size_t n);
  uint8_t* MutablePullup(size_t n);

  // Adds [off, off+n) to `acc` without copying.
  void Checksum(size_t off, size_t n, ChecksumAccumulator* acc) const;

  void Clear();

  // Number of mbufs in the chain (diagnostics/tests).
  int SegmentCount() const;

  // Internal consistency: cached length equals sum of segment lengths.
  bool Invariant() const;

 private:
  std::unique_ptr<Mbuf> head_;
  Mbuf* tail_ = nullptr;  // last mbuf, for O(1) append
  size_t total_ = 0;

  void SetHead(std::unique_ptr<Mbuf> h);
  void RecomputeTail();
};

}  // namespace psd

#endif  // PSD_SRC_MBUF_MBUF_H_
