#include "src/mbuf/mbuf.h"

#include <algorithm>
#include <cassert>

#include "src/obs/prof.h"

namespace psd {

// ---------------------------------------------------------------------------
// MbufPool

namespace {

struct FreeBlock {
  FreeBlock* next;
};

struct MbufPoolState {
  ~MbufPoolState() { FreeParkedMbufs(); }

  void FreeParkedMbufs() {
    while (free_mbufs != nullptr) {
      FreeBlock* b = free_mbufs;
      free_mbufs = b->next;
      ::operator delete(b);
    }
    parked_mbufs = 0;
  }

  FreeBlock* free_mbufs = nullptr;
  size_t parked_mbufs = 0;
  // Parked with use_count() == 1: reissuing reuses the control block, the
  // vector and its heap storage in one pop.
  std::vector<std::shared_ptr<std::vector<uint8_t>>> clusters;
  uint64_t mbuf_hits = 0;
  uint64_t mbuf_misses = 0;
  uint64_t cluster_hits = 0;
  uint64_t cluster_misses = 0;
  uint64_t live_mbufs = 0;
  uint64_t mbuf_high_watermark = 0;
  uint64_t live_clusters = 0;
  uint64_t cluster_high_watermark = 0;
};

// One pool per host thread, like the fiber StackPool: simulations run on
// different threads never share (or race on) parked objects or counters.
MbufPoolState& PS() {
  thread_local MbufPoolState s;
  return s;
}

}  // namespace

uint64_t MbufPool::mbuf_hits() { return PS().mbuf_hits; }
uint64_t MbufPool::mbuf_misses() { return PS().mbuf_misses; }
uint64_t MbufPool::cluster_hits() { return PS().cluster_hits; }
uint64_t MbufPool::cluster_misses() { return PS().cluster_misses; }
uint64_t MbufPool::live_mbufs() { return PS().live_mbufs; }
uint64_t MbufPool::mbuf_high_watermark() { return PS().mbuf_high_watermark; }
uint64_t MbufPool::live_clusters() { return PS().live_clusters; }
uint64_t MbufPool::cluster_high_watermark() { return PS().cluster_high_watermark; }
size_t MbufPool::parked_mbufs() { return PS().parked_mbufs; }
size_t MbufPool::parked_clusters() { return PS().clusters.size(); }

void MbufPool::ResetForTest() {
  MbufPoolState& s = PS();
  s.FreeParkedMbufs();
  s = MbufPoolState{};
}

// ---------------------------------------------------------------------------
// Mbuf

void* Mbuf::operator new(size_t size) {
  MbufPoolState& s = PS();
  s.live_mbufs++;
  if (s.live_mbufs > s.mbuf_high_watermark) {
    s.mbuf_high_watermark = s.live_mbufs;
  }
  if (size == sizeof(Mbuf) && s.free_mbufs != nullptr) {
    FreeBlock* b = s.free_mbufs;
    s.free_mbufs = b->next;
    s.parked_mbufs--;
    s.mbuf_hits++;
    return b;
  }
  s.mbuf_misses++;
  return ::operator new(size);
}

void Mbuf::operator delete(void* p) {
  MbufPoolState& s = PS();
  if (s.live_mbufs > 0) {
    s.live_mbufs--;
  }
  if (s.parked_mbufs < MbufPool::kMaxParkedMbufs) {
    FreeBlock* b = static_cast<FreeBlock*>(p);
    b->next = s.free_mbufs;
    s.free_mbufs = b;
    s.parked_mbufs++;
    return;
  }
  ::operator delete(p);
}

Mbuf::~Mbuf() {
  if (cluster_ && cluster_.use_count() == 1) {
    MbufPoolState& s = PS();
    if (s.live_clusters > 0) {
      s.live_clusters--;
    }
    if (cluster_->size() == kClusterBytes && s.clusters.size() < MbufPool::kMaxParkedClusters) {
      s.clusters.push_back(std::move(cluster_));
    }
  }
}

std::unique_ptr<Mbuf> Mbuf::Get(size_t leading) {
  PSD_PROF_SCOPE(kPoolMbuf);
  assert(leading <= kMbufInline);
  auto m = std::unique_ptr<Mbuf>(new Mbuf());
  m->off_ = leading;
  return m;
}

std::unique_ptr<Mbuf> Mbuf::GetCluster(size_t capacity, size_t leading) {
  PSD_PROF_SCOPE(kPoolMbuf);
  assert(leading <= capacity);
  auto m = std::unique_ptr<Mbuf>(new Mbuf());
  MbufPoolState& s = PS();
  if (capacity == kClusterBytes && !s.clusters.empty()) {
    m->cluster_ = std::move(s.clusters.back());
    s.clusters.pop_back();
    // Re-zero so a recycled cluster is indistinguishable from the freshly
    // allocated (value-initialized) one it replaces.
    std::fill(m->cluster_->begin(), m->cluster_->end(), uint8_t{0});
    s.cluster_hits++;
  } else {
    m->cluster_ = std::make_shared<std::vector<uint8_t>>(capacity);
    s.cluster_misses++;
  }
  s.live_clusters++;
  if (s.live_clusters > s.cluster_high_watermark) {
    s.cluster_high_watermark = s.live_clusters;
  }
  m->off_ = leading;
  return m;
}

std::unique_ptr<Mbuf> Mbuf::Reference(std::shared_ptr<const std::vector<uint8_t>> owner,
                                      size_t offset, size_t len) {
  assert(offset + len <= owner->size());
  auto m = std::unique_ptr<Mbuf>(new Mbuf());
  m->ro_ref_ = std::move(owner);
  m->off_ = offset;
  m->len_ = len;
  return m;
}

std::unique_ptr<Mbuf> Mbuf::ReferenceRaw(const uint8_t* data, size_t len) {
  auto m = std::unique_ptr<Mbuf>(new Mbuf());
  m->raw_ = data;
  m->off_ = 0;
  m->len_ = len;
  return m;
}

const uint8_t* Mbuf::base() const {
  if (cluster_) {
    return cluster_->data();
  }
  if (ro_ref_) {
    return ro_ref_->data();
  }
  if (raw_ != nullptr) {
    return raw_;
  }
  return inline_;
}

uint8_t* Mbuf::mutable_data() {
  assert(!is_readonly() && "mutating a read-only reference mbuf");
  assert(!shared() && "mutating a shared cluster");
  return const_cast<uint8_t*>(base()) + off_;
}

size_t Mbuf::capacity() const {
  if (cluster_) {
    return cluster_->size();
  }
  if (ro_ref_ || raw_ != nullptr) {
    return off_ + len_;  // read-only: no growth allowed
  }
  return kMbufInline;
}

uint8_t* Mbuf::PrependInPlace(size_t n) {
  assert(leading_space() >= n);
  assert(!is_readonly());
  off_ -= n;
  len_ += n;
  return mutable_data();
}

uint8_t* Mbuf::AppendInPlace(size_t n) {
  assert(trailing_space() >= n);
  assert(!is_readonly());
  uint8_t* p = const_cast<uint8_t*>(base()) + off_ + len_;
  len_ += n;
  return p;
}

void Mbuf::TrimFront(size_t n) {
  assert(n <= len_);
  off_ += n;
  len_ -= n;
}

void Mbuf::TrimBack(size_t n) {
  assert(n <= len_);
  len_ -= n;
}

std::unique_ptr<Mbuf> Mbuf::ShareCopy(size_t offset, size_t n) const {
  assert(offset + n <= len_);
  auto m = std::unique_ptr<Mbuf>(new Mbuf());
  if (cluster_) {
    m->cluster_ = cluster_;  // share storage
    m->off_ = off_ + offset;
    m->len_ = n;
  } else if (ro_ref_) {
    m->ro_ref_ = ro_ref_;
    m->off_ = off_ + offset;
    m->len_ = n;
  } else if (raw_ != nullptr) {
    m->raw_ = raw_;
    m->off_ = off_ + offset;
    m->len_ = n;
  } else {
    assert(n <= kMbufInline);
    m->off_ = 0;
    m->len_ = n;
    std::memcpy(m->inline_, data() + offset, n);
  }
  return m;
}

// ---------------------------------------------------------------------------
// Chain

void Chain::SetHead(std::unique_ptr<Mbuf> h) {
  head_ = std::move(h);
  RecomputeTail();
}

void Chain::RecomputeTail() {
  tail_ = head_.get();
  while (tail_ && tail_->next()) {
    tail_ = tail_->next();
  }
}

Chain Chain::FromBytes(const uint8_t* p, size_t n) {
  Chain c;
  c.Append(p, n);
  return c;
}

Chain Chain::Referencing(std::shared_ptr<const std::vector<uint8_t>> owner, size_t offset,
                         size_t len) {
  Chain c;
  c.total_ = len;
  c.SetHead(Mbuf::Reference(std::move(owner), offset, len));
  return c;
}

Chain Chain::ReferencingRaw(const uint8_t* data, size_t len) {
  Chain c;
  c.total_ = len;
  c.SetHead(Mbuf::ReferenceRaw(data, len));
  return c;
}

int Chain::Append(const uint8_t* p, size_t n) {
  int allocs = 0;
  size_t done = 0;
  // Fill trailing space of the current tail first.
  if (tail_ && !tail_->is_readonly() && !tail_->shared() && tail_->trailing_space() > 0) {
    size_t take = std::min(n, tail_->trailing_space());
    std::memcpy(tail_->AppendInPlace(take), p, take);
    done += take;
  }
  while (done < n) {
    size_t remaining = n - done;
    std::unique_ptr<Mbuf> m;
    if (remaining > kMbufInline) {
      m = Mbuf::GetCluster();
    } else {
      m = Mbuf::Get();
    }
    allocs++;
    size_t take = std::min(remaining, m->trailing_space());
    std::memcpy(m->AppendInPlace(take), p + done, take);
    done += take;
    Mbuf* raw = m.get();
    if (tail_) {
      tail_->SetNext(std::move(m));
    } else {
      head_ = std::move(m);
    }
    tail_ = raw;
  }
  total_ += n;
  assert(Invariant());
  return allocs;
}

void Chain::AppendChain(Chain&& other) {
  if (other.empty() && !other.head_) {
    return;
  }
  total_ += other.total_;
  if (!head_) {
    head_ = std::move(other.head_);
    tail_ = other.tail_;
  } else {
    tail_->SetNext(std::move(other.head_));
    if (other.tail_) {
      tail_ = other.tail_;
    }
  }
  other.total_ = 0;
  other.tail_ = nullptr;
  assert(Invariant());
}

uint8_t* Chain::Prepend(size_t n) {
  if (head_ && !head_->is_readonly() && !head_->shared() && head_->leading_space() >= n) {
    total_ += n;
    return head_->PrependInPlace(n);
  }
  auto m = n > kMbufInline ? Mbuf::GetCluster(std::max(n, kClusterBytes), 0) : Mbuf::Get(0);
  uint8_t* p = m->AppendInPlace(n);
  m->SetNext(std::move(head_));
  head_ = std::move(m);
  if (!tail_) {
    tail_ = head_.get();
  }
  total_ += n;
  assert(Invariant());
  return p;
}

void Chain::TrimFront(size_t n) {
  assert(n <= total_);
  total_ -= n;
  while (n > 0) {
    assert(head_);
    size_t take = std::min(n, head_->len());
    head_->TrimFront(take);
    n -= take;
    if (head_->len() == 0 && head_->next()) {
      head_ = head_->TakeNext();
    } else if (n > 0) {
      assert(head_->next());
      head_ = head_->TakeNext();
    }
  }
  if (total_ == 0) {
    head_.reset();
    tail_ = nullptr;
  } else {
    RecomputeTail();
  }
  assert(Invariant());
}

void Chain::TrimBack(size_t n) {
  assert(n <= total_);
  total_ -= n;
  while (n > 0) {
    // Find last mbuf with data and trim it.
    Mbuf* last = head_.get();
    Mbuf* prev = nullptr;
    while (last->next()) {
      prev = last;
      last = last->next();
    }
    size_t take = std::min(n, last->len());
    last->TrimBack(take);
    n -= take;
    if (last->len() == 0 && prev) {
      prev->SetNext(nullptr);
      tail_ = prev;
    }
  }
  if (total_ == 0) {
    head_.reset();
    tail_ = nullptr;
  }
  assert(Invariant());
}

Chain Chain::SplitFront(size_t n) {
  n = std::min(n, total_);
  Chain front = CopyRange(0, n);
  TrimFront(n);
  return front;
}

Chain Chain::CopyRange(size_t off, size_t n) const {
  assert(off + n <= total_);
  Chain out;
  const Mbuf* m = head_.get();
  size_t skip = off;
  while (m && skip >= m->len()) {
    skip -= m->len();
    m = m->next();
  }
  size_t remaining = n;
  Mbuf* out_tail = nullptr;
  while (remaining > 0) {
    assert(m);
    size_t take = std::min(remaining, m->len() - skip);
    std::unique_ptr<Mbuf> piece = m->ShareCopy(skip, take);
    Mbuf* raw = piece.get();
    if (out_tail) {
      out_tail->SetNext(std::move(piece));
    } else {
      out.head_ = std::move(piece);
    }
    out_tail = raw;
    remaining -= take;
    skip = 0;
    m = m->next();
  }
  out.tail_ = out_tail;
  out.total_ = n;
  assert(out.Invariant());
  return out;
}

void Chain::CopyOut(size_t off, uint8_t* dst, size_t n) const {
  assert(off + n <= total_);
  const Mbuf* m = head_.get();
  size_t skip = off;
  while (m && skip >= m->len()) {
    skip -= m->len();
    m = m->next();
  }
  size_t done = 0;
  while (done < n) {
    assert(m);
    size_t take = std::min(n - done, m->len() - skip);
    std::memcpy(dst + done, m->data() + skip, take);
    done += take;
    skip = 0;
    m = m->next();
  }
}

std::vector<uint8_t> Chain::ToVector() const {
  std::vector<uint8_t> v(total_);
  if (total_ > 0) {
    CopyOut(0, v.data(), total_);
  }
  return v;
}

const uint8_t* Chain::Pullup(size_t n) { return MutablePullup(n); }

uint8_t* Chain::MutablePullup(size_t n) {
  if (n > total_ || n > kClusterBytes) {
    return nullptr;
  }
  if (head_ && head_->len() >= n && !head_->is_readonly() && !head_->shared()) {
    return head_->mutable_data();
  }
  // Rebuild: copy the first n bytes into a fresh mbuf, keep the rest.
  auto m = n > kMbufInline ? Mbuf::GetCluster(std::max(n, kClusterBytes), 0) : Mbuf::Get(0);
  CopyOut(0, m->AppendInPlace(n), n);
  size_t old_total = total_;
  TrimFront(n);
  m->SetNext(std::move(head_));
  head_ = std::move(m);
  total_ = old_total;
  RecomputeTail();
  assert(Invariant());
  return head_->mutable_data();
}

void Chain::Checksum(size_t off, size_t n, ChecksumAccumulator* acc) const {
  assert(off + n <= total_);
  const Mbuf* m = head_.get();
  size_t skip = off;
  while (m && skip >= m->len()) {
    skip -= m->len();
    m = m->next();
  }
  size_t done = 0;
  while (done < n) {
    assert(m);
    size_t take = std::min(n - done, m->len() - skip);
    acc->Add(m->data() + skip, take);
    done += take;
    skip = 0;
    m = m->next();
  }
}

void Chain::Clear() {
  // Iteratively unlink to avoid deep recursive unique_ptr destruction on
  // very long chains.
  while (head_) {
    head_ = head_->TakeNext();
  }
  tail_ = nullptr;
  total_ = 0;
}

int Chain::SegmentCount() const {
  int n = 0;
  for (const Mbuf* m = head_.get(); m; m = m->next()) {
    n++;
  }
  return n;
}

bool Chain::Invariant() const {
  size_t sum = 0;
  const Mbuf* last = nullptr;
  for (const Mbuf* m = head_.get(); m; m = m->next()) {
    sum += m->len();
    last = m;
  }
  return sum == total_ && last == tail_;
}

}  // namespace psd
