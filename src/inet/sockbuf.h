// Socket buffers (BSD so_snd / so_rcv). A SockBuf holds either a byte
// stream (TCP) or a list of datagrams with source addresses (UDP) and
// tracks character count against a high-water mark. It notifies nobody: the
// protocol wakes blocked readers/writers and select() through its pcb's
// wakeup hooks after it changes a buffer.
#ifndef PSD_SRC_INET_SOCKBUF_H_
#define PSD_SRC_INET_SOCKBUF_H_

#include <cstdint>
#include <deque>
#include <utility>

#include "src/inet/addr.h"
#include "src/mbuf/mbuf.h"

namespace psd {

class SockBuf {
 public:
  explicit SockBuf(size_t hiwat) : hiwat_(hiwat) {}

  SockBuf(SockBuf&&) = default;
  SockBuf& operator=(SockBuf&&) = default;

  size_t cc() const { return cc_; }
  size_t hiwat() const { return hiwat_; }
  void set_hiwat(size_t h) { hiwat_ = h; }
  size_t space() const { return cc_ >= hiwat_ ? 0 : hiwat_ - cc_; }
  bool empty() const { return cc_ == 0; }

  // --- Stream mode (TCP) ---

  void AppendStream(Chain c) {
    cc_ += c.len();
    stream_.AppendChain(std::move(c));
  }

  // Copies [off, off+n) without consuming (TCP transmits from the send
  // buffer but keeps data for retransmission).
  Chain CopyRange(size_t off, size_t n) const { return stream_.CopyRange(off, n); }

  // Drops n bytes from the front (TCP: data acknowledged / reader consumed).
  void Drop(size_t n) {
    stream_.TrimFront(n);
    cc_ -= n;
  }

  // Consumes up to max bytes from the front into a new chain.
  Chain TakeStream(size_t max) {
    size_t n = max < cc_ ? max : cc_;
    Chain out = stream_.SplitFront(n);
    cc_ -= n;
    return out;
  }

  const Chain& stream() const { return stream_; }

  // --- Datagram mode (UDP) ---

  struct Dgram {
    SockAddrIn from;
    Chain data;
  };

  // Appends a datagram if it fits (sbappendaddr); returns false on
  // overflow, in which case the datagram is dropped — UDP's contract.
  bool AppendDgram(SockAddrIn from, Chain c) {
    if (c.len() + sizeof(SockAddrIn) > space()) {
      return false;
    }
    cc_ += c.len() + sizeof(SockAddrIn);
    dgrams_.push_back(Dgram{from, std::move(c)});
    return true;
  }

  bool TakeDgram(Dgram* out) {
    if (dgrams_.empty()) {
      return false;
    }
    *out = std::move(dgrams_.front());
    dgrams_.pop_front();
    cc_ -= out->data.len() + sizeof(SockAddrIn);
    return true;
  }

  const Dgram* PeekDgram() const { return dgrams_.empty() ? nullptr : &dgrams_.front(); }
  size_t dgram_count() const { return dgrams_.size(); }

  void Clear() {
    stream_.Clear();
    dgrams_.clear();
    cc_ = 0;
  }

 private:
  size_t hiwat_;
  size_t cc_ = 0;
  Chain stream_;
  std::deque<Dgram> dgrams_;
};

}  // namespace psd

#endif  // PSD_SRC_INET_SOCKBUF_H_
