// Transport port namespace. One allocator per protocol per host. In the
// library placement this lives only in the operating-system server — "it is
// necessary to interact with a local IP port manager to ensure that the
// endpoint is uniquely named; the operating system is a convenient place to
// implement this manager" (§3.2) — and library stacks adopt ports the
// server assigned.
#ifndef PSD_SRC_INET_PORTS_H_
#define PSD_SRC_INET_PORTS_H_

#include <cstdint>
#include <set>

#include "src/base/result.h"
#include "src/obs/metastate.h"

namespace psd {

class PortAlloc {
 public:
  static constexpr uint16_t kFirstEphemeral = 1024;

  // Counts acquires and releases into `meta` (the owning Stack's).
  explicit PortAlloc(MetastateLedger* meta) : meta_(meta) {}

  // want == 0 requests an ephemeral port. Returns kAddrInUse if taken.
  Result<uint16_t> Acquire(uint16_t want) {
    if (want != 0) {
      if (used_.count(want)) {
        return Err::kAddrInUse;
      }
      used_.insert(want);
      meta_->Count(MetaEvent::kPortAcquire);
      return want;
    }
    for (int i = 0; i < 65536 - kFirstEphemeral; i++) {
      uint16_t p = next_ephemeral_;
      next_ephemeral_ = next_ephemeral_ == 65535 ? kFirstEphemeral : next_ephemeral_ + 1;
      if (!used_.count(p)) {
        used_.insert(p);
        meta_->Count(MetaEvent::kPortAcquire);
        return p;
      }
    }
    return Err::kAddrNotAvail;
  }

  void Release(uint16_t port) {
    if (used_.erase(port) > 0) {
      meta_->Count(MetaEvent::kPortRelease);
    }
  }
  bool InUse(uint16_t port) const { return used_.count(port) > 0; }
  size_t count() const { return used_.size(); }

 private:
  MetastateLedger* meta_;
  std::set<uint16_t> used_;
  uint16_t next_ephemeral_ = kFirstEphemeral;
};

}  // namespace psd

#endif  // PSD_SRC_INET_PORTS_H_
