#include "src/obs/rpc_account.h"

#include <cassert>

namespace psd {

void RpcOpRecorder::Merge(const RpcOpRecorder& other) {
  assert(other.ops_.size() == ops_.size());
  for (size_t i = 0; i < ops_.size() && i < other.ops_.size(); i++) {
    RpcOpStats& dst = ops_[i];
    const RpcOpStats& src = other.ops_[i];
    dst.count += src.count;
    dst.bytes_in += src.bytes_in;
    dst.bytes_out += src.bytes_out;
    dst.queue_wait.Merge(src.queue_wait);
    dst.service.Merge(src.service);
  }
  unknown_ += other.unknown_;
}

uint64_t RpcOpRecorder::total_count() const {
  uint64_t n = 0;
  for (const RpcOpStats& s : ops_) {
    n += s.count;
  }
  return n;
}

void RpcOpRecorder::Reset() {
  for (RpcOpStats& s : ops_) {
    s = RpcOpStats{};
  }
  unknown_ = 0;
}

void RpcClientCounter::Reset() {
  for (uint64_t& c : counts_) {
    c = 0;
  }
  total_ = 0;
}

}  // namespace psd
