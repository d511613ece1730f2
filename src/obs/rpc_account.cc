#include "src/obs/rpc_account.h"

namespace psd {

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
