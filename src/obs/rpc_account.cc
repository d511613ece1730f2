#include "src/obs/rpc_account.h"

namespace psd {

void RpcOpRecorder::Record(int slot, uint64_t bytes_in, uint64_t bytes_out,
                           SimDuration queue_wait, SimDuration service) {
  if (slot < 0 || static_cast<size_t>(slot) >= ops_.size()) {
    unknown_++;
    return;
  }
  RpcOpStats& s = ops_[static_cast<size_t>(slot)];
  s.count++;
  s.bytes_in += bytes_in;
  s.bytes_out += bytes_out;
  s.queue_wait.Record(queue_wait);
  s.service.Record(service);
}

uint64_t RpcOpRecorder::total_count() const {
  uint64_t n = 0;
  for (const RpcOpStats& s : ops_) {
    n += s.count;
  }
  return n;
}

}  // namespace psd
