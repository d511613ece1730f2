// Per-op RPC cost accounting.
//
// The decomposed placements turn socket calls into messages: the UX server
// placement sends every socket op across a Mach-style RPC, and the library
// placements still call the OS server for the shared-metastate ops (bind,
// connect, accept handover, ARP/route misses, session return). Table 2's
// "RPC overhead" row is a single number; deciding which ops dominate needs
// per-op counts, payload bytes, and the split between *queue wait* (request
// sat in the server port behind other requests — the contention signal) and
// *service time* (the handler itself, including any blocking the op implies:
// kPollWait/kAccept service time contains the parked wait, which IS the
// placement's notification path).
//
// Two sides:
//  * RpcOpRecorder    — server side, indexed by op slot. One recorder per
//                       server: the engine runs one fiber at a time, so all
//                       of a server's workers record into it single-writer.
//  * RpcClientCounter — client side, per-op call counts in the placement's
//                       API layer, so RPCs-per-connection amplification can
//                       be computed without trusting the server's view.
//
// Virtual durations only; recording charges no simulated cost.
#ifndef PSD_SRC_OBS_RPC_ACCOUNT_H_
#define PSD_SRC_OBS_RPC_ACCOUNT_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "src/base/time.h"
#include "src/obs/histogram.h"

namespace psd {

// An op's name without its family tag ("ux/accept" -> "accept"): the tag
// is redundant inside an export prefix or a per-server table.
inline const char* OpLeafName(const char* name) {
  const char* slash = std::strchr(name, '/');
  return slash != nullptr ? slash + 1 : name;
}

// Per-op aggregate. `queue_wait` is enqueue -> dequeue at the server port;
// `service` is dequeue -> reply ready.
struct RpcOpStats {
  uint64_t count = 0;
  uint64_t bytes_in = 0;   // request payload bytes
  uint64_t bytes_out = 0;  // reply payload bytes
  LatencyHistogram queue_wait;
  LatencyHistogram service;
};

class RpcOpRecorder {
 public:
  explicit RpcOpRecorder(size_t slots) : ops_(slots) {}

  // `slot` out of range (an op the caller could not map) lands in unknown().
  void Record(int slot, uint64_t bytes_in, uint64_t bytes_out, SimDuration queue_wait,
              SimDuration service);

  const RpcOpStats& op(size_t slot) const { return ops_[slot]; }
  size_t slots() const { return ops_.size(); }
  uint64_t total_count() const;
  uint64_t unknown() const { return unknown_; }

 private:
  std::vector<RpcOpStats> ops_;
  uint64_t unknown_ = 0;
};

class RpcClientCounter {
 public:
  explicit RpcClientCounter(size_t slots) : counts_(slots, 0) {}

  void Count(int slot) {
    total_++;
    if (slot >= 0 && static_cast<size_t>(slot) < counts_.size()) {
      counts_[static_cast<size_t>(slot)]++;
    }
  }

  uint64_t count(size_t slot) const { return counts_[slot]; }
  size_t slots() const { return counts_.size(); }
  uint64_t total() const { return total_; }

 private:
  std::vector<uint64_t> counts_;
  uint64_t total_ = 0;
};

}  // namespace psd

#endif  // PSD_SRC_OBS_RPC_ACCOUNT_H_
