// Bounded packet queue with a sleeping consumer. Used for:
//  * the in-kernel stack's netisr input queue,
//  * the shared-memory packet-filter rings between kernel and applications
//    (Library-SHM / Library-SHM-IPF configurations), and
//  * the server's input path in tests.
//
// The consumer blocks when empty; the producer pays `signal_cost` only when
// the consumer is actually asleep — which is what makes the shared-memory
// interface amortize scheduling overhead over packet trains (paper §4.1:
// "the scheduling overhead of packet delivery is amortized over multiple
// packets").
#ifndef PSD_SRC_KERN_PACKET_QUEUE_H_
#define PSD_SRC_KERN_PACKET_QUEUE_H_

#include <cstdint>
#include <string>
#include <utility>

#include "src/base/time.h"
#include "src/netsim/ether.h"
#include "src/netsim/frame_ring.h"
#include "src/obs/observatory.h"
#include "src/sim/simulator.h"

namespace psd {

class PacketQueue {
 public:
  // Overflow drops are recorded into `obs` under the queue's name.
  PacketQueue(Simulator* sim, Observatory* obs, std::string name, size_t capacity_frames = 64,
              SimDuration signal_cost = 0)
      : sim_(sim),
        obs_(obs),
        name_(std::move(name)),
        node_(&obs->journey, name_),
        signal_cost_(signal_cost),
        nonempty_(sim),
        queue_(capacity_frames) {}

  // Producer side. Requires thread context (the kernel's interrupt thread).
  // Returns false if the queue overflowed and the frame was dropped.
  bool Push(Frame f) {
    if (queue_.full()) {
      obs_->drops.Record(f.pkt_id, TraceLayer::kKern, DropReason::kQueueOverflow, sim_->Now(),
                         node_.id());
      return false;
    }
    queue_.Push(std::move(f));
    if (queue_.size() > high_watermark_) {
      high_watermark_ = queue_.size();
    }
    if (consumer_waiting_) {
      if (signal_cost_ > 0) {
        SimThread* self = sim_->current_thread();
        if (self != nullptr) {
          self->Charge(signal_cost_);
        }
      }
      signals_++;
      nonempty_.NotifyOne();
    }
    return true;
  }

  // Consumer side: blocks until a frame is available or `deadline`.
  // `blocked` (optional) reports whether the consumer actually slept — the
  // caller charges the context switch once per wakeup, which is what makes
  // batched shared-memory delivery cheap.
  bool Pop(Frame* out, SimTime deadline = kTimeNever, bool* blocked = nullptr) {
    SimThread* self = sim_->current_thread();
    if (blocked != nullptr) {
      *blocked = false;
    }
    while (queue_.empty()) {
      consumer_waiting_ = true;
      bool ok = self->WaitOn(&nonempty_, deadline);
      consumer_waiting_ = false;
      if (blocked != nullptr) {
        *blocked = true;
      }
      if (!ok) {
        return false;
      }
    }
    *out = queue_.Pop();
    popped_++;
    return true;
  }

  bool TryPop(Frame* out) {
    if (queue_.empty()) {
      return false;
    }
    *out = queue_.Pop();
    popped_++;
    return true;
  }

  size_t size() const { return queue_.size(); }
  bool empty() const { return queue_.empty(); }
  uint64_t popped() const { return popped_; }
  // Deepest the queue has ever been (frames), for sizing capacity.
  uint64_t high_watermark() const { return high_watermark_; }
  // Wakeups actually delivered; popped/signals is the batching factor.
  uint64_t signals() const { return signals_; }
  const std::string& name() const { return name_; }
  // The queue's journey node: overflow drops are recorded here, and so are
  // the frames crash cleanup drains.
  JourneyNode& node() { return node_; }

 private:
  Simulator* sim_;
  Observatory* obs_;
  std::string name_;
  JourneyNode node_;
  SimDuration signal_cost_;
  WaitQueue nonempty_;
  FrameRing queue_;  // preallocated ring: steady state allocates nothing
  bool consumer_waiting_ = false;
  uint64_t popped_ = 0;
  uint64_t signals_ = 0;
  uint64_t high_watermark_ = 0;
};

}  // namespace psd

#endif  // PSD_SRC_KERN_PACKET_QUEUE_H_
