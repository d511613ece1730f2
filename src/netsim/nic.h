// NIC device models.
//
// Two cost models from the paper's platforms:
//  * Lance (DECstation): DMA engine; received frames land in device memory
//    whose reads are slow (devread_per_byte); transmit writes are posted and
//    cheap (devwrite_per_byte). Copies are charged to whoever performs them.
//  * 3C503 (Gateway 486): 8-bit programmed I/O; every byte in either
//    direction costs pio_per_byte of host CPU.
//
// Received frames sit in a fixed-size rx ring ("device memory"). The driver
// (src/kern) is notified via the rx-interrupt hook and reads or copies
// frames out, charging the per-byte read cost. Ring overflow drops frames,
// which transport protocols must recover from.
#ifndef PSD_SRC_NETSIM_NIC_H_
#define PSD_SRC_NETSIM_NIC_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>

#include "src/base/time.h"
#include "src/cost/machine_profile.h"
#include "src/netsim/ether.h"
#include "src/netsim/frame_ring.h"
#include "src/netsim/segment.h"
#include "src/obs/observatory.h"
#include "src/sim/simulator.h"

namespace psd {

struct NicParams {
  SimDuration rx_read_per_byte;   // charge to copy a received byte out of device memory
  SimDuration tx_write_per_byte;  // charge to place a byte into device tx memory
  bool pio_blocks_cpu;            // PIO NIC: transfers consume CPU inline
  size_t rx_ring_frames;          // device rx buffering

  static NicParams Lance(const MachineProfile& p) {
    return NicParams{p.devread_per_byte, p.devwrite_per_byte, false, 32};
  }
  static NicParams Pio8Bit(const MachineProfile& p) {
    return NicParams{p.pio_per_byte, p.pio_per_byte, true, 16};
  }
};

class Nic {
 public:
  Nic(Simulator* sim, Observatory* obs, HostCpu* cpu, std::string name, NicParams params)
      : sim_(sim),
        obs_(obs),
        cpu_(cpu),
        name_(std::move(name)),
        node_(&obs->journey, name_),
        params_(params),
        rx_ring_(params.rx_ring_frames) {}

  void Attach(EthernetSegment* segment, MacAddr mac) {
    segment_ = segment;
    mac_ = mac;
    segment->Attach(this);
  }

  MacAddr mac() const { return mac_; }
  const std::string& name() const { return name_; }
  HostCpu* cpu() const { return cpu_; }
  Simulator* simulator() const { return sim_; }

  // Driver hook: invoked in event context whenever the rx ring goes from
  // empty to non-empty. The driver drains via RxPeek/RxPop.
  void SetRxNotify(std::function<void()> notify) { rx_notify_ = std::move(notify); }

  bool RxPending() const { return !rx_ring_.empty(); }
  // Frame at the head of the rx ring, resident in device memory. Reading its
  // bytes must be charged via rx_read_per_byte (the integrated packet filter
  // reads only the headers this way).
  const Frame& RxHead() const { return rx_ring_.front(); }
  Frame RxPop() { return rx_ring_.Pop(); }

  // Transmits a frame. Must be called from SimThread context; charges the
  // device-write cost for placing the frame into tx memory, then hands the
  // frame to the segment for serialization.
  void Transmit(Frame frame);

  // Called by the segment on frame arrival (event context). Takes the
  // frame by value so the segment's single-target fan-out can move it all
  // the way into the rx ring without a copy.
  void DeliverFromWire(Frame frame);

  const NicParams& params() const { return params_; }
  uint64_t rx_dropped() const { return rx_dropped_; }
  uint64_t rx_frames() const { return rx_frames_; }
  uint64_t tx_frames() const { return tx_frames_; }

 private:
  Simulator* sim_;
  Observatory* obs_;
  HostCpu* cpu_;
  std::string name_;
  JourneyNode node_;  // name_
  NicParams params_;
  EthernetSegment* segment_ = nullptr;
  MacAddr mac_;
  std::function<void()> rx_notify_;
  FrameRing rx_ring_;
  uint64_t rx_dropped_ = 0;
  uint64_t rx_frames_ = 0;
  uint64_t tx_frames_ = 0;
};

}  // namespace psd

#endif  // PSD_SRC_NETSIM_NIC_H_
