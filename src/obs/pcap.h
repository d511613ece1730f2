// libpcap capture of simulated traffic.
//
// A PcapCapture buffers (virtual timestamp, frame bytes) records and writes
// a standard libpcap file — magic 0xa1b2c3d4 (microsecond resolution),
// version 2.4, LINKTYPE_ETHERNET — that Wireshark and tcpdump open
// directly. Tap points:
//   * the netsim wire (EthernetSegment::SetPcapTap): every frame whose
//     transmission starts on the segment, stamped at transmission start,
//     including frames the fault injector later drops (a real sniffer on
//     the cable would see them too);
//   * the kernel delivery boundary (Kernel::SetPcapTap): frames as they are
//     handed to a matched endpoint, after filtering.
// Capturing copies bytes on the host but charges no simulated cost, so a
// tap cannot perturb virtual time. With no tap attached each tap point is
// a null-pointer test.
#ifndef PSD_SRC_OBS_PCAP_H_
#define PSD_SRC_OBS_PCAP_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "src/base/time.h"

namespace psd {

class PcapCapture {
 public:
  static constexpr uint32_t kMagicMicros = 0xa1b2c3d4;
  static constexpr uint16_t kVersionMajor = 2;
  static constexpr uint16_t kVersionMinor = 4;
  static constexpr uint32_t kLinktypeEthernet = 1;
  static constexpr uint32_t kSnapLen = 65535;

  // Appends one record. `at` is the virtual capture instant; records must
  // be appended in nondecreasing time order (both tap points guarantee
  // this: simulated time never runs backwards within one capture point).
  void Capture(SimTime at, const uint8_t* data, size_t len);
  void CaptureFrame(SimTime at, const std::vector<uint8_t>& frame) {
    Capture(at, frame.data(), frame.size());
  }

  size_t packet_count() const { return records_.size(); }
  uint64_t byte_count() const { return bytes_; }
  SimTime timestamp(size_t i) const { return records_[i].at; }
  size_t record_len(size_t i) const { return records_[i].bytes.size(); }
  const std::vector<uint8_t>& record_bytes(size_t i) const { return records_[i].bytes; }

  // Writes the complete capture (global header + records), little-endian.
  void WriteTo(std::ostream& os) const;
  // Convenience wrapper; false if the path cannot be opened or written.
  bool WriteFile(const std::string& path) const;

  void Reset() {
    records_.clear();
    bytes_ = 0;
  }

 private:
  struct Record {
    SimTime at;
    std::vector<uint8_t> bytes;
  };

  std::vector<Record> records_;
  uint64_t bytes_ = 0;
};

}  // namespace psd

#endif  // PSD_SRC_OBS_PCAP_H_
