// Pcap golden tests: a struct-level checker for the libpcap file format
// (magic, version, linktype, record framing) plus an end-to-end capture
// whose packet counts must agree with the wire and kernel delivery stats.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "bench/common/workloads.h"
#include "src/obs/pcap.h"
#include "src/obs/stats.h"

namespace psd {
namespace {

uint32_t ReadU32(const std::string& b, size_t off) {
  return static_cast<uint32_t>(static_cast<uint8_t>(b[off])) |
         static_cast<uint32_t>(static_cast<uint8_t>(b[off + 1])) << 8 |
         static_cast<uint32_t>(static_cast<uint8_t>(b[off + 2])) << 16 |
         static_cast<uint32_t>(static_cast<uint8_t>(b[off + 3])) << 24;
}

uint16_t ReadU16(const std::string& b, size_t off) {
  return static_cast<uint16_t>(static_cast<uint8_t>(b[off]) |
                               static_cast<uint8_t>(b[off + 1]) << 8);
}

struct ParsedRecord {
  uint64_t ts_micros = 0;
  uint32_t incl_len = 0;
  uint32_t orig_len = 0;
  size_t data_off = 0;
};

// Parses the whole file, asserting on structural corruption; returns the
// record table.
std::vector<ParsedRecord> CheckPcap(const std::string& b) {
  EXPECT_GE(b.size(), 24u) << "truncated global header";
  EXPECT_EQ(ReadU32(b, 0), PcapCapture::kMagicMicros);
  EXPECT_EQ(ReadU16(b, 4), PcapCapture::kVersionMajor);
  EXPECT_EQ(ReadU16(b, 6), PcapCapture::kVersionMinor);
  EXPECT_EQ(ReadU32(b, 8), 0u);   // thiszone
  EXPECT_EQ(ReadU32(b, 12), 0u);  // sigfigs
  EXPECT_EQ(ReadU32(b, 16), PcapCapture::kSnapLen);
  EXPECT_EQ(ReadU32(b, 20), PcapCapture::kLinktypeEthernet);

  std::vector<ParsedRecord> recs;
  size_t off = 24;
  while (off < b.size()) {
    EXPECT_GE(b.size() - off, 16u) << "truncated record header at " << off;
    ParsedRecord r;
    r.ts_micros = static_cast<uint64_t>(ReadU32(b, off)) * 1000000 + ReadU32(b, off + 4);
    r.incl_len = ReadU32(b, off + 8);
    r.orig_len = ReadU32(b, off + 12);
    r.data_off = off + 16;
    EXPECT_EQ(r.incl_len, r.orig_len) << "snaplen never truncates simulated frames";
    EXPECT_GE(b.size() - r.data_off, r.incl_len) << "truncated record body";
    recs.push_back(r);
    off = r.data_off + r.incl_len;
  }
  EXPECT_EQ(off, b.size());
  return recs;
}

TEST(Pcap, WritesValidFileStructure) {
  PcapCapture cap;
  std::vector<uint8_t> f1(60, 0xab);
  std::vector<uint8_t> f2(1514, 0x5a);
  cap.Capture(Seconds(1) + Micros(250), f1.data(), f1.size());
  cap.CaptureFrame(Seconds(2), f2);
  EXPECT_EQ(cap.packet_count(), 2u);
  EXPECT_EQ(cap.byte_count(), f1.size() + f2.size());

  std::ostringstream os;
  cap.WriteTo(os);
  std::string bytes = os.str();
  std::vector<ParsedRecord> recs = CheckPcap(bytes);
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].ts_micros, 1000250u);
  EXPECT_EQ(recs[0].incl_len, 60u);
  EXPECT_EQ(recs[1].ts_micros, 2000000u);
  EXPECT_EQ(recs[1].incl_len, 1514u);
  // Payload bytes round-trip exactly.
  EXPECT_EQ(static_cast<uint8_t>(bytes[recs[0].data_off]), 0xab);
  EXPECT_EQ(static_cast<uint8_t>(bytes[recs[1].data_off + 1513]), 0x5a);
}

TEST(Pcap, WriteFileFailsOnBadPath) {
  PcapCapture cap;
  std::vector<uint8_t> f(64, 1);
  cap.CaptureFrame(0, f);
  EXPECT_FALSE(cap.WriteFile("/nonexistent-dir/x/y.pcap"));
}

TEST(Pcap, WireAndKernelTapsMatchStats) {
  PcapCapture wire_cap;
  PcapCapture kern_cap;
  // Counts and capture sizes are compared at the same virtual instant
  // (on_done) — the taps keep capturing the TCP close handshake afterwards.
  uint64_t frames_carried = 0;
  uint64_t rx_delivered = 0;
  size_t wire_packets_at_done = 0;
  size_t kern_packets_at_done = 0;
  ProtolatHooks hooks;
  hooks.on_world = [&](World& w) {
    w.AttachWirePcap(&wire_cap);
    w.AttachKernelPcap(0, &kern_cap);
    w.AttachKernelPcap(1, &kern_cap);
  };
  hooks.on_done = [&](World& w) {
    frames_carried = w.wire().frames_carried();
    wire_packets_at_done = wire_cap.packet_count();
    kern_packets_at_done = kern_cap.packet_count();
    StatsRegistry reg;
    w.ExportStats(0, &reg);
    w.ExportStats(1, &reg);
    for (const auto& e : reg.Snapshot()) {
      if (e.name == "h0.kern.rx_delivered" || e.name == "h1.kern.rx_delivered") {
        rx_delivered += e.value;
      }
    }
    reg.Reset();
  };
  ProtolatOptions opt;
  opt.proto = IpProto::kTcp;
  opt.msg_size = 100;
  opt.trials = 5;
  ASSERT_GT(RunProtolat(Config::kInKernel, MachineProfile::DecStation5000(), opt, hooks), 0.0);

  // The wire tap sees exactly the frames the segment carried; the kernel
  // tap sees exactly the frames delivered to a matched endpoint.
  EXPECT_GT(frames_carried, 0u);
  EXPECT_EQ(wire_packets_at_done, frames_carried);
  EXPECT_GT(rx_delivered, 0u);
  EXPECT_EQ(kern_packets_at_done, rx_delivered);
  // The close handshake after on_done only ever adds records.
  EXPECT_GE(wire_cap.packet_count(), wire_packets_at_done);
  EXPECT_GE(kern_cap.packet_count(), kern_packets_at_done);

  // Both captures are structurally valid with monotone virtual timestamps.
  for (const PcapCapture* cap : {&wire_cap, &kern_cap}) {
    std::ostringstream os;
    cap->WriteTo(os);
    std::vector<ParsedRecord> recs = CheckPcap(os.str());
    ASSERT_EQ(recs.size(), cap->packet_count());
    uint64_t total = 0;
    for (size_t i = 0; i < recs.size(); i++) {
      total += recs[i].incl_len;
      EXPECT_EQ(recs[i].incl_len, cap->record_len(i));
      if (i > 0) {
        EXPECT_GE(recs[i].ts_micros, recs[i - 1].ts_micros) << "timestamps must not go backwards";
      }
    }
    EXPECT_EQ(total, cap->byte_count());
    // Every captured frame is at least an Ethernet header.
    for (size_t i = 0; i < recs.size(); i++) {
      EXPECT_GE(recs[i].incl_len, static_cast<uint32_t>(kEtherHeaderLen));
    }
  }
}

}  // namespace
}  // namespace psd
