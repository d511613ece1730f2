// Flight-recorder integration tests:
//  * fault injection — the tcpstat-style retransmit/dup-ACK counters must
//    agree exactly with the instant events the tracer saw, under wire loss;
//  * zero cost — attaching the whole recorder (histograms + stats export +
//    both pcap taps) must not move virtual time by a nanosecond;
//  * StatsRegistry::Reset — back-to-back Worlds in one process must not
//    leak gauges (or dangling component pointers) across runs.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench/common/workloads.h"
#include "src/obs/histogram.h"
#include "src/obs/netstat.h"
#include "src/obs/pcap.h"
#include "src/obs/stats.h"
#include "src/obs/trace.h"

namespace psd {
namespace {

// Sums every counter whose dotted name ends with `suffix`.
uint64_t SumSuffix(const std::vector<StatsRegistry::Entry>& entries, const std::string& suffix) {
  uint64_t sum = 0;
  for (const auto& e : entries) {
    if (e.name.size() >= suffix.size() &&
        e.name.compare(e.name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      sum += e.value;
    }
  }
  return sum;
}

TEST(FlightRecorder, CountersMatchTracerUnderLoss) {
  HistogramSink hist;
  ProtolatHooks hooks;
  hooks.sinks = {&hist};
  hooks.on_world = [](World& w) {
    FaultPlan plan;
    plan.loss_rate = 0.05;
    plan.seed = 7;
    w.wire().SetFaults(plan);
  };
  // Snapshot counters and instant counts at the same virtual instant
  // (on_done): the tracer keeps observing the TCP close handshake after
  // this point, so comparing a later sink state against this snapshot
  // would skew.
  std::vector<StatsRegistry::Entry> snap;
  uint64_t wire_dropped = 0;
  uint64_t rexmit_instants = 0;
  uint64_t dupack_instants = 0;
  hooks.on_done = [&](World& w) {
    StatsRegistry reg;
    w.ExportStats(0, &reg);
    w.ExportStats(1, &reg);
    snap = reg.Snapshot();
    reg.Reset();
    wire_dropped = w.wire().frames_dropped();
    rexmit_instants = hist.instant_count("tcp/rexmit");
    dupack_instants = hist.instant_count("tcp/dupack");
  };
  ProtolatOptions opt;
  opt.proto = IpProto::kTcp;
  opt.msg_size = 512;
  opt.trials = 40;
  ASSERT_GT(RunProtolat(Config::kInKernel, MachineProfile::DecStation5000(), opt, hooks), 0.0);

  // 5% loss on a TCP echo must actually have exercised the recovery paths.
  ASSERT_GT(wire_dropped, 0u);
  uint64_t rexmits = SumSuffix(snap, ".tcp.retransmits");
  uint64_t dupacks = SumSuffix(snap, ".tcp.dup_acks");
  EXPECT_GT(rexmits, 0u);
  // Every counted retransmission and dup-ACK emitted exactly one tracer
  // instant at the same program point — the streams must agree exactly.
  EXPECT_EQ(rexmits, rexmit_instants);
  EXPECT_EQ(dupacks, dupack_instants);
  // Timeout-driven recovery shows up in the rexmt_timeouts block.
  EXPECT_EQ(SumSuffix(snap, ".tcp.rexmt_timeouts") > 0 ||
                SumSuffix(snap, ".tcp.fast_retransmits") > 0,
            true);
}

TEST(FlightRecorder, FullRecorderChargesZeroVirtualCost) {
  ProtolatOptions opt;
  opt.proto = IpProto::kTcp;
  opt.msg_size = 512;
  opt.trials = 10;
  const MachineProfile prof = MachineProfile::DecStation5000();
  for (Config config : {Config::kInKernel, Config::kServer, Config::kLibraryShmIpf}) {
    double plain = RunProtolat(config, prof, opt);

    HistogramSink hist;
    PcapCapture wire_cap;
    PcapCapture kern_cap;
    ProtolatHooks hooks;
    hooks.sinks = {&hist};
    hooks.on_world = [&](World& w) {
      w.AttachWirePcap(&wire_cap);
      w.AttachKernelPcap(0, &kern_cap);
      w.AttachKernelPcap(1, &kern_cap);
    };
    std::string netstat_text;
    hooks.on_done = [&](World& w) {
      StatsRegistry reg;
      w.ExportStats(0, &reg);
      w.ExportStats(1, &reg);
      w.ExportWireStats(&reg);
      netstat_text = NetstatText(reg.Snapshot());
      reg.Reset();
    };
    double recorded = RunProtolat(config, prof, opt, hooks);

    // Byte-identical virtual time: the recorder observed everything and
    // charged nothing.
    EXPECT_EQ(plain, recorded) << ConfigName(config);
    EXPECT_GT(wire_cap.packet_count(), 0u) << ConfigName(config);
    EXPECT_NE(hist.Find("protolat/rtt"), nullptr) << ConfigName(config);
    EXPECT_FALSE(netstat_text.empty());
  }
}

TEST(FlightRecorder, RttHistogramCoversMeasuredTrials) {
  HistogramSink hist;
  ProtolatHooks hooks;
  hooks.sinks = {&hist};
  ProtolatOptions opt;
  opt.proto = IpProto::kUdp;
  opt.msg_size = 1;
  opt.trials = 25;
  double mean_ms =
      RunProtolat(Config::kLibraryShmIpf, MachineProfile::DecStation5000(), opt, hooks);
  ASSERT_GT(mean_ms, 0.0);
  const LatencyHistogram* rtt = hist.Find("protolat/rtt");
  ASSERT_NE(rtt, nullptr);
  // One span per measured trial (warmup excluded).
  EXPECT_EQ(rtt->count(), static_cast<uint64_t>(opt.trials));
  // The histogram's mean is the same mean the workload reports, and the
  // quantiles bracket it.
  EXPECT_NEAR(rtt->MeanMicros() / 1000.0, mean_ms, 1e-9);
  EXPECT_LE(rtt->Quantile(0.0), rtt->Quantile(0.5));
  EXPECT_LE(rtt->Quantile(0.5), rtt->Quantile(0.99));
  EXPECT_GE(ToMicros(rtt->max()) + 1e-6, rtt->MeanMicros());
}

TEST(FlightRecorder, StatsRegistryResetPreventsCarryOverBetweenWorlds) {
  StatsRegistry reg;
  ProtolatOptions opt;
  opt.proto = IpProto::kUdp;
  opt.msg_size = 1;
  opt.trials = 3;
  const MachineProfile prof = MachineProfile::DecStation5000();

  ProtolatHooks first;
  size_t first_gauges = 0;
  first.on_done = [&](World& w) {
    w.ExportStats(0, &reg);
    w.ExportWireStats(&reg);
    first_gauges = reg.size();
    ASSERT_FALSE(reg.Snapshot().empty());
    // Contract: a registry outliving its World must Reset before the World
    // dies — afterwards it is empty, and the next run starts clean.
    reg.Reset();
  };
  ASSERT_GT(RunProtolat(Config::kInKernel, prof, opt, first), 0.0);
  EXPECT_GT(first_gauges, 0u);
  EXPECT_EQ(reg.size(), 0u);
  EXPECT_TRUE(reg.Snapshot().empty());

  // Second World, same registry: only the second run's gauges exist, so no
  // double registration and no stale pointers into the dead first World.
  ProtolatHooks second;
  std::vector<StatsRegistry::Entry> snap;
  second.on_done = [&](World& w) {
    w.ExportStats(0, &reg);
    w.ExportWireStats(&reg);
    snap = reg.Snapshot();
    EXPECT_EQ(reg.size(), first_gauges) << "same config must re-register the same gauge set";
    reg.Reset();
  };
  ASSERT_GT(RunProtolat(Config::kInKernel, prof, opt, second), 0.0);
  int carried = 0;
  for (const auto& e : snap) {
    if (e.name == "wire.frames_carried") {
      carried++;
      EXPECT_GT(e.value, 0u);
    }
  }
  EXPECT_EQ(carried, 1) << "exactly one registration after Reset, not an accumulated duplicate";
}

}  // namespace
}  // namespace psd
