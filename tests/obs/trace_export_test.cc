// End-to-end tracer coverage: a short protolat run must produce spans from
// every decomposed layer, valid chrome://tracing JSON, and identical virtual
// time with and without the tracer attached (observation cannot perturb the
// simulation).
#include <gtest/gtest.h>

#include <cstddef>
#include <sstream>
#include <string>

#include "bench/common/workloads.h"
#include "src/obs/chrome_trace.h"
#include "src/obs/stats.h"
#include "src/obs/trace.h"

namespace psd {
namespace {

// Minimal JSON well-formedness check: every brace/bracket balances outside
// string literals and the document is a single object.
void ExpectBalancedJson(const std::string& json) {
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  int depth = 0;
  bool in_str = false;
  size_t closed_at = std::string::npos;
  for (size_t i = 0; i < json.size(); i++) {
    char c = json[i];
    if (in_str) {
      if (c == '\\') {
        i++;
      } else if (c == '"') {
        in_str = false;
      }
    } else if (c == '"') {
      in_str = true;
    } else if (c == '{' || c == '[') {
      depth++;
    } else if (c == '}' || c == ']') {
      depth--;
      ASSERT_GE(depth, 0) << "unbalanced close at offset " << i;
      if (depth == 0 && closed_at == std::string::npos) {
        closed_at = i;
      }
    }
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_str);
  // Nothing but whitespace after the top-level object closes.
  ASSERT_NE(closed_at, std::string::npos);
  for (size_t i = closed_at + 1; i < json.size(); i++) {
    EXPECT_TRUE(json[i] == '\n' || json[i] == ' ') << "trailing junk at " << i;
  }
}

TEST(TraceExport, ProtolatCoversAllDecomposedLayers) {
  Tracer tracer;
  ChromeTraceSink sink;
  tracer.AddSink(&sink);
  ProtolatHooks hooks;
  hooks.tracer = &tracer;
  ProtolatOptions opt;
  opt.proto = IpProto::kUdp;
  opt.msg_size = 100;
  opt.trials = 5;
  double rtt = RunProtolat(Config::kLibraryShmIpf, MachineProfile::DecStation5000(), opt, hooks);
  ASSERT_GT(rtt, 0.0);
  EXPECT_GT(sink.span_count(), 0u);
  // The ISSUE's acceptance bar: spans from all five decomposed subsystems.
  EXPECT_TRUE(sink.HasLayer(TraceLayer::kKern));
  EXPECT_TRUE(sink.HasLayer(TraceLayer::kIpc));
  EXPECT_TRUE(sink.HasLayer(TraceLayer::kFilter));
  EXPECT_TRUE(sink.HasLayer(TraceLayer::kInet));
  EXPECT_TRUE(sink.HasLayer(TraceLayer::kCore));
  // Plus the socket boundary and analytic wire transit.
  EXPECT_TRUE(sink.HasLayer(TraceLayer::kSock));
  EXPECT_TRUE(sink.HasLayer(TraceLayer::kWire));

  std::ostringstream os;
  sink.WriteJson(os);
  std::string json = os.str();
  ExpectBalancedJson(json);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  // Both simulated hosts render as named processes.
  EXPECT_NE(json.find("{\"name\":\"h0\"}"), std::string::npos);
  EXPECT_NE(json.find("{\"name\":\"h1\"}"), std::string::npos);
}

TEST(TraceExport, ServerConfigEmitsServLayer) {
  Tracer tracer;
  ChromeTraceSink sink;
  tracer.AddSink(&sink);
  ProtolatHooks hooks;
  hooks.tracer = &tracer;
  ProtolatOptions opt;
  opt.proto = IpProto::kUdp;
  opt.msg_size = 1;
  opt.trials = 3;
  double rtt = RunProtolat(Config::kServer, MachineProfile::DecStation5000(), opt, hooks);
  ASSERT_GT(rtt, 0.0);
  EXPECT_TRUE(sink.HasLayer(TraceLayer::kServ));
  EXPECT_TRUE(sink.HasLayer(TraceLayer::kIpc));
}

TEST(TraceExport, TracerDoesNotPerturbVirtualTime) {
  ProtolatOptions opt;
  opt.proto = IpProto::kTcp;
  opt.msg_size = 512;
  opt.trials = 5;
  const MachineProfile prof = MachineProfile::DecStation5000();
  for (Config config : {Config::kInKernel, Config::kLibraryShmIpf}) {
    double plain = RunProtolat(config, prof, opt);
    Tracer tracer;
    ChromeTraceSink sink;
    tracer.AddSink(&sink);
    ProtolatHooks hooks;
    hooks.tracer = &tracer;
    double traced = RunProtolat(config, prof, opt, hooks);
    EXPECT_EQ(plain, traced) << ConfigName(config);
    EXPECT_GT(sink.span_count(), 0u);
  }
}

TEST(TraceExport, StatsRegistryExportsEndToEndCounters) {
  Tracer tracer;
  ChromeTraceSink sink;
  tracer.AddSink(&sink);
  ProtolatHooks hooks;
  hooks.tracer = &tracer;
  std::vector<StatsRegistry::Entry> snap;
  hooks.on_done = [&snap](World& w) {
    StatsRegistry reg;
    w.ExportStats(0, &reg);
    w.ExportStats(1, &reg);
    w.ExportWireStats(&reg);
    snap = reg.Snapshot();
  };
  ProtolatOptions opt;
  opt.proto = IpProto::kUdp;
  opt.msg_size = 1;
  opt.trials = 3;
  ASSERT_GT(RunProtolat(Config::kLibraryShmIpf, MachineProfile::DecStation5000(), opt, hooks),
            0.0);
  ASSERT_FALSE(snap.empty());
  auto value = [&snap](const std::string& name) -> int64_t {
    for (const auto& e : snap) {
      if (e.name == name) {
        return static_cast<int64_t>(e.value);
      }
    }
    return -1;
  };
  // Both directions of the echo carried frames over the wire...
  EXPECT_GT(value("wire.frames_carried"), 0);
  EXPECT_EQ(value("wire.frames_dropped"), 0);
  // ...and the per-host registries picked up kernel + stack counters.
  EXPECT_GT(value("h0.kern.rx_delivered"), 0);
  EXPECT_GT(value("h1.kern.rx_delivered"), 0);
}

}  // namespace
}  // namespace psd
