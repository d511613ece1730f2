// End-to-end tracer coverage: a short protolat run must produce spans from
// every decomposed layer, valid chrome://tracing JSON, and identical virtual
// time with and without a trace sink (observation cannot perturb the
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
  ChromeTraceSink sink;
  ProtolatHooks hooks;
  hooks.sinks = {&sink};
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
  ChromeTraceSink sink;
  ProtolatHooks hooks;
  hooks.sinks = {&sink};
  ProtolatOptions opt;
  opt.proto = IpProto::kUdp;
  opt.msg_size = 1;
  opt.trials = 3;
  double rtt = RunProtolat(Config::kServer, MachineProfile::DecStation5000(), opt, hooks);
  ASSERT_GT(rtt, 0.0);
  EXPECT_TRUE(sink.HasLayer(TraceLayer::kServ));
  EXPECT_TRUE(sink.HasLayer(TraceLayer::kIpc));
}

// Counts the two legs of every RPC reply: "ipc/send" on a server worker
// fiber ("<host>/ux-w<i>", "<host>/ns-w<i>") and "ipc/recv" on an
// application thread.
struct ReplyLegSink : TraceSink {
  uint64_t worker_sends = 0;
  uint64_t app_recvs = 0;

  void OnSpan(const TraceSpanData& span) override {
    if (span.thread == nullptr) {
      return;
    }
    const std::string& t = span.thread->name();
    std::string name = span.name;
    bool worker = t.find("/ux-w") != std::string::npos || t.find("/ns-w") != std::string::npos;
    bool app = t == "lat-cli" || t == "lat-echo";
    if (name == "ipc/send" && worker) {
      worker_sends++;
    } else if (name == "ipc/recv" && app) {
      app_recvs++;
    }
  }
};

// Every placement's tracer reaches the ports its RPCs reply on: each client
// RPC shows its reply leaving a server worker and arriving at the caller.
TEST(TraceExport, EveryRpcReplyLegIsTraced) {
  ProtolatOptions opt;
  opt.proto = IpProto::kUdp;
  opt.msg_size = 1;
  opt.trials = 10;
  for (Config config : {Config::kInKernel, Config::kServer, Config::kLibraryIpc,
                        Config::kLibraryShm, Config::kLibraryShmIpf}) {
    ReplyLegSink sink;
    ProtolatHooks hooks;
    hooks.sinks = {&sink};
    uint64_t rpcs = 0;
    hooks.on_end = [&rpcs](World& w) {
      for (int i = 0; i < 2; i++) {
        if (w.ux_node(i) != nullptr) {
          rpcs += w.ux_node(i)->rpc_calls().total();
        }
        if (w.library(i) != nullptr) {
          rpcs += w.library(i)->rpc_calls().total();
        }
      }
    };
    ASSERT_GT(RunProtolat(config, MachineProfile::DecStation5000(), opt, hooks), 0.0)
        << ConfigName(config);
    if (config == Config::kInKernel) {
      EXPECT_EQ(rpcs, 0u);
      EXPECT_EQ(sink.worker_sends, 0u);
      continue;
    }
    EXPECT_GT(rpcs, 0u) << ConfigName(config);
    EXPECT_EQ(sink.worker_sends, rpcs) << ConfigName(config);
    EXPECT_EQ(sink.app_recvs, rpcs) << ConfigName(config);
  }
}

TEST(TraceExport, TracerDoesNotPerturbVirtualTime) {
  ProtolatOptions opt;
  opt.proto = IpProto::kTcp;
  opt.msg_size = 512;
  opt.trials = 5;
  const MachineProfile prof = MachineProfile::DecStation5000();
  for (Config config : {Config::kInKernel, Config::kLibraryShmIpf}) {
    double plain = RunProtolat(config, prof, opt);
    ChromeTraceSink sink;
    ProtolatHooks hooks;
    hooks.sinks = {&sink};
    double traced = RunProtolat(config, prof, opt, hooks);
    EXPECT_EQ(plain, traced) << ConfigName(config);
    EXPECT_GT(sink.span_count(), 0u);
  }
}

TEST(TraceExport, StatsRegistryExportsEndToEndCounters) {
  ChromeTraceSink sink;
  ProtolatHooks hooks;
  hooks.sinks = {&sink};
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
  EXPECT_EQ(value("wire.drops.wire-fault"), 0);
  // ...and the per-host registries picked up kernel + stack counters.
  EXPECT_GT(value("h0.kern.rx_delivered"), 0);
  EXPECT_GT(value("h1.kern.rx_delivered"), 0);
}

}  // namespace
}  // namespace psd
