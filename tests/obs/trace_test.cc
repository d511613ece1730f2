#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "src/obs/chrome_trace.h"
#include "src/obs/probe.h"
#include "src/obs/stats.h"
#include "src/obs/trace.h"
#include "src/sim/simulator.h"

namespace psd {
namespace {

// Records every callback verbatim for assertions.
struct RecordingSink : TraceSink {
  std::vector<TraceSpanData> spans;
  struct InstantData {
    std::string name;
    TraceLayer layer;
    SimTime at;
    uint64_t sid;
  };
  std::vector<InstantData> instants;

  void OnSpan(const TraceSpanData& span) override { spans.push_back(span); }
  void OnInstant(const char* name, TraceLayer layer, SimTime at, SimThread*,
                 uint64_t sid) override {
    instants.push_back({name, layer, at, sid});
  }
};

TEST(Tracer, DisabledWithoutSinks) {
  Tracer tracer;
  EXPECT_FALSE(tracer.enabled());
  RecordingSink sink;
  tracer.AddSink(&sink);
  EXPECT_TRUE(tracer.enabled());
}

TEST(Tracer, SinklessSpansAreNoops) {
  Simulator sim;
  HostCpu cpu;
  Tracer tracer;
  sim.Spawn("t", &cpu, [&] {
    TraceSpan a(tracer, &sim, "x", TraceLayer::kKern);
    ProbeSpan b(tracer, &sim, Stage::kIpOutput);
    sim.current_thread()->Charge(Micros(5));
  });
  sim.Run();
  EXPECT_EQ(sim.Now(), Micros(5));
}

TEST(Tracer, SpanRecordsTimingAndThread) {
  Simulator sim;
  HostCpu cpu;
  Tracer tracer;
  RecordingSink sink;
  tracer.AddSink(&sink);
  SimThread* spawned = sim.Spawn("h0/t", &cpu, [&] {
    sim.current_thread()->Charge(Micros(3));
    TraceSpan s(tracer, &sim, "work", TraceLayer::kIpc, /*sid=*/7);
    sim.current_thread()->Charge(Micros(10));
  });
  sim.Run();
  ASSERT_EQ(sink.spans.size(), 1u);
  const TraceSpanData& s = sink.spans[0];
  EXPECT_STREQ(s.name, "work");
  EXPECT_EQ(s.layer, TraceLayer::kIpc);
  EXPECT_EQ(s.stage, -1);
  EXPECT_EQ(s.sid, 7u);
  EXPECT_EQ(s.begin, Micros(3));
  EXPECT_EQ(s.dur, Micros(10));
  EXPECT_EQ(s.child, 0);
  EXPECT_EQ(s.thread, spawned);
}

TEST(Tracer, ExclusiveChildSubtractsFromParent) {
  Simulator sim;
  HostCpu cpu;
  Tracer tracer;
  RecordingSink sink;
  tracer.AddSink(&sink);
  sim.Spawn("t", &cpu, [&] {
    ProbeSpan outer(tracer, &sim, Stage::kEntryCopyin);
    sim.current_thread()->Charge(Micros(10));
    {
      ProbeSpan inner(tracer, &sim, Stage::kProtoOutput);
      sim.current_thread()->Charge(Micros(25));
    }
    sim.current_thread()->Charge(Micros(5));
  });
  sim.Run();
  ASSERT_EQ(sink.spans.size(), 2u);  // inner closes (and is delivered) first
  EXPECT_EQ(sink.spans[0].dur, Micros(25));
  EXPECT_EQ(sink.spans[0].child, 0);
  EXPECT_EQ(sink.spans[1].dur, Micros(40));
  EXPECT_EQ(sink.spans[1].child, Micros(25));
}

TEST(Tracer, NonExclusiveChildKeepsParentTime) {
  // A free-form span (IPC hop inside a stage) must not steal stage time:
  // the parent's child stays 0, so Table 4 accounting is unchanged.
  Simulator sim;
  HostCpu cpu;
  Tracer tracer;
  StageRecorder rec;
  tracer.AddSink(&rec);
  sim.Spawn("t", &cpu, [&] {
    ProbeSpan outer(tracer, &sim, Stage::kKernelCopyout);
    sim.current_thread()->Charge(Micros(10));
    {
      TraceSpan inner(tracer, &sim, "ipc/send", TraceLayer::kIpc);
      sim.current_thread()->Charge(Micros(30));
    }
  });
  sim.Run();
  EXPECT_DOUBLE_EQ(rec.cell(Stage::kKernelCopyout).MeanMicros(), 40.0);
}

TEST(Tracer, UncommittedSpanNotEmittedButStillExcluded) {
  Simulator sim;
  HostCpu cpu;
  Tracer tracer;
  RecordingSink sink;
  tracer.AddSink(&sink);
  sim.Spawn("t", &cpu, [&] {
    ProbeSpan outer(tracer, &sim, Stage::kProtoInput);
    sim.current_thread()->Charge(Micros(10));
    {
      ProbeSpan cond(tracer, &sim, Stage::kProtoOutput);
      cond.MarkConditional();
      sim.current_thread()->Charge(Micros(7));
      // Never committed: tcp_output that sent nothing.
    }
  });
  sim.Run();
  ASSERT_EQ(sink.spans.size(), 1u);
  EXPECT_EQ(sink.spans[0].stage, static_cast<int>(Stage::kProtoInput));
  EXPECT_EQ(sink.spans[0].dur, Micros(17));
  EXPECT_EQ(sink.spans[0].child, Micros(7));
}

TEST(Tracer, SeparateThreadsNestIndependently) {
  Simulator sim;
  HostCpu cpu_a, cpu_b;
  Tracer tracer;
  RecordingSink sink;
  tracer.AddSink(&sink);
  sim.Spawn("a", &cpu_a, [&] {
    TraceSpan s(tracer, &sim, "a-span", TraceLayer::kKern);
    sim.current_thread()->Charge(Micros(100));
  });
  sim.Spawn("b", &cpu_b, [&] {
    TraceSpan s(tracer, &sim, "b-span", TraceLayer::kInet);
    sim.current_thread()->Charge(Micros(40));
  });
  sim.Run();
  ASSERT_EQ(sink.spans.size(), 2u);
  // b finishes first; neither shows up as the other's child.
  EXPECT_STREQ(sink.spans[0].name, "b-span");
  EXPECT_EQ(sink.spans[0].dur, Micros(40));
  EXPECT_EQ(sink.spans[0].child, 0);
  EXPECT_STREQ(sink.spans[1].name, "a-span");
  EXPECT_EQ(sink.spans[1].dur, Micros(100));
  EXPECT_EQ(sink.spans[1].child, 0);
}

TEST(Tracer, EmitDeliversAnalyticSpan) {
  Simulator sim;
  Tracer tracer;
  RecordingSink sink;
  tracer.AddSink(&sink);
  tracer.Emit(&sim, "wire", TraceLayer::kWire, static_cast<int>(Stage::kNetworkTransit),
              Micros(50), Micros(9), /*sid=*/3);
  ASSERT_EQ(sink.spans.size(), 1u);
  EXPECT_EQ(sink.spans[0].begin, Micros(50));
  EXPECT_EQ(sink.spans[0].dur, Micros(9));
  EXPECT_EQ(sink.spans[0].stage, static_cast<int>(Stage::kNetworkTransit));
  EXPECT_EQ(sink.spans[0].sid, 3u);
  EXPECT_EQ(sink.spans[0].thread, nullptr);  // event context
}

TEST(Tracer, InstantDeliversPointEvent) {
  Simulator sim;
  Tracer tracer;
  RecordingSink sink;
  tracer.AddSink(&sink);
  sim.Schedule(Micros(12), [&] { tracer.Instant(&sim, "migrate/out", TraceLayer::kCore, 5); });
  sim.Run();
  ASSERT_EQ(sink.instants.size(), 1u);
  EXPECT_EQ(sink.instants[0].name, "migrate/out");
  EXPECT_EQ(sink.instants[0].layer, TraceLayer::kCore);
  EXPECT_EQ(sink.instants[0].at, Micros(12));
  EXPECT_EQ(sink.instants[0].sid, 5u);
}

TEST(Tracer, FansOutToAllSinks) {
  Simulator sim;
  Tracer tracer;
  RecordingSink a, b;
  tracer.AddSink(&a);
  tracer.AddSink(&b);
  tracer.Emit(&sim, "x", TraceLayer::kKern, -1, 0, Micros(1));
  EXPECT_EQ(a.spans.size(), 1u);
  EXPECT_EQ(b.spans.size(), 1u);
}

TEST(StageLayerMapping, CoversAllStages) {
  for (int i = 0; i < static_cast<int>(Stage::kNumStages); i++) {
    Stage s = static_cast<Stage>(i);
    EXPECT_STRNE(StageName(s), "");
    EXPECT_LT(static_cast<int>(StageLayer(s)), static_cast<int>(TraceLayer::kNumLayers));
  }
  EXPECT_EQ(StageLayer(Stage::kNetisrFilter), TraceLayer::kFilter);
  EXPECT_EQ(StageLayer(Stage::kIpOutput), TraceLayer::kInet);
  EXPECT_EQ(StageLayer(Stage::kDevIntrRead), TraceLayer::kKern);
  EXPECT_EQ(StageLayer(Stage::kEntryCopyin), TraceLayer::kSock);
  EXPECT_EQ(StageLayer(Stage::kNetworkTransit), TraceLayer::kWire);
}

TEST(StatsRegistry, SnapshotReadsLiveValuesSorted) {
  StatsRegistry reg;
  uint64_t rx = 0, tx = 0;
  reg.RegisterGauge("h0.tx", [&] { return tx; });
  reg.RegisterGauge("h0.rx", [&] { return rx; });
  rx = 3;
  tx = 9;
  auto snap = reg.Snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].name, "h0.rx");
  EXPECT_EQ(snap[0].value, 3u);
  EXPECT_EQ(snap[1].name, "h0.tx");
  EXPECT_EQ(snap[1].value, 9u);
  rx = 4;
  EXPECT_EQ(reg.Snapshot()[0].value, 4u);  // gauges, not samples
  EXPECT_EQ(reg.Dump(), "h0.rx 4\nh0.tx 9\n");
}

TEST(ChromeTraceSink, TracksLayersAndHosts) {
  Simulator sim;
  HostCpu cpu;
  Tracer tracer;
  ChromeTraceSink sink;
  tracer.AddSink(&sink);
  sim.Spawn("h0/app", &cpu, [&] {
    TraceSpan s(tracer, &sim, "send", TraceLayer::kSock);
    sim.current_thread()->Charge(Micros(2));
  });
  sim.Run();
  tracer.Emit(&sim, "wire", TraceLayer::kWire, -1, 0, Micros(1));
  EXPECT_EQ(sink.span_count(), 2u);
  EXPECT_TRUE(sink.HasLayer(TraceLayer::kSock));
  EXPECT_TRUE(sink.HasLayer(TraceLayer::kWire));
  EXPECT_FALSE(sink.HasLayer(TraceLayer::kFilter));
}

TEST(ChromeTraceSink, WritesWellFormedJson) {
  Simulator sim;
  HostCpu cpu;
  Tracer tracer;
  ChromeTraceSink sink;
  tracer.AddSink(&sink);
  sim.Spawn("h1/intr", &cpu, [&] {
    ProbeSpan s(tracer, &sim, Stage::kDevIntrRead);
    sim.current_thread()->Charge(Micros(4));
    tracer.Instant(&sim, "mark \"x\"", TraceLayer::kCore, 2);
  });
  sim.Run();
  std::ostringstream os;
  sink.WriteJson(os);
  std::string json = os.str();
  // Structure: one top-level object with the traceEvents array.
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  // Host h1 became a named process; the thread is named too.
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("{\"name\":\"h1\"}"), std::string::npos);
  EXPECT_NE(json.find("{\"name\":\"h1/intr\"}"), std::string::npos);
  // The stage span is a duration event in the kern category.
  EXPECT_NE(json.find("\"cat\":\"kern\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":4.000"), std::string::npos);
  // The instant escaped its quotes.
  EXPECT_NE(json.find("mark \\\"x\\\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  // Balanced braces/brackets outside string literals.
  int depth = 0;
  bool in_str = false;
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
      EXPECT_GE(depth, 0);
    }
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_str);
}

}  // namespace
}  // namespace psd
