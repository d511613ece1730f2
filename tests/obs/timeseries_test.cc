// TimeSeriesSampler unit tests: fixed virtual-interval sampling, the
// bounded ring, rate computation, Stop semantics, export shapes, and the
// zero-perturbation contract (an attached sampler must not move any
// workload-visible virtual timestamp).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/obs/stats.h"
#include "src/obs/timeseries.h"
#include "src/sim/simulator.h"

namespace psd {
namespace {

TEST(TimeSeriesSampler, SamplesAtFixedVirtualInterval) {
  Simulator sim;
  StatsRegistry reg;
  uint64_t counter = 0;
  reg.RegisterGauge("counter", [&] { return counter; });

  TimeSeriesSampler sampler(&sim, &reg, Millis(10));
  sampler.Start();
  EXPECT_TRUE(sampler.running());
  for (int i = 1; i <= 10; i++) {
    sim.Schedule(Millis(10 * i) - Micros(1), [&] { counter += 100; });
  }
  sim.Run(Millis(100));
  sampler.Stop();
  EXPECT_FALSE(sampler.running());

  // Start() samples immediately at t=0, then every 10ms through t=100ms.
  ASSERT_EQ(sampler.taken(), 11u);
  EXPECT_EQ(sampler.dropped(), 0u);
  const std::deque<TimeSample>& s = sampler.samples();
  EXPECT_EQ(s.front().at, 0);
  EXPECT_EQ(s.back().at, Millis(100));
  ASSERT_EQ(s[3].entries.size(), 1u);
  EXPECT_EQ(s[3].entries[0].name, "counter");
  EXPECT_EQ(s[3].entries[0].value, 300u);  // three 100-increments by t=30ms
}

TEST(TimeSeriesSampler, BoundedRingDropsOldestFirst) {
  Simulator sim;
  StatsRegistry reg;
  reg.RegisterGauge("g", [] { return uint64_t{1}; });

  TimeSeriesSampler sampler(&sim, &reg, Millis(1), /*capacity=*/4);
  sampler.Start();
  sim.Run(Millis(9));
  sampler.Stop();

  EXPECT_EQ(sampler.taken(), 10u);
  EXPECT_EQ(sampler.dropped(), 6u);
  ASSERT_EQ(sampler.samples().size(), 4u);
  // Only the newest four samples survive: t=6ms..9ms.
  EXPECT_EQ(sampler.samples().front().at, Millis(6));
  EXPECT_EQ(sampler.samples().back().at, Millis(9));
}

TEST(TimeSeriesSampler, RatePerSecIsDeltaOverElapsed) {
  Simulator sim;
  StatsRegistry reg;
  uint64_t rpcs = 0;
  reg.RegisterGauge("rpc.total", [&] { return rpcs; });

  TimeSeriesSampler sampler(&sim, &reg, Millis(100));
  sampler.Start();
  // 50 RPCs every 100ms -> 500/sec.
  for (int i = 1; i <= 10; i++) {
    sim.Schedule(Millis(100 * i) - Micros(1), [&] { rpcs += 50; });
  }
  sim.Run(Seconds(1));
  sampler.Stop();

  EXPECT_NEAR(sampler.RatePerSec("rpc.total"), 500.0, 1e-6);
  EXPECT_EQ(sampler.RatePerSec("no.such.gauge"), 0.0);
}

TEST(TimeSeriesSampler, StopHaltsTicksAndKeepsCollectedSamples) {
  Simulator sim;
  StatsRegistry reg;
  reg.RegisterGauge("g", [] { return uint64_t{1}; });

  TimeSeriesSampler sampler(&sim, &reg, Millis(10));
  sampler.Start();
  sim.Schedule(Millis(35), [&] { sampler.Stop(); });
  sim.Run(Seconds(10));

  // Ticks at t=0,10,20,30 took samples; the one already-queued tick at 40ms
  // fired as a no-op and nothing after it kept sampling.
  EXPECT_EQ(sampler.taken(), 4u);
  EXPECT_FALSE(sampler.running());
  // Start() again resumes from the current virtual time.
  sampler.Start();
  sim.Run(sim.Now() + Millis(20));
  sampler.Stop();
  EXPECT_EQ(sampler.taken(), 7u);
}

TEST(TimeSeriesSampler, JsonAndCsvExportWithPrefixFilter) {
  Simulator sim;
  StatsRegistry reg;
  reg.RegisterGauge("meta.arp-miss", [] { return uint64_t{3}; });
  reg.RegisterGauge("rpc.total", [] { return uint64_t{9}; });

  TimeSeriesSampler sampler(&sim, &reg, Millis(5));
  sampler.Start();
  sim.Run(Millis(5));
  sampler.Stop();

  std::string json = sampler.Json();
  EXPECT_NE(json.find("\"timeseries\":1"), std::string::npos);
  EXPECT_NE(json.find("\"interval_ns\":5000000"), std::string::npos);
  EXPECT_NE(json.find("\"meta.arp-miss\":3"), std::string::npos);
  EXPECT_NE(json.find("\"rpc.total\":9"), std::string::npos);

  std::string filtered = sampler.Json("meta.");
  EXPECT_NE(filtered.find("meta.arp-miss"), std::string::npos);
  EXPECT_EQ(filtered.find("rpc.total"), std::string::npos);
  std::string dropped = sampler.Json("", "meta.");
  EXPECT_EQ(dropped.find("meta.arp-miss"), std::string::npos);
  EXPECT_NE(dropped.find("\"rpc.total\":9"), std::string::npos);

  std::string csv = sampler.Csv();
  EXPECT_EQ(csv.find("t_ns,meta.arp-miss,rpc.total"), 0u);
  EXPECT_NE(csv.find("\n0,3,9"), std::string::npos);
}

TEST(TimeSeriesSampler, AttachedSamplerDoesNotPerturbWorkloadTimestamps) {
  // A/B: the same charged workload with and without a sampler attached must
  // see identical virtual timestamps at every step. Tick events add to
  // events_executed() but never charge simulated cost.
  auto run = [](bool with_sampler, std::vector<SimTime>* stamps) -> SimTime {
    Simulator sim;
    StatsRegistry reg;
    uint64_t work = 0;
    reg.RegisterGauge("work", [&] { return work; });
    TimeSeriesSampler sampler(&sim, &reg, Micros(700));
    if (with_sampler) {
      sampler.Start();
    }
    HostCpu cpu;
    sim.Spawn("worker", &cpu, [&] {
      for (int i = 0; i < 50; i++) {
        sim.current_thread()->Charge(Micros(100 + i));
        work++;
        stamps->push_back(sim.Now());
      }
    });
    sim.Run(Seconds(1));
    sampler.Stop();
    return sim.Now();
  };

  std::vector<SimTime> without;
  std::vector<SimTime> with;
  SimTime end_a = run(false, &without);
  SimTime end_b = run(true, &with);
  EXPECT_EQ(without, with);
  EXPECT_EQ(end_a, end_b);
}

}  // namespace
}  // namespace psd
