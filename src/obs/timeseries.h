// Virtual-time series sampling of StatsRegistry gauges.
//
// End-of-run totals cannot distinguish "steady 1k RPCs/sec" from "10k/sec
// burst then silence" — the C10K questions (OS-server RPC rate induced by a
// library listener, ARP-miss rate during the connect storm, metastate event
// rates during migration) are *rates*, so the observatory needs snapshots
// over virtual time. TimeSeriesSampler re-reads every registered gauge at a
// fixed virtual interval into a bounded ring (oldest samples drop first)
// with JSON/CSV export and a rate helper.
//
// Perturbation contract: a tick only enqueues the next tick and reads gauge
// callbacks — it never charges simulated cost, so no protocol-visible
// virtual timestamp moves (Table 2/3 outputs stay byte-identical). The tick
// events do count toward Simulator::events_executed(), and a running
// sampler keeps the event loop non-empty — callers must Stop() it when the
// measured workload completes or Run(horizon) will idle-tick to the
// horizon. Attached identically, runs stay deterministic across trials.
#ifndef PSD_SRC_OBS_TIMESERIES_H_
#define PSD_SRC_OBS_TIMESERIES_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "src/base/time.h"
#include "src/obs/stats.h"

namespace psd {

class Simulator;

struct TimeSample {
  SimTime at = 0;
  std::vector<StatsRegistry::Entry> entries;  // sorted by name (Snapshot order)
};

class TimeSeriesSampler {
 public:
  // Reads `reg` every `interval` of virtual time, keeping the most recent
  // `capacity` samples. Both `sim` and `reg` must outlive the sampler; the
  // sampler must be destroyed (or Stop()ed) before gauges die with their
  // World.
  TimeSeriesSampler(Simulator* sim, const StatsRegistry* reg, SimDuration interval,
                    size_t capacity = 4096);
  ~TimeSeriesSampler();

  TimeSeriesSampler(const TimeSeriesSampler&) = delete;
  TimeSeriesSampler& operator=(const TimeSeriesSampler&) = delete;

  // Takes one sample now and schedules the rest. Idempotent while running.
  void Start();
  // Stops sampling; one already-scheduled tick may still fire as a no-op.
  void Stop();
  bool running() const { return running_; }

  const std::deque<TimeSample>& samples() const { return samples_; }
  uint64_t taken() const { return taken_; }
  uint64_t dropped() const { return taken_ - samples_.size(); }
  SimDuration interval() const { return interval_; }

  // (last - first) / elapsed virtual seconds for gauge `name`; 0 with fewer
  // than two samples, zero elapsed time, or an unknown/decreasing gauge.
  double RatePerSec(const std::string& name) const;

  // {"timeseries":1, "interval_ns":N, "taken":N, "dropped":N,
  //  "samples":[{"t_ns":T, "gauges":{"name":v,...}},...]}
  // `prefix` filters gauges by name prefix (empty = all).
  std::string Json(const std::string& prefix = "") const;
  // Header "t_ns,<name>,..." from the first sample's gauge set, one row per
  // sample (missing names render 0).
  std::string Csv(const std::string& prefix = "") const;

 private:
  void Tick();

  Simulator* sim_;
  const StatsRegistry* reg_;
  SimDuration interval_;
  size_t capacity_;
  bool running_ = false;
  uint64_t taken_ = 0;
  std::deque<TimeSample> samples_;
  // Pending tick callbacks hold this by value; cleared in the destructor so
  // a tick scheduled past the sampler's lifetime cannot touch freed state.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace psd

#endif  // PSD_SRC_OBS_TIMESERIES_H_
