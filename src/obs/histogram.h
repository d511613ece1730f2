// Virtual-time latency histograms.
//
// Table 2 reports round-trip latency as a single mean; deciding where
// protocol work should live needs the *distribution* (tail effects of
// retransmission, scheduling, and lock contention never show up in a
// mean). LatencyHistogram is a fixed log2-bucket histogram over virtual
// durations with quantile export (p50/p90/p99); HistogramSink feeds one
// histogram per span name straight from the Tracer's span stream, so any
// instrumented workload gets distributions for free.
//
// Recording is O(1), allocation-free after the first span of a name, and
// charges no simulated cost — attaching a HistogramSink cannot perturb
// virtual time (the same guarantee the Tracer itself makes).
#ifndef PSD_SRC_OBS_HISTOGRAM_H_
#define PSD_SRC_OBS_HISTOGRAM_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>

#include "src/base/time.h"
#include "src/obs/trace.h"

namespace psd {

// Log2-bucket histogram of virtual durations (nanoseconds). Bucket i holds
// durations d with floor(log2(d)) == i; bucket 0 also takes d <= 1. With 64
// buckets the full SimDuration range is covered; relative quantile error is
// bounded by the bucket width (a factor of 2) and in practice much smaller
// because quantiles interpolate linearly inside the covering bucket.
class LatencyHistogram {
 public:
  static constexpr int kBuckets = 64;

  void Record(SimDuration d);

  uint64_t count() const { return count_; }
  SimDuration min() const { return count_ == 0 ? 0 : min_; }
  SimDuration max() const { return max_; }
  SimDuration total() const { return total_; }
  double MeanMicros() const {
    return count_ == 0 ? 0.0 : ToMicros(total_) / static_cast<double>(count_);
  }

  // Quantile q in [0,1] as a duration: q<=0 reports the recorded minimum,
  // q>=1 the maximum, interior quantiles interpolate within their bucket.
  SimDuration Quantile(double q) const;
  double QuantileMicros(double q) const { return ToMicros(Quantile(q)); }

  uint64_t bucket(int i) const { return buckets_[static_cast<size_t>(i)]; }
  void Reset();

  // Folds `other` into this histogram as if every sample had been recorded
  // here. Bucket counts add exactly; min/max/total merge exactly; only
  // quantiles keep the usual bucket-resolution error.
  void Merge(const LatencyHistogram& other);

  // Human-readable summary: a count/mean/p50/p90/p99 line plus one row per
  // non-empty bucket, each prefixed with `indent`.
  std::string Dump(const std::string& indent = "") const;

 private:
  std::array<uint64_t, kBuckets> buckets_{};
  uint64_t count_ = 0;
  SimDuration min_ = 0;
  SimDuration max_ = 0;
  SimDuration total_ = 0;
};

// TraceSink aggregating the span stream into per-name histograms (committed
// spans only, full duration including nested work) and per-name counts of
// instant events (protocol point events such as "tcp/rexmit").
class HistogramSink : public TraceSink {
 public:
  void OnSpan(const TraceSpanData& span) override { by_name_[span.name].Record(span.dur); }
  void OnInstant(const char* name, TraceLayer layer, SimTime at, SimThread* thread,
                 uint64_t sid) override {
    (void)layer, (void)at, (void)thread, (void)sid;
    instants_[name]++;
  }

  // Null when no span of that name was recorded.
  const LatencyHistogram* Find(const std::string& name) const {
    auto it = by_name_.find(name);
    return it == by_name_.end() ? nullptr : &it->second;
  }
  const std::map<std::string, LatencyHistogram>& histograms() const { return by_name_; }

  uint64_t instant_count(const std::string& name) const {
    auto it = instants_.find(name);
    return it == instants_.end() ? 0 : it->second;
  }
  const std::map<std::string, uint64_t>& instants() const { return instants_; }

  void Reset() {
    by_name_.clear();
    instants_.clear();
  }

 private:
  std::map<std::string, LatencyHistogram> by_name_;
  std::map<std::string, uint64_t> instants_;
};

}  // namespace psd

#endif  // PSD_SRC_OBS_HISTOGRAM_H_
