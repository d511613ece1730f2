#include "src/obs/timeseries.h"
#include "src/base/json.h"

#include <cstdio>
#include <sstream>

#include "src/sim/simulator.h"

namespace psd {

namespace {

bool HasPrefix(const std::string& s, const std::string& prefix) {
  return prefix.empty() || s.rfind(prefix, 0) == 0;
}

}  // namespace

TimeSeriesSampler::TimeSeriesSampler(Simulator* sim, const StatsRegistry* reg,
                                     SimDuration interval, size_t capacity)
    : sim_(sim), reg_(reg), interval_(interval > 0 ? interval : 1), capacity_(capacity) {}

TimeSeriesSampler::~TimeSeriesSampler() { *alive_ = false; }

void TimeSeriesSampler::Start() {
  if (running_) {
    return;
  }
  running_ = true;
  Tick();
}

void TimeSeriesSampler::Stop() { running_ = false; }

void TimeSeriesSampler::Tick() {
  if (!running_) {
    return;  // Stop()ed after this tick was scheduled: no sample, no reschedule.
  }
  TimeSample s;
  s.at = sim_->Now();
  s.entries = reg_->Snapshot();
  samples_.push_back(std::move(s));
  taken_++;
  while (samples_.size() > capacity_) {
    samples_.pop_front();
  }
  std::shared_ptr<bool> alive = alive_;
  sim_->ScheduleAfter(interval_, [this, alive] {
    if (*alive) {
      Tick();
    }
  });
}

double TimeSeriesSampler::RatePerSec(const std::string& name) const {
  if (samples_.size() < 2) {
    return 0.0;
  }
  const TimeSample& first = samples_.front();
  const TimeSample& last = samples_.back();
  SimDuration elapsed = last.at - first.at;
  if (elapsed <= 0) {
    return 0.0;
  }
  auto find = [&](const TimeSample& s) -> const StatsRegistry::Entry* {
    for (const auto& e : s.entries) {
      if (e.name == name) {
        return &e;
      }
    }
    return nullptr;
  };
  const StatsRegistry::Entry* a = find(first);
  const StatsRegistry::Entry* b = find(last);
  if (a == nullptr || b == nullptr || b->value < a->value) {
    return 0.0;
  }
  return static_cast<double>(b->value - a->value) /
         (static_cast<double>(elapsed) / 1e9);
}

std::string TimeSeriesSampler::Json(const std::string& prefix, const std::string& drop) const {
  std::ostringstream os;
  os << "{\"timeseries\":1,\"interval_ns\":" << interval_ << ",\"taken\":" << taken_
     << ",\"dropped\":" << dropped() << ",\"samples\":[";
  bool first_sample = true;
  for (const TimeSample& s : samples_) {
    if (!first_sample) {
      os << ",";
    }
    first_sample = false;
    os << "{\"t_ns\":" << s.at << ",\"gauges\":{";
    bool first_gauge = true;
    for (const auto& e : s.entries) {
      if (!HasPrefix(e.name, prefix) || (!drop.empty() && HasPrefix(e.name, drop))) {
        continue;
      }
      if (!first_gauge) {
        os << ",";
      }
      first_gauge = false;
      os << "\"" << JsonEscape(e.name) << "\":" << e.value;
    }
    os << "}}";
  }
  os << "]}";
  return os.str();
}

std::string TimeSeriesSampler::Csv(const std::string& prefix) const {
  std::ostringstream os;
  os << "t_ns";
  if (samples_.empty()) {
    os << "\n";
    return os.str();
  }
  std::vector<std::string> cols;
  for (const auto& e : samples_.front().entries) {
    if (HasPrefix(e.name, prefix)) {
      cols.push_back(e.name);
      os << "," << e.name;
    }
  }
  os << "\n";
  for (const TimeSample& s : samples_) {
    os << s.at;
    // Entries are sorted and the gauge set is fixed per registry, but walk
    // by name anyway so a mid-run registry Reset/re-export cannot misalign
    // columns.
    size_t cursor = 0;
    for (const std::string& col : cols) {
      uint64_t v = 0;
      while (cursor < s.entries.size() && s.entries[cursor].name < col) {
        cursor++;
      }
      if (cursor < s.entries.size() && s.entries[cursor].name == col) {
        v = s.entries[cursor].value;
      }
      os << "," << v;
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace psd
