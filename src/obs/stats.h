// Unified stats registry.
//
// Every subsystem keeps its own counters (kernel delivery stats, filter flow
// hits, segment frames carried/dropped, NetServer migrations/callbacks...).
// The registry puts them behind one named-counter interface so tools can
// snapshot the whole system without knowing each component's accessors.
//
// Counters register as gauges: a name plus a callback reading the live
// value. Components expose an ExportStats(StatsRegistry*, prefix) method;
// World::ExportStats walks every node and names entries
// "<host>.<component>.<counter>".
#ifndef PSD_SRC_OBS_STATS_H_
#define PSD_SRC_OBS_STATS_H_

#include <cassert>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

namespace psd {

class StatsRegistry {
 public:
  struct Entry {
    std::string name;
    uint64_t value = 0;
  };

  // Registers a named counter read through `fn` at Snapshot time. The
  // callback must outlive the registry's last Snapshot call.
  //
  // Names must be unique: a duplicate would produce colliding JSON keys in
  // every snapshot consumer (psdobs stat --json, the time-series sampler), and
  // which value wins is accidental. A duplicate registration asserts in
  // debug builds; in release builds it is rejected (the first registration
  // stays live) and counted in duplicates_rejected(). Returns whether the
  // gauge was accepted.
  bool RegisterGauge(std::string name, std::function<uint64_t()> fn) {
    if (!names_.insert(name).second) {
      assert(false && "StatsRegistry: duplicate gauge name");
      duplicates_rejected_++;
      return false;
    }
    gauges_.emplace_back(std::move(name), std::move(fn));
    return true;
  }

  uint64_t duplicates_rejected() const { return duplicates_rejected_; }

  // Reads every registered counter. Entries are sorted by name.
  std::vector<Entry> Snapshot() const;

  // Human-readable dump of a Snapshot, one "name value" line per counter.
  std::string Dump() const;

  // Drops every registered gauge. Semantics for back-to-back runs in one
  // process: gauges capture pointers into components that die with their
  // World, so a registry that outlives a World MUST be Reset before that
  // World is destroyed (or before the next Snapshot) — a stale gauge would
  // read freed memory. After Reset the registry is empty; the next run
  // re-registers via World::ExportStats and Snapshot sees only live
  // counters, never carry-over from a previous run.
  void Reset() {
    gauges_.clear();
    names_.clear();
    duplicates_rejected_ = 0;
  }

  size_t size() const { return gauges_.size(); }

 private:
  std::vector<std::pair<std::string, std::function<uint64_t()>>> gauges_;
  std::unordered_set<std::string> names_;
  uint64_t duplicates_rejected_ = 0;
};

}  // namespace psd

#endif  // PSD_SRC_OBS_STATS_H_
