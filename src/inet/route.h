// IPv4 routing table: longest-prefix match over (destination, mask) entries
// with optional gateway. This is the long-lived shared metastate the paper's
// operating-system server owns and applications cache (§3.3); entries carry
// a generation number so cached copies can be invalidated by callback.
#ifndef PSD_SRC_INET_ROUTE_H_
#define PSD_SRC_INET_ROUTE_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/inet/addr.h"
#include "src/obs/metastate.h"

namespace psd {

struct RouteEntry {
  Ipv4Addr dest;
  Ipv4Addr mask;
  Ipv4Addr gateway;  // 0 => directly attached
  uint64_t generation = 0;

  bool Matches(Ipv4Addr a) const { return (a.v & mask.v) == (dest.v & mask.v); }
  int PrefixLen() const {
    uint32_t m = mask.v;
    int n = 0;
    while (m) {
      n += m & 1;
      m >>= 1;
    }
    return n;
  }
};

class RouteTable {
 public:
  // Counts installs, lookups and misses into `meta` (the owning Stack's).
  explicit RouteTable(MetastateLedger* meta) : meta_(meta) {}

  void Add(Ipv4Addr dest, Ipv4Addr mask, Ipv4Addr gateway) {
    meta_->Count(MetaEvent::kRouteInstall);
    generation_++;
    entries_.push_back(RouteEntry{dest, mask, gateway, generation_});
    std::stable_sort(entries_.begin(), entries_.end(),
                     [](const RouteEntry& a, const RouteEntry& b) {
                       return a.PrefixLen() > b.PrefixLen();
                     });
  }

  bool Remove(Ipv4Addr dest, Ipv4Addr mask) {
    auto it = std::find_if(entries_.begin(), entries_.end(), [&](const RouteEntry& e) {
      return e.dest == dest && e.mask == mask;
    });
    if (it == entries_.end()) {
      return false;
    }
    entries_.erase(it);
    generation_++;
    return true;
  }

  // Next hop for `dst`: the gateway if routed, `dst` itself if directly
  // attached, nullopt if unreachable.
  std::optional<Ipv4Addr> NextHop(Ipv4Addr dst) const {
    meta_->Count(MetaEvent::kRouteLookup);
    for (const RouteEntry& e : entries_) {
      if (e.Matches(dst)) {
        return e.gateway.IsAny() ? dst : e.gateway;
      }
    }
    meta_->Count(MetaEvent::kRouteMiss);
    return std::nullopt;
  }

  std::optional<RouteEntry> Lookup(Ipv4Addr dst) const {
    meta_->Count(MetaEvent::kRouteLookup);
    for (const RouteEntry& e : entries_) {
      if (e.Matches(dst)) {
        return e;
      }
    }
    meta_->Count(MetaEvent::kRouteMiss);
    return std::nullopt;
  }

  // Bumped on every mutation; cached entries from older generations are
  // stale (metastate invalidation, §3.3).
  uint64_t generation() const { return generation_; }
  size_t size() const { return entries_.size(); }

 private:
  MetastateLedger* meta_;
  std::vector<RouteEntry> entries_;
  uint64_t generation_ = 0;
};

}  // namespace psd

#endif  // PSD_SRC_INET_ROUTE_H_
