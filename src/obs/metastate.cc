#include "src/obs/metastate.h"

#include "src/obs/stats.h"

namespace psd {

const char* MetaEventName(MetaEvent e) {
  switch (e) {
    case MetaEvent::kPortAcquire:    return "port-acquire";
    case MetaEvent::kPortRelease:    return "port-release";
    case MetaEvent::kPortTransfer:   return "port-transfer";
    case MetaEvent::kArpHit:         return "arp-hit";
    case MetaEvent::kArpMiss:        return "arp-miss";
    case MetaEvent::kArpRequest:     return "arp-request";
    case MetaEvent::kArpReply:       return "arp-reply";
    case MetaEvent::kArpGratuitous:  return "arp-gratuitous";
    case MetaEvent::kArpInvalidate:  return "arp-invalidate";
    case MetaEvent::kRouteLookup:    return "route-lookup";
    case MetaEvent::kRouteMiss:      return "route-miss";
    case MetaEvent::kRouteInstall:   return "route-install";
    case MetaEvent::kFilterInstall:  return "filter-install";
    case MetaEvent::kFilterRemove:   return "filter-remove";
    case MetaEvent::kMigrationOut:   return "migration-out";
    case MetaEvent::kMigrationIn:    return "migration-in";
    case MetaEvent::kNumEvents:      break;
  }
  return "?";
}

const char* MigrationPhaseName(MigrationPhase p) {
  switch (p) {
    case MigrationPhase::kFreeze:    return "freeze";
    case MigrationPhase::kEncode:    return "encode";
    case MigrationPhase::kTransfer:  return "transfer";
    case MigrationPhase::kInstall:   return "install";
    case MigrationPhase::kResume:    return "resume";
    case MigrationPhase::kNumPhases: break;
  }
  return "?";
}

MetastateLedger& MetastateLedger::Get() {
  static MetastateLedger ledger;
  return ledger;
}

void MetastateLedger::ExportStats(StatsRegistry* reg, const std::string& prefix) const {
  for (size_t i = 0; i < static_cast<size_t>(MetaEvent::kNumEvents); i++) {
    reg->RegisterGauge(prefix + MetaEventName(static_cast<MetaEvent>(i)),
                       [this, i] { return totals_[i]; });
  }
  for (size_t i = 0; i < static_cast<size_t>(MigrationPhase::kNumPhases); i++) {
    reg->RegisterGauge(
        prefix + "migration." + MigrationPhaseName(static_cast<MigrationPhase>(i)) + ".count",
        [this, i] { return phases_[i].count(); });
  }
}

void MetastateLedger::Reset() {
  for (auto& t : totals_) {
    t = 0;
  }
  for (auto& h : phases_) {
    h.Reset();
  }
  enabled_ = true;
}

}  // namespace psd
