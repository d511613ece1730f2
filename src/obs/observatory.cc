#include "src/obs/observatory.h"

#include <algorithm>
#include <vector>

namespace psd {

namespace {

thread_local std::vector<Observatory*> t_live;  // innermost last

Observatory& Current() {
  thread_local Observatory idle;
  return t_live.empty() ? idle : *t_live.back();
}

}  // namespace

void EnterObservatory(Observatory* obs) { t_live.push_back(obs); }

void LeaveObservatory(Observatory* obs) {
  auto it = std::find(t_live.rbegin(), t_live.rend(), obs);
  if (it != t_live.rend()) {
    t_live.erase(std::next(it).base());
  }
}

DropLedger& DropLedger::Get() { return Current().drops; }
PacketJourney& PacketJourney::Get() { return Current().journey; }
MetastateLedger& MetastateLedger::Get() { return Current().meta; }

}  // namespace psd
