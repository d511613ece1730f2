// One run's recorders: the packet journeys, the drop ledger and the
// shared-metastate ledger. A World owns one, declared before its Simulator
// so the recorders outlive the fibers ~Simulator unwinds (they still
// release ports and record drops), and hands it to its segment and hosts;
// every component reaches it through a handle it already holds. Two Worlds
// in one process, one after the other or alive at once, never share a
// count, and nothing needs resetting before a run.
#ifndef PSD_SRC_OBS_OBSERVATORY_H_
#define PSD_SRC_OBS_OBSERVATORY_H_

#include "src/obs/journey.h"
#include "src/obs/metastate.h"

namespace psd {

struct Observatory {
  Observatory() = default;
  Observatory(const Observatory&) = delete;
  Observatory& operator=(const Observatory&) = delete;

  PacketJourney journey;
  DropLedger drops{&journey};
  MetastateLedger meta;
};

// The perfbench shim: the static Get() of DropLedger, PacketJourney and
// MetastateLedger forward to the Observatory of the innermost World alive
// on the calling thread, or to a thread-local idle one when no World is.
// World registers its Observatory for its lifetime with these.
void EnterObservatory(Observatory* obs);
void LeaveObservatory(Observatory* obs);

}  // namespace psd

#endif  // PSD_SRC_OBS_OBSERVATORY_H_
