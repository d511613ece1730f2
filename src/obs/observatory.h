// One run's recorders: the span tracer, the packet journeys, the drop
// ledger and the shared-metastate ledger. A World owns one, declared before
// its Simulator so the recorders outlive the fibers ~Simulator unwinds
// (they still close spans, release ports and record drops), and hands it to
// its segment and hosts; every component reaches it through a handle it
// already holds (`host()->obs()`, `segment->obs()`, `StackEnv::obs`). Two
// Worlds in one process, one after the other or alive at once, never share
// a count, and nothing needs resetting before a run.
//
// The tracer starts with no sink, so every span site is an inline test and
// nothing more. A sink added to `tracer` sees every component of the run;
// it must outlive the World, whose teardown still closes open spans.
#ifndef PSD_SRC_OBS_OBSERVATORY_H_
#define PSD_SRC_OBS_OBSERVATORY_H_

#include "src/obs/journey.h"
#include "src/obs/metastate.h"
#include "src/obs/trace.h"

namespace psd {

struct Observatory {
  Observatory() = default;
  Observatory(const Observatory&) = delete;
  Observatory& operator=(const Observatory&) = delete;

  Tracer tracer;
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
