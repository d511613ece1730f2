// Unified observability: the virtual-time span tracer.
//
// Every layer of the system (trap boundary, IPC, packet filter, protocol
// stack, socket layer, proxy/migration machinery) emits spans through one
// Tracer. A span records where virtual time went: which layer, on which
// simulated thread, between which virtual instants, and — where known —
// for which session. Consumers attach as TraceSinks:
//   * StageRecorder (src/obs/probe.h) aggregates per-stage means and feeds
//     the Table 4 breakdown bench;
//   * ChromeTraceSink (src/obs/chrome_trace.h) keeps the full span stream
//     and exports chrome://tracing JSON (`psdobs trace`).
//
// Concurrency: the simulator runs exactly one of {event loop, SimThread} at
// any instant, so the tracer needs no locks — plain containers are
// "lock-free in simulation" by construction.
//
// Cost: with no tracer attached (the null pointer everywhere by default) the
// instrumentation is a pointer test; simulated costs are never charged by
// the tracer itself, so attaching one cannot perturb virtual time.
#ifndef PSD_SRC_OBS_TRACE_H_
#define PSD_SRC_OBS_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/base/time.h"
#include "src/sim/simulator.h"

namespace psd {

// Which subsystem a span belongs to (maps to the chrome trace "category").
enum class TraceLayer : int {
  kKern,    // trap boundary, driver, interrupt, delivery paths
  kIpc,     // port send/receive
  kFilter,  // packet-filter classify / VM runs
  kInet,    // the protocol stack proper
  kSock,    // socket-layer entry/exit, wakeups
  kCore,    // proxy calls, session migration, crash cleanup
  kServ,    // UX server RPC path
  kWire,    // network transit (analytic)
  kApp,     // application-level spans (per-RPC latency, workload phases)
  kNumLayers,
};

const char* TraceLayerName(TraceLayer layer);

// The host-profiler domain a layer's free-form spans charge host time to
// (coarser than the Stage mapping in probe.h; see src/obs/prof.h).
ProfDomain LayerProfDomain(TraceLayer layer);

// One completed span, handed to sinks at End time. `name` must be a string
// with static storage duration (emission points use literals). `stage` is
// the Table 4 Stage the span maps to, or -1 for spans outside that taxonomy.
struct TraceSpanData {
  const char* name = "";
  TraceLayer layer = TraceLayer::kKern;
  int stage = -1;
  uint64_t sid = 0;  // session/filter id when known, else 0
  SimTime begin = 0;
  SimDuration dur = 0;
  SimDuration child = 0;  // virtual time spent in nested *exclusive* spans
  SimThread* thread = nullptr;  // null: event context or analytic emission
};

class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void OnSpan(const TraceSpanData& span) = 0;
  // Zero-duration point events (migration handover, crash cleanup, ...).
  virtual void OnInstant(const char* name, TraceLayer layer, SimTime at, SimThread* thread,
                         uint64_t sid) {
    (void)name, (void)layer, (void)at, (void)thread, (void)sid;
  }
};

class Tracer {
 public:
  void AddSink(TraceSink* sink) { sinks_.push_back(sink); }
  bool enabled() const { return !sinks_.empty(); }

  // Opens a span on the calling simulated thread (or the event context).
  // Spans nest per thread; End closes the innermost one.
  //
  // `exclusive` controls the parent/child time accounting that Table 4's
  // per-layer decomposition depends on: an exclusive span's elapsed time is
  // subtracted from its parent's self-time (`child`), so each stage reports
  // only its own work. Stage-mapped spans are exclusive; free-form spans
  // (IPC hops, proxy calls) are not — their time stays attributed to
  // whatever stage encloses them, exactly as before the tracer existed.
  void Begin(Simulator* sim, const char* name, TraceLayer layer, int stage = -1, uint64_t sid = 0,
             bool exclusive = false);

  // Closes the innermost open span. Uncommitted spans are not emitted to
  // sinks (conditional work that turned out not to happen) but still count
  // toward the parent's child time when exclusive.
  void End(Simulator* sim, bool commit = true);

  // Emits a complete span measured elsewhere (cross-thread wakeups, RPC
  // legs priced analytically). Never participates in nesting.
  void Emit(Simulator* sim, const char* name, TraceLayer layer, int stage, SimTime begin,
            SimDuration dur, uint64_t sid = 0);

  // Emits a point event.
  void Instant(Simulator* sim, const char* name, TraceLayer layer, uint64_t sid = 0);

 private:
  struct Open {
    const char* name;
    TraceLayer layer;
    int stage;
    uint64_t sid;
    bool exclusive;
    SimTime start;
    SimDuration child = 0;
  };

  std::vector<TraceSink*> sinks_;
  // Per-execution-context open-span stacks (keyed by SimThread*, with
  // nullptr for event context).
  std::map<const void*, std::vector<Open>> open_;
};

// RAII span. `tracer` may be null (tracing off: a single pointer test).
class TraceSpan {
 public:
  TraceSpan(Tracer* tracer, Simulator* sim, const char* name, TraceLayer layer, uint64_t sid = 0)
      : tracer_(tracer), sim_(sim), prof_(LayerProfDomain(layer)) {
    if (tracer_ != nullptr && tracer_->enabled()) {
      tracer_->Begin(sim_, name, layer, /*stage=*/-1, sid, /*exclusive=*/false);
      open_ = true;
    }
  }
  ~TraceSpan() {
    if (open_) {
      tracer_->End(sim_);
    }
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  Tracer* tracer_;
  Simulator* sim_;
  ProfScope prof_;
  bool open_ = false;
};

}  // namespace psd

#endif  // PSD_SRC_OBS_TRACE_H_
