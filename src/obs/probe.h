// Latency breakdown probes for reproducing Table 4, built on the span tracer.
//
// Stage is the paper's per-layer taxonomy (Table 4 rows). A ProbeSpan opens
// an *exclusive* stage-mapped span on the tracer: nested stage spans (the
// socket layer encloses tcp_output encloses ip_output...) subtract from
// their parent, so each stage reports only its own work — matching the
// paper's decomposition. StageRecorder is now just a TraceSink that
// aggregates stage-mapped spans into per-stage mean cells; the Table 4
// bench consumes those cells exactly as before.
#ifndef PSD_SRC_OBS_PROBE_H_
#define PSD_SRC_OBS_PROBE_H_

#include <array>
#include <cstdint>

#include "src/base/time.h"
#include "src/obs/trace.h"
#include "src/sim/simulator.h"

namespace psd {

enum class Stage : int {
  // Send path (Table 4 rows, top to bottom).
  kEntryCopyin = 0,
  kProtoOutput,  // tcp_output / udp_output
  kIpOutput,
  kEtherOutput,
  // Receive path.
  kDevIntrRead,
  kNetisrFilter,
  kKernelCopyout,
  kMbufQueue,
  kIpIntr,
  kProtoInput,  // tcp_input / udp_input
  kWakeupUser,
  kCopyoutExit,
  // Wire.
  kNetworkTransit,
  kNumStages,
};

const char* StageName(Stage s);

// The subsystem each stage's work belongs to (span category in traces).
TraceLayer StageLayer(Stage s);

// The host-profiler domain each stage's host time charges to: every
// ProbeSpan doubles as a host wall-clock scope (src/obs/prof.h), so the
// Table 4 virtual decomposition and the host-cost decomposition share one
// set of instrumentation points.
ProfDomain StageProfDomain(Stage s);

// Aggregates stage-mapped spans into per-stage totals. Attach to a Tracer
// with AddSink; spans without a stage mapping are ignored.
class StageRecorder : public TraceSink {
 public:
  struct Cell {
    SimDuration total = 0;
    uint64_t count = 0;
    double MeanMicros() const {
      return count == 0 ? 0.0 : ToMicros(total) / static_cast<double>(count);
    }
  };

  // Adds a measured duration directly (used for cross-thread stages such as
  // the user-thread wakeup, and for analytic wire transit time).
  void Add(Stage s, SimDuration d) {
    auto& c = cells_[static_cast<int>(s)];
    c.total += d;
    c.count++;
  }

  const Cell& cell(Stage s) const { return cells_[static_cast<int>(s)]; }
  void Reset() { cells_ = {}; }

  void OnSpan(const TraceSpanData& span) override {
    if (span.stage >= 0 && span.stage < static_cast<int>(Stage::kNumStages)) {
      Add(static_cast<Stage>(span.stage), span.dur - span.child);
    }
  }

 private:
  std::array<Cell, static_cast<int>(Stage::kNumStages)> cells_{};
};

// RAII span over one stage; opens nothing while `tracer` has no sink (a
// single inline test on the hot path).
class ProbeSpan {
 public:
  ProbeSpan(Tracer& tracer, Simulator* sim, Stage s)
      : tracer_(tracer), sim_(sim), prof_(StageProfDomain(s)) {
    if (tracer_.enabled()) {
      tracer_.Begin(sim_, StageName(s), StageLayer(s), static_cast<int>(s), /*sid=*/0,
                    /*exclusive=*/true);
      open_ = true;
    }
  }
  ~ProbeSpan() {
    if (open_) {
      tracer_.End(sim_, committed_);
    }
  }

  ProbeSpan(const ProbeSpan&) = delete;
  ProbeSpan& operator=(const ProbeSpan&) = delete;

  // For conditional work (e.g. tcp_output called for a window-update check
  // that sends nothing): construct uncommitted spans with MarkConditional,
  // then Commit only when the work actually happened, so means are per
  // real packet. Uncommitted spans still subtract from their parent stage.
  void MarkConditional() { committed_ = false; }
  void Commit() { committed_ = true; }

 private:
  Tracer& tracer_;
  Simulator* sim_;
  ProfScope prof_;
  bool open_ = false;
  bool committed_ = true;
};

}  // namespace psd

#endif  // PSD_SRC_OBS_PROBE_H_
