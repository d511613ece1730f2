// Host wall-clock profiler: where do the *real* nanoseconds go?
//
// Every other observability surface in src/obs accounts for virtual time.
// This one attributes the engine's host CPU time to a fixed domain taxonomy
// (scheduler, fiber swap/run, pools, NIC ring, wire delivery, filter
// classify, each protocol stage, IPC, RPC dispatch) so bench_engine's one
// aggregate wall_ns_per_pkt number gets a breakdown you can steer
// optimization work by (ROADMAP item 2), and so the NIC-offload cost model
// (item 3) can be calibrated from measured per-stage host costs.
//
// Model: interval attribution. The profiler keeps one open-scope stack per
// execution context (each SimThread fiber plus one base context for the
// event loop / main thread). Every profiler operation — scope push, scope
// pop, context switch — reads the TSC once and charges the nanoseconds
// since the previous operation to the innermost open scope of the context
// that was running. Consequences, all deliberate:
//   * Exclusive semantics fall out for free: a parent scope is only charged
//     while no child scope is open (same decomposition as the virtual
//     tracer's `child` subtraction).
//   * A scope that blocks (protocol code holds a ProbeSpan across a
//     Charge() yield) is NOT charged for the host time other fibers consume
//     while it waits — its stack is simply not the running one.
//   * The gap between a context switch's "depart" and "arrive" edges is
//     exactly the fiber stack-switch cost, charged to fiber.swap.
//   * Everything between Start() and the snapshot lands somewhere: time
//     outside any explicit scope is charged to the context's root domain
//     (fiber.run for fibers, "other" for the base context), so attribution
//     sums to wall time minus only TSC-calibration drift.
//
// By construction the profiler touches no virtual state: hooks read the
// host clock and write into profiler-private arrays, never into simulation
// state, and scopes charge no virtual cost. The replay matrix
// (tests/sim/replay_ab_test.cc: every torture scenario x 5 placements, once
// profiled and once not) proves it. Cost when not running: one static
// bool load per site.
//
// Timing: raw TSC reads (x86_64 rdtsc / aarch64 cntvct), calibrated against
// steady_clock over the Start..snapshot window; steady_clock fallback
// elsewhere. Like the rest of src/obs, "lock-free in simulation": exactly
// one of {event loop, some fiber} runs at any instant.
#ifndef PSD_SRC_OBS_PROF_H_
#define PSD_SRC_OBS_PROF_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace psd {

class StatsRegistry;

// Fixed attribution taxonomy. Table-4 stages map onto the inet/sock/kern
// entries (StageProfDomain in src/obs/probe.h); free-form tracer layers map
// onto the coarser entries (LayerProfDomain in src/obs/trace.h); the engine
// substrate (scheduler, fibers, pools, NIC, wire) is scoped explicitly in
// src/sim and src/netsim.
enum class ProfDomain : uint8_t {
  kOther = 0,       // base-context root: setup, teardown, unscoped host work
  kSimSched,        // event-loop dispatch + event-heap push/pop
  kSimEvent,        // event-context closures (timers, wire arms, wakeups)
  kFiberSwap,       // fiber stack-switch cost (depart->arrive gap)
  kFiberRun,        // fiber bodies outside any tracked scope
  kPoolFrame,       // FramePool acquire/copy/recycle
  kPoolMbuf,        // mbuf cluster pool ops
  kNicRing,         // NIC tx entry + rx-ring push/pop
  kWireDeliver,     // EthernetSegment shaping/fault model/fan-out
  kFilterClassify,  // packet filter: flow-table demux + VM scan
  kKernTrap,        // trap boundary + kernel delivery glue
  kKernIntrRead,    // Stage kDevIntrRead
  kKernCopyout,     // Stage kKernelCopyout
  kSockCopyin,      // Stage kEntryCopyin
  kSockCopyout,     // Stage kCopyoutExit
  kSockWakeup,      // Stage kWakeupUser
  kSockOther,       // socket-layer spans outside the stage taxonomy
  kInetProtoOut,    // Stage kProtoOutput (tcp_output / udp_output)
  kInetIpOut,       // Stage kIpOutput
  kInetEtherOut,    // Stage kEtherOutput
  kInetMbufQueue,   // Stage kMbufQueue
  kInetIpIn,        // Stage kIpIntr
  kInetProtoIn,     // Stage kProtoInput (tcp_input / udp_input)
  kInetOther,       // protocol-stack spans outside the stage taxonomy
  kIpcPort,         // IPC port send/receive
  kCoreRpc,         // NetServer proxy dispatch, migration, crash cleanup
  kServRpc,         // UX server RPC dispatch
  kApp,             // application-level spans
  kNumDomains,
};

const char* ProfDomainName(ProfDomain d);

// Host machine context, readable in every build (bench JSON records it so
// committed baselines are interpretable across machines).
struct HostContext {
  std::string cpu_model;  // /proc/cpuinfo "model name", or "unknown"
  int cpu_cores = 0;      // hardware_concurrency
  std::string governor;   // cpufreq scaling_governor, or "unknown"
};
const HostContext& ReadHostContext();

// One completed scope, for the chrome-trace wall-time track (recorded only
// when RecordSpans() armed a bounded buffer).
struct HostProfSpan {
  ProfDomain domain;
  uint32_t ctx;        // index into HostProfReport::ctx_names
  double begin_ns;     // host ns since Start()
  double dur_ns;       // inclusive wall duration (spans that blocked include
                       // the time other fibers ran; per-ctx tracks nest
                       // correctly because pops are LIFO per context)
};

struct HostProfReport {
  bool enabled = false;  // Start() was called
  double wall_ns = 0;    // steady_clock, Start() .. snapshot (or Stop())
  double ns_per_tick = 1.0;
  HostContext host;

  struct Dom {
    ProfDomain domain;
    const char* name;
    uint64_t count;    // scope entries (fiber.swap: arrivals)
    double total_ns;   // exclusive host time
  };
  std::vector<Dom> domains;     // nonzero rows, sorted by total_ns descending
  double attributed_ns = 0;     // sum over named domains (excludes "other")
  double other_ns = 0;          // base-context root: setup/teardown/unscoped
  double unattributed_ns = 0;   // wall - attributed - other (TSC drift; >= 0)

  // Exclusive ns by normalized fiber name, descending ("the fiber active at
  // charge time"). Base context (event loop / main) reports as "(main)".
  std::vector<std::pair<std::string, double>> fibers;
  // Collapsed stacks: "root;...;leaf" -> exclusive ns, flamegraph-ready.
  std::vector<std::pair<std::string, double>> stacks;

  std::vector<std::string> ctx_names;  // for spans[i].ctx
  std::vector<HostProfSpan> spans;

  double attributed_pct() const {
    return wall_ns <= 0 ? 0.0 : 100.0 * attributed_ns / wall_ns;
  }
};

// Renderers (`psdobs prof`, bench rows). Implemented in prof.cc so the
// table/flamegraph grammar is testable without the CLI.
std::string RenderHostProfTable(const HostProfReport& r);
std::string RenderHostProfFlame(const HostProfReport& r);
std::string RenderHostProfJson(const HostProfReport& r);
// Compact {"cpu_model":...,"attributed_pct":...,"domains":{...},
// "fibers":{...}} fragment for embedding as the host_profile section of
// shared-schema bench rows; "fibers" is the table's per-fiber split.
std::string HostProfileJsonFragment(const HostProfReport& r);

class HostProfiler {
 public:
  // Pop token: pops are matched by (context, depth, epoch) instead of a
  // global stack so scopes stay balanced even if Start/Stop toggled between
  // a scope's entry and exit, and so a scope always pops from the context
  // it pushed onto.
  struct Token {
    uint32_t ctx = 0;
    uint32_t depth = 0;
    uint64_t epoch = 0;
  };

  static HostProfiler& Get();
  static bool enabled() { return enabled_; }

  // Resets all accumulators and begins a measurement window. Call outside
  // Simulator::Run() (the usual shape: Start, build world, run, Snapshot,
  // Stop). Starting is idempotent-hostile by design: each Start is a fresh
  // window (epoch), invalidating scopes left open across it.
  void Start();
  // Freezes the window (snapshots keep reporting the Start..Stop interval).
  void Stop();
  bool running() const { return running_; }

  // Arms recording of completed scopes (bounded; silently drops past
  // `capacity`) for the chrome-trace wall track. Call before Start().
  void RecordSpans(size_t capacity);

  HostProfReport Snapshot();

  // Registers "prefix<domain>" ns gauges plus "prefixfiber.<name>" gauges
  // for fibers seen so far and "prefixwall_ns" into `reg` (values read live
  // at Snapshot time, so a TimeSeriesSampler sees host-ns rates). Gauge
  // callbacks reference the singleton: safe for any registry lifetime.
  void ExportStats(StatsRegistry* reg, const std::string& prefix = "prof.") const;

  // --- Hot path -------------------------------------------------------

  Token Push(ProfDomain d);
  void Pop(const Token& t);

  // Context-switch edges, called from the simulator's swap sites. Depart
  // charges the running scope up to now and returns the current context id
  // (so the resuming side can restore it); Arrive charges the gap since the
  // matching Depart to fiber.swap and makes `ctx` current. ArriveFiber
  // lazily registers a fiber context through the caller's cached id slot.
  uint32_t Depart();
  void Arrive(uint32_t ctx);
  void ArriveFiber(uint32_t* ctx_slot, const std::string& fiber_name);

  static uint64_t NowTicks() {
#if defined(__x86_64__)
    return __builtin_ia32_rdtsc();
#elif defined(__aarch64__)
    uint64_t v;
    asm volatile("mrs %0, cntvct_el0" : "=r"(v));
    return v;
#else
    return static_cast<uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count());
#endif
  }

 private:
  HostProfiler();

  struct Frame {
    uint16_t domain;
    uint32_t path;        // node index in the path tree
    uint64_t start_tick;  // for span recording (inclusive duration)
  };
  struct Ctx {
    std::vector<Frame> stack;  // [0] is the root frame and never pops
    ProfDomain root;
    int fiber_slot = -1;  // index into fiber_names_/fiber_ticks_, -1 = base
    uint64_t epoch = 0;
    std::string name;  // normalized fiber name ("(main)" for the base ctx)
  };
  struct PathNode {
    uint32_t parent;
    uint16_t domain;
    std::vector<std::pair<uint16_t, uint32_t>> kids;  // domain -> node
  };
  struct DomainRow {
    uint64_t count = 0;
    uint64_t ticks = 0;
  };
  struct RawSpan {
    uint16_t domain;
    uint32_t ctx;
    uint64_t begin_tick;
    uint64_t end_tick;
  };

  // Charges ticks since the previous operation to the running scope.
  void Accrue(uint64_t now) {
    uint64_t d = now - last_tick_;
    last_tick_ = now;
    Ctx& c = ctxs_[cur_ctx_];
    const Frame& f = c.stack.back();
    domains_[f.domain].ticks += d;
    node_ticks_[f.path] += d;
    if (c.fiber_slot >= 0) {
      fiber_ticks_[static_cast<size_t>(c.fiber_slot)] += d;
    } else {
      base_ticks_ += d;
    }
  }

  uint32_t InternChild(uint32_t parent, ProfDomain d);
  uint32_t RegisterCtx(const std::string& fiber_name);
  void ResetCtx(Ctx* c);
  int InternFiber(const std::string& normalized);
  double NsPerTickNow() const;
  std::string PathString(uint32_t node) const;

  static inline bool enabled_ = false;

  bool running_ = false;
  uint64_t epoch_ = 0;
  uint64_t last_tick_ = 0;
  bool swap_pending_ = false;
  uint32_t cur_ctx_ = 0;

  uint64_t start_tick_ = 0;
  uint64_t stop_tick_ = 0;
  std::chrono::steady_clock::time_point start_steady_;
  std::chrono::steady_clock::time_point stop_steady_;

  std::vector<Ctx> ctxs_;  // [0] = base context; grows, never shrinks
  std::vector<PathNode> nodes_;
  std::vector<uint64_t> node_ticks_;
  DomainRow domains_[static_cast<size_t>(ProfDomain::kNumDomains)] = {};
  uint32_t base_node_ = 0;   // root path node of the base context
  uint32_t fiber_node_ = 0;  // shared root path node of every fiber context
  uint32_t swap_node_ = 0;   // path node fiber.swap gaps accrue to

  std::vector<std::string> fiber_names_;  // normalized, interned
  std::vector<uint64_t> fiber_ticks_;
  std::unordered_map<std::string, int> fiber_index_;
  uint64_t base_ticks_ = 0;

  bool record_spans_ = false;
  size_t span_cap_ = 0;
  std::vector<RawSpan> spans_;
};

// RAII scope. Cost when the profiler is off: one static bool load.
class ProfScope {
 public:
  explicit ProfScope(ProfDomain d) {
    if (HostProfiler::enabled()) {
      tok_ = HostProfiler::Get().Push(d);
      open_ = true;
    }
  }
  ~ProfScope() {
    if (open_) {
      HostProfiler::Get().Pop(tok_);
    }
  }

  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

 private:
  HostProfiler::Token tok_;
  bool open_ = false;
};

#define PSD_PROF_SCOPE_CAT2(a, b) a##b
#define PSD_PROF_SCOPE_CAT(a, b) PSD_PROF_SCOPE_CAT2(a, b)
#define PSD_PROF_SCOPE(dom) \
  ::psd::ProfScope PSD_PROF_SCOPE_CAT(psd_prof_scope_, __LINE__)(::psd::ProfDomain::dom)

}  // namespace psd

#endif  // PSD_SRC_OBS_PROF_H_
