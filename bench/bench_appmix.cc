// Application-protocol mix bench: every traffic mix from the torture testbed
// (pipelined RPC over pfx framing, CRLF echo, in-band STARTPFX switch,
// DNS-like UDP query/retry — see src/testbed/traffic_mix.h) run to completion
// on a clean wire under every placement of Table 2.
//
// The question is the paper's: what does protocol placement cost an
// application protocol stack composed above the socket API? The adapters are
// placement-blind, so any difference between rows is pure placement overhead
// — syscall traps for in-kernel, RPC hops for the server placement, shared
// rings for the library ones.
//
// Reported per placement x mix:
//   virtual_ms        — virtual time for the whole mix to complete
//   frames / events   — wire frames carried, simulator events executed
//   msgs / bytes      — client-side adapter messages and payload bytes moved
//   rpc_calls         — RPC calls issued (client)
//   wall_ns           — host wall-clock for the run (min over --trials)
//
// Mix invariants 6-9 are checked after every run; a violation fails the
// bench (exit 3). Virtual quantities must be identical across trials
// (exit 4 on divergence). Emits BENCH_appmix.json (shared schema).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/common/bench_json.h"
#include "bench/common/flags.h"
#include "src/testbed/traffic_mix.h"
#include "src/testbed/world.h"

namespace psd {
namespace {

Config kConfigs[] = {Config::kInKernel, Config::kServer, Config::kLibraryIpc,
                     Config::kLibraryShm, Config::kLibraryShmIpf};

struct AppmixOutcome {
  // Virtual quantities — must be bit-identical across trials.
  uint64_t virtual_ms = 0;  // when the last mix fiber finished
  uint64_t frames = 0;
  uint64_t events = 0;
  uint64_t msgs = 0;       // client adapter messages (in + out)
  uint64_t bytes = 0;      // client payload bytes (in + out)
  uint64_t rpc_calls = 0;
  bool complete = false;
  std::vector<std::string> violations;
  // Host quantity.
  double wall_ns = 0;
};

AppmixOutcome RunAppmix(Config config, const MachineProfile& prof, const MixSpec& mix,
                        uint64_t seed) {
  AppmixOutcome out;
  auto t0 = std::chrono::steady_clock::now();
  {
    TrafficMix m(mix, seed);
    World w(config, prof);
    int apps_done = 0;
    const int apps_total = m.apps_total();
    // The last fiber to finish stamps the mix's virtual completion time.
    m.Launch(&w, [&] {
      if (++apps_done == apps_total) {
        out.virtual_ms = static_cast<uint64_t>(w.sim().Now() / Millis(1));
      }
    });
    w.sim().Run(Seconds(600));
    out.complete = apps_done == apps_total;
    out.frames = w.wire().frames_carried();
    out.events = w.sim().events_executed();
    const ProtoCounters& c = m.client_counters();
    out.msgs = c.msgs_in + c.msgs_out;
    out.bytes = c.bytes_in + c.bytes_out;
    out.rpc_calls = c.rpc_calls;
    m.CheckInvariants(out.complete, &out.violations);
    if (!out.complete) {
      out.violations.push_back("mix did not complete within the virtual deadline");
    }
  }
  auto t1 = std::chrono::steady_clock::now();
  out.wall_ns =
      static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
  return out;
}

}  // namespace
}  // namespace psd

int main(int argc, char** argv) {
  using namespace psd;
  int trials = 1;
  uint64_t seed = 1993;
  std::string only_mix;
  for (int i = 1; i < argc; i++) {
    bool ok = true;
    if (std::strncmp(argv[i], "--trials=", 9) == 0) {
      ok = ParseInt(argv[i] + 9, 1, &trials);
    } else if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      ok = ParseInt(argv[i] + 7, 0, &seed);
    } else if (std::strncmp(argv[i], "--mix=", 6) == 0) {
      only_mix = argv[i] + 6;
    } else {
      ok = false;
    }
    if (!ok) {
      std::fprintf(stderr, "usage: %s [--trials=N] [--seed=N] [--mix=NAME]\n", argv[0]);
      return 1;
    }
  }
  std::vector<MixSpec> mixes;
  for (const MixSpec& m : TrafficMixes()) {
    if (only_mix.empty() || m.name == only_mix) {
      mixes.push_back(m);
    }
  }
  if (mixes.empty()) {
    std::fprintf(stderr, "bench_appmix: unknown mix '%s'\n", only_mix.c_str());
    return 1;
  }
  MachineProfile prof = MachineProfile::DecStation5000();
  std::printf("-- app-protocol mix bench (%zu mixes, profile %s, %d trial%s, seed %llu) --\n",
              mixes.size(), prof.name.c_str(), trials, trials == 1 ? "" : "s",
              static_cast<unsigned long long>(seed));

  BenchJson out("appmix", prof.name);
  out.summary().Set("seed", seed);
  out.summary().Set("trials", trials);
  out.summary().Set("mixes", static_cast<uint64_t>(mixes.size()));
  out.summary().Set("placements", static_cast<uint64_t>(5));

  for (Config config : kConfigs) {
    for (const MixSpec& mix : mixes) {
      AppmixOutcome ref;
      double min_wall = 0;
      for (int t = 0; t < trials; t++) {
        AppmixOutcome r = RunAppmix(config, prof, mix, seed);
        if (!r.violations.empty()) {
          for (const std::string& v : r.violations) {
            std::fprintf(stderr, "bench_appmix: %s/%s INVARIANT: %s\n", ConfigName(config),
                         mix.name.c_str(), v.c_str());
          }
          return 3;
        }
        if (t == 0) {
          ref = r;
          min_wall = r.wall_ns;
        } else {
          if (r.virtual_ms != ref.virtual_ms || r.frames != ref.frames ||
              r.events != ref.events || r.msgs != ref.msgs || r.bytes != ref.bytes) {
            std::fprintf(stderr, "bench_appmix: %s/%s trial %d diverged from trial 0\n",
                         ConfigName(config), mix.name.c_str(), t);
            return 4;
          }
          min_wall = std::min(min_wall, r.wall_ns);
        }
      }
      std::printf("%-15s %-8s %6llu ms virtual  %7llu frames  %8llu events  %6llu msgs  "
                  "%8llu bytes  %6.1f ms wall\n",
                  ConfigName(config), mix.name.c_str(),
                  static_cast<unsigned long long>(ref.virtual_ms),
                  static_cast<unsigned long long>(ref.frames),
                  static_cast<unsigned long long>(ref.events),
                  static_cast<unsigned long long>(ref.msgs),
                  static_cast<unsigned long long>(ref.bytes), min_wall / 1e6);
      BenchJson::Obj& row = out.AddResult();
      row.Set("config", ConfigName(config));
      row.Set("mix", mix.name);
      row.Set("virtual_ms", ref.virtual_ms);
      row.Set("frames", ref.frames);
      row.Set("events", ref.events);
      row.Set("msgs", ref.msgs);
      row.Set("bytes", ref.bytes);
      row.Set("rpc_calls", ref.rpc_calls);
      row.Set("wall_ns", min_wall);
    }
  }
  if (!out.WriteFile()) {
    return 2;
  }
  return 0;
}
