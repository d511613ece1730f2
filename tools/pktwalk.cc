// pktwalk: replay a protolat workload and print packet life stories.
//
// Every frame gets a packet id at its origin (src/obs/journey.h); pktwalk
// runs the workload with the journey recorder on and then prints, for each
// packet, its hop-by-hop path through wire / kernel / filter / stack and
// its terminal disposition — delivered, consumed, dropped(reason), or
// in-flight-at-exit — plus the unified drop-reason ledger.
//
// Usage:
//   pktwalk [--config NAME] [--proto udp|tcp] [--size BYTES] [--trials N]
//           [--loss RATE] [--seed N] [--pkt N] [--drops] [--lost-only]
//           [--json]
//
// Defaults: --config library-shm-ipf --proto tcp --size 64 --trials 20.
//   --pkt N       only packet id N
//   --lost-only   only packets that died or never finished
//   --drops       only the drop ledger (totals + recent events)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench/common/workloads.h"
#include "src/obs/journey.h"

using namespace psd;

namespace {

int Usage(const char* argv0) {
  fprintf(stderr,
          "usage: %s [--config in-kernel|server|library-ipc|library-shm|library-shm-ipf]\n"
          "          [--proto udp|tcp] [--size BYTES] [--trials N]\n"
          "          [--loss RATE] [--seed N] [--pkt N] [--drops] [--lost-only] [--json]\n",
          argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Config config = Config::kLibraryShmIpf;
  ProtolatOptions opt;
  opt.proto = IpProto::kTcp;
  opt.msg_size = 64;
  opt.trials = 20;
  double loss = 0.0;
  uint64_t seed = 1;
  bool json = false;
  PktwalkFilter filter;

  for (int i = 1; i < argc; i++) {
    auto need = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        fprintf(stderr, "%s requires an argument\n", flag);
        exit(Usage(argv[0]));
      }
      return argv[++i];
    };
    if (strcmp(argv[i], "--config") == 0) {
      const char* v = need("--config");
      if (!ParseConfig(v, &config)) {
        fprintf(stderr, "unknown config '%s'\n", v);
        return Usage(argv[0]);
      }
    } else if (strcmp(argv[i], "--proto") == 0) {
      const char* v = need("--proto");
      if (strcmp(v, "udp") == 0) {
        opt.proto = IpProto::kUdp;
      } else if (strcmp(v, "tcp") == 0) {
        opt.proto = IpProto::kTcp;
      } else {
        fprintf(stderr, "unknown proto '%s'\n", v);
        return Usage(argv[0]);
      }
    } else if (strcmp(argv[i], "--size") == 0) {
      opt.msg_size = static_cast<size_t>(atol(need("--size")));
    } else if (strcmp(argv[i], "--trials") == 0) {
      opt.trials = atoi(need("--trials"));
    } else if (strcmp(argv[i], "--loss") == 0) {
      loss = atof(need("--loss"));
    } else if (strcmp(argv[i], "--seed") == 0) {
      seed = static_cast<uint64_t>(atoll(need("--seed")));
    } else if (strcmp(argv[i], "--pkt") == 0) {
      filter.pkt = static_cast<uint64_t>(atoll(need("--pkt")));
    } else if (strcmp(argv[i], "--drops") == 0) {
      filter.drops_only = true;
    } else if (strcmp(argv[i], "--lost-only") == 0) {
      filter.lost_only = true;
    } else if (strcmp(argv[i], "--json") == 0) {
      json = true;
    } else {
      fprintf(stderr, "unknown flag '%s'\n", argv[i]);
      return Usage(argv[0]);
    }
  }

  // One run, accounted from zero. Size the hop ring to hold every hop of
  // the run so journeys are complete, not ring-truncated.
  DropLedger::Get().Reset();
  PacketJourney::Get().Reset();
  PacketJourney::Get().set_hop_capacity(1 << 20);
  DropLedger::Get().set_ring_capacity(1 << 16);

  ProtolatHooks hooks;
  hooks.on_world = [&](World& w) {
    if (loss > 0) {
      FaultPlan plan;
      plan.loss_rate = loss;
      plan.seed = seed;
      w.wire().SetFaults(plan);
    }
  };
  double ms = RunProtolatTraced(config, MachineProfile::DecStation5000(), opt, hooks);
  if (ms < 0) {
    fprintf(stderr, "pktwalk: protolat run did not complete\n");
    return 1;
  }

  std::string out = json ? PktwalkJson(filter) : PktwalkText(filter);
  fputs(out.c_str(), stdout);
  return 0;
}
