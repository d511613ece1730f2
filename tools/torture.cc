// torture: scenario-driven adversarial fault runner (src/testbed/torture.h).
//
// Executes seeded randomized TCP/UDP workloads under a named fault scenario
// on one placement (or all five) and checks the five torture invariants:
// payload digests, journey conservation, exact corruption reconciliation,
// leak-free teardown, and virtual-time progress. Fully replayable: the same
// --seed/--scenario/--config prints a byte-identical report.
//
// Usage:
//   torture [--scenario NAME|all] [--config NAME|all] [--seed N]
//           [--mix NAME] [--artifacts DIR] [--list] [--list-mixes]
//
// Defaults: --scenario all --config in-kernel --seed 1.
//   --mix NAME       attach an application-traffic mix (see --list-mixes) to
//                    every selected scenario: composed protocol-adapter
//                    stacks (RPC/pfx, CRLF echo, in-band switch, DNS-like
//                    UDP) run through the scenario's fault plan, so coverage
//                    is fault plans x protocol mixes x placements
//   --list           print the scenario registry and exit
//   --list-mixes     print the traffic-mix registry and exit
//   --artifacts DIR  on failure, write DIR/torture-<scenario>-<config>-<seed>
//                    .pktwalk.txt and .pcap for postmortem
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/base/log.h"
#include "src/obs/journey.h"
#include "src/obs/pcap.h"
#include "src/testbed/torture.h"
#include "src/testbed/traffic_mix.h"

using namespace psd;

namespace {

int Usage(const char* argv0) {
  fprintf(stderr,
          "usage: %s [--scenario NAME|all] [--config NAME|all] [--seed N]\n"
          "          [--mix NAME] [--artifacts DIR] [--list] [--list-mixes]\n",
          argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (getenv("TORTURE_LOG") != nullptr) {
    SetMinLogLevel(LogLevel::kTrace);  // debugging aid; stderr, not the report
  }
  std::string scenario = "all";
  std::string config = "in-kernel";
  uint64_t seed = 1;
  std::string mix;
  std::string artifacts;
  for (int i = 1; i < argc; i++) {
    auto need = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        fprintf(stderr, "%s requires an argument\n", flag);
        exit(Usage(argv[0]));
      }
      return argv[++i];
    };
    if (strcmp(argv[i], "--scenario") == 0) {
      scenario = need("--scenario");
    } else if (strcmp(argv[i], "--config") == 0) {
      config = need("--config");
    } else if (strcmp(argv[i], "--seed") == 0) {
      seed = static_cast<uint64_t>(atoll(need("--seed")));
    } else if (strcmp(argv[i], "--mix") == 0) {
      mix = need("--mix");
    } else if (strcmp(argv[i], "--artifacts") == 0) {
      artifacts = need("--artifacts");
    } else if (strcmp(argv[i], "--list") == 0) {
      for (const TortureSpec& s : TortureScenarios()) {
        printf("%-24s %s\n", s.name.c_str(), s.summary.c_str());
      }
      return 0;
    } else if (strcmp(argv[i], "--list-mixes") == 0) {
      for (const MixSpec& m : TrafficMixes()) {
        printf("%-16s %s\n", m.name.c_str(), m.summary.c_str());
      }
      return 0;
    } else {
      fprintf(stderr, "unknown flag '%s'\n", argv[i]);
      return Usage(argv[0]);
    }
  }

  std::vector<TortureSpec> specs;
  if (scenario == "all") {
    for (const TortureSpec& s : TortureScenarios()) {
      specs.push_back(s);
    }
  } else {
    const TortureSpec* s = FindTortureScenario(scenario);
    if (s == nullptr) {
      fprintf(stderr, "unknown scenario '%s' (try --list)\n", scenario.c_str());
      return Usage(argv[0]);
    }
    specs.push_back(*s);
  }
  if (!mix.empty()) {
    if (FindTrafficMix(mix) == nullptr) {
      fprintf(stderr, "unknown mix '%s' (try --list-mixes)\n", mix.c_str());
      return Usage(argv[0]);
    }
    // Compose: the chosen mix rides every selected scenario's fault plan.
    // The report header stays keyed by scenario+mix so replay diffs line up.
    for (TortureSpec& s : specs) {
      s.mix = mix;
      s.name += "+" + mix;
    }
  }
  std::vector<Config> configs;
  Config one;
  if (config == "all") {
    configs = {Config::kInKernel, Config::kServer, Config::kLibraryIpc, Config::kLibraryShm,
               Config::kLibraryShmIpf};
  } else if (ParseConfig(config.c_str(), &one)) {
    configs.push_back(one);
  } else {
    fprintf(stderr, "unknown config '%s'\n", config.c_str());
    return Usage(argv[0]);
  }

  int runs = 0;
  int failures = 0;
  for (const TortureSpec& s : specs) {
    for (Config c : configs) {
      PcapCapture pcap;
      TortureResult r = RunTorture(c, s, seed, &pcap);
      fputs(r.report.c_str(), stdout);
      fputs("\n", stdout);
      runs++;
      if (!r.passed) {
        failures++;
        if (!artifacts.empty()) {
          std::string stem =
              artifacts + "/torture-" + s.name + "-" + ConfigName(c) + "-" + std::to_string(seed);
          PktwalkFilter pf;
          FILE* f = fopen((stem + ".pktwalk.txt").c_str(), "w");
          if (f != nullptr) {
            std::string walk = PktwalkText(pf);
            fwrite(walk.data(), 1, walk.size(), f);
            fclose(f);
          }
          pcap.WriteFile(stem + ".pcap");
          fprintf(stderr, "torture: artifacts written to %s.{pktwalk.txt,pcap}\n", stem.c_str());
        }
      }
    }
  }
  printf("torture: %d run, %d failed (seed %llu)\n", runs, failures,
         static_cast<unsigned long long>(seed));
  return failures == 0 ? 0 : 1;
}
