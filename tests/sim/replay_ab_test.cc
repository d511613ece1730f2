// Same-process replay: every torture scenario, on every placement, under
// several seeds, runs twice in a row — once with the host profiler
// recording, once with it stopped — and must produce a byte-identical
// report (stream digests, journey/wire counters, events-executed) and a
// byte-identical pktwalk of every packet's life.
//
// That proves two things at once. The profiler touches no virtual state
// (the zero-perturbation claim in src/obs/prof.h): only one side of each
// pair is profiled. And no observability state leaks from one run into the
// next inside one process: the second run of each pair, and every run
// after the first cell, starts where earlier runs left the singletons.
// The two-process replay is the torture_replay_is_byte_identical ctest.
#include <gtest/gtest.h>

#include <string>

#include "src/obs/journey.h"
#include "src/obs/prof.h"
#include "src/testbed/torture.h"

namespace psd {
namespace {

struct ReplayRun {
  TortureResult result;
  std::string pktwalk;
};

ReplayRun RunOnce(bool profiled, Config config, const TortureSpec& spec, uint64_t seed) {
  if (profiled) {
    HostProfiler::Get().Start();
  }
  ReplayRun out;
  out.result = RunTorture(config, spec, seed);
  // RunTorture leaves the run's journey records in the singletons; the
  // pktwalk is the finest-grained observable — per-packet hop sequences
  // with virtual timestamps.
  out.pktwalk = PktwalkText(PktwalkFilter{});
  if (profiled) {
    HostProfiler::Get().Stop();
  }
  return out;
}

void CheckConfig(Config config) {
  for (uint64_t seed : {1ull, 7ull, 1993ull}) {
    for (const TortureSpec& spec : TortureScenarios()) {
      ReplayRun profiled = RunOnce(true, config, spec, seed);
      ReplayRun plain = RunOnce(false, config, spec, seed);
      EXPECT_TRUE(profiled.result.passed)
          << spec.name << " seed " << seed << ":\n" << profiled.result.report;
      EXPECT_TRUE(plain.result.passed)
          << spec.name << " seed " << seed << ":\n" << plain.result.report;
      EXPECT_EQ(profiled.result.report, plain.result.report)
          << "report diverged: " << spec.name << " seed " << seed;
      EXPECT_EQ(profiled.pktwalk, plain.pktwalk)
          << "pktwalk diverged: " << spec.name << " seed " << seed;
    }
  }
}

TEST(DeterminismAB, InKernel) { CheckConfig(Config::kInKernel); }
TEST(DeterminismAB, Server) { CheckConfig(Config::kServer); }
TEST(DeterminismAB, LibraryIpc) { CheckConfig(Config::kLibraryIpc); }
TEST(DeterminismAB, LibraryShm) { CheckConfig(Config::kLibraryShm); }
TEST(DeterminismAB, LibraryShmIpf) { CheckConfig(Config::kLibraryShmIpf); }

}  // namespace
}  // namespace psd
