// ParseConfig is the one placement-name parser behind every CLI's --config
// flag: each ConfigName must round-trip in any case, the kebab-case names
// the tools document must select the right placement, and anything else is
// rejected without touching the output.
#include <gtest/gtest.h>

#include <cctype>
#include <string>

#include "src/testbed/world.h"

namespace psd {
namespace {

constexpr Config kEveryConfig[] = {Config::kInKernel, Config::kServer, Config::kLibraryIpc,
                                   Config::kLibraryShm, Config::kLibraryShmIpf};

TEST(ParseConfig, RoundTripsEveryConfigNameInAnyCase) {
  for (Config c : kEveryConfig) {
    std::string lower = ConfigName(c);
    for (char& ch : lower) ch = static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
    Config got = c == Config::kServer ? Config::kInKernel : Config::kServer;
    ASSERT_TRUE(ParseConfig(ConfigName(c), &got)) << ConfigName(c);
    EXPECT_EQ(got, c);
    got = c == Config::kServer ? Config::kInKernel : Config::kServer;
    ASSERT_TRUE(ParseConfig(lower.c_str(), &got)) << lower;
    EXPECT_EQ(got, c);
  }
}

TEST(ParseConfig, KebabNamesSelectTheirPlacement) {
  Config got = Config::kInKernel;
  ASSERT_TRUE(ParseConfig("library-shm-ipf", &got));
  EXPECT_EQ(got, Config::kLibraryShmIpf);
  ASSERT_TRUE(ParseConfig("library-shm", &got));
  EXPECT_EQ(got, Config::kLibraryShm);
  ASSERT_TRUE(ParseConfig("in-kernel", &got));
  EXPECT_EQ(got, Config::kInKernel);
}

TEST(ParseConfig, RejectsUnknownNamesAndLeavesOutputAlone) {
  for (const char* bad : {"", "all", "library", "library-shm-", "kernel", "in_kernel"}) {
    Config got = Config::kServer;
    EXPECT_FALSE(ParseConfig(bad, &got)) << '"' << bad << '"';
    EXPECT_EQ(got, Config::kServer);
  }
}

}  // namespace
}  // namespace psd
