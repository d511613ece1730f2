#include <gtest/gtest.h>

#include <vector>

#include "src/base/checksum.h"
#include "src/base/codec.h"
#include "src/base/result.h"
#include "src/base/rng.h"

namespace psd {
namespace {

TEST(Checksum, RfcExample) {
  // RFC 1071 example: 00 01 f2 03 f4 f5 f6 f7 -> sum 0xddf2, checksum ~0xddf2.
  const uint8_t data[] = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(InternetChecksum(data, sizeof(data)), static_cast<uint16_t>(~0xddf2));
}

TEST(Checksum, VerifiesToZero) {
  // A buffer with its own checksum folded in verifies to 0.
  std::vector<uint8_t> data = {0x45, 0x00, 0x00, 0x1c, 0x12, 0x34, 0x00, 0x00,
                               0x40, 0x11, 0x00, 0x00, 0x0a, 0x00, 0x00, 0x01,
                               0x0a, 0x00, 0x00, 0x02};
  uint16_t sum = InternetChecksum(data.data(), data.size());
  data[10] = static_cast<uint8_t>(sum >> 8);
  data[11] = static_cast<uint8_t>(sum);
  EXPECT_EQ(InternetChecksum(data.data(), data.size()), 0);
}

TEST(Checksum, EmptyIsAllOnes) {
  EXPECT_EQ(InternetChecksum(nullptr, 0), 0xffff);
}

TEST(Checksum, OddLength) {
  const uint8_t data[] = {0xab, 0xcd, 0xef};
  // Odd final byte is the high half of a padded word.
  ChecksumAccumulator acc;
  acc.Add(data, 3);
  uint64_t expect = 0xabcd + 0xef00;
  EXPECT_EQ(acc.Finish(), static_cast<uint16_t>(~((expect & 0xffff) + (expect >> 16))));
}

// Property: splitting a buffer at any point and accumulating the pieces
// gives the same checksum as one shot (mbuf chains depend on this).
TEST(Checksum, SplitInvariance) {
  Rng rng(42);
  for (int trial = 0; trial < 50; trial++) {
    size_t n = 1 + rng.Below(300);
    std::vector<uint8_t> data(n);
    for (auto& b : data) {
      b = static_cast<uint8_t>(rng.Next());
    }
    uint16_t whole = InternetChecksum(data.data(), n);
    size_t cut1 = rng.Below(n + 1);
    size_t cut2 = cut1 + rng.Below(n - cut1 + 1);
    ChecksumAccumulator acc;
    acc.Add(data.data(), cut1);
    acc.Add(data.data() + cut1, cut2 - cut1);
    acc.Add(data.data() + cut2, n - cut2);
    EXPECT_EQ(acc.Finish(), whole) << "n=" << n << " cuts " << cut1 << "," << cut2;
  }
}

// The byte-pair accumulator ChecksumAccumulator::Add replaced: one
// big-endian 16-bit word per step, the odd byte carried across pieces.
class BytePairChecksum {
 public:
  void Add(const uint8_t* data, size_t len) {
    size_t i = 0;
    if (odd_ && len > 0) {
      sum_ += data[0];
      i = 1;
      odd_ = false;
    }
    for (; i + 1 < len; i += 2) {
      sum_ += static_cast<uint64_t>(data[i]) << 8 | data[i + 1];
    }
    if (i < len) {
      sum_ += static_cast<uint64_t>(data[i]) << 8;
      odd_ = true;
    }
  }
  void AddWord(uint16_t w) { sum_ += w; }
  uint16_t Finish() const {
    uint64_t s = sum_;
    while (s >> 16) {
      s = (s & 0xffff) + (s >> 16);
    }
    return static_cast<uint16_t>(~s & 0xffff);
  }

 private:
  uint64_t sum_ = 0;
  bool odd_ = false;
};

// The word-at-a-time sum gives exactly the byte-pair checksum, over random
// contents, lengths 0-3000, start offsets 0-63 (every alignment of the
// 8-byte loads), up to four pieces split at arbitrary (odd) points, with
// and without a leading pseudo header, and on all-0x00 and all-0xff
// buffers, whose sums are the two one's-complement zeros.
TEST(Checksum, WordAtATimeMatchesBytePairs) {
  constexpr size_t kMaxLen = 3000;
  constexpr size_t kMaxOffset = 63;
  Rng rng(1071);
  std::vector<uint8_t> random(kMaxLen + kMaxOffset);
  for (auto& b : random) {
    b = static_cast<uint8_t>(rng.Next());
  }
  const std::vector<uint8_t> zeros(random.size(), 0x00);
  const std::vector<uint8_t> ones(random.size(), 0xff);
  int zero_sums = 0;
  int ffff_sums = 0;
  for (int trial = 0; trial < 1000000; trial++) {
    // Mostly short lengths, so the whole range is covered at a bounded
    // cost; every content kind and offset is drawn uniformly.
    const size_t len = rng.Below(4) == 0 ? rng.Below(kMaxLen + 1) : rng.Below(130);
    const size_t off = rng.Below(kMaxOffset + 1);
    const uint64_t kind = rng.Below(8);
    const uint8_t* data = (kind == 0 ? zeros : kind == 1 ? ones : random).data() + off;
    if (kind > 1) {
      random[rng.Below(random.size())] = static_cast<uint8_t>(rng.Next());
    }
    ChecksumAccumulator got;
    BytePairChecksum want;
    if (rng.Below(2) == 0) {
      const uint16_t pseudo[] = {static_cast<uint16_t>(rng.Next()),
                                 static_cast<uint16_t>(rng.Next()), 6,
                                 static_cast<uint16_t>(len)};
      for (uint16_t w : pseudo) {
        got.AddWord(w);
        want.AddWord(w);
      }
    }
    want.Add(data, len);
    size_t at = 0;
    for (int piece = static_cast<int>(rng.Below(4)); piece > 0 && at < len; piece--) {
      const size_t n = rng.Below(len - at + 1);
      got.Add(data + at, n);
      at += n;
    }
    got.Add(data + at, len - at);
    const uint16_t sum = want.Finish();
    ASSERT_EQ(got.Finish(), sum) << "trial " << trial << " len " << len << " offset " << off
                                 << " kind " << kind;
    zero_sums += sum == 0xffff;
    ffff_sums += sum == 0x0000;
  }
  // Both zeros came up: an all-zero sum (checksum 0xffff) and a sum of
  // 0xffff (checksum 0).
  EXPECT_GT(zero_sums, 0);
  EXPECT_GT(ffff_sums, 0);
}

TEST(Checksum, OnesComplementZeros) {
  const std::vector<uint8_t> zeros(1460, 0x00);
  const std::vector<uint8_t> ones(1460, 0xff);
  EXPECT_EQ(InternetChecksum(zeros.data(), zeros.size()), 0xffff);
  EXPECT_EQ(InternetChecksum(ones.data(), ones.size()), 0x0000);
  EXPECT_EQ(InternetChecksum(ones.data() + 1, 1459), 0x00ff);  // odd tail: 0xff00 padded
}

TEST(Result, ValueAndError) {
  Result<int> ok(7);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 7);
  EXPECT_EQ(ok.error(), Err::kOk);

  Result<int> bad(Err::kConnRefused);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error(), Err::kConnRefused);
  EXPECT_STREQ(ErrName(bad.error()), "ECONNREFUSED");
}

TEST(Result, VoidSpecialization) {
  Result<void> ok = OkResult();
  EXPECT_TRUE(ok.ok());
  Result<void> bad(Err::kTimedOut);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.error(), Err::kTimedOut);
}

TEST(Codec, RoundTrip) {
  Encoder e;
  e.U8(7);
  e.U16(0xabcd);
  e.U32(0xdeadbeef);
  e.U64(0x0123456789abcdefULL);
  e.Bytes(std::vector<uint8_t>{1, 2, 3});
  std::vector<uint8_t> buf = e.Take();

  Decoder d(buf);
  EXPECT_EQ(d.U8(), 7);
  EXPECT_EQ(d.U16(), 0xabcd);
  EXPECT_EQ(d.U32(), 0xdeadbeefu);
  EXPECT_EQ(d.U64(), 0x0123456789abcdefULL);
  EXPECT_EQ(d.Bytes(), (std::vector<uint8_t>{1, 2, 3}));
  EXPECT_FALSE(d.failed());
}

TEST(Codec, TruncationFails) {
  Encoder e;
  e.U32(5);
  std::vector<uint8_t> buf = e.Take();
  buf.pop_back();
  Decoder d(buf);
  d.U32();
  EXPECT_TRUE(d.failed());
}

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; i++) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(Rng, RangeBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; i++) {
    int64_t v = rng.Range(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

}  // namespace
}  // namespace psd
