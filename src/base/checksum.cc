#include "src/base/checksum.h"

#include <bit>
#include <cstring>

namespace psd {

void ChecksumAccumulator::Add(const uint8_t* data, size_t len) {
  size_t i = 0;
  if (odd_ && len > 0) {
    // Previous piece ended mid-word: this byte is the low half of that word.
    sum_ += data[0];
    i = 1;
    odd_ = false;
  }
  // Eight bytes at a time (RFC 1071 section 2(B)). A 32-bit half of a
  // native-order load is congruent, mod 0xffff, to the sum of its two
  // native 16-bit words, and a native word's byte swap is its big-endian
  // value times 256, also mod 0xffff. So the halves' sum, folded to 16 bits
  // and byte-swapped, joins sum_ with the residue the byte pairs would have
  // given it, and is zero only when they are all zero: Finish() cannot tell
  // the two apart. The loop is counted so that the compiler vectorizes it.
  const size_t words = (len - i) / 8;
  uint64_t lanes = 0;
  for (size_t k = 0; k < words; k++) {
    uint64_t w;
    std::memcpy(&w, data + i + 8 * k, sizeof(w));
    lanes += (w & 0xffffffff) + (w >> 32);
  }
  i += 8 * words;
  if (lanes != 0) {
    while (lanes >> 16) {
      lanes = (lanes & 0xffff) + (lanes >> 16);
    }
    uint16_t folded = static_cast<uint16_t>(lanes);
    if constexpr (std::endian::native == std::endian::little) {
      folded = __builtin_bswap16(folded);
    }
    sum_ += folded;
  }
  for (; i + 1 < len; i += 2) {
    sum_ += static_cast<uint64_t>(data[i]) << 8 | data[i + 1];
  }
  if (i < len) {
    sum_ += static_cast<uint64_t>(data[i]) << 8;
    odd_ = true;
  }
}

void ChecksumAccumulator::AddWord(uint16_t word_host_order) {
  // Must be called on a 16-bit boundary.
  sum_ += word_host_order;
}

uint16_t ChecksumAccumulator::Finish() const {
  uint64_t s = sum_;
  while (s >> 16) {
    s = (s & 0xffff) + (s >> 16);
  }
  return static_cast<uint16_t>(~s & 0xffff);
}

uint16_t InternetChecksum(const uint8_t* data, size_t len) {
  ChecksumAccumulator acc;
  acc.Add(data, len);
  return acc.Finish();
}

}  // namespace psd
