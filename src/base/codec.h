// Tiny big-endian message codec for RPC payloads (server placement and the
// library placement's proxy protocol).
#ifndef PSD_SRC_BASE_CODEC_H_
#define PSD_SRC_BASE_CODEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/bytes.h"

namespace psd {

class Encoder {
 public:
  // Room for every fixed-size request up front: growing a byte at a time
  // would reallocate at 1, 2, 4, 8, ... bytes.
  Encoder() { buf_.reserve(64); }

  void U8(uint8_t x) { buf_.push_back(x); }
  void U16(uint16_t x) {
    buf_.push_back(static_cast<uint8_t>(x >> 8));
    buf_.push_back(static_cast<uint8_t>(x));
  }
  void U32(uint32_t x) {
    U16(static_cast<uint16_t>(x >> 16));
    U16(static_cast<uint16_t>(x));
  }
  void U64(uint64_t x) {
    U32(static_cast<uint32_t>(x >> 32));
    U32(static_cast<uint32_t>(x));
  }
  void Bytes(const uint8_t* p, size_t n) {
    U32(static_cast<uint32_t>(n));
    buf_.insert(buf_.end(), p, p + n);
  }
  void Bytes(const std::vector<uint8_t>& v) { Bytes(v.data(), v.size()); }

  std::vector<uint8_t> Take() { return std::move(buf_); }
  const std::vector<uint8_t>& buf() const { return buf_; }

 private:
  std::vector<uint8_t> buf_;
};

class Decoder {
 public:
  explicit Decoder(const std::vector<uint8_t>& v) : v_(v) {}

  uint8_t U8() {
    if (at_ + 1 > v_.size()) {
      fail_ = true;
      return 0;
    }
    return v_[at_++];
  }
  uint16_t U16() {
    if (at_ + 2 > v_.size()) {
      fail_ = true;
      return 0;
    }
    uint16_t x = Load16(v_.data() + at_);
    at_ += 2;
    return x;
  }
  uint32_t U32() {
    if (at_ + 4 > v_.size()) {
      fail_ = true;
      return 0;
    }
    uint32_t x = Load32(v_.data() + at_);
    at_ += 4;
    return x;
  }
  uint64_t U64() {
    uint64_t hi = U32();
    return hi << 32 | U32();
  }
  std::vector<uint8_t> Bytes() {
    uint32_t n = U32();
    if (fail_ || at_ + n > v_.size()) {
      fail_ = true;
      return {};
    }
    std::vector<uint8_t> out(v_.begin() + at_, v_.begin() + at_ + n);
    at_ += n;
    return out;
  }

  bool failed() const { return fail_; }

 private:
  const std::vector<uint8_t>& v_;
  size_t at_ = 0;
  bool fail_ = false;
};

}  // namespace psd

#endif  // PSD_SRC_BASE_CODEC_H_
