// Numeric command-line and environment values for the bench and tool mains:
// the whole string must be a base-10 integer in range, so "abc", "12x" and
// "0" for a count are usage errors instead of a silent default.
#ifndef PSD_BENCH_COMMON_FLAGS_H_
#define PSD_BENCH_COMMON_FLAGS_H_

#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace psd {

// Whole-string integer in [lo, max of T].
template <typename T>
bool ParseInt(const char* s, long long lo, T* out) {
  char* end = nullptr;
  errno = 0;
  long long v = std::strtoll(s, &end, 10);
  if (end == s || *end != '\0' || errno != 0 || v < lo ||
      static_cast<unsigned long long>(v) >
          static_cast<unsigned long long>(std::numeric_limits<T>::max())) {
    return false;
  }
  *out = static_cast<T>(v);
  return true;
}

// The ttcp transfer size of the Table 2/3 benches in bytes: PSD_BENCH_MB
// megabytes (an integer >= 1) when set, else 16 MB. Any other value prints
// usage and exits 1.
inline size_t BenchTransferBytes(const char* argv0) {
  uint32_t mb = 16;
  const char* env = std::getenv("PSD_BENCH_MB");
  if (env != nullptr && !ParseInt(env, 1, &mb)) {
    std::fprintf(stderr, "usage: [PSD_BENCH_MB=N] %s   (N: ttcp megabytes, >= 1)\n", argv0);
    std::exit(1);
  }
  return static_cast<size_t>(mb) * 1024 * 1024;
}

}  // namespace psd

#endif  // PSD_BENCH_COMMON_FLAGS_H_
