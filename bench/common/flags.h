// Numeric command-line values for the bench and tool mains: the whole
// string must be a base-10 integer in range, so "abc", "12x" and "0" for a
// count are usage errors instead of a silent default.
#ifndef PSD_BENCH_COMMON_FLAGS_H_
#define PSD_BENCH_COMMON_FLAGS_H_

#include <cerrno>
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

}  // namespace psd

#endif  // PSD_BENCH_COMMON_FLAGS_H_
