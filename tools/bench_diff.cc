// bench_diff — compare two shared-schema BENCH_*.json files (ISSUE 9).
//
//   bench_diff OLD.json NEW.json [--threshold=PCT]
//
// Prints a per-metric delta table over the two files' "summary" sections
// and exits 1 if any metric regressed by more than the threshold (default
// 10%). Direction is inferred from the metric name: *_per_sec, *speedup*
// and *throughput* metrics are better when higher; *ns*, *_ms*, *_us*,
// p50/p99 and *latency* metrics are better when lower; anything else is
// reported but never gates. This is the steering half of the host
// profiler: BENCH trajectories are only useful if a regression between two
// runs is one command to spot.
//
// The parser below handles exactly the JSON this repo's benches emit
// (objects, arrays, strings, numbers, bools, null — no \u escapes). It is
// deliberately local: tools must stay dependency-free.
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

namespace psd {
namespace {

struct JsonValue {
  enum Kind { kNull, kBool, kNumber, kString, kArray, kObject } kind = kNull;
  bool b = false;
  double num = 0;
  std::string str;
  std::vector<JsonValue> arr;
  // Insertion-ordered; bench summaries are small.
  std::vector<std::pair<std::string, JsonValue>> obj;

  const JsonValue* Find(const std::string& key) const {
    for (const auto& kv : obj) {
      if (kv.first == key) {
        return &kv.second;
      }
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  bool Parse(JsonValue* out) { return Value(out) && (Skip(), pos_ == s_.size()); }

 private:
  void Skip() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      pos_++;
    }
  }
  bool Lit(const char* lit) {
    size_t n = std::strlen(lit);
    if (s_.compare(pos_, n, lit) != 0) {
      return false;
    }
    pos_ += n;
    return true;
  }
  bool String(std::string* out) {
    if (s_[pos_] != '"') {
      return false;
    }
    pos_++;
    out->clear();
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\' && pos_ < s_.size()) {
        char e = s_[pos_++];
        switch (e) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          default: c = e; break;  // \", \\, \/ — and anything exotic, verbatim
        }
      }
      out->push_back(c);
    }
    if (pos_ >= s_.size()) {
      return false;
    }
    pos_++;  // closing quote
    return true;
  }
  bool Value(JsonValue* out) {
    Skip();
    if (pos_ >= s_.size()) {
      return false;
    }
    char c = s_[pos_];
    if (c == '{') {
      pos_++;
      out->kind = JsonValue::kObject;
      Skip();
      if (pos_ < s_.size() && s_[pos_] == '}') {
        pos_++;
        return true;
      }
      for (;;) {
        Skip();
        std::string key;
        if (!String(&key)) {
          return false;
        }
        Skip();
        if (pos_ >= s_.size() || s_[pos_++] != ':') {
          return false;
        }
        JsonValue v;
        if (!Value(&v)) {
          return false;
        }
        out->obj.emplace_back(std::move(key), std::move(v));
        Skip();
        if (pos_ >= s_.size()) {
          return false;
        }
        if (s_[pos_] == ',') {
          pos_++;
          continue;
        }
        if (s_[pos_] == '}') {
          pos_++;
          return true;
        }
        return false;
      }
    }
    if (c == '[') {
      pos_++;
      out->kind = JsonValue::kArray;
      Skip();
      if (pos_ < s_.size() && s_[pos_] == ']') {
        pos_++;
        return true;
      }
      for (;;) {
        JsonValue v;
        if (!Value(&v)) {
          return false;
        }
        out->arr.push_back(std::move(v));
        Skip();
        if (pos_ >= s_.size()) {
          return false;
        }
        if (s_[pos_] == ',') {
          pos_++;
          continue;
        }
        if (s_[pos_] == ']') {
          pos_++;
          return true;
        }
        return false;
      }
    }
    if (c == '"') {
      out->kind = JsonValue::kString;
      return String(&out->str);
    }
    if (c == 't') {
      out->kind = JsonValue::kBool;
      out->b = true;
      return Lit("true");
    }
    if (c == 'f') {
      out->kind = JsonValue::kBool;
      out->b = false;
      return Lit("false");
    }
    if (c == 'n') {
      out->kind = JsonValue::kNull;
      return Lit("null");
    }
    char* end = nullptr;
    out->num = std::strtod(s_.c_str() + pos_, &end);
    if (end == s_.c_str() + pos_) {
      return false;
    }
    out->kind = JsonValue::kNumber;
    pos_ = static_cast<size_t>(end - s_.c_str());
    return true;
  }

  const std::string& s_;
  size_t pos_ = 0;
};

bool LoadBench(const char* path, JsonValue* out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "bench_diff: cannot open %s\n", path);
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  std::string text = ss.str();
  if (!JsonParser(text).Parse(out) || out->kind != JsonValue::kObject) {
    std::fprintf(stderr, "bench_diff: %s is not valid bench JSON\n", path);
    return false;
  }
  return true;
}

bool Contains(const std::string& key, const char* needle) {
  return key.find(needle) != std::string::npos;
}

// +1: higher is better, -1: lower is better, 0: informational only.
int Direction(const std::string& key) {
  if (Contains(key, "per_sec") || Contains(key, "speedup") || Contains(key, "throughput") ||
      Contains(key, "attributed_pct")) {
    return 1;
  }
  if (Contains(key, "_ns") || Contains(key, "ns_per") || Contains(key, "_ms") ||
      Contains(key, "_us") || Contains(key, "p50") || Contains(key, "p99") ||
      Contains(key, "latency")) {
    return -1;
  }
  return 0;
}

int Main(int argc, char** argv) {
  double threshold = 10.0;
  bool bad_threshold = false;
  std::vector<const char*> files;
  for (int i = 1; i < argc; i++) {
    if (std::strncmp(argv[i], "--threshold=", 12) == 0) {
      // The whole value must be a finite, non-negative number: atof would
      // read "abc" as 0 (gate everything) and "nan" fails every comparison
      // (gate nothing).
      const char* s = argv[i] + 12;
      char* end = nullptr;
      threshold = std::strtod(s, &end);
      bad_threshold |= end == s || *end != '\0' || !std::isfinite(threshold) || threshold < 0;
    } else {
      files.push_back(argv[i]);
    }
  }
  if (files.size() != 2 || bad_threshold) {
    std::fprintf(stderr, "usage: bench_diff OLD.json NEW.json [--threshold=PCT]\n");
    return 64;
  }
  JsonValue a, b;
  if (!LoadBench(files[0], &a) || !LoadBench(files[1], &b)) {
    return 65;
  }
  const JsonValue* sa = a.Find("summary");
  const JsonValue* sb = b.Find("summary");
  if (sa == nullptr || sb == nullptr || sa->kind != JsonValue::kObject ||
      sb->kind != JsonValue::kObject) {
    std::fprintf(stderr, "bench_diff: missing summary section\n");
    return 65;
  }

  std::printf("bench_diff: %s -> %s (threshold %.0f%%)\n", files[0], files[1], threshold);
  std::printf("%-36s %14s %14s %9s\n", "metric", "old", "new", "delta");
  int regressions = 0;
  for (const auto& kv : sa->obj) {
    if (kv.second.kind != JsonValue::kNumber) {
      continue;
    }
    const JsonValue* nb = sb->Find(kv.first);
    if (nb == nullptr || nb->kind != JsonValue::kNumber) {
      std::printf("%-36s %14.6g %14s\n", kv.first.c_str(), kv.second.num, "(gone)");
      continue;
    }
    double ov = kv.second.num;
    double nv = nb->num;
    double pct = ov != 0 ? (nv - ov) / std::fabs(ov) * 100.0 : (nv != 0 ? 100.0 : 0.0);
    int dir = Direction(kv.first);
    bool worse = (dir > 0 && pct < -threshold) || (dir < 0 && pct > threshold);
    const char* tag = "";
    if (worse) {
      tag = "  REGRESSION";
      regressions++;
    } else if (dir != 0 && ((dir > 0 && pct > threshold) || (dir < 0 && pct < -threshold))) {
      tag = "  improved";
    }
    std::printf("%-36s %14.6g %14.6g %+8.1f%%%s\n", kv.first.c_str(), ov, nv, pct, tag);
  }
  for (const auto& kv : sb->obj) {
    if (kv.second.kind == JsonValue::kNumber && sa->Find(kv.first) == nullptr) {
      std::printf("%-36s %14s %14.6g\n", kv.first.c_str(), "(new)", kv.second.num);
    }
  }
  if (regressions > 0) {
    std::printf("bench_diff: %d metric(s) regressed past %.0f%%\n", regressions, threshold);
    return 1;
  }
  std::printf("bench_diff: no regressions past %.0f%%\n", threshold);
  return 0;
}

}  // namespace
}  // namespace psd

int main(int argc, char** argv) { return psd::Main(argc, argv); }
