// The one JSON string-escaping implementation.
//
// Every JSON emitter in the tree (shared bench schema, chrome-trace export,
// the psdobs views, the host profiler) escapes through these two
// helpers; hand-rolled copies kept drifting (one lacked \t, another control
// characters), so the bug surface is now exactly here.
#ifndef PSD_SRC_BASE_JSON_H_
#define PSD_SRC_BASE_JSON_H_

#include <cstdio>
#include <string>

namespace psd {

// Escapes `s` for embedding inside a JSON string literal (no quotes added).
inline std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned char>(c));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

// `s` as a complete JSON string literal, quotes included.
inline std::string JsonQuote(const std::string& s) { return "\"" + JsonEscape(s) + "\""; }

}  // namespace psd

#endif  // PSD_SRC_BASE_JSON_H_
