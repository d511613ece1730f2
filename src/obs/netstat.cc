#include "src/obs/netstat.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>
#include <tuple>

namespace psd {

namespace {

// Humanized phrases for the well-known protocol counters, mirroring the
// netstat -s wording for the BSD counters they model. Drop gauges keep
// their ledger reason names ("drops.ip-bad-checksum").
const char* Phrase(const std::string& leaf) {
  struct Entry {
    const char* name;
    const char* phrase;
  };
  static const Entry kPhrases[] = {
      // tcpstat
      {"segs_sent", "segments sent"},
      {"segs_received", "segments received"},
      {"data_segs_sent", "data segments sent"},
      {"bytes_sent", "data bytes sent"},
      {"bytes_received", "data bytes received"},
      {"retransmits", "data segments retransmitted"},
      {"fast_retransmits", "fast retransmissions"},
      {"rexmt_timeouts", "retransmit timeouts"},
      {"dup_acks", "duplicate acks received"},
      {"acks_received", "acks received for new data"},
      {"acks_delayed", "delayed acks scheduled"},
      {"window_updates", "window update segments received"},
      {"out_of_order", "out-of-order segments received"},
      {"rsts_sent", "resets sent"},
      {"conns_established", "connections established"},
      {"conns_dropped", "connections dropped"},
      {"persist_probes", "window probes sent"},
      {"keepalive_probes", "keepalive probes sent"},
      // udpstat
      {"sent", "datagrams output"},
      {"received", "datagrams received"},
      // ipstat
      {"delivered", "packets delivered to upper layers"},
      {"fragments_sent", "output fragments created"},
      {"fragments_received", "fragments received"},
      {"reassembled", "packets reassembled ok"},
      // etherstat
      {"tx_frames", "frames transmitted"},
      // arpstat
      {"requests_sent", "requests sent"},
      {"replies_sent", "replies sent"},
      // wire
      {"frames_carried", "frames carried"},
  };
  for (const Entry& e : kPhrases) {
    if (leaf == e.name) {
      return e.phrase;
    }
  }
  return nullptr;
}

void SplitLeaf(const std::string& name, std::string* block, std::string* leaf) {
  size_t dot = name.rfind('.');
  if (dot == std::string::npos) {
    block->clear();
    *leaf = name;
  } else {
    *block = name.substr(0, dot);
    *leaf = name.substr(dot + 1);
  }
}

struct JsonNode {
  std::map<std::string, JsonNode> kids;  // ordered: stable output
  uint64_t value = 0;
  bool leaf = false;
};

void RenderJson(const JsonNode& node, std::ostringstream& os, int depth) {
  if (node.leaf) {
    os << node.value;
    return;
  }
  os << "{";
  bool first = true;
  for (const auto& [key, kid] : node.kids) {
    if (!first) {
      os << ",";
    }
    first = false;
    os << "\n" << std::string(static_cast<size_t>(depth + 1) * 2, ' ') << "\"" << key << "\": ";
    RenderJson(kid, os, depth + 1);
  }
  if (!first) {
    os << "\n" << std::string(static_cast<size_t>(depth) * 2, ' ');
  }
  os << "}";
}

}  // namespace

std::string NetstatText(const std::vector<StatsRegistry::Entry>& entries, bool skip_zero) {
  // Ordered by (block, leaf), not by full name: a block's own counters stay
  // under one header even where its sub-blocks ("h0.kern.drops.*") sort
  // between them by name.
  struct Row {
    std::string block;
    std::string leaf;
    uint64_t value;
  };
  std::vector<Row> rows;
  for (const StatsRegistry::Entry& e : entries) {
    if (skip_zero && e.value == 0) {
      continue;
    }
    Row r{{}, {}, e.value};
    SplitLeaf(e.name, &r.block, &r.leaf);
    rows.push_back(std::move(r));
  }
  std::stable_sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return std::tie(a.block, a.leaf) < std::tie(b.block, b.leaf);
  });
  std::ostringstream os;
  for (size_t i = 0; i < rows.size(); i++) {
    const Row& r = rows[i];
    if (i == 0 || r.block != rows[i - 1].block) {
      os << (r.block.empty() ? "(top)" : r.block) << ":\n";
    }
    const char* phrase = Phrase(r.leaf);
    char line[192];
    std::snprintf(line, sizeof(line), "\t%llu %s\n", static_cast<unsigned long long>(r.value),
                  phrase != nullptr ? phrase : r.leaf.c_str());
    os << line;
  }
  return os.str();
}

std::string NetstatJson(const std::vector<StatsRegistry::Entry>& entries) {
  JsonNode root;
  for (const StatsRegistry::Entry& e : entries) {
    JsonNode* node = &root;
    size_t start = 0;
    while (true) {
      size_t dot = e.name.find('.', start);
      std::string part = e.name.substr(start, dot == std::string::npos ? dot : dot - start);
      node = &node->kids[part];
      if (dot == std::string::npos) {
        break;
      }
      start = dot + 1;
    }
    node->leaf = true;
    node->value = e.value;
  }
  std::ostringstream os;
  RenderJson(root, os, 0);
  return os.str();
}

}  // namespace psd
