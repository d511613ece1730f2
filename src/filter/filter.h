// Packet filter: a small register VM in the spirit of CSPF/BPF (Mogul/
// Rashid/Accetta '87; McCanne & Jacobson '93), used by the kernel to demux
// received packets to user-level protocol endpoints securely — an
// application can only receive packets its installed filter accepts.
//
// The operating-system server compiles one filter program per network
// session (src/filter/session_filter.*); the kernel runs installed programs
// against each arriving frame (FilterEngine), charging per-instruction cost.
//
// Demultiplexing is a classification problem, not N interpreter runs: when a
// filter comes with a declarative FlowSpec (the session compiler emits one
// for every session program), the engine additionally indexes it in a hash
// flow table keyed on the parsed 5-tuple/3-tuple. Receive demux then
// resolves indexable filters in one O(1) lookup and falls back to the
// prioritized VM scan only for programs that carry no FlowSpec (catch-alls,
// hand-written filters). Priority semantics are identical to the linear
// scan: see FilterEngine::Match.
#ifndef PSD_SRC_FILTER_FILTER_H_
#define PSD_SRC_FILTER_FILTER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/inet/addr.h"

namespace psd {

enum class FilterOp : uint8_t {
  kLdB,        // A = pkt[k]           (out of range => reject)
  kLdH,        // A = be16(pkt[k..])
  kLdW,        // A = be32(pkt[k..])
  kLdLen,      // A = packet length
  kAndK,       // A &= k
  kOrK,        // A |= k
  kAddK,       // A += k
  kJEqK,       // pc += (A == k) ? jt : jf
  kJGtK,       // pc += (A > k)  ? jt : jf
  kJSetK,      // pc += (A & k)  ? jt : jf
  kRetAccept,  // accept packet
  kRetReject,  // reject packet
};

struct FilterInsn {
  FilterOp op;
  uint32_t k = 0;
  uint8_t jt = 0;
  uint8_t jf = 0;
};

// Largest load offset Validate() accepts. Ethernet frames are far smaller;
// bounding k keeps offset arithmetic trivially overflow-free.
constexpr uint32_t kMaxFilterLoadOffset = 0xFFFF;

// Frame-relative header offsets shared by the session-filter compiler and
// the flow-table classifier (Ethernet + IPv4, no options).
struct FilterOffsets {
  static constexpr uint32_t kEtherType = 12;
  static constexpr uint32_t kIpVerIhl = 14;
  static constexpr uint32_t kIpFragField = 20;
  static constexpr uint32_t kIpProto = 23;
  static constexpr uint32_t kIpSrc = 26;
  static constexpr uint32_t kIpDst = 30;
  static constexpr uint32_t kSrcPort = 34;
  static constexpr uint32_t kDstPort = 36;
};

class FilterProgram {
 public:
  FilterProgram() = default;
  explicit FilterProgram(std::vector<FilterInsn> insns) : insns_(std::move(insns)) {}

  const std::vector<FilterInsn>& insns() const { return insns_; }
  size_t size() const { return insns_.size(); }

  // Static validation: jumps stay in bounds, load offsets are sane, and
  // every path terminates with a return. Programs are validated at install
  // time (kernel safety).
  bool Validate() const;

  std::string Disassemble() const;

  // Builder helpers.
  void LdB(uint32_t k) { insns_.push_back({FilterOp::kLdB, k, 0, 0}); }
  void LdH(uint32_t k) { insns_.push_back({FilterOp::kLdH, k, 0, 0}); }
  void LdW(uint32_t k) { insns_.push_back({FilterOp::kLdW, k, 0, 0}); }
  void LdLen() { insns_.push_back({FilterOp::kLdLen, 0, 0, 0}); }
  void AndK(uint32_t k) { insns_.push_back({FilterOp::kAndK, k, 0, 0}); }
  void JEqK(uint32_t k, uint8_t jt, uint8_t jf) { insns_.push_back({FilterOp::kJEqK, k, jt, jf}); }
  void JGtK(uint32_t k, uint8_t jt, uint8_t jf) { insns_.push_back({FilterOp::kJGtK, k, jt, jf}); }
  void JSetK(uint32_t k, uint8_t jt, uint8_t jf) {
    insns_.push_back({FilterOp::kJSetK, k, jt, jf});
  }
  void Accept() { insns_.push_back({FilterOp::kRetAccept, 0, 0, 0}); }
  void Reject() { insns_.push_back({FilterOp::kRetReject, 0, 0, 0}); }

  // "Jump to reject unless A == k": convenience used by the compiler; the
  // reject target is patched by FinishAcceptAll().
  void RequireEq(uint32_t k);
  // Terminates a RequireEq-style program: accept if all requirements held.
  void FinishAcceptAll();

 private:
  std::vector<FilterInsn> insns_;
  std::vector<size_t> pending_rejects_;
};

struct FilterResult {
  bool accepted = false;
  int insns_executed = 0;
};

// Executes `prog` against the packet bytes. Out-of-range loads reject.
FilterResult RunFilter(const FilterProgram& prog, const uint8_t* pkt, size_t len);

// Declarative description of the set of frames a session filter accepts:
// non-fragmented IPv4 of `proto` addressed to local, with wildcardable
// remote (listeners / unconnected UDP), plus — if accept_fragments —
// continuation fragments of `proto` addressed to local_addr. The session
// compiler emits one of these alongside every program it compiles; the two
// are equivalent by construction, which is what lets the engine index the
// filter instead of interpreting it.
struct FlowSpec {
  IpProto proto = IpProto::kUdp;
  Ipv4Addr local_addr;
  uint16_t local_port = 0;
  Ipv4Addr remote_addr;      // Any = wildcard
  uint16_t remote_port = 0;  // 0 = wildcard
  bool accept_fragments = true;
};

// An installed filter: program + opaque endpoint id + priority. Higher
// priority programs are consulted first; first accept wins; ties break by
// installation order.
struct InstalledFilter {
  uint64_t id = 0;
  FilterProgram program;
  int priority = 0;
  std::optional<FlowSpec> flow;  // present => indexable in the flow table
};

class FilterEngine {
 public:
  // Returns the new filter's id, or 0 if the program fails validation.
  // Without a FlowSpec the filter is resolvable only by running its program
  // (the secure fallback path); with one it is also entered into the hash
  // flow table and normally resolves in a single indexed lookup.
  uint64_t Install(FilterProgram prog, int priority);
  uint64_t Install(FilterProgram prog, int priority, const FlowSpec& flow);
  void Remove(uint64_t id);

  struct MatchResult {
    uint64_t id = 0;  // 0: no filter matched
    int insns_executed = 0;
    int programs_run = 0;
    int classify_ops = 0;        // indexed classifications performed (0 or 1)
    bool via_flow_table = false;  // winner came from the flow table
  };
  MatchResult Match(const uint8_t* pkt, size_t len) const;

  size_t installed_count() const { return filters_.size(); }
  size_t indexed_count() const { return flow_count_; }

 private:
  // The flow table activates once at least this many indexable filters are
  // installed: one indexed classification costs about as much as a single
  // session-program run (MachineProfile::demux_classify), so with a lone
  // session the prioritized scan is already optimal and keeps the seed's
  // exact virtual-time charging.
  static constexpr size_t kIndexMinEntries = 2;

  // Remote-side wildcard shape of a flow entry, and the key namespace each
  // lookup probes. kFrag keys continuation-fragment routing by
  // (proto, local_addr) only.
  enum : uint8_t {
    kKeyLocalOnly = 0,   // remote addr + port both wild
    kKeyRemoteAddr = 1,  // remote addr set, port wild
    kKeyRemotePort = 2,  // remote addr wild, port set
    kKeyExact = 3,       // full 5-tuple
    kKeyFrag = 4,
  };
  struct FlowKey {
    uint32_t local_addr = 0;
    uint32_t remote_addr = 0;
    uint16_t local_port = 0;
    uint16_t remote_port = 0;
    uint8_t proto = 0;
    uint8_t kind = 0;
    bool operator==(const FlowKey&) const = default;
  };
  struct FlowKeyHash {
    size_t operator()(const FlowKey& k) const;
  };
  // One indexable filter under one key; buckets stay sorted in linear-scan
  // order (priority desc, then installation order asc) so the bucket head
  // is the filter the linear scan would have hit first.
  struct FlowEnt {
    uint64_t id = 0;
    int priority = 0;
  };

  static FlowKey EntryKey(const FlowSpec& f);
  void IndexInsert(const FlowKey& key, FlowEnt ent);
  void IndexErase(const FlowKey& key, uint64_t id);
  uint64_t InstallImpl(FilterProgram prog, int priority, std::optional<FlowSpec> flow);
  void RebuildVmOnly();
  // Would the flow-table candidate `c` be consulted before filter `f` by
  // the linear prioritized scan?
  static bool Precedes(const FlowEnt& c, const InstalledFilter& f) {
    return c.priority > f.priority || (c.priority == f.priority && c.id < f.id);
  }

  std::vector<InstalledFilter> filters_;  // sorted: priority desc, id asc
  std::vector<size_t> vm_only_;           // indices of non-indexable filters, same order
  std::unordered_map<FlowKey, std::vector<FlowEnt>, FlowKeyHash> flows_;
  size_t flow_count_ = 0;  // installed indexable filters
  uint64_t next_id_ = 1;
};

}  // namespace psd

#endif  // PSD_SRC_FILTER_FILTER_H_
