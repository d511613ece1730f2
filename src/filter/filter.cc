#include "src/filter/filter.h"

#include <algorithm>
#include <sstream>

#include "src/base/bytes.h"
#include "src/netsim/ether.h"
#include "src/obs/prof.h"

namespace psd {

void FilterProgram::RequireEq(uint32_t k) {
  // Placeholder jf: patched by FinishAcceptAll to the shared reject insn.
  insns_.push_back({FilterOp::kJEqK, k, 0, 0});
  pending_rejects_.push_back(insns_.size() - 1);
}

void FilterProgram::FinishAcceptAll() {
  Accept();
  size_t reject_at = insns_.size();
  Reject();
  for (size_t idx : pending_rejects_) {
    // jf displacement from the instruction after idx to the reject insn.
    insns_[idx].jf = static_cast<uint8_t>(reject_at - idx - 1);
  }
  pending_rejects_.clear();
}

bool FilterProgram::Validate() const {
  if (insns_.empty() || insns_.size() > 255) {
    return false;
  }
  for (size_t i = 0; i < insns_.size(); i++) {
    const FilterInsn& in = insns_[i];
    switch (in.op) {
      case FilterOp::kLdB:
      case FilterOp::kLdH:
      case FilterOp::kLdW:
        // No frame is anywhere near this large; rejecting oversized offsets
        // here keeps the interpreter's bounds checks simple.
        if (in.k > kMaxFilterLoadOffset) {
          return false;
        }
        if (i + 1 >= insns_.size()) {
          return false;
        }
        break;
      case FilterOp::kJEqK:
      case FilterOp::kJGtK:
      case FilterOp::kJSetK:
        if (i + 1 + in.jt >= insns_.size() || i + 1 + in.jf >= insns_.size()) {
          return false;
        }
        break;
      default:
        // Non-jump, non-return instruction must not be last.
        if (in.op != FilterOp::kRetAccept && in.op != FilterOp::kRetReject &&
            i + 1 >= insns_.size()) {
          return false;
        }
        break;
    }
  }
  // Jumps are forward-only (jt/jf are unsigned displacements), so programs
  // cannot loop; any in-bounds program terminates.
  return true;
}

std::string FilterProgram::Disassemble() const {
  std::ostringstream os;
  for (size_t i = 0; i < insns_.size(); i++) {
    const FilterInsn& in = insns_[i];
    os << i << ": ";
    switch (in.op) {
      case FilterOp::kLdB:
        os << "ldb [" << in.k << "]";
        break;
      case FilterOp::kLdH:
        os << "ldh [" << in.k << "]";
        break;
      case FilterOp::kLdW:
        os << "ldw [" << in.k << "]";
        break;
      case FilterOp::kLdLen:
        os << "ldlen";
        break;
      case FilterOp::kAndK:
        os << "and #" << in.k;
        break;
      case FilterOp::kOrK:
        os << "or #" << in.k;
        break;
      case FilterOp::kAddK:
        os << "add #" << in.k;
        break;
      case FilterOp::kJEqK:
        os << "jeq #" << in.k << " +" << int(in.jt) << " +" << int(in.jf);
        break;
      case FilterOp::kJGtK:
        os << "jgt #" << in.k << " +" << int(in.jt) << " +" << int(in.jf);
        break;
      case FilterOp::kJSetK:
        os << "jset #" << in.k << " +" << int(in.jt) << " +" << int(in.jf);
        break;
      case FilterOp::kRetAccept:
        os << "ret accept";
        break;
      case FilterOp::kRetReject:
        os << "ret reject";
        break;
    }
    os << "\n";
  }
  return os.str();
}

FilterResult RunFilter(const FilterProgram& prog, const uint8_t* pkt, size_t len) {
  const auto& insns = prog.insns();
  uint32_t a = 0;
  FilterResult result;
  size_t pc = 0;
  while (pc < insns.size()) {
    const FilterInsn& in = insns[pc];
    result.insns_executed++;
    // Bounds checks compare in size_t with the width on the right so that a
    // huge k (e.g. 0xFFFFFFFF) cannot wrap the sum back into range.
    switch (in.op) {
      case FilterOp::kLdB:
        if (len < 1 || static_cast<size_t>(in.k) > len - 1) {
          return result;
        }
        a = pkt[in.k];
        break;
      case FilterOp::kLdH:
        if (len < 2 || static_cast<size_t>(in.k) > len - 2) {
          return result;
        }
        a = Load16(pkt + in.k);
        break;
      case FilterOp::kLdW:
        if (len < 4 || static_cast<size_t>(in.k) > len - 4) {
          return result;
        }
        a = Load32(pkt + in.k);
        break;
      case FilterOp::kLdLen:
        a = static_cast<uint32_t>(len);
        break;
      case FilterOp::kAndK:
        a &= in.k;
        break;
      case FilterOp::kOrK:
        a |= in.k;
        break;
      case FilterOp::kAddK:
        a += in.k;
        break;
      case FilterOp::kJEqK:
        pc += (a == in.k) ? in.jt : in.jf;
        break;
      case FilterOp::kJGtK:
        pc += (a > in.k) ? in.jt : in.jf;
        break;
      case FilterOp::kJSetK:
        pc += (a & in.k) ? in.jt : in.jf;
        break;
      case FilterOp::kRetAccept:
        result.accepted = true;
        return result;
      case FilterOp::kRetReject:
        return result;
    }
    pc++;
  }
  return result;  // fell off the end: reject (Validate prevents this)
}

// ---------------------------------------------------------------------------
// FilterEngine

size_t FilterEngine::FlowKeyHash::operator()(const FlowKey& k) const {
  // 64-bit mix of all key fields (splitmix64 finalizer).
  uint64_t h = static_cast<uint64_t>(k.local_addr) << 32 | k.remote_addr;
  h ^= static_cast<uint64_t>(k.local_port) << 40 | static_cast<uint64_t>(k.remote_port) << 16 |
       static_cast<uint64_t>(k.proto) << 8 | k.kind;
  h += 0x9e3779b97f4a7c15ull;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  return static_cast<size_t>(h ^ (h >> 31));
}

FilterEngine::FlowKey FilterEngine::EntryKey(const FlowSpec& f) {
  FlowKey k;
  k.proto = static_cast<uint8_t>(f.proto);
  k.local_addr = f.local_addr.v;
  k.local_port = f.local_port;
  k.kind = kKeyLocalOnly;
  if (f.remote_addr != Ipv4Addr::Any()) {
    k.remote_addr = f.remote_addr.v;
    k.kind |= kKeyRemoteAddr;
  }
  if (f.remote_port != 0) {
    k.remote_port = f.remote_port;
    k.kind |= kKeyRemotePort;
  }
  return k;
}

void FilterEngine::IndexInsert(const FlowKey& key, FlowEnt ent) {
  std::vector<FlowEnt>& bucket = flows_[key];
  auto pos = std::find_if(bucket.begin(), bucket.end(), [&](const FlowEnt& e) {
    return e.priority < ent.priority || (e.priority == ent.priority && e.id > ent.id);
  });
  bucket.insert(pos, ent);
}

void FilterEngine::IndexErase(const FlowKey& key, uint64_t id) {
  auto it = flows_.find(key);
  if (it == flows_.end()) {
    return;
  }
  std::erase_if(it->second, [id](const FlowEnt& e) { return e.id == id; });
  if (it->second.empty()) {
    flows_.erase(it);
  }
}

void FilterEngine::RebuildVmOnly() {
  vm_only_.clear();
  for (size_t i = 0; i < filters_.size(); i++) {
    if (!filters_[i].flow.has_value()) {
      vm_only_.push_back(i);
    }
  }
}

uint64_t FilterEngine::InstallImpl(FilterProgram prog, int priority,
                                   std::optional<FlowSpec> flow) {
  if (!prog.Validate()) {
    return 0;
  }
  InstalledFilter f{next_id_++, std::move(prog), priority, flow};
  uint64_t id = f.id;
  auto pos = std::find_if(filters_.begin(), filters_.end(),
                          [&](const InstalledFilter& g) { return g.priority < priority; });
  filters_.insert(pos, std::move(f));
  if (flow.has_value()) {
    IndexInsert(EntryKey(*flow), FlowEnt{id, priority});
    if (flow->accept_fragments) {
      FlowKey fk;
      fk.proto = static_cast<uint8_t>(flow->proto);
      fk.local_addr = flow->local_addr.v;
      fk.kind = kKeyFrag;
      IndexInsert(fk, FlowEnt{id, priority});
    }
    flow_count_++;
  }
  RebuildVmOnly();
  return id;
}

uint64_t FilterEngine::Install(FilterProgram prog, int priority) {
  return InstallImpl(std::move(prog), priority, std::nullopt);
}

uint64_t FilterEngine::Install(FilterProgram prog, int priority, const FlowSpec& flow) {
  return InstallImpl(std::move(prog), priority, flow);
}

void FilterEngine::Remove(uint64_t id) {
  for (const InstalledFilter& f : filters_) {
    if (f.id != id || !f.flow.has_value()) {
      continue;
    }
    IndexErase(EntryKey(*f.flow), id);
    if (f.flow->accept_fragments) {
      FlowKey fk;
      fk.proto = static_cast<uint8_t>(f.flow->proto);
      fk.local_addr = f.flow->local_addr.v;
      fk.kind = kKeyFrag;
      IndexErase(fk, id);
    }
    flow_count_--;
    break;
  }
  filters_.erase(std::remove_if(filters_.begin(), filters_.end(),
                                [id](const InstalledFilter& f) { return f.id == id; }),
                 filters_.end());
  RebuildVmOnly();
}

namespace {

// What the flow-table classifier understands about a frame: exactly the
// fields a compiled session program inspects, with the same length
// preconditions its loads impose (a load past the end rejects, so a frame
// too short for some field can never match a filter that reads it).
struct ParsedFrame {
  bool ipv4 = false;       // ethertype IPv4, ver/ihl 0x45, len covers IP header
  bool is_frag = false;    // continuation fragment (offset != 0)
  bool has_ports = false;  // first/unfragmented and len covers the ports
  uint8_t proto = 0;
  uint32_t src = 0, dst = 0;
  uint16_t sport = 0, dport = 0;
};

ParsedFrame ParseFrame(const uint8_t* pkt, size_t len) {
  ParsedFrame p;
  // A session program's deepest header-only load is ldw [kIpDst] (needs 34
  // bytes); the port path additionally does ldh [kDstPort] (needs 38).
  if (len < FilterOffsets::kIpDst + 4) {
    return p;
  }
  if (Load16(pkt + FilterOffsets::kEtherType) != kEtherTypeIpv4 ||
      pkt[FilterOffsets::kIpVerIhl] != 0x45) {
    return p;
  }
  p.ipv4 = true;
  p.proto = pkt[FilterOffsets::kIpProto];
  p.src = Load32(pkt + FilterOffsets::kIpSrc);
  p.dst = Load32(pkt + FilterOffsets::kIpDst);
  p.is_frag = (Load16(pkt + FilterOffsets::kIpFragField) & 0x1fff) != 0;
  if (!p.is_frag && len >= FilterOffsets::kDstPort + 2) {
    p.has_ports = true;
    p.sport = Load16(pkt + FilterOffsets::kSrcPort);
    p.dport = Load16(pkt + FilterOffsets::kDstPort);
  }
  return p;
}

}  // namespace

FilterEngine::MatchResult FilterEngine::Match(const uint8_t* pkt, size_t len) const {
  PSD_PROF_SCOPE(kFilterClassify);
  MatchResult r;

  auto run = [&](const InstalledFilter& f) {
    FilterResult fr = RunFilter(f.program, pkt, len);
    r.insns_executed += fr.insns_executed;
    r.programs_run++;
    return fr.accepted;
  };

  if (flow_count_ < kIndexMinEntries) {
    // Too few indexable filters for classification to pay for itself: the
    // seed's prioritized first-accept-wins scan over every program.
    for (const InstalledFilter& f : filters_) {
      if (run(f)) {
        r.id = f.id;
        return r;
      }
    }
    return r;
  }

  // Indexed fast path. One classification parses the frame and probes the
  // flow table for the best indexable match; VM programs run only for
  // non-indexable filters that the linear scan would have consulted first.
  //
  // Equivalence with the linear scan:
  //  * every indexable filter that would accept this frame has an entry
  //    under the key namespace the probes cover (its program tests exactly
  //    the parsed fields), so the best-ranked probe hit is the first
  //    indexable filter the scan would have accepted;
  //  * any non-indexable filter ranked ahead of that candidate could still
  //    win first-accept-wins, so those (and only those) are interpreted.
  r.classify_ops = 1;
  const FlowEnt* best = nullptr;
  auto probe = [&](const FlowKey& key) {
    auto it = flows_.find(key);
    if (it == flows_.end() || it->second.empty()) {
      return;
    }
    const FlowEnt& head = it->second.front();
    if (best == nullptr || head.priority > best->priority ||
        (head.priority == best->priority && head.id < best->id)) {
      best = &head;
    }
  };

  ParsedFrame p = ParseFrame(pkt, len);
  if (p.ipv4 && p.has_ports) {
    FlowKey k;
    k.proto = p.proto;
    k.local_addr = p.dst;
    k.local_port = p.dport;
    k.kind = kKeyLocalOnly;
    probe(k);
    k.remote_addr = p.src;
    k.kind = kKeyRemoteAddr;
    probe(k);
    k.remote_port = p.sport;
    k.kind = kKeyExact;
    probe(k);
    k.remote_addr = 0;
    k.kind = kKeyRemotePort;
    probe(k);
  } else if (p.ipv4 && p.is_frag) {
    // Continuation fragments carry no transport header; sessions that
    // accept fragments route them by (proto, local addr) alone.
    FlowKey k;
    k.proto = p.proto;
    k.local_addr = p.dst;
    k.kind = kKeyFrag;
    probe(k);
  }

  for (size_t idx : vm_only_) {
    const InstalledFilter& f = filters_[idx];
    if (best != nullptr && Precedes(*best, f)) {
      break;  // the candidate outranks every remaining program
    }
    if (run(f)) {
      r.id = f.id;
      return r;
    }
  }
  if (best != nullptr) {
    r.id = best->id;
    r.via_flow_table = true;
  }
  return r;
}

}  // namespace psd
