#include "src/inet/arp.h"

#include <cstring>

#include "src/base/bytes.h"
#include "src/base/log.h"
#include "src/obs/journey.h"
#include "src/obs/metastate.h"

namespace psd {

namespace {
constexpr size_t kArpLen = 28;
constexpr uint16_t kOpRequest = 1;
constexpr uint16_t kOpReply = 2;
}  // namespace

ArpLayer::ArpLayer(StackEnv* env, EtherLayer* ether, Ipv4Addr my_ip)
    : env_(env), ether_(ether), my_ip_(my_ip), resolved_cv_(env->sim) {}

MacResolver::Status ArpLayer::Resolve(Ipv4Addr next_hop, MacAddr* out, Chain* pending) {
  if (next_hop == Ipv4Addr::Broadcast()) {
    *out = MacAddr::Broadcast();
    return Status::kResolved;
  }
  Entry& e = table_[next_hop];
  if (e.resolved && env_->Now() < e.expires) {
    *out = e.mac;
    env_->obs->meta.Count(MetaEvent::kArpHit);
    return Status::kResolved;
  }
  env_->obs->meta.Count(MetaEvent::kArpMiss);
  if (static_cast<int>(e.hold.size()) >= kMaxHold) {
    // BSD arpresolve semantics: a saturated hold queue silently drops the
    // oldest held packet and keeps the newest — never an error to the
    // sender. Transports recover by retransmission; surfacing a hard
    // failure here would abort TCP connects whenever >kMaxHold segments
    // race one unresolved entry (any placement whose connections share a
    // stack hits this on a cold cache). Held chains pre-date frame
    // creation, so there is no journey id to terminate — ledger with id 0
    // like the other pre-frame tx drops.
    e.hold.pop_front();
    env_->Drop(0, TraceLayer::kInet, DropReason::kEtherUnresolved);
  }
  e.resolved = false;
  e.hold.push_back(std::move(*pending));
  if (!e.requesting) {
    e.requesting = true;
    e.retries = 0;
    SendRequest(next_hop);
  }
  return Status::kPending;
}

void ArpLayer::SendRequest(Ipv4Addr target) {
  Chain c;
  uint8_t pkt[kArpLen];
  Store16(pkt + 0, 1);       // htype: Ethernet
  Store16(pkt + 2, 0x0800);  // ptype: IPv4
  pkt[4] = 6;
  pkt[5] = 4;
  Store16(pkt + 6, kOpRequest);
  std::memcpy(pkt + 8, ether_->mac().b.data(), 6);
  Store32(pkt + 14, my_ip_.v);
  std::memset(pkt + 18, 0, 6);
  Store32(pkt + 24, target.v);
  c.Append(pkt, kArpLen);
  requests_sent_++;
  env_->obs->meta.Count(MetaEvent::kArpRequest);
  ether_->OutputRaw(MacAddr::Broadcast(), kEtherTypeArp, std::move(c));
}

void ArpLayer::SendReply(Ipv4Addr target_ip, MacAddr target_mac) {
  Chain c;
  uint8_t pkt[kArpLen];
  Store16(pkt + 0, 1);
  Store16(pkt + 2, 0x0800);
  pkt[4] = 6;
  pkt[5] = 4;
  Store16(pkt + 6, kOpReply);
  std::memcpy(pkt + 8, ether_->mac().b.data(), 6);
  Store32(pkt + 14, my_ip_.v);
  std::memcpy(pkt + 18, target_mac.b.data(), 6);
  Store32(pkt + 24, target_ip.v);
  c.Append(pkt, kArpLen);
  replies_sent_++;
  env_->obs->meta.Count(MetaEvent::kArpReply);
  ether_->OutputRaw(target_mac, kEtherTypeArp, std::move(c));
}

void ArpLayer::Input(Chain payload) {
  if (payload.len() < kArpLen) {
    return;
  }
  const uint8_t* p = payload.Pullup(kArpLen);
  if (p == nullptr || Load16(p + 2) != 0x0800 || p[4] != 6 || p[5] != 4) {
    return;
  }
  uint16_t op = Load16(p + 6);
  MacAddr sender_mac;
  std::memcpy(sender_mac.b.data(), p + 8, 6);
  Ipv4Addr sender_ip(Load32(p + 14));
  Ipv4Addr target_ip(Load32(p + 24));

  // Merge: learn/update the sender's mapping (both requests and replies).
  // Invalidation callbacks fire only when a known mapping CHANGES: caches
  // fill from the server, so a freshly learned entry cannot be stale
  // anywhere, while a changed MAC makes every cached copy wrong (3.3).
  Entry& e = table_[sender_ip];
  bool changed = e.resolved && !(e.mac == sender_mac);
  e.mac = sender_mac;
  e.resolved = true;
  e.requesting = false;
  e.expires = env_->Now() + kEntryTtl;
  if (changed) {
    // An unsolicited update that rewrites a cached MAC is the gratuitous
    // case every cached copy must hear about (3.3).
    env_->obs->meta.Count(MetaEvent::kArpGratuitous);
    EntryChanged(sender_ip);
  }
  // Transmit anything held for this address.
  while (!e.hold.empty()) {
    Chain pkt = std::move(e.hold.front());
    e.hold.pop_front();
    ether_->OutputRaw(sender_mac, kEtherTypeIpv4, std::move(pkt));
  }
  resolved_cv_.NotifyAll();

  if (op == kOpRequest && target_ip == my_ip_) {
    SendReply(sender_ip, sender_mac);
  }
}

void ArpLayer::SlowTick() {
  for (auto it = table_.begin(); it != table_.end();) {
    Entry& e = it->second;
    if (!e.resolved && e.requesting) {
      if (++e.retries > kMaxRetries) {
        PSD_LOG(kDebug) << "arp: giving up on " << it->first.ToString();
        e.hold.clear();
        resolved_cv_.NotifyAll();
        it = table_.erase(it);
        continue;
      }
      SendRequest(it->first);
    } else if (e.resolved && env_->Now() >= e.expires) {
      EntryChanged(it->first);
      it = table_.erase(it);
      continue;
    }
    ++it;
  }
}

bool ArpLayer::SlowTickDue(SimTime t) const {
  for (const auto& [ip, e] : table_) {
    if ((!e.resolved && e.requesting) || (e.resolved && t >= e.expires)) {
      return true;
    }
  }
  return false;
}

Result<MacAddr> ArpLayer::ResolveBlocking(Ipv4Addr ip, SimDuration timeout) {
  SimTime deadline = env_->Now() + timeout;
  bool first_pass = true;
  for (;;) {
    auto it = table_.find(ip);
    if (it != table_.end() && it->second.resolved && env_->Now() < it->second.expires) {
      if (first_pass) {
        // Only an immediate answer is a cache hit; resolving after a
        // request already counted as the miss.
        env_->obs->meta.Count(MetaEvent::kArpHit);
      }
      return it->second.mac;
    }
    first_pass = false;
    if (it == table_.end() || (!it->second.resolved && !it->second.requesting)) {
      env_->obs->meta.Count(MetaEvent::kArpMiss);
      Entry& e = table_[ip];
      e.requesting = true;
      e.retries = 0;
      SendRequest(ip);
      // Sending charged virtual time (trap, copies): the reply may already
      // have been processed. Re-test the entry before waiting.
      continue;
    }
    if (env_->Now() >= deadline) {
      return Err::kHostUnreach;
    }
    // There are no yields between the predicate test above and this wait,
    // so the notification cannot be lost.
    resolved_cv_.Wait(env_->sync->mutex(), deadline);
  }
}

void ArpLayer::AddStatic(Ipv4Addr ip, MacAddr mac) {
  Entry& e = table_[ip];
  e.mac = mac;
  e.resolved = true;
  e.expires = kTimeNever;
  EntryChanged(ip);
}

std::optional<MacAddr> ArpLayer::Peek(Ipv4Addr ip) const {
  auto it = table_.find(ip);
  if (it == table_.end() || !it->second.resolved) {
    return std::nullopt;
  }
  return it->second.mac;
}

void ArpLayer::EntryChanged(Ipv4Addr ip) {
  generation_++;
  if (change_hook_) {
    change_hook_(ip);
  }
}

}  // namespace psd
