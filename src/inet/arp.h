// ARP (RFC 826): IPv4 -> MAC resolution with an entry cache, request
// retransmission, a per-entry hold queue for packets awaiting resolution,
// and entry expiry. In the paper's architecture ARP runs only in the
// operating-system server (and the full kernel/server stacks); protocol
// libraries cache resolved entries from the server (§3.3) and are
// invalidated by callback when entries change.
#ifndef PSD_SRC_INET_ARP_H_
#define PSD_SRC_INET_ARP_H_

#include <deque>
#include <functional>
#include <map>
#include <optional>

#include "src/base/result.h"
#include "src/inet/addr.h"
#include "src/inet/ether_layer.h"
#include "src/inet/stack_env.h"

namespace psd {

class ArpLayer : public MacResolver {
 public:
  ArpLayer(StackEnv* env, EtherLayer* ether, Ipv4Addr my_ip);

  // MacResolver: cache hit resolves immediately; miss queues the packet,
  // sends a request and reports kPending; a saturated or failed entry
  // reports kFail.
  Status Resolve(Ipv4Addr next_hop, MacAddr* out, Chain* pending) override;

  // Processes a received ARP payload (28 bytes after the Ethernet header).
  void Input(Chain payload);

  // Retransmits outstanding requests and expires stale entries. Called
  // from the stack's slow timer.
  void SlowTick();
  // True if SlowTick at `t` would retry a request or expire an entry.
  bool SlowTickDue(SimTime t) const;

  // Blocking resolve used by the OS server's metastate RPC handler: waits
  // (releasing the stack lock) until the entry resolves or times out.
  Result<MacAddr> ResolveBlocking(Ipv4Addr ip, SimDuration timeout = Seconds(3));

  void AddStatic(Ipv4Addr ip, MacAddr mac);
  std::optional<MacAddr> Peek(Ipv4Addr ip) const;

  // True if any resolution is outstanding (request retries needed). Entry
  // expiry is evaluated lazily on lookup, so it does not keep timers alive.
  bool HasPendingWork() const {
    for (const auto& [ip, e] : table_) {
      if ((!e.resolved && e.requesting) || !e.hold.empty()) {
        return true;
      }
    }
    return false;
  }

  // Bumped whenever any entry changes; library caches compare generations.
  uint64_t generation() const { return generation_; }
  // Invoked (entry ip) whenever an entry is updated or expired — the OS
  // server uses this to fire invalidation callbacks into applications.
  void SetChangeHook(std::function<void(Ipv4Addr)> hook) { change_hook_ = std::move(hook); }

  uint64_t requests_sent() const { return requests_sent_; }
  uint64_t replies_sent() const { return replies_sent_; }

 private:
  struct Entry {
    MacAddr mac;
    bool resolved = false;
    bool requesting = false;  // a request is outstanding (retried by SlowTick)
    SimTime expires = 0;
    int retries = 0;
    std::deque<Chain> hold;  // packets awaiting resolution
  };

  void SendRequest(Ipv4Addr target);
  void SendReply(Ipv4Addr target_ip, MacAddr target_mac);
  void EntryChanged(Ipv4Addr ip);

  static constexpr int kMaxHold = 4;
  static constexpr int kMaxRetries = 5;
  static constexpr SimDuration kEntryTtl = Seconds(20 * 60);

  StackEnv* env_;
  EtherLayer* ether_;
  Ipv4Addr my_ip_;
  std::map<Ipv4Addr, Entry> table_;
  SimCondition resolved_cv_;
  uint64_t generation_ = 0;
  std::function<void(Ipv4Addr)> change_hook_;
  uint64_t requests_sent_ = 0;
  uint64_t replies_sent_ = 0;
};

}  // namespace psd

#endif  // PSD_SRC_INET_ARP_H_
