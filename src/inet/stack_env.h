// Placement-agnostic environment for the protocol stack.
//
// The same TCP/IP code (src/inet) runs in three placements, matching the
// paper's "reuse of existing protocol code" goal (§2.1):
//   kKernel  — inside the simulated kernel (Mach 2.5 / Ultrix style),
//   kServer  — inside the UX-style UNIX server task,
//   kLibrary — inside the application's address space (the paper's system).
// StackEnv carries everything placement-specific: how frames reach the
// wire, how synchronization is priced, and how MAC addresses resolve
// (library stacks consult the OS server's metastate cache instead of
// running ARP themselves).
#ifndef PSD_SRC_INET_STACK_ENV_H_
#define PSD_SRC_INET_STACK_ENV_H_

#include <functional>
#include <string>

#include "src/base/result.h"
#include "src/cost/machine_profile.h"
#include "src/inet/addr.h"
#include "src/mbuf/mbuf.h"
#include "src/netsim/ether.h"
#include "src/obs/observatory.h"
#include "src/obs/probe.h"
#include "src/sim/simulator.h"

namespace psd {

enum class Placement { kKernel, kServer, kLibrary };

// The stack's "big lock" plus synchronization cost accounting.
//
// Correctness: the stack is entered by several simulated threads (caller,
// input thread, timer thread); all entry points take the domain lock.
// Cost: BSD protocol code raises/lowers interrupt priority (spl) at many
// internal points. In the kernel this is a register write; the UX server
// emulates it with locks and condition variables, which the paper measures
// as the dominant server overhead (§4.3); the protocol library uses cheap
// user-level locks. ChargeSyncPair models one such internal spl/lock pair.
class SyncDomain {
 public:
  SyncDomain(Simulator* sim, SimDuration pair_cost) : sim_(sim), pair_cost_(pair_cost), mu_(sim) {}

  void Lock() {
    ChargeSyncPair();
    mu_.Lock();
  }
  void Unlock() { mu_.Unlock(); }

  void ChargeSyncPair() {
    SimThread* t = sim_->current_thread();
    if (t != nullptr && pair_cost_ > 0) {
      t->Charge(pair_cost_);
    }
  }

  SimMutex* mutex() { return &mu_; }
  Simulator* simulator() const { return sim_; }
  SimDuration pair_cost() const { return pair_cost_; }

 private:
  Simulator* sim_;
  SimDuration pair_cost_;
  SimMutex mu_;
};

// RAII lock over a SyncDomain.
class DomainLock {
 public:
  explicit DomainLock(SyncDomain* d) : d_(d) { d_->Lock(); }
  ~DomainLock() { d_->Unlock(); }
  DomainLock(const DomainLock&) = delete;
  DomainLock& operator=(const DomainLock&) = delete;

 private:
  SyncDomain* d_;
};

// Resolves an IPv4 next hop to a MAC address on the send path.
class MacResolver {
 public:
  virtual ~MacResolver() = default;

  enum class Status {
    kResolved,  // *out valid
    kPending,   // resolver queued `pending` and will transmit when resolved
    kFail,      // unresolvable (EHOSTUNREACH)
  };

  // `pending` is the fully built link-layer payload (IP packet) that should
  // be transmitted once resolution completes, together with its ethertype.
  virtual Status Resolve(Ipv4Addr next_hop, MacAddr* out, Chain* pending) = 0;
};

struct StackEnv {
  Simulator* sim = nullptr;
  HostCpu* cpu = nullptr;
  const MachineProfile* prof = nullptr;
  Placement placement = Placement::kKernel;
  SyncDomain* sync = nullptr;
  Observatory* obs = nullptr;  // the run's tracer, journeys, drops and metastate

  // Hands a complete Ethernet frame to the placement's transmit path
  // (in-kernel: direct device transmit; library/server: net-send syscall
  // that traps and copies into a wired buffer).
  std::function<void(Frame)> send_frame;

  // Packet id of the frame currently being processed by Stack::InputFrame
  // (0 outside input processing). Input runs synchronously under the domain
  // lock, so one slot per stack is exact; protocol drop sites read it to
  // attribute the drop to the right journey without threading an id through
  // every Input() signature.
  uint64_t cur_rx_pkt = 0;
  // This stack instance's journey nodes: the stack itself (hops, drops,
  // terminals) and its "<name>/tx" origin.
  JourneyNode node;
  JourneyNode tx_node;

  // Ledgers a drop of packet `pkt` (0 on the transmit side, before a frame
  // exists) at this stack.
  void Drop(uint64_t pkt, TraceLayer layer, DropReason reason) {
    obs->drops.Record(pkt, layer, reason, Now(), node.id());
  }

  SimThread* self() const { return sim->current_thread(); }
  void Charge(SimDuration d) const {
    SimThread* t = self();
    if (t != nullptr) {
      t->Charge(d);
    }
  }
  SimTime Now() const { return sim->Now(); }
};

}  // namespace psd

#endif  // PSD_SRC_INET_STACK_ENV_H_
