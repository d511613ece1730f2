// A complete protocol stack instance: Ethernet + ARP (optional) + IP +
// ICMP + UDP + TCP, one routing table and one port namespace, one
// synchronization domain, and a timer thread driving the BSD fast (200 ms)
// and slow (500 ms) protocol timeouts.
//
// When the fast tick runs: the timer thread sleeps while no timer can fire,
// and a kick restarts both grids and visits the first fast point. After
// that, since the fast tick only sends delayed ACKs, the thread visits the
// fast grid only while some pcb is ESTABLISHED or owes a delayed ACK, and
// otherwise sleeps to the next slow tick. If InputFrame arms a delayed ACK
// meanwhile, it wakes the thread, which sleeps on to the next fast grid
// point without taking the domain lock: the ACK leaves at the grid instant
// it always did.
//
// When a slow tick runs in event context: while the thread waits for the
// next slow tick, the wait's own timeout event runs the tick without a
// switch onto the thread if the tick only counts down. That needs, at the
// deadline, a free domain lock, only slow timers needed (read then, not at
// the wait's start), no pcb to reap and no timer at 1, nothing due in IP
// reassembly or ARP, and no event or fast grid point before the two
// sync-pair charges the thread would make end. The event makes those same
// charges and the wait goes on; otherwise the thread wakes as before (see
// TryIdleSlowTick).
//
// The same Stack class is instantiated in all three placements; only its
// StackParams differ. The placement picks the cost of one internal
// synchronization pair (hardware spl in the kernel, emulated spl in the UX
// server, library locks; see MachineProfile). In the library placement ARP
// is disabled and the MAC resolver / route-miss hooks are provided by the
// application's metastate cache, which consults the operating-system
// server (paper §3.3).
#ifndef PSD_SRC_INET_STACK_H_
#define PSD_SRC_INET_STACK_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "src/inet/arp.h"
#include "src/inet/ether_layer.h"
#include "src/inet/icmp.h"
#include "src/inet/ip.h"
#include "src/inet/ports.h"
#include "src/inet/route.h"
#include "src/inet/stack_env.h"
#include "src/inet/tcp.h"
#include "src/inet/udp.h"

namespace psd {

class StatsRegistry;

// Socket-layer activity counters, kept on the Stack so they ride along with
// the protocol counter blocks in ExportStats (the socket objects themselves
// are transient).
struct SockStats {
  uint64_t sends = 0;        // Send/SendShared calls
  uint64_t recvs = 0;        // Recv/RecvChain calls
  uint64_t send_blocks = 0;  // times a sender blocked on buffer space
  uint64_t recv_blocks = 0;  // times a receiver blocked waiting for data
  uint64_t wakeups = 0;      // reader/writer wakeups that found waiters
};

struct StackParams {
  Simulator* sim = nullptr;
  HostCpu* cpu = nullptr;
  const MachineProfile* prof = nullptr;
  Placement placement = Placement::kKernel;
  Observatory* obs = nullptr;  // required: the host's Observatory
  std::function<void(Frame)> send_frame;
  Ipv4Addr ip;
  MacAddr mac;
  std::string name = "stack";
};

class Stack {
 public:
  explicit Stack(const StackParams& params);
  ~Stack();

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  // Feeds one received Ethernet frame into the stack. Must be called from
  // a SimThread without the domain lock held (takes it internally).
  void InputFrame(const Frame& frame);

  // Wakes the timer thread (call after creating sessions or activity that
  // arms timers from outside InputFrame).
  void Kick();

  StackEnv* env() { return &env_; }
  SyncDomain* sync() { return &sync_; }
  EtherLayer& ether() { return ether_; }
  ArpLayer* arp() { return arp_.get(); }
  RouteTable& routes() { return routes_; }
  PortAlloc& ports() { return ports_; }
  IpLayer& ip() { return ip_; }
  IcmpLayer& icmp() { return icmp_; }
  UdpLayer& udp() { return udp_; }
  TcpLayer& tcp() { return tcp_; }
  Ipv4Addr addr() const { return ip_.addr(); }
  const std::string& name() const { return name_; }

  uint64_t frames_in() const { return frames_in_; }
  SockStats& sock_stats() { return sock_stats_; }
  const SockStats& sock_stats() const { return sock_stats_; }

  // Registers this stack's protocol counters as "<prefix>tcp.segs_sent" etc.
  // The stack must outlive the registry's last Snapshot.
  void ExportStats(StatsRegistry* reg, const std::string& prefix) const;

 private:
  // What the timer thread needs to know of the pcbs, in one pass.
  struct PcbTimerScan {
    bool fast = false;   // some pcb is ESTABLISHED or owes a delayed ACK
                         // (the scan stops there; the rest are then unset)
    bool slow = false;   // some pcb needs the slow tick
    bool fires = false;  // the next slow tick reaps a pcb or fires a timer
  };

  void TimerThreadBody();
  PcbTimerScan ScanPcbs() const;
  // True while IP reassembly or ARP resolution has work outstanding.
  bool OtherTimersNeeded() const;
  // True if any timer can fire; *fast_needed tells whether the fast tick can.
  bool TimersNeeded(bool* fast_needed) const;
  // Moves the fast grid past Now(), over the points skipped while waiting.
  void SkipPassedFastPoints();
  // Runs the fast and slow ticks due at Now(). The caller holds the domain
  // lock, or (TryIdleSlowTick) has made the same charges with it idle.
  void Tick();
  // The slow-tick wait's deadline hook: runs a tick that only counts down
  // in event context and returns the next slow deadline, or returns
  // nullopt to wake the timer thread as usual.
  std::optional<SimTime> TryIdleSlowTick();

  std::string name_;
  SyncDomain sync_;
  StackEnv env_;
  EtherLayer ether_;
  RouteTable routes_;
  PortAlloc ports_;
  IpLayer ip_;
  IcmpLayer icmp_;
  UdpLayer udp_;
  TcpLayer tcp_;
  std::unique_ptr<ArpLayer> arp_;

  WaitQueue timer_kick_;
  bool timer_idle_ = false;
  // Set while the timer thread skips fast ticks; InputFrame wakes it when
  // TcpStats::acks_delayed moves past the value seen when it began waiting.
  bool timer_skips_fast_ = false;
  uint64_t timer_acks_delayed_ = 0;
  SimThread* timer_thread_ = nullptr;
  // The next fast (200 ms) and slow (500 ms) grid points, and the slow
  // wait's deadline hook beside them: the hook reads them at every slow
  // deadline, long after the timer thread's own stack went cold.
  SimTime next_fast_ = 0;
  SimTime next_slow_ = 0;
  const SimThread::DeadlineHook idle_slow_tick_ = [this] { return TryIdleSlowTick(); };
  uint64_t frames_in_ = 0;
  SockStats sock_stats_;
};

}  // namespace psd

#endif  // PSD_SRC_INET_STACK_H_
