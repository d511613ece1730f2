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
// The same Stack class is instantiated in all three placements; only its
// StackParams differ. In the library placement ARP is disabled and the MAC
// resolver / route-miss hooks are provided by the application's metastate
// cache, which consults the operating-system server (paper §3.3).
#ifndef PSD_SRC_INET_STACK_H_
#define PSD_SRC_INET_STACK_H_

#include <functional>
#include <memory>
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
  Tracer* tracer = nullptr;
  std::function<void(Frame)> send_frame;
  Ipv4Addr ip;
  MacAddr mac;
  bool with_arp = true;
  // Cost of one internal synchronization pair; chosen per placement
  // (hardware spl / emulated spl / library locks — see MachineProfile).
  SimDuration sync_pair_cost = 0;
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
  uint64_t ether_bad_frames() const { return ether_bad_frames_; }
  SockStats& sock_stats() { return sock_stats_; }
  const SockStats& sock_stats() const { return sock_stats_; }

  // Registers this stack's protocol counters as "<prefix>tcp.segs_sent" etc.
  // The stack must outlive the registry's last Snapshot.
  void ExportStats(StatsRegistry* reg, const std::string& prefix) const;

 private:
  void TimerThreadBody();
  // True if any timer can fire; *fast_needed tells whether the fast tick can.
  bool TimersNeeded(bool* fast_needed) const;

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
  uint64_t frames_in_ = 0;
  uint64_t ether_bad_frames_ = 0;
  SockStats sock_stats_;
};

}  // namespace psd

#endif  // PSD_SRC_INET_STACK_H_
