// The simulated microkernel: the thin layer the paper's architecture leaves
// in the kernel (Figure 1): a raw packet send syscall, the packet filter
// for secure receive demultiplexing, and the device driver.
//
// Receive demultiplexing supports the paper's three user/kernel network
// interface variants (§4.1):
//  * kIpc      — each accepted packet is sent to the endpoint's IPC port
//                ("an IPC message for every incoming packet").
//  * kShm      — packets are copied into a ring shared between kernel and
//                application; a lightweight condition signals the consumer.
//  * kShmIpf   — the filter is integrated with the driver: it peeks only at
//                headers in device memory and defers the data copy until the
//                destination is known, copying device memory directly into
//                the receiver's ring (eliminates the kernel-buffer copy).
//  * kDirect   — the in-kernel protocol stack's netisr queue (no crossing).
#ifndef PSD_SRC_KERN_KERNEL_H_
#define PSD_SRC_KERN_KERNEL_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "src/cost/machine_profile.h"
#include "src/filter/filter.h"
#include "src/ipc/port.h"
#include "src/kern/packet_queue.h"
#include "src/netsim/nic.h"
#include "src/obs/probe.h"
#include "src/sim/simulator.h"

namespace psd {

class PcapCapture;
class StatsRegistry;

enum class DeliverKind { kDirect, kIpc, kShm, kShmIpf };

struct DeliveryEndpoint {
  DeliverKind kind = DeliverKind::kDirect;
  PacketQueue* queue = nullptr;  // kDirect / kShm / kShmIpf
  Port* port = nullptr;          // kIpc
};

// IPC message kind for packets delivered via the kIpc path.
constexpr uint32_t kMsgPacketDelivery = 0x504b5431;  // 'PKT1'

class Kernel {
 public:
  // Records drops, journey hops and spans (the trap boundary, Table 4's
  // receive-path stages, one zero-width filter span per demultiplex) into
  // `obs`.
  Kernel(Simulator* sim, Observatory* obs, HostCpu* cpu, Nic* nic, const MachineProfile* prof,
         std::string name);
  ~Kernel();

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  // Installs a validated filter program demultiplexing to `ep`. When the
  // installer also supplies the program's declarative FlowSpec (session
  // filters do), the engine indexes the filter in its flow table and
  // receive demux resolves it in one classification instead of a VM scan —
  // identically for all three user-level delivery variants (kIpc, kShm,
  // kShmIpf). Returns the filter id (0 on validation failure).
  uint64_t InstallFilter(FilterProgram prog, int priority, DeliveryEndpoint ep,
                         const FlowSpec* flow = nullptr);
  // Removes a filter. Install/Remove are plain simulated-kernel calls with
  // no internal blocking, so a Remove+Install pair issued by one thread
  // (session migration handover) is atomic with respect to packet events.
  void RemoveFilter(uint64_t id);

  // Raw packet send from user space: one trap, then the frame is copied
  // into a wired kernel buffer and handed to the device. (Table 4
  // ether_output: library/server pay trap+copy, the in-kernel stack does
  // not.) Thread context required.
  void NetSendFromUser(Frame frame);

  // Packet send for the in-kernel stack: mbufs are already wired; only the
  // device transfer cost applies.
  void NetSendWired(Frame frame);

  // The in-kernel stack's input queue endpoint (placement glue installs a
  // catch-all filter pointing at it).
  PacketQueue* MakeQueueEndpoint(std::string name, SimDuration signal_cost, size_t capacity = 256);

  // Captures every frame handed to a matched delivery endpoint (after
  // filtering) into a libpcap buffer, stamped at delivery time. Charges no
  // simulated cost. May be null to detach.
  void SetPcapTap(PcapCapture* pcap) { pcap_ = pcap; }

  // Registers delivery/demux counters as "<prefix>rx_delivered" etc.
  void ExportStats(StatsRegistry* reg, const std::string& prefix) const;

  Simulator* simulator() const { return sim_; }
  HostCpu* cpu() const { return cpu_; }
  Nic* nic() const { return nic_; }
  const MachineProfile* profile() const { return prof_; }

  // Filters currently installed in the engine (leak checks: a clean
  // teardown returns this to its pre-workload value).
  size_t installed_filters() const { return engine_.installed_count(); }

  uint64_t rx_delivered() const { return rx_delivered_; }
  uint64_t rx_unmatched() const { return rx_unmatched_; }
  uint64_t filter_insns() const { return filter_insns_; }
  uint64_t demux_classifies() const { return demux_classifies_; }
  uint64_t rx_flow_hits() const { return rx_flow_hits_; }

 private:
  void IntrThreadBody();
  void DeliverFrame();

  Simulator* sim_;
  Observatory* obs_;
  HostCpu* cpu_;
  Nic* nic_;
  const MachineProfile* prof_;
  std::string name_;
  JourneyNode node_;              // "<name>", for drops
  JourneyNode deliver_node_;      // "<name>/deliver"
  JourneyNode ipf_deliver_node_;  // "<name>/ipf-deliver"
  PcapCapture* pcap_ = nullptr;

  FilterEngine engine_;
  std::map<uint64_t, DeliveryEndpoint> endpoints_;
  std::vector<std::unique_ptr<PacketQueue>> queues_;

  WaitQueue rx_wq_;
  SimThread* intr_thread_ = nullptr;

  uint64_t rx_delivered_ = 0;
  uint64_t rx_unmatched_ = 0;
  uint64_t filter_insns_ = 0;
  uint64_t demux_classifies_ = 0;
  uint64_t rx_flow_hits_ = 0;
};

}  // namespace psd

#endif  // PSD_SRC_KERN_KERNEL_H_
