// Test/bench/example harness: assembles a small network of simulated hosts
// in one of the paper's protocol placements and exposes a SocketApi per
// host. This is the "testbed" the evaluation runs on: N machines on a
// private 10 Mb/s Ethernet (the paper used two DECstation 5000/200s or two
// Gateway 486s in single-user mode).
//
// The World owns the run's Observatory (src/obs/observatory.h): its span
// tracer and recorders reach every component of every host and the wire,
// so any run is inspected by adding a sink to obs().tracer.
#ifndef PSD_SRC_TESTBED_WORLD_H_
#define PSD_SRC_TESTBED_WORLD_H_

#include <memory>
#include <string>
#include <vector>

#include "src/api/kernel_node.h"
#include "src/core/library_node.h"
#include "src/obs/observatory.h"
#include "src/serv/ux_server.h"

namespace psd {

class PcapCapture;

// The system configurations of Table 2.
enum class Config {
  kInKernel,       // Mach 2.5 / Ultrix / 386BSD style
  kServer,         // Mach 3.0 + UX / BNR2SS style
  kLibraryIpc,     // Mach 3.0 + UX, protocol library, IPC packet filter
  kLibraryShm,     // ... shared-memory packet filter
  kLibraryShmIpf,  // ... shared-memory + integrated packet filter
};

const char* ConfigName(Config c);
// Matches `name` against ConfigName case-insensitively ("library-shm-ipf"
// selects kLibraryShmIpf). Returns false for an unknown name.
bool ParseConfig(const char* name, Config* out);
bool IsLibraryConfig(Config c);

class World {
 public:
  // Builds `hosts` machines at 10.0.x.y on one segment (host i gets address
  // 10.0.0.0 + i + 1, spread across the low two octets). When
  // `placement_hosts` >= 0, only the first `placement_hosts` machines are
  // built in `config`; the rest run the cheap in-kernel placement — the
  // C10K workloads use this so one server under test faces thousands of
  // plain clients.
  World(Config config, const MachineProfile& profile, int hosts = 2, bool pio_nic = false,
        int placement_hosts = -1);
  ~World();

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  Simulator& sim() { return sim_; }
  EthernetSegment& wire() { return wire_; }
  // This run's recorders: span tracer, packet journeys, drop ledger,
  // metastate ledger. They start empty and die with the World; read them
  // before it does. A sink added to `obs().tracer` (a StageRecorder for
  // Table 4, a ChromeTraceSink for trace export) sees spans from every
  // component on every host and the wire, and must outlive the World.
  Observatory& obs() { return obs_; }
  const MachineProfile& profile() const { return profile_; }
  Config config() const { return config_; }

  SimHost* host(int i) { return nodes_[i]->host.get(); }
  SocketApi* api(int i) { return nodes_[i]->api; }
  Ipv4Addr addr(int i) const {
    return Ipv4Addr::FromOctets(10, 0, static_cast<uint8_t>((i + 1) >> 8),
                                static_cast<uint8_t>((i + 1) & 0xff));
  }

  // Placement internals, for tests that inspect them (null when the
  // configuration doesn't have the component).
  // The host's primary protocol stack, whatever the placement (the kernel
  // stack, the UX server's stack, or the application library's stack).
  Stack* stack(int i);
  // Every stack instance on host `i` — library configs run two (the
  // net-server's and the application's), plus any AddLibrary extras.
  std::vector<Stack*> AllStacks(int i);

  KernelNode* kernel_node(int i) { return nodes_[i]->kernel_node.get(); }
  UxServer* ux_server(int i) { return nodes_[i]->ux.get(); }
  UxServerNode* ux_node(int i) { return nodes_[i]->ux_node.get(); }
  NetServer* net_server(int i) { return nodes_[i]->ns.get(); }
  ProtocolLibrary* library(int i) { return nodes_[i]->lib.get(); }
  LibraryNode* library_node(int i) { return nodes_[i]->lib_node.get(); }

  // Spawns an application thread on host `i`. Threads still blocked at
  // World destruction are force-unwound before the components they use are
  // torn down.
  SimThread* SpawnApp(int i, const std::string& name, std::function<void()> body) {
    SimThread* t = sim_.Spawn(name, nodes_[i]->host->cpu(), std::move(body));
    app_threads_.push_back(t);
    return t;
  }

  // Registers every component's counters on host `i` under "<host>." names
  // (kernel delivery/demux, per-stack protocol stats, server/library
  // counters). Call once per host; combine with ExportWireStats.
  void ExportStats(int i, StatsRegistry* reg);

  // Registers segment-level counters ("wire.frames_carried" etc.).
  void ExportWireStats(StatsRegistry* reg);

  // Registers engine-level gauges: scheduler counters
  // ("engine.events_executed", "engine.thread_switches") and the
  // frame/mbuf pool hit/miss/high-watermark counters ("engine.frame_pool.*",
  // "engine.mbuf_pool.*"). Pools are process-wide, so register once per
  // snapshot scope, not per host.
  void ExportEngineStats(StatsRegistry* reg);

  // Attaches a pcap capture to the shared wire (every transmitted frame)
  // or to host `i`'s kernel delivery boundary (every frame handed to a
  // matched endpoint). The capture must outlive the World or be detached
  // (pass nullptr) first. Charges no simulated cost.
  void AttachWirePcap(PcapCapture* pcap);
  void AttachKernelPcap(int i, PcapCapture* pcap);

  // Creates an extra library application on host `i` (library configs
  // only), e.g. the child of a fork or a second process sharing the host.
  ProtocolLibrary* AddLibrary(int i, const std::string& name);

  // Pre-resolves hub-and-spoke ARP: every host learns host `hub`'s MAC and
  // the hub learns everyone's. Large worlds use this so the measurement is
  // the protocol workload, not O(hosts^2) broadcast-ARP bystander wakeups —
  // the static-ARP configuration every real C10K testbed runs with. Call
  // before sim().Run().
  void SeedStaticArp(int hub = 0);

 private:
  struct Node {
    std::unique_ptr<SimHost> host;
    std::unique_ptr<KernelNode> kernel_node;
    std::unique_ptr<UxServer> ux;
    std::unique_ptr<UxServerNode> ux_node;
    std::unique_ptr<NetServer> ns;
    std::unique_ptr<ProtocolLibrary> lib;
    std::unique_ptr<LibraryNode> lib_node;
    std::vector<std::unique_ptr<ProtocolLibrary>> extra_libs;
    SocketApi* api = nullptr;
  };

  Config config_;
  MachineProfile profile_;
  // Before sim_: ~Simulator unwinds fibers that still record into it.
  Observatory obs_;
  Simulator sim_;
  EthernetSegment wire_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<SimThread*> app_threads_;
};

}  // namespace psd

#endif  // PSD_SRC_TESTBED_WORLD_H_
