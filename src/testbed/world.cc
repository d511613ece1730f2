#include "src/testbed/world.h"

#include <strings.h>

#include "src/mbuf/mbuf.h"
#include "src/netsim/frame_pool.h"
#include "src/obs/stats.h"

namespace psd {

const char* ConfigName(Config c) {
  switch (c) {
    case Config::kInKernel:
      return "In-Kernel";
    case Config::kServer:
      return "Server";
    case Config::kLibraryIpc:
      return "Library-IPC";
    case Config::kLibraryShm:
      return "Library-SHM";
    case Config::kLibraryShmIpf:
      return "Library-SHM-IPF";
  }
  return "?";
}

bool ParseConfig(const char* name, Config* out) {
  for (Config c : {Config::kInKernel, Config::kServer, Config::kLibraryIpc, Config::kLibraryShm,
                   Config::kLibraryShmIpf}) {
    if (strcasecmp(name, ConfigName(c)) == 0) {
      *out = c;
      return true;
    }
  }
  return false;
}

bool IsLibraryConfig(Config c) {
  return c == Config::kLibraryIpc || c == Config::kLibraryShm || c == Config::kLibraryShmIpf;
}

World::World(Config config, const MachineProfile& profile, int hosts, bool pio_nic,
             int placement_hosts)
    : config_(config),
      profile_(profile),
      wire_(&sim_, &obs_,
            WireParams{profile.wire_per_byte, profile.wire_latency, profile.wire_min_frame, 4}) {
  EnterObservatory(&obs_);
  for (int i = 0; i < hosts; i++) {
    auto node = std::make_unique<Node>();
    std::string name = "h" + std::to_string(i);
    node->host = std::make_unique<SimHost>(&sim_, name, &profile_, &wire_, addr(i),
                                           static_cast<uint16_t>(i + 1), pio_nic);
    Config host_config =
        (placement_hosts >= 0 && i >= placement_hosts) ? Config::kInKernel : config;
    switch (host_config) {
      case Config::kInKernel:
        node->kernel_node = std::make_unique<KernelNode>(node->host.get());
        node->api = node->kernel_node.get();
        break;
      case Config::kServer:
        node->ux = std::make_unique<UxServer>(node->host.get());
        node->ux_node = std::make_unique<UxServerNode>(node->ux.get());
        node->api = node->ux_node.get();
        break;
      case Config::kLibraryIpc:
      case Config::kLibraryShm:
      case Config::kLibraryShmIpf: {
        RxPath path = config == Config::kLibraryIpc  ? RxPath::kIpc
                      : config == Config::kLibraryShm ? RxPath::kShm
                                                      : RxPath::kShmIpf;
        node->ns = std::make_unique<NetServer>(node->host.get());
        node->lib =
            std::make_unique<ProtocolLibrary>(node->host.get(), node->ns.get(), name + "/app",
                                              path);
        node->lib_node = std::make_unique<LibraryNode>(node->lib.get());
        node->api = node->lib_node.get();
        break;
      }
    }
    nodes_.push_back(std::move(node));
  }
}

World::~World() {
  LeaveObservatory(&obs_);
  for (SimThread* t : app_threads_) {
    if (!t->finished()) {
      sim_.KillThread(t);
    }
  }
}

Stack* World::stack(int i) {
  Node* n = nodes_[i].get();
  if (n->kernel_node != nullptr) {
    return n->kernel_node->stack();
  }
  if (n->ux != nullptr) {
    return n->ux->stack();
  }
  return n->lib->stack();
}

std::vector<Stack*> World::AllStacks(int i) {
  Node* n = nodes_[i].get();
  std::vector<Stack*> out;
  if (n->kernel_node != nullptr) {
    out.push_back(n->kernel_node->stack());
  }
  if (n->ux != nullptr) {
    out.push_back(n->ux->stack());
  }
  if (n->ns != nullptr) {
    out.push_back(n->ns->stack());
  }
  if (n->lib != nullptr) {
    out.push_back(n->lib->stack());
  }
  for (auto& lib : n->extra_libs) {
    out.push_back(lib->stack());
  }
  return out;
}

void World::ExportStats(int i, StatsRegistry* reg) {
  Node* n = nodes_[i].get();
  std::string prefix = n->host->name() + ".";
  n->host->kernel()->ExportStats(reg, prefix + "kern.");
  if (n->kernel_node != nullptr) {
    n->kernel_node->stack()->ExportStats(reg, prefix + "stack.");
    reg->RegisterGauge(prefix + "traps",
                       [kn = n->kernel_node.get()] { return kn->traps(); });
  }
  if (n->ux != nullptr) {
    n->ux->stack()->ExportStats(reg, prefix + "ux.stack.");
    n->ux->ExportStats(reg, prefix + "ux.");
  }
  if (n->ux_node != nullptr) {
    reg->RegisterGauge(prefix + "api.rpc.total",
                       [un = n->ux_node.get()] { return un->rpc_calls().total(); });
  }
  if (n->ns != nullptr) {
    n->ns->ExportStats(reg, prefix + "ns.");
  }
  if (n->lib != nullptr) {
    n->lib->ExportStats(reg, prefix + "lib.");
  }
}

void World::ExportWireStats(StatsRegistry* reg) {
  reg->RegisterGauge("wire.frames_carried", [this] { return wire_.frames_carried(); });
  reg->RegisterGauge("wire.frames_dropped", [this] { return wire_.frames_dropped(); });
}

void World::ExportEngineStats(StatsRegistry* reg) {
  reg->RegisterGauge("engine.events_executed", [this] { return sim_.events_executed(); });
  reg->RegisterGauge("engine.thread_switches", [this] { return sim_.thread_switches(); });
  reg->RegisterGauge("engine.past_time_clamps", [this] { return sim_.past_time_clamps(); });
  reg->RegisterGauge("engine.frame_pool.hits", [] { return FramePool::hits(); });
  reg->RegisterGauge("engine.frame_pool.misses", [] { return FramePool::misses(); });
  reg->RegisterGauge("engine.frame_pool.recycles", [] { return FramePool::recycles(); });
  reg->RegisterGauge("engine.frame_pool.live", [] { return FramePool::live(); });
  reg->RegisterGauge("engine.frame_pool.high_watermark", [] { return FramePool::high_watermark(); });
  reg->RegisterGauge("engine.frame_pool.parked", [] { return FramePool::parked(); });
  reg->RegisterGauge("engine.mbuf_pool.mbuf_hits", [] { return MbufPool::mbuf_hits(); });
  reg->RegisterGauge("engine.mbuf_pool.mbuf_misses", [] { return MbufPool::mbuf_misses(); });
  reg->RegisterGauge("engine.mbuf_pool.cluster_hits", [] { return MbufPool::cluster_hits(); });
  reg->RegisterGauge("engine.mbuf_pool.cluster_misses", [] { return MbufPool::cluster_misses(); });
  reg->RegisterGauge("engine.mbuf_pool.live_mbufs", [] { return MbufPool::live_mbufs(); });
  reg->RegisterGauge("engine.mbuf_pool.mbuf_high_watermark",
                     [] { return MbufPool::mbuf_high_watermark(); });
  reg->RegisterGauge("engine.mbuf_pool.live_clusters", [] { return MbufPool::live_clusters(); });
  reg->RegisterGauge("engine.mbuf_pool.cluster_high_watermark",
                     [] { return MbufPool::cluster_high_watermark(); });
}

void World::AttachWirePcap(PcapCapture* pcap) { wire_.SetPcapTap(pcap); }

void World::AttachKernelPcap(int i, PcapCapture* pcap) {
  nodes_[i]->host->kernel()->SetPcapTap(pcap);
}

void World::SeedStaticArp(int hub) {
  MacAddr hub_mac = MacAddr::FromHostId(static_cast<uint16_t>(hub + 1));
  for (int i = 0; i < static_cast<int>(nodes_.size()); i++) {
    for (Stack* s : AllStacks(i)) {
      if (s->arp() == nullptr) {
        continue;  // library stacks cache from their OS server instead
      }
      if (i == hub) {
        for (int j = 0; j < static_cast<int>(nodes_.size()); j++) {
          if (j != hub) {
            s->arp()->AddStatic(addr(j), MacAddr::FromHostId(static_cast<uint16_t>(j + 1)));
          }
        }
      } else {
        s->arp()->AddStatic(addr(hub), hub_mac);
      }
    }
  }
}

ProtocolLibrary* World::AddLibrary(int i, const std::string& name) {
  Node* n = nodes_[i].get();
  if (n->ns == nullptr) {
    return nullptr;
  }
  n->extra_libs.push_back(
      std::make_unique<ProtocolLibrary>(n->host.get(), n->ns.get(), name, n->lib->rx_path()));
  return n->extra_libs.back().get();
}

}  // namespace psd
