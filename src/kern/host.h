// A simulated machine: CPU, NIC, and kernel, attached to an Ethernet
// segment. Placement glue (in-kernel stack, UX server, protocol libraries)
// is layered on top of a SimHost.
#ifndef PSD_SRC_KERN_HOST_H_
#define PSD_SRC_KERN_HOST_H_

#include <memory>
#include <string>

#include "src/inet/addr.h"
#include "src/kern/kernel.h"
#include "src/netsim/nic.h"
#include "src/netsim/segment.h"
#include "src/sim/simulator.h"

namespace psd {

class SimHost {
 public:
  // The host records into its segment's Observatory.
  SimHost(Simulator* sim, std::string name, const MachineProfile* prof, EthernetSegment* segment,
          Ipv4Addr ip, uint16_t host_id, bool pio_nic = false)
      : sim_(sim),
        obs_(segment->obs()),
        name_(std::move(name)),
        prof_(prof),
        ip_(ip),
        mac_(MacAddr::FromHostId(host_id)),
        nic_(sim, obs_, &cpu_, name_ + "/nic",
             pio_nic ? NicParams::Pio8Bit(*prof) : NicParams::Lance(*prof)),
        kernel_(sim, obs_, &cpu_, &nic_, prof, name_) {
    nic_.Attach(segment, mac_);
  }

  Simulator* sim() { return sim_; }
  // The run's recorders (journeys, drops, metastate).
  Observatory* obs() { return obs_; }
  HostCpu* cpu() { return &cpu_; }
  Nic* nic() { return &nic_; }
  Kernel* kernel() { return &kernel_; }
  const MachineProfile* prof() const { return prof_; }
  Ipv4Addr ip() const { return ip_; }
  MacAddr mac() const { return mac_; }
  const std::string& name() const { return name_; }

 private:
  Simulator* sim_;
  Observatory* obs_;
  std::string name_;
  const MachineProfile* prof_;
  Ipv4Addr ip_;
  MacAddr mac_;
  HostCpu cpu_;
  Nic nic_;
  Kernel kernel_;
};

}  // namespace psd

#endif  // PSD_SRC_KERN_HOST_H_
