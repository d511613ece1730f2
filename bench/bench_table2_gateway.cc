// Reproduces Table 2 (Gateway 486 rows): the i486/33 machine with a 3C503
// Ethernet interface whose 8-bit programmed I/O consumes host CPU for every
// byte transferred — "the Gateway's low-performance Ethernet card ...
// severely limits its throughput" (Table 2 caption). The paper did not
// implement the integrated packet filter on the Gateway ("the integrated
// packet filter is device and machine-dependent, and we have not
// implemented it on the Gateway"), so that row is omitted here too.
//
// The paper's 386BSD and BNR2SS rows collapse into the in-kernel and
// server architectures respectively (see EXPERIMENTS.md).
#include <cstdio>
#include <map>

#include "bench/common/bench_json.h"
#include "bench/common/table_printer.h"
#include "bench/common/workloads.h"

namespace psd {
namespace {

struct PaperRow {
  double throughput;
  double tcp[5];
  double udp[5];
};

const std::map<Config, PaperRow> kPaper = {
    {Config::kInKernel,
     {457, {2.08, 2.69, 5.45, 8.78, 12.05}, {1.83, 2.41, 5.19, 8.54, 11.80}}},
    {Config::kServer,
     {415, {4.09, 4.88, 7.76, 11.30, 14.29}, {3.96, 4.67, 7.86, 11.68, 15.01}}},
    {Config::kLibraryIpc,
     {469, {2.49, 3.10, 5.84, 9.25, 14.09}, {2.12, 2.68, 5.31, 8.74, 11.66}}},
    {Config::kLibraryShm,
     {503, {2.39, 3.07, 5.79, 9.15, 12.58}, {2.02, 2.59, 5.30, 8.64, 11.62}}},
};

const size_t kTcpSizes[5] = {1, 100, 512, 1024, 1460};
const size_t kUdpSizes[5] = {1, 100, 512, 1024, 1472};

}  // namespace
}  // namespace psd

int main() {
  using namespace psd;
  MachineProfile prof = MachineProfile::Gateway486();
  int trials = 60;
  const Config configs[] = {Config::kInKernel, Config::kServer, Config::kLibraryIpc,
                            Config::kLibraryShm};

  std::printf("Table 2 (Gateway 486, 3C503 8-bit PIO Ethernet)\n");
  std::printf("cells: measured (paper)\n\n");

  std::map<Config, double> tput;
  BenchJson out("table2_gateway", prof.name);
  std::printf("%-18s %-16s\n", "Configuration", "Thrpt KB/s");
  PrintRule(36);
  for (Config c : configs) {
    TtcpOptions opt;
    opt.pio_nic = true;
    SweepResult sweep = TtcpBestBuffer(c, prof, opt);
    tput[c] = sweep.best.kb_per_sec;
    std::printf("%-18s %-16s\n", ConfigName(c),
                Cell(sweep.best.kb_per_sec, kPaper.at(c).throughput, "%.0f").c_str());
    BenchJson::Obj& row = out.AddResult();
    row.Set("section", "throughput");
    row.Set("config", ConfigName(c));
    row.Set("kb_per_sec", sweep.best.kb_per_sec);
    row.Set("paper_kb_per_sec", kPaper.at(c).throughput);
  }

  for (IpProto proto : {IpProto::kTcp, IpProto::kUdp}) {
    const size_t* sizes = proto == IpProto::kTcp ? kTcpSizes : kUdpSizes;
    std::printf("\n%s round-trip latency (ms)\n", proto == IpProto::kTcp ? "TCP" : "UDP");
    std::printf("%-18s", "Configuration");
    for (int i = 0; i < 5; i++) {
      std::printf(" %13zu", sizes[i]);
    }
    std::printf("\n");
    PrintRule(88);
    for (Config c : configs) {
      std::printf("%-18s", ConfigName(c));
      const PaperRow& paper = kPaper.at(c);
      for (int i = 0; i < 5; i++) {
        ProtolatOptions opt;
        opt.proto = proto;
        opt.msg_size = sizes[i];
        opt.trials = trials;
        opt.pio_nic = true;
        double ms = RunProtolat(c, prof, opt);
        double paper_ms = proto == IpProto::kTcp ? paper.tcp[i] : paper.udp[i];
        std::printf(" %13s", Cell(ms, paper_ms).c_str());
        BenchJson::Obj& row = out.AddResult();
        row.Set("section", proto == IpProto::kTcp ? "tcp_latency" : "udp_latency");
        row.Set("config", ConfigName(c));
        row.Set("msg_size", static_cast<uint64_t>(sizes[i]));
        row.Set("rtt_ms", ms);
        row.Set("paper_rtt_ms", paper_ms);
      }
      std::printf("\n");
    }
  }

  std::printf("\nShape checks:\n");
  std::printf("  Library-SHM / In-Kernel throughput: %.2f (paper: 503/457 = 1.10 — the library"
              " BEATS the kernel on this hardware)\n",
              tput[Config::kLibraryShm] / tput[Config::kInKernel]);
  std::printf("  Server / In-Kernel:                 %.2f (paper: 415/457 = 0.91)\n",
              tput[Config::kServer] / tput[Config::kInKernel]);

  out.summary().Set("lib_shm_over_kernel", tput[Config::kLibraryShm] / tput[Config::kInKernel]);
  out.summary().Set("server_over_kernel", tput[Config::kServer] / tput[Config::kInKernel]);
  out.WriteFile();
  return 0;
}
