// Reproduces Table 2 (DECstation 5000/200 rows): TCP throughput with the
// best receive buffer size, and TCP/UDP round-trip latency across message
// sizes, for the in-kernel, server-based, and three library-based protocol
// configurations.
//
// Cells print "measured (paper)". The paper's Ultrix 4.2A row is collapsed
// into the single in-kernel architecture (see EXPERIMENTS.md); the paper's
// Mach 2.5 values are used as the in-kernel reference.
#include <cstdio>
#include <map>

#include "bench/common/bench_json.h"
#include "bench/common/table_printer.h"
#include "bench/common/workloads.h"

namespace psd {
namespace {

struct PaperRow {
  double throughput;
  double rcvbuf_kb;
  double tcp[5];
  double udp[5];
};

// Table 2, DECstation section.
const std::map<Config, PaperRow> kPaper = {
    {Config::kInKernel,
     {1070, 24, {1.40, 1.73, 3.05, 4.56, 6.04}, {1.45, 1.74, 3.05, 4.56, 5.88}}},
    {Config::kServer,
     {740, 24, {3.64, 4.21, 5.90, 7.84, 9.73}, {3.61, 4.06, 5.57, 7.99, 9.81}}},
    {Config::kLibraryIpc,
     {910, 24, {1.69, 2.09, 3.43, 5.09, 6.63}, {1.40, 1.74, 3.08, 4.70, 6.10}}},
    {Config::kLibraryShm,
     {1076, 120, {1.82, 2.29, 3.61, 5.32, 6.73}, {1.34, 1.68, 2.95, 4.59, 5.95}}},
    {Config::kLibraryShmIpf,
     {1088, 120, {1.72, 2.11, 3.44, 5.09, 6.56}, {1.23, 1.57, 2.83, 4.41, 5.78}}},
};

const size_t kTcpSizes[5] = {1, 100, 512, 1024, 1460};
const size_t kUdpSizes[5] = {1, 100, 512, 1024, 1472};

}  // namespace
}  // namespace psd

int main() {
  using namespace psd;
  MachineProfile prof = MachineProfile::DecStation5000();

  int trials = 60;

  std::printf("Table 2 (DECstation 5000/200): TCP throughput and TCP/UDP round-trip latency\n");
  std::printf("cells: measured (paper)\n\n");

  const Config configs[] = {Config::kInKernel, Config::kServer, Config::kLibraryIpc,
                            Config::kLibraryShm, Config::kLibraryShmIpf};

  std::map<Config, double> throughput;
  BenchJson out("table2_decstation", prof.name);

  std::printf("%-18s %-16s %-10s\n", "Configuration", "Thrpt KB/s", "RcvBuf KB");
  PrintRule(48);
  for (Config c : configs) {
    TtcpOptions opt;
    SweepResult sweep = TtcpBestBuffer(c, prof, opt);
    const PaperRow& paper = kPaper.at(c);
    throughput[c] = sweep.best.kb_per_sec;
    std::printf("%-18s %-16s %.0f (%.0f)\n", ConfigName(c),
                Cell(sweep.best.kb_per_sec, paper.throughput, "%.0f").c_str(),
                static_cast<double>(sweep.best_rcvbuf) / 1024, paper.rcvbuf_kb);
    BenchJson::Obj& row = out.AddResult();
    row.Set("section", "throughput");
    row.Set("config", ConfigName(c));
    row.Set("kb_per_sec", sweep.best.kb_per_sec);
    row.Set("paper_kb_per_sec", paper.throughput);
    row.Set("rcvbuf_kb", static_cast<double>(sweep.best_rcvbuf) / 1024);
  }

  std::printf("\nTCP round-trip latency (ms)\n");
  std::printf("%-18s", "Configuration");
  for (size_t s : kTcpSizes) {
    std::printf(" %12zu", s);
  }
  std::printf("\n");
  PrintRule(84);
  for (Config c : configs) {
    std::printf("%-18s", ConfigName(c));
    const PaperRow& paper = kPaper.at(c);
    for (int i = 0; i < 5; i++) {
      ProtolatOptions opt;
      opt.proto = IpProto::kTcp;
      opt.msg_size = kTcpSizes[i];
      opt.trials = trials;
      double ms = RunProtolat(c, prof, opt);
      std::printf(" %12s", Cell(ms, paper.tcp[i]).c_str());
      BenchJson::Obj& row = out.AddResult();
      row.Set("section", "tcp_latency");
      row.Set("config", ConfigName(c));
      row.Set("msg_size", static_cast<uint64_t>(kTcpSizes[i]));
      row.Set("rtt_ms", ms);
      row.Set("paper_rtt_ms", paper.tcp[i]);
    }
    std::printf("\n");
  }

  std::printf("\nUDP round-trip latency (ms)\n");
  std::printf("%-18s", "Configuration");
  for (size_t s : kUdpSizes) {
    std::printf(" %12zu", s);
  }
  std::printf("\n");
  PrintRule(84);
  for (Config c : configs) {
    std::printf("%-18s", ConfigName(c));
    const PaperRow& paper = kPaper.at(c);
    for (int i = 0; i < 5; i++) {
      ProtolatOptions opt;
      opt.proto = IpProto::kUdp;
      opt.msg_size = kUdpSizes[i];
      opt.trials = trials;
      double ms = RunProtolat(c, prof, opt);
      std::printf(" %12s", Cell(ms, paper.udp[i]).c_str());
      BenchJson::Obj& row = out.AddResult();
      row.Set("section", "udp_latency");
      row.Set("config", ConfigName(c));
      row.Set("msg_size", static_cast<uint64_t>(kUdpSizes[i]));
      row.Set("rtt_ms", ms);
      row.Set("paper_rtt_ms", paper.udp[i]);
    }
    std::printf("\n");
  }

  // §4.1 narrative checks.
  std::printf("\nSection 4.1 shape checks:\n");
  std::printf("  Library-IPC / In-Kernel throughput: %.2f (paper: ~0.85)\n",
              throughput[Config::kLibraryIpc] / throughput[Config::kInKernel]);
  std::printf("  Library-SHM / Library-IPC:          %.2f (paper: ~1.18)\n",
              throughput[Config::kLibraryShm] / throughput[Config::kLibraryIpc]);
  std::printf("  Library-SHM-IPF / In-Kernel:        %.2f (paper: ~1.02)\n",
              throughput[Config::kLibraryShmIpf] / throughput[Config::kInKernel]);
  std::printf("  Server / In-Kernel:                 %.2f (paper: ~0.69)\n",
              throughput[Config::kServer] / throughput[Config::kInKernel]);

  out.summary().Set("lib_ipc_over_kernel",
                    throughput[Config::kLibraryIpc] / throughput[Config::kInKernel]);
  out.summary().Set("lib_shm_over_lib_ipc",
                    throughput[Config::kLibraryShm] / throughput[Config::kLibraryIpc]);
  out.summary().Set("lib_shmipf_over_kernel",
                    throughput[Config::kLibraryShmIpf] / throughput[Config::kInKernel]);
  out.summary().Set("server_over_kernel",
                    throughput[Config::kServer] / throughput[Config::kInKernel]);
  out.WriteFile();
  return 0;
}
