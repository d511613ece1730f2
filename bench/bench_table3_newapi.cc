// Reproduces Table 3: the effect of the modified socket interface (NEWAPI,
// paper §4.2) that shares buffers between application and protocol stack,
// eliminating the copy at the socket layer. Library placements gain the
// most; the kernel baselines are repeated for reference.
//
// Also prints the §4.2 narrative checks: "User-user throughput increases by
// 5% from 910 KB/sec to 959 KB/sec with the IPC-based packet filter
// interface. ... from 1088 KB/sec to 1099 KB/sec [SHM-IPF]."
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

// Table 3 rows (NEWAPI) and Table 2 rows (classic) for the deltas.
const std::map<Config, PaperRow> kPaperNew = {
    {Config::kLibraryIpc,
     {959, {1.67, 2.02, 3.35, 4.96, 6.45}, {1.42, 1.75, 3.05, 4.69, 6.09}}},
    {Config::kLibraryShm,
     {1083, {1.70, 2.07, 3.33, 4.94, 6.38}, {1.34, 1.66, 2.93, 4.54, 5.95}}},
    {Config::kLibraryShmIpf,
     {1099, {1.63, 1.98, 3.24, 4.80, 6.26}, {1.25, 1.57, 2.83, 4.38, 5.76}}},
};
const std::map<Config, double> kPaperClassicTput = {
    {Config::kLibraryIpc, 910},
    {Config::kLibraryShm, 1076},
    {Config::kLibraryShmIpf, 1088},
};

const size_t kTcpSizes[5] = {1, 100, 512, 1024, 1460};
const size_t kUdpSizes[5] = {1, 100, 512, 1024, 1472};

}  // namespace
}  // namespace psd

int main() {
  using namespace psd;
  MachineProfile prof = MachineProfile::DecStation5000();
  int trials = 60;
  const Config configs[] = {Config::kLibraryIpc, Config::kLibraryShm, Config::kLibraryShmIpf};

  std::printf("Table 3 (DECstation 5000/200): NEWAPI shared-buffer socket interface\n");
  std::printf("cells: measured (paper)\n\n");

  std::printf("%-22s %-16s %-16s\n", "Configuration", "NEWAPI KB/s", "classic KB/s");
  PrintRule(56);
  std::map<Config, double> tput_new, tput_classic;
  BenchJson out("table3_newapi", prof.name);
  for (Config c : configs) {
    TtcpOptions opt;
    opt.newapi = true;
    SweepResult sweep = TtcpBestBuffer(c, prof, opt);
    tput_new[c] = sweep.best.kb_per_sec;
    opt.newapi = false;
    SweepResult classic = TtcpBestBuffer(c, prof, opt);
    tput_classic[c] = classic.best.kb_per_sec;
    BenchJson::Obj& row = out.AddResult();
    row.Set("section", "throughput");
    row.Set("config", ConfigName(c));
    row.Set("newapi_kb_per_sec", tput_new[c]);
    row.Set("classic_kb_per_sec", tput_classic[c]);
    row.Set("paper_newapi_kb_per_sec", kPaperNew.at(c).throughput);
    row.Set("paper_classic_kb_per_sec", kPaperClassicTput.at(c));
    std::printf("%-22s %-16s %-16s\n", (std::string("Library-NEWAPI-") + RxPathName(
        c == Config::kLibraryIpc ? RxPath::kIpc
        : c == Config::kLibraryShm ? RxPath::kShm : RxPath::kShmIpf)).c_str(),
                Cell(tput_new[c], kPaperNew.at(c).throughput, "%.0f").c_str(),
                Cell(tput_classic[c], kPaperClassicTput.at(c), "%.0f").c_str());
  }

  for (IpProto proto : {IpProto::kTcp, IpProto::kUdp}) {
    const size_t* sizes = proto == IpProto::kTcp ? kTcpSizes : kUdpSizes;
    std::printf("\n%s round-trip latency with NEWAPI (ms)\n",
                proto == IpProto::kTcp ? "TCP" : "UDP");
    std::printf("%-22s", "Configuration");
    for (int i = 0; i < 5; i++) {
      std::printf(" %12zu", sizes[i]);
    }
    std::printf("\n");
    PrintRule(88);
    for (Config c : configs) {
      std::printf("%-22s", ConfigName(c));
      const PaperRow& paper = kPaperNew.at(c);
      for (int i = 0; i < 5; i++) {
        ProtolatOptions opt;
        opt.proto = proto;
        opt.msg_size = sizes[i];
        opt.trials = trials;
        opt.newapi = true;
        double ms = RunProtolat(c, prof, opt);
        double paper_ms = proto == IpProto::kTcp ? paper.tcp[i] : paper.udp[i];
        std::printf(" %12s", Cell(ms, paper_ms).c_str());
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

  std::printf("\nSection 4.2 shape checks (NEWAPI / classic throughput):\n");
  std::printf("  Library-IPC:     %.3f (paper: 959/910 = 1.054)\n",
              tput_new[Config::kLibraryIpc] / tput_classic[Config::kLibraryIpc]);
  std::printf("  Library-SHM-IPF: %.3f (paper: 1099/1088 = 1.010)\n",
              tput_new[Config::kLibraryShmIpf] / tput_classic[Config::kLibraryShmIpf]);

  out.summary().Set("lib_ipc_newapi_gain",
                    tput_new[Config::kLibraryIpc] / tput_classic[Config::kLibraryIpc]);
  out.summary().Set("lib_shmipf_newapi_gain",
                    tput_new[Config::kLibraryShmIpf] / tput_classic[Config::kLibraryShmIpf]);
  out.WriteFile();
  return 0;
}
