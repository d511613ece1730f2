#include "bench/common/engine_workloads.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "src/obs/journey.h"
#include "src/testbed/world.h"

namespace psd {

namespace {

// Runs `body` once, timing the simulation phase and collecting virtual
// quantities. The World's recorders stay on (their cost is part of the
// engine, as in every real scenario) and die with it.
template <typename Body>
EngineRunOutcome TimeOne(Body&& body) {
  EngineRunOutcome out;
  auto t0 = std::chrono::steady_clock::now();
  body(&out);
  auto t1 = std::chrono::steady_clock::now();
  out.wall_ns =
      static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
  return out;
}

// On an incomplete run, the drop ledger usually names the culprit; print
// it before aborting so the failure is diagnosable from the bench log.
void DumpDropsAndExit(World& w) {
  const DropLedger& dl = w.obs().drops;
  for (int r = 1; r < static_cast<int>(DropReason::kNumReasons); r++) {
    uint64_t n = dl.total(static_cast<DropReason>(r));
    if (n != 0) {
      std::fprintf(stderr, "  drops %-20s %llu\n", DropReasonName(static_cast<DropReason>(r)),
                   static_cast<unsigned long long>(n));
    }
  }
  std::exit(2);
}

}  // namespace

// --- Workload 1: ttcp-style TCP stream -------------------------------------

EngineRunOutcome RunEngineTcpStream(const MachineProfile& prof, double scale) {
  const size_t total = std::max<size_t>(64 * 1024, static_cast<size_t>(8 * 1024 * 1024 * scale));
  return TimeOne([&](EngineRunOutcome* out) {
    World w(Config::kInKernel, prof);
    bool done = false;
    w.SpawnApp(1, "sink", [&] {
      SocketApi* api = w.api(1);
      int lfd = *api->CreateSocket(IpProto::kTcp);
      api->Bind(lfd, SockAddrIn{Ipv4Addr::Any(), 5001});
      api->SetOpt(lfd, SockOpt::kRcvBuf, 24 * 1024);
      api->Listen(lfd, 1);
      Result<int> fd = api->Accept(lfd, nullptr);
      if (!fd.ok()) {
        return;
      }
      uint8_t buf[8192];
      size_t got = 0;
      while (got < total) {
        Result<size_t> n = api->Recv(*fd, buf, sizeof(buf), nullptr, false);
        if (!n.ok() || *n == 0) {
          break;
        }
        got += *n;
      }
      api->Close(*fd);
      api->Close(lfd);
      done = got == total;
    });
    w.SpawnApp(0, "source", [&] {
      SocketApi* api = w.api(0);
      w.sim().current_thread()->SleepFor(Millis(5));
      int fd = *api->CreateSocket(IpProto::kTcp);
      api->SetOpt(fd, SockOpt::kSndBuf, 24 * 1024);
      if (!api->Connect(fd, SockAddrIn{w.addr(1), 5001}).ok()) {
        return;
      }
      std::vector<uint8_t> buf(8192);
      for (size_t i = 0; i < buf.size(); i++) {
        buf[i] = static_cast<uint8_t>(i % 251);
      }
      size_t sent = 0;
      while (sent < total) {
        Result<size_t> n = api->Send(fd, buf.data(), std::min(buf.size(), total - sent));
        if (!n.ok()) {
          break;
        }
        sent += *n;
      }
      api->Close(fd);
    });
    w.sim().Run(Seconds(300));
    if (!done) {
      std::fprintf(stderr, "engine workload: tcp_stream did not complete\n");
      DumpDropsAndExit(w);
    }
    out->frames = w.wire().frames_carried();
    out->events = w.sim().events_executed();
    out->switches = w.sim().thread_switches();
    out->elided = w.sim().elided_wakeups();
    out->virtual_end = w.sim().Now();
  });
}

// --- Workload 2: one-way UDP blast ------------------------------------------

EngineRunOutcome RunEngineUdpBlast(const MachineProfile& prof, double scale) {
  const int count = std::max(500, static_cast<int>(20000 * scale));
  return TimeOne([&](EngineRunOutcome* out) {
    World w(Config::kInKernel, prof);
    constexpr size_t kPayload = 512;
    constexpr int kBurst = 8;
    int received = 0;
    bool sender_done = false;
    w.SpawnApp(1, "sink", [&] {
      SocketApi* api = w.api(1);
      int fd = *api->CreateSocket(IpProto::kUdp);
      api->Bind(fd, SockAddrIn{Ipv4Addr::Any(), 9000});
      api->SetOpt(fd, SockOpt::kRcvBuf, 256 * 1024);
      uint8_t buf[2048];
      for (;;) {
        Result<size_t> n = api->Recv(fd, buf, sizeof(buf), nullptr, false);
        if (!n.ok()) {
          break;
        }
        received++;
        if (received == count) {
          break;
        }
      }
      api->Close(fd);
    });
    w.SpawnApp(0, "blaster", [&] {
      SocketApi* api = w.api(0);
      w.sim().current_thread()->SleepFor(Millis(5));
      int fd = *api->CreateSocket(IpProto::kUdp);
      SockAddrIn dst{w.addr(1), 9000};
      std::vector<uint8_t> pkt(kPayload, 0xab);
      // Pace bursts at the wire rate so the segment backlog stays bounded
      // (a blast, not an unbounded queue-growth microbenchmark).
      SimDuration burst_time = w.wire().WireTime(kPayload + 42) * kBurst;
      for (int i = 0; i < count; i++) {
        pkt[0] = static_cast<uint8_t>(i);
        pkt[1] = static_cast<uint8_t>(i >> 8);
        api->Send(fd, pkt.data(), pkt.size(), &dst);
        if ((i + 1) % kBurst == 0) {
          w.sim().current_thread()->SleepFor(burst_time);
        }
      }
      api->Close(fd);
      sender_done = true;
    });
    w.sim().Run(Seconds(120));
    if (!sender_done || received < count * 9 / 10) {
      std::fprintf(stderr, "engine workload: udp_blast incomplete (sent=%d received=%d)\n",
                   sender_done ? count : -1, received);
      DumpDropsAndExit(w);
    }
    out->frames = w.wire().frames_carried();
    out->events = w.sim().events_executed();
    out->switches = w.sim().thread_switches();
    out->elided = w.sim().elided_wakeups();
    out->virtual_end = w.sim().Now();
  });
}

// --- Workload 3: 256-session TCP churn on Library-SHM -----------------------

EngineRunOutcome RunEngineChurn256(const MachineProfile& prof, double scale) {
  const int sessions = std::max(16, static_cast<int>(256 * scale));
  return TimeOne([&](EngineRunOutcome* out) {
    World w(Config::kLibraryShm, prof);
    constexpr size_t kBytes = 4096;
    int served = 0;
    int completed = 0;
    w.SpawnApp(1, "churn-server", [&] {
      SocketApi* api = w.api(1);
      int lfd = *api->CreateSocket(IpProto::kTcp);
      api->Bind(lfd, SockAddrIn{Ipv4Addr::Any(), 5001});
      api->Listen(lfd, 8);
      uint8_t buf[4096];
      for (int s = 0; s < sessions; s++) {
        Result<int> fd = api->Accept(lfd, nullptr);
        if (!fd.ok()) {
          break;
        }
        size_t got = 0;
        while (got < kBytes) {
          Result<size_t> n = api->Recv(*fd, buf, sizeof(buf), nullptr, false);
          if (!n.ok() || *n == 0) {
            break;
          }
          got += *n;
        }
        api->Close(*fd);
        if (got == kBytes) {
          served++;
        }
      }
      api->Close(lfd);
    });
    w.SpawnApp(0, "churn-client", [&] {
      SocketApi* api = w.api(0);
      w.sim().current_thread()->SleepFor(Millis(5));
      std::vector<uint8_t> buf(kBytes);
      for (size_t i = 0; i < buf.size(); i++) {
        buf[i] = static_cast<uint8_t>(i % 253);
      }
      for (int s = 0; s < sessions; s++) {
        int fd = *api->CreateSocket(IpProto::kTcp);
        if (!api->Connect(fd, SockAddrIn{w.addr(1), 5001}).ok()) {
          api->Close(fd);
          break;
        }
        size_t sent = 0;
        while (sent < kBytes) {
          Result<size_t> n = api->Send(fd, buf.data() + sent, kBytes - sent);
          if (!n.ok()) {
            break;
          }
          sent += *n;
        }
        api->Close(fd);
        if (sent == kBytes) {
          completed++;
        }
      }
    });
    w.sim().Run(Seconds(600));
    if (completed != sessions || served != sessions) {
      std::fprintf(stderr, "engine workload: churn_256 incomplete (client=%d server=%d)\n",
                   completed, served);
      DumpDropsAndExit(w);
    }
    out->frames = w.wire().frames_carried();
    out->events = w.sim().events_executed();
    out->switches = w.sim().thread_switches();
    out->elided = w.sim().elided_wakeups();
    out->virtual_end = w.sim().Now();
  });
}

// --- Workload 4: 128 mostly idle In-Kernel hosts -----------------------------

EngineRunOutcome RunEngineIdle128(const MachineProfile& prof, double scale) {
  const int clients = std::max(8, static_cast<int>(128 * scale));
  constexpr int kSessions = 4;
  return TimeOne([&](EngineRunOutcome* out) {
    World w(Config::kInKernel, prof, clients + 1);
    w.SeedStaticArp();
    constexpr size_t kBytes = 64;
    int served = 0;
    int completed = 0;
    w.SpawnApp(0, "idle-server", [&] {
      SocketApi* api = w.api(0);
      int lfd = *api->CreateSocket(IpProto::kTcp);
      api->Bind(lfd, SockAddrIn{Ipv4Addr::Any(), 5001});
      api->Listen(lfd, 8);
      uint8_t buf[kBytes];
      for (int s = 0; s < clients * kSessions; s++) {
        Result<int> fd = api->Accept(lfd, nullptr);
        if (!fd.ok()) {
          break;
        }
        size_t got = 0;
        for (;;) {
          Result<size_t> n = api->Recv(*fd, buf, sizeof(buf), nullptr, false);
          if (!n.ok() || *n == 0) {
            break;
          }
          got += *n;
        }
        api->Close(*fd);
        if (got == kBytes) {
          served++;
        }
      }
      api->Close(lfd);
    });
    // Client c opens a session at 3c ms and every 30 s after: the grids of
    // the clients' slow ticks stay 3 ms apart, and each pcb then idles in
    // TIME_WAIT for 60 s.
    for (int c = 1; c <= clients; c++) {
      w.SpawnApp(c, "idle-client", [&, c] {
        SocketApi* api = w.api(c);
        SimThread* self = w.sim().current_thread();
        const uint8_t buf[kBytes] = {};
        for (int s = 0; s < kSessions; s++) {
          self->SleepUntil(Millis(3) * c + Seconds(30) * s);
          int fd = *api->CreateSocket(IpProto::kTcp);
          if (api->Connect(fd, SockAddrIn{w.addr(0), 5001}).ok() &&
              api->Send(fd, buf, sizeof(buf)).ok()) {
            completed++;
          }
          api->Close(fd);
        }
      });
    }
    w.sim().Run(Seconds(180));
    if (completed != clients * kSessions || served != clients * kSessions) {
      std::fprintf(stderr, "engine workload: idle_128 incomplete (client=%d server=%d)\n",
                   completed, served);
      DumpDropsAndExit(w);
    }
    out->frames = w.wire().frames_carried();
    out->events = w.sim().events_executed();
    out->switches = w.sim().thread_switches();
    out->elided = w.sim().elided_wakeups();
    out->virtual_end = w.sim().Now();
  });
}

EngineWorkloadFn FindEngineWorkload(const char* name) {
  if (std::strcmp(name, "tcp_stream") == 0) {
    return RunEngineTcpStream;
  }
  if (std::strcmp(name, "udp_blast") == 0) {
    return RunEngineUdpBlast;
  }
  if (std::strcmp(name, "churn_256") == 0) {
    return RunEngineChurn256;
  }
  if (std::strcmp(name, "idle_128") == 0) {
    return RunEngineIdle128;
  }
  return nullptr;
}

}  // namespace psd
