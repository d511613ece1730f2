#include "bench/common/workloads.h"

#include <cstdio>

#include "src/obs/trace.h"

namespace psd {

namespace {
constexpr uint16_t kTtcpPort = 5001;
constexpr uint16_t kLatPort = 5002;
}  // namespace

TtcpResult RunTtcp(Config config, const MachineProfile& profile, const TtcpOptions& opt) {
  World w(config, profile, 2, opt.pio_nic);
  TtcpResult result;
  SimTime start = 0;
  SimTime end = 0;
  bool done = false;

  w.SpawnApp(1, "ttcp-r", [&] {
    SocketApi* api = w.api(1);
    int lfd = *api->CreateSocket(IpProto::kTcp);
    api->SetOpt(lfd, SockOpt::kRcvBuf, opt.rcvbuf);
    api->Bind(lfd, SockAddrIn{Ipv4Addr::Any(), kTtcpPort});
    api->Listen(lfd, 1);
    Result<int> cfd = api->Accept(lfd, nullptr);
    if (!cfd.ok()) {
      return;
    }
    size_t got = 0;
    if (opt.newapi) {
      while (got < opt.total_bytes) {
        Result<Chain> c = api->RecvChain(*cfd, 64 * 1024, nullptr);
        if (!c.ok() || c->len() == 0) {
          break;
        }
        got += c->len();
      }
    } else {
      std::vector<uint8_t> buf(opt.write_size);
      while (got < opt.total_bytes) {
        Result<size_t> n = api->Recv(*cfd, buf.data(), buf.size(), nullptr, false);
        if (!n.ok() || *n == 0) {
          break;
        }
        got += *n;
      }
    }
    end = w.sim().Now();
    done = got >= opt.total_bytes;
    api->Close(*cfd);
    api->Close(lfd);
  });

  w.SpawnApp(0, "ttcp-t", [&] {
    SocketApi* api = w.api(0);
    int fd = *api->CreateSocket(IpProto::kTcp);
    api->SetOpt(fd, SockOpt::kSndBuf, opt.sndbuf);
    w.sim().current_thread()->SleepFor(Millis(5));
    if (!api->Connect(fd, SockAddrIn{w.addr(1), kTtcpPort}).ok()) {
      return;
    }
    start = w.sim().Now();
    if (opt.newapi) {
      auto buf = std::make_shared<std::vector<uint8_t>>(opt.write_size, 0x42);
      size_t sent = 0;
      while (sent < opt.total_bytes) {
        Result<size_t> n = api->SendShared(fd, buf, 0, buf->size(), nullptr);
        if (!n.ok()) {
          break;
        }
        sent += *n;
      }
    } else {
      std::vector<uint8_t> buf(opt.write_size, 0x42);
      size_t sent = 0;
      while (sent < opt.total_bytes) {
        Result<size_t> n = api->Send(fd, buf.data(), buf.size(), nullptr);
        if (!n.ok()) {
          break;
        }
        sent += *n;
      }
    }
    api->Close(fd);
  });

  w.sim().Run(Seconds(600));
  if (!done || end <= start) {
    return result;
  }
  double secs = ToSeconds(end - start);
  result.kb_per_sec = static_cast<double>(opt.total_bytes) / 1024.0 / secs;
  result.packets = w.host(1)->nic()->rx_frames();
  if (IsLibraryConfig(config) && w.library(1) != nullptr && w.library(1)->ring() != nullptr) {
    result.wakeups = w.library(1)->ring()->signals();
  }
  return result;
}

SweepResult TtcpBestBuffer(Config config, const MachineProfile& profile, TtcpOptions opt) {
  SweepResult sweep;
  static const size_t kSizes[] = {4 * 1024,  8 * 1024,  16 * 1024, 24 * 1024,
                                  32 * 1024, 48 * 1024, 64 * 1024, 96 * 1024,
                                  120 * 1024};
  double best = 0;
  int flat = 0;
  for (size_t size : kSizes) {
    opt.rcvbuf = size;
    opt.sndbuf = std::max<size_t>(size, 24 * 1024);
    TtcpResult r = RunTtcp(config, profile, opt);
    sweep.curve.emplace_back(size, r.kb_per_sec);
    if (r.kb_per_sec > best * 1.02) {
      best = r.kb_per_sec;
      sweep.best = r;
      sweep.best_rcvbuf = size;
      flat = 0;
    } else if (++flat >= 2) {
      break;  // no further improvement: paper's stopping rule
    }
  }
  return sweep;
}

double RunProtolat(Config config, const MachineProfile& profile, const ProtolatOptions& opt,
                   const ProtolatHooks& hooks) {
  World w(config, profile, 2, opt.pio_nic);
  for (TraceSink* sink : hooks.sinks) {
    w.obs().tracer.AddSink(sink);
  }
  if (hooks.on_world) {
    hooks.on_world(w);
  }
  double mean_ms = 0;
  bool done = false;

  w.SpawnApp(1, "lat-echo", [&] {
    SocketApi* api = w.api(1);
    int fd = *api->CreateSocket(opt.proto);
    api->Bind(fd, SockAddrIn{Ipv4Addr::Any(), kLatPort});
    int cfd = fd;
    if (opt.proto == IpProto::kTcp) {
      api->Listen(fd, 1);
      Result<int> a = api->Accept(fd, nullptr);
      if (!a.ok()) {
        return;
      }
      cfd = *a;
    }
    std::vector<uint8_t> buf(opt.msg_size);
    SockAddrIn from;
    // +3: the client's warm-up round trips.
    for (int i = 0; i < opt.trials + 3; i++) {
      size_t got = 0;
      while (got < opt.msg_size) {
        if (opt.newapi) {
          Result<Chain> c = api->RecvChain(cfd, opt.msg_size - got, &from);
          if (!c.ok() || c->len() == 0) {
            return;
          }
          got += c->len();
        } else {
          Result<size_t> n = api->Recv(cfd, buf.data(), opt.msg_size - got, &from, false);
          if (!n.ok() || *n == 0) {
            return;
          }
          got += *n;
        }
      }
      const SockAddrIn* to = opt.proto == IpProto::kUdp ? &from : nullptr;
      if (opt.newapi) {
        auto shared = std::make_shared<std::vector<uint8_t>>(opt.msg_size, 0x7e);
        api->SendShared(cfd, shared, 0, opt.msg_size, to);
      } else {
        api->Send(cfd, buf.data(), opt.msg_size, to);
      }
    }
    if (cfd != fd) {
      api->Close(cfd);
    }
    api->Close(fd);
  });

  w.SpawnApp(0, "lat-cli", [&] {
    SocketApi* api = w.api(0);
    int fd = *api->CreateSocket(opt.proto);
    w.sim().current_thread()->SleepFor(Millis(5));
    SockAddrIn dst{w.addr(1), kLatPort};
    if (opt.proto == IpProto::kTcp) {
      if (!api->Connect(fd, dst).ok()) {
        return;
      }
    } else {
      api->Connect(fd, dst);
    }
    std::vector<uint8_t> buf(opt.msg_size, 0x11);
    // Warm-up round trips (ARP, route caches, window) excluded from the
    // measurement, then the timed trials.
    int warmup = 3;
    SimTime t0 = 0;
    for (int i = 0; i < opt.trials + warmup; i++) {
      if (i == warmup) {
        if (hooks.on_measure_begin) {
          hooks.on_measure_begin();
        }
        t0 = w.sim().Now();
      }
      SimTime trial_start = w.sim().Now();
      if (opt.newapi) {
        auto shared = std::make_shared<std::vector<uint8_t>>(opt.msg_size, 0x11);
        if (!api->SendShared(fd, shared, 0, opt.msg_size, nullptr).ok()) {
          return;
        }
      } else {
        if (!api->Send(fd, buf.data(), opt.msg_size, nullptr).ok()) {
          return;
        }
      }
      size_t got = 0;
      while (got < opt.msg_size) {
        if (opt.newapi) {
          Result<Chain> c = api->RecvChain(fd, opt.msg_size - got, nullptr);
          if (!c.ok() || c->len() == 0) {
            return;
          }
          got += c->len();
        } else {
          Result<size_t> n = api->Recv(fd, buf.data(), opt.msg_size - got, nullptr, false);
          if (!n.ok() || *n == 0) {
            return;
          }
          got += *n;
        }
      }
      // Application-level RTT span for each measured trial; latency
      // histograms aggregate these by name.
      if (i >= warmup) {
        w.obs().tracer.Emit(&w.sim(), "protolat/rtt", TraceLayer::kApp, /*stage=*/-1, trial_start,
                            w.sim().Now() - trial_start);
      }
    }
    mean_ms = ToMillis(w.sim().Now() - t0) / opt.trials;
    done = true;
    if (hooks.on_done) {
      hooks.on_done(w);
    }
    api->Close(fd);
  });

  w.sim().Run(Seconds(600));
  if (hooks.on_end) {
    hooks.on_end(w);
  }
  return done ? mean_ms : -1.0;
}

double RunProtolatProbed(Config config, const MachineProfile& profile, const ProtolatOptions& opt,
                         StageRecorder* recorder) {
  ProtolatHooks hooks;
  hooks.sinks = {recorder};
  hooks.on_measure_begin = [recorder] { recorder->Reset(); };
  return RunProtolat(config, profile, opt, hooks);
}

}  // namespace psd
