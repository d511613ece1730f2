#include "src/testbed/torture.h"

#include <array>
#include <functional>
#include <memory>
#include <sstream>
#include <unordered_set>

#include "src/base/rng.h"
#include "src/core/net_server.h"
#include "src/inet/stack.h"
#include "src/kern/host.h"
#include "src/obs/journey.h"
#include "src/obs/pcap.h"
#include "src/testbed/traffic_mix.h"

namespace psd {
namespace {

constexpr uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;
constexpr uint64_t kUdpStreamSalt = 0xDA7A11CEULL;

uint64_t Fnv1a(const uint8_t* p, size_t n, uint64_t h) {
  for (size_t i = 0; i < n; i++) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

// Everything the leak invariant watches, totalled over both hosts and every
// stack instance on them.
struct LeakSnap {
  size_t tcp_pcbs = 0;
  size_t udp_pcbs = 0;
  size_t ports = 0;
  size_t filters = 0;
  size_t suppressed = 0;
};

LeakSnap SnapLeaks(World* w) {
  LeakSnap s;
  for (int i = 0; i < 2; i++) {
    for (Stack* st : w->AllStacks(i)) {
      s.tcp_pcbs += st->tcp().pcbs().size();
      s.udp_pcbs += st->udp().pcbs().size();
      s.ports += st->ports().count();
    }
    s.filters += w->host(i)->kernel()->installed_filters();
    if (w->net_server(i) != nullptr) {
      s.suppressed += w->net_server(i)->suppressed_count();
    }
  }
  return s;
}

}  // namespace

const std::vector<TortureSpec>& TortureScenarios() {
  static const std::vector<TortureSpec>* scenarios = [] {
    auto* v = new std::vector<TortureSpec>();
    {
      TortureSpec s;
      s.name = "clean";
      s.summary = "no faults; every datagram and byte must arrive";
      s.udp = true;
      s.expect_all_udp = true;
      v->push_back(s);
    }
    {
      TortureSpec s;
      s.name = "loss";
      s.summary = "3% independent frame loss, TCP + UDP";
      s.faults.loss_rate = 0.03;
      s.udp = true;
      v->push_back(s);
    }
    {
      TortureSpec s;
      s.name = "burst-loss";
      s.summary = "Gilbert-Elliott bursty loss (fades, not coin flips)";
      s.faults.burst.enabled = true;
      s.faults.burst.p_good_to_bad = 0.03;
      s.faults.burst.p_bad_to_good = 0.25;
      s.faults.burst.loss_good = 0.001;
      s.faults.burst.loss_bad = 0.75;
      v->push_back(s);
    }
    {
      TortureSpec s;
      s.name = "corrupt";
      s.summary = "5% single-bit payload corruption; checksums must catch all";
      s.faults.corrupt_rate = 0.05;
      s.faults.corrupt_bits = 1;
      s.udp = true;
      v->push_back(s);
    }
    {
      TortureSpec s;
      s.name = "corrupt-2bit";
      s.summary = "double-bit flips within one 16-bit word (cannot alias)";
      s.faults.corrupt_rate = 0.05;
      s.faults.corrupt_bits = 2;
      v->push_back(s);
    }
    {
      TortureSpec s;
      s.name = "reorder";
      s.summary = "10% of frames held back up to 4 frame slots";
      s.faults.reorder_rate = 0.10;
      s.faults.reorder_window = 4;
      v->push_back(s);
    }
    {
      TortureSpec s;
      s.name = "dup-delay";
      s.summary = "duplication plus jittered delay";
      s.faults.dup_rate = 0.05;
      s.faults.delay_rate = 0.08;
      s.faults.extra_delay = Millis(6);
      v->push_back(s);
    }
    {
      TortureSpec s;
      s.name = "partition-heal";
      s.summary = "one-way link outage mid-stream with a scheduled heal";
      s.faults.partitions.push_back(LinkPartition{0, 1, Millis(10), Seconds(2)});
      s.tcp_bytes = 96 * 1024;
      s.udp = true;
      v->push_back(s);
    }
    {
      TortureSpec s;
      s.name = "shaped";
      s.summary = "quarter bandwidth and an 8-frame tail-drop queue";
      s.faults.bandwidth_scale = 4.0;
      s.faults.queue_frames = 8;
      s.udp = true;
      v->push_back(s);
    }
    {
      TortureSpec s;
      s.name = "syn-flood";
      s.summary = "accept-queue storm against a backlog-1 listener on a clean wire";
      s.tcp = false;
      s.storm_clients = 12;
      s.storm_backlog = 1;
      v->push_back(s);
    }
    {
      TortureSpec s;
      s.name = "syn-flood-lossy";
      s.summary = "accept-queue storm with 2% frame loss on top";
      s.faults.loss_rate = 0.02;
      s.tcp = false;
      s.storm_clients = 10;
      s.storm_backlog = 2;
      v->push_back(s);
    }
    {
      TortureSpec s;
      s.name = "rpc-bursty-loss";
      s.summary = "pipelined RPC + full protocol mix under Gilbert-Elliott loss and corruption";
      s.faults.burst.enabled = true;
      s.faults.burst.p_good_to_bad = 0.02;
      s.faults.burst.p_bad_to_good = 0.25;
      s.faults.burst.loss_good = 0.001;
      s.faults.burst.loss_bad = 0.6;
      s.faults.corrupt_rate = 0.02;
      s.faults.corrupt_bits = 1;
      s.tcp = false;
      s.mix = "rpc";
      v->push_back(s);
    }
    {
      TortureSpec s;
      s.name = "switch-under-partition";
      s.summary = "in-band protocol switches racing a scheduled one-way partition";
      // The outage opens while the pre-switch line traffic and the
      // handshake are in flight (clients connect a few ms in), one
      // direction only — the asymmetric case where the OK and the first
      // pfx frames can cross the partition boundary.
      s.faults.partitions.push_back(LinkPartition{0, 1, Millis(30), Millis(800)});
      s.faults.loss_rate = 0.01;
      s.tcp = false;
      s.mix = "switchy";
      v->push_back(s);
    }
    {
      TortureSpec s;
      s.name = "everything";
      s.summary = "all fault classes at once, plus a brief partition";
      s.faults.loss_rate = 0.02;
      s.faults.burst.enabled = true;
      s.faults.burst.p_good_to_bad = 0.01;
      s.faults.burst.p_bad_to_good = 0.25;
      s.faults.burst.loss_bad = 0.6;
      s.faults.dup_rate = 0.03;
      s.faults.delay_rate = 0.05;
      s.faults.corrupt_rate = 0.03;
      s.faults.reorder_rate = 0.05;
      s.faults.reorder_window = 3;
      s.faults.bandwidth_scale = 1.5;
      s.faults.queue_frames = 16;
      s.faults.partitions.push_back(LinkPartition{0, 1, Millis(50), Millis(600)});
      s.tcp_bytes = 32 * 1024;
      s.udp = true;
      v->push_back(s);
    }
    return v;
  }();
  return *scenarios;
}

const TortureSpec* FindTortureScenario(const std::string& name) {
  for (const TortureSpec& s : TortureScenarios()) {
    if (s.name == name) {
      return &s;
    }
  }
  return nullptr;
}

TortureResult RunTorture(Config config, const TortureSpec& spec, uint64_t seed,
                         PcapCapture* wire_pcap) {
  TortureResult result;

  // Workload state. Declared before the World: stalled runs leave app
  // threads blocked, and ~World force-unwinds them while these are alive.
  const int pairs = spec.tcp ? spec.tcp_pairs : 0;
  std::vector<uint64_t> tx_digest(pairs, kFnvOffset);
  std::vector<uint64_t> rx_digest(pairs, kFnvOffset);
  std::vector<size_t> tx_sent(pairs, 0);
  std::vector<size_t> rx_bytes(pairs, 0);
  std::vector<bool> udp_seen(spec.udp ? spec.udp_count : 0, false);
  int udp_unique = 0;
  int udp_dups = 0;
  int udp_bad = 0;       // content/shape validation failures (must stay 0)
  uint64_t udp_rx = 0;   // datagrams received, duplicates included
  bool udp_tx_done = !spec.udp;
  int storm_connected = 0;   // clients whose handshake completed
  int storm_accepted = 0;    // connections the server's accept loop popped
  int storm_clients_done = 0;
  uint64_t storm_tx_bytes = 0;
  uint64_t storm_rx_bytes = 0;
  int apps_done = 0;

  // Application-traffic mix, resolved before the World for the same
  // force-unwind reason as the rest of the workload state.
  std::unique_ptr<TrafficMix> mix;
  if (!spec.mix.empty()) {
    const MixSpec* mix_spec = FindTrafficMix(spec.mix);
    if (mix_spec == nullptr) {
      result.failures.push_back("mix: no traffic mix named '" + spec.mix + "'");
      result.report = "result: FAIL (unknown mix)\n";
      return result;
    }
    mix = std::make_unique<TrafficMix>(*mix_spec, seed);
  }

  const int apps_total = 2 * pairs + (spec.udp ? 2 : 0) +
                         (spec.storm_clients > 0 ? spec.storm_clients + 1 : 0) +
                         (mix != nullptr ? mix->apps_total() : 0);

  FaultPlan faults = spec.faults;
  faults.seed = seed;

  World w(config, MachineProfile::DecStation5000(), /*hosts=*/2);
  w.wire().SetFaults(faults);
  if (wire_pcap != nullptr) {
    w.AttachWirePcap(wire_pcap);
  }

  PacketJourney& pj = w.obs().journey;
  DropLedger& dl = w.obs().drops;
  pj.set_hop_capacity(1 << 20);
  dl.set_ring_capacity(1 << 20);

  const LeakSnap before = SnapLeaks(&w);

  // --- TCP stream workload: `pairs` connections, patterned bytes, FNV-1a
  // digests on both ends.
  for (int k = 0; k < pairs; k++) {
    uint16_t port = static_cast<uint16_t>(5001 + k);
    w.SpawnApp(1, "trx" + std::to_string(k), [&w, &rx_digest, &rx_bytes, &apps_done, k, port] {
      SocketApi* api = w.api(1);
      int lfd = *api->CreateSocket(IpProto::kTcp);
      api->SetOpt(lfd, SockOpt::kRcvBuf, 16 * 1024);
      api->Bind(lfd, SockAddrIn{Ipv4Addr::Any(), port});
      api->Listen(lfd, 1);
      Result<int> cfd = api->Accept(lfd, nullptr);
      if (cfd.ok()) {
        uint8_t buf[4096];
        for (;;) {
          Result<size_t> n = api->Recv(*cfd, buf, sizeof(buf), nullptr, false);
          if (!n.ok() || *n == 0) {
            break;
          }
          rx_digest[k] = Fnv1a(buf, *n, rx_digest[k]);
          rx_bytes[k] += *n;
        }
        api->Close(*cfd);
      }
      api->Close(lfd);
      apps_done++;
    });
    w.SpawnApp(0, "ttx" + std::to_string(k),
               [&w, &spec, &tx_digest, &tx_sent, &apps_done, seed, k, port] {
      SocketApi* api = w.api(0);
      int fd = *api->CreateSocket(IpProto::kTcp);
      w.sim().current_thread()->SleepFor(Millis(5 + k));
      if (api->Connect(fd, SockAddrIn{w.addr(1), port}).ok()) {
        Rng gen = Rng::Stream(seed, 100 + static_cast<uint64_t>(k));
        std::vector<uint8_t> data(spec.tcp_bytes);
        for (uint8_t& b : data) {
          b = static_cast<uint8_t>(gen.Next());
        }
        tx_digest[k] = Fnv1a(data.data(), data.size(), kFnvOffset);
        size_t sent = 0;
        while (sent < data.size()) {
          Result<size_t> n = api->Send(fd, data.data() + sent, data.size() - sent, nullptr);
          if (!n.ok()) {
            break;
          }
          sent += *n;
        }
        tx_sent[k] = sent;
      }
      api->Close(fd);
      apps_done++;
    });
  }

  // --- UDP datagram workload: each datagram is self-validating — an 8-byte
  // sequence number plus payload the receiver regenerates from
  // Rng::Stream(seed ^ salt, seq). Corrupted content therefore cannot hide.
  if (spec.udp) {
    w.SpawnApp(1, "urx", [&] {
      SocketApi* api = w.api(1);
      int fd = *api->CreateSocket(IpProto::kUdp);
      api->SetOpt(fd, SockOpt::kRcvBuf, 64 * 1024);
      api->Bind(fd, SockAddrIn{Ipv4Addr::Any(), 6001});
      std::vector<uint8_t> buf(8 + spec.udp_payload + 64);
      for (;;) {
        SelectFds fds;
        fds.read.push_back(fd);
        Result<int> ready = api->Select(&fds, Millis(250));
        if (!ready.ok() || *ready == 0) {
          if (udp_tx_done) {
            break;  // one full quiet window after the sender finished
          }
          continue;
        }
        Result<size_t> n = api->Recv(fd, buf.data(), buf.size(), nullptr, false);
        if (!n.ok()) {
          break;
        }
        udp_rx++;
        if (*n != 8 + spec.udp_payload) {
          udp_bad++;
          continue;
        }
        uint64_t seq = 0;
        for (int i = 0; i < 8; i++) {
          seq |= static_cast<uint64_t>(buf[i]) << (8 * i);
        }
        if (seq >= static_cast<uint64_t>(spec.udp_count)) {
          udp_bad++;
          continue;
        }
        Rng gen = Rng::Stream(seed ^ kUdpStreamSalt, seq);
        bool content_ok = true;
        for (size_t i = 0; i < spec.udp_payload; i++) {
          content_ok = content_ok && buf[8 + i] == static_cast<uint8_t>(gen.Next());
        }
        if (!content_ok) {
          udp_bad++;
        } else if (udp_seen[seq]) {
          udp_dups++;
        } else {
          udp_seen[seq] = true;
          udp_unique++;
        }
      }
      api->Close(fd);
      apps_done++;
    });
    w.SpawnApp(0, "utx", [&] {
      SocketApi* api = w.api(0);
      int fd = *api->CreateSocket(IpProto::kUdp);
      w.sim().current_thread()->SleepFor(Millis(20));
      SockAddrIn dst{w.addr(1), 6001};
      std::vector<uint8_t> pkt(8 + spec.udp_payload);
      for (int s = 0; s < spec.udp_count; s++) {
        for (int i = 0; i < 8; i++) {
          pkt[i] = static_cast<uint8_t>(static_cast<uint64_t>(s) >> (8 * i));
        }
        Rng gen = Rng::Stream(seed ^ kUdpStreamSalt, static_cast<uint64_t>(s));
        for (size_t i = 0; i < spec.udp_payload; i++) {
          pkt[8 + i] = static_cast<uint8_t>(gen.Next());
        }
        api->Send(fd, pkt.data(), pkt.size(), &dst);
        w.sim().current_thread()->SleepFor(Millis(3));
      }
      api->Close(fd);
      udp_tx_done = true;
      apps_done++;
    });
  }

  // --- Accept-storm workload: many short connections against one listener
  // with a tiny backlog. The listen queue must overflow (that is the point),
  // but overflow is a *drop*, never corruption: every client that completed
  // a handshake is eventually accepted and its bytes all arrive.
  if (spec.storm_clients > 0) {
    w.SpawnApp(1, "storm-srv", [&] {
      SocketApi* api = w.api(1);
      int lfd = *api->CreateSocket(IpProto::kTcp);
      api->Bind(lfd, SockAddrIn{Ipv4Addr::Any(), 5999});
      api->Listen(lfd, spec.storm_backlog);
      int pfd = *api->PollCreate();
      api->PollAdd(pfd, lfd, kPollEventIn);
      // Any child a listener still links to (embryonic or accept-queued)
      // is an accept we still owe; the loop may only exit once none remain.
      auto pending_children = [&w] {
        for (Stack* st : w.AllStacks(1)) {
          DomainLock lock(st->sync());
          for (const auto& p : st->tcp().pcbs()) {
            if (p->parent != nullptr && !p->detached) {
              return true;
            }
          }
        }
        return false;
      };
      std::vector<PollEvent> events;
      for (;;) {
        Result<int> n = api->PollWait(pfd, &events, Millis(500));
        if (n.ok() && *n > 0) {
          Result<int> cfd = api->Accept(lfd, nullptr);
          if (cfd.ok()) {
            storm_accepted++;
            uint8_t buf[1024];
            for (;;) {
              Result<size_t> g = api->Recv(*cfd, buf, sizeof(buf), nullptr, false);
              if (!g.ok() || *g == 0) {
                break;
              }
              storm_rx_bytes += *g;
            }
            api->Close(*cfd);
            // Linger with the queue unserviced so the storm actually fills
            // both backlog halves.
            w.sim().current_thread()->SleepFor(spec.storm_accept_delay);
          }
          continue;
        }
        if (storm_clients_done == spec.storm_clients && !pending_children()) {
          break;
        }
      }
      api->PollClose(pfd);
      api->Close(lfd);
      apps_done++;
    });
    for (int k = 0; k < spec.storm_clients; k++) {
      w.SpawnApp(0, "storm-c" + std::to_string(k), [&w, &spec, &storm_connected,
                                                   &storm_clients_done, &storm_tx_bytes,
                                                   &apps_done, seed, k] {
        SocketApi* api = w.api(0);
        Rng gen = Rng::Stream(seed, 500 + static_cast<uint64_t>(k));
        w.sim().current_thread()->SleepFor(Millis(1 + gen.Below(50)));
        int fd = *api->CreateSocket(IpProto::kTcp);
        if (api->Connect(fd, SockAddrIn{w.addr(1), 5999}).ok()) {
          storm_connected++;
          std::vector<uint8_t> payload(256 + gen.Below(768));
          for (uint8_t& b : payload) {
            b = static_cast<uint8_t>(gen.Next());
          }
          size_t sent = 0;
          while (sent < payload.size()) {
            Result<size_t> n = api->Send(fd, payload.data() + sent, payload.size() - sent,
                                         nullptr);
            if (!n.ok()) {
              break;
            }
            sent += *n;
          }
          storm_tx_bytes += sent;
        }
        api->Close(fd);
        storm_clients_done++;
        apps_done++;
      });
    }
  }

  // --- Application-traffic mix: composed protocol-adapter stacks (RPC
  // over pfx, CRLF echo, in-band switch, DNS-like UDP) sharing the wire
  // with the raw workloads above.
  if (mix != nullptr) {
    mix->Launch(&w, &apps_done);
  }

  // --- Virtual-time progress watchdog: a self-rescheduling event samples a
  // progress signature; quiet_limit unchanged samples before the workload
  // completes means the run is stalled. Stops ticking once the workload is
  // done so the post-workload drain (TIME_WAIT etc.) can empty the queue.
  bool stalled = false;
  int quiet = 0;
  auto signature = [&] {
    uint64_t app_bytes = 0;
    for (int k = 0; k < pairs; k++) {
      app_bytes += rx_bytes[k];
    }
    app_bytes += storm_rx_bytes + static_cast<uint64_t>(storm_accepted);
    if (mix != nullptr) {
      app_bytes += mix->ProgressSignature();
    }
    return std::array<uint64_t, 6>{pj.minted(), pj.delivered(), pj.consumed(), pj.dropped(),
                                   app_bytes,
                                   udp_rx + static_cast<uint64_t>(apps_done)};
  };
  std::array<uint64_t, 6> last_sig = signature();
  std::function<void()> tick = [&] {
    if (apps_done == apps_total) {
      return;
    }
    std::array<uint64_t, 6> sig = signature();
    if (sig == last_sig) {
      quiet++;
    } else {
      quiet = 0;
      last_sig = sig;
    }
    if (quiet >= spec.quiet_limit) {
      stalled = true;
      w.sim().Stop();
      return;
    }
    w.sim().ScheduleAfter(spec.quiet_window, tick);
  };
  w.sim().ScheduleAfter(spec.quiet_window, tick);

  w.sim().Run(spec.deadline);

  // --- Invariant checks.
  const bool complete = apps_done == apps_total;
  auto fail = [&result](const std::string& msg) { result.failures.push_back(msg); };

  // (5) progress: the watchdog tripped, or the virtual deadline elapsed with
  // the workload incomplete.
  if (!complete) {
    result.stalled = true;
    std::ostringstream m;
    m << "progress: workload incomplete (" << apps_done << "/" << apps_total << " apps finished, "
      << (stalled ? "watchdog declared stall" : "virtual deadline elapsed") << ")";
    fail(m.str());
  }

  // (1) end-to-end payload digests.
  for (int k = 0; k < pairs && complete; k++) {
    if (tx_sent[k] != spec.tcp_bytes) {
      fail("digest: tcp pair " + std::to_string(k) + " sender pushed " +
           std::to_string(tx_sent[k]) + "/" + std::to_string(spec.tcp_bytes) + " bytes");
    } else if (rx_bytes[k] != spec.tcp_bytes || rx_digest[k] != tx_digest[k]) {
      fail("digest: tcp pair " + std::to_string(k) + " stream mismatch (" +
           std::to_string(rx_bytes[k]) + "/" + std::to_string(spec.tcp_bytes) + " bytes)");
    }
  }
  if (udp_bad > 0) {
    fail("digest: " + std::to_string(udp_bad) +
         " udp datagrams arrived with wrong shape or content");
  }
  if (spec.expect_all_udp && complete && udp_unique != spec.udp_count) {
    fail("digest: fault-free run lost udp datagrams (" + std::to_string(udp_unique) + "/" +
         std::to_string(spec.udp_count) + ")");
  }

  // (1b) accept-storm reconciliation: the queue overflowed (else the
  // scenario tested nothing), yet every completed handshake was eventually
  // accepted and every byte a client pushed reached the accept loop.
  if (spec.storm_clients > 0 && complete) {
    if (dl.total(DropReason::kTcpListenOverflow) == 0) {
      fail("storm: the listen queue never overflowed");
    }
    if (storm_accepted != storm_connected) {
      fail("storm: " + std::to_string(storm_connected) + " handshakes completed but " +
           std::to_string(storm_accepted) + " connections were accepted");
    }
    if (storm_rx_bytes != storm_tx_bytes) {
      fail("storm: clients sent " + std::to_string(storm_tx_bytes) + " bytes, server received " +
           std::to_string(storm_rx_bytes));
    }
  }

  // (6-9) per-protocol mix invariants: rpc id bijection, framing
  // resync-or-fail, switch exactly-once, dns accounting.
  if (mix != nullptr) {
    mix->CheckInvariants(complete, &result.failures);
  }

  // (2) journey conservation.
  if (pj.minted() != pj.delivered() + pj.consumed() + pj.dropped() + pj.in_flight()) {
    fail("conservation: minted != delivered + consumed + dropped + in-flight");
  }
  if (pj.conflicts() != 0) {
    fail("conservation: " + std::to_string(pj.conflicts()) + " conflicting terminal dispositions");
  }
  if (complete && pj.in_flight() != 0) {
    fail("conservation: " + std::to_string(pj.in_flight()) +
         " packets still in flight after the event queue drained");
  }
  for (const DropEvent& e : dl.recent()) {
    if (e.pkt != 0 && IsDropReason(e.reason) &&
        pj.DispositionOf(e.pkt) != PktDisposition::kDropped) {
      fail("conservation: ledger drop (" + std::string(DropReasonName(e.reason)) + ", pkt " +
           std::to_string(e.pkt) + ") has no matching dropped terminal");
      break;
    }
  }

  // (3) exact corruption reconciliation.
  std::unordered_set<uint64_t> corrupted;
  for (const DropEvent& e : dl.recent()) {
    if (e.reason == DropReason::kWireCorrupt) {
      corrupted.insert(e.pkt);
    }
  }
  const DropReason kChecksumReasons[] = {DropReason::kIpBadHeader, DropReason::kIpBadChecksum,
                                         DropReason::kTcpBadChecksum, DropReason::kUdpBadChecksum};
  uint64_t checksum_drops = 0;
  for (DropReason r : kChecksumReasons) {
    checksum_drops += dl.total(r);
  }
  for (const DropEvent& e : dl.recent()) {
    bool is_checksum = false;
    for (DropReason r : kChecksumReasons) {
      is_checksum = is_checksum || e.reason == r;
    }
    if (is_checksum && corrupted.count(e.pkt) == 0) {
      fail("corruption: " + std::string(DropReasonName(e.reason)) + " drop of pkt " +
           std::to_string(e.pkt) + " which the injector never corrupted");
    }
  }
  for (uint64_t pkt : corrupted) {
    PktDisposition d = pj.DispositionOf(pkt);
    if (d == PktDisposition::kDelivered || d == PktDisposition::kConsumed) {
      fail("corruption: corrupted pkt " + std::to_string(pkt) + " was " +
           PktDispositionName(d) + " instead of dropped");
    } else if (d == PktDisposition::kNone && complete) {
      fail("corruption: corrupted pkt " + std::to_string(pkt) + " has no terminal after drain");
    }
  }
  if (faults.corrupt_rate == 0 && checksum_drops != 0) {
    fail("corruption: checksum drops on a wire that never corrupts");
  }

  // (4) no leaked pcbs / ports / filters / suppression entries. Only
  // meaningful when teardown actually ran.
  const LeakSnap after = SnapLeaks(&w);
  if (complete) {
    auto leak = [&fail](const char* what, size_t b, size_t a) {
      if (a != b) {
        fail(std::string("leak: ") + what + " " + std::to_string(b) + " -> " + std::to_string(a));
      }
    };
    leak("tcp-pcbs", before.tcp_pcbs, after.tcp_pcbs);
    leak("udp-pcbs", before.udp_pcbs, after.udp_pcbs);
    leak("ports", before.ports, after.ports);
    leak("filters", before.filters, after.filters);
    leak("suppression-entries", before.suppressed, after.suppressed);
  }

  result.passed = result.failures.empty();

  // --- Deterministic report (virtual quantities only — two runs of the
  // same scenario/config/seed must be byte-identical).
  uint64_t tcp_retransmits = 0;
  for (Stack* st : w.AllStacks(0)) {
    tcp_retransmits += st->tcp().stats().retransmits;
  }
  std::ostringstream rep;
  rep << "=== torture scenario=" << spec.name << " config=" << ConfigName(config)
      << " seed=" << seed << " ===\n";
  rep << "virtual-end: " << w.sim().Now() / Millis(1) << " ms\n";
  // Scheduler-visible work: any divergence in event order or count (a
  // profiled run vs a plain one, or a replay) shows up here even when all
  // endpoint counters agree, so the replay harness diffs it for free.
  rep << "events-executed: " << w.sim().events_executed() << "\n";
  rep << "journey: minted=" << pj.minted() << " delivered=" << pj.delivered()
      << " consumed=" << pj.consumed() << " dropped=" << pj.dropped()
      << " in-flight=" << pj.in_flight() << " conflicts=" << pj.conflicts() << "\n";
  rep << "wire: carried=" << w.wire().frames_carried() << " dropped=" << w.wire().frames_dropped()
      << " corrupted=" << w.wire().frames_corrupted()
      << " reordered=" << w.wire().frames_reordered()
      << " partitioned=" << w.wire().frames_partitioned()
      << " shaper-dropped=" << w.wire().frames_shaper_dropped()
      << " dups=" << dl.total(DropReason::kWireDup) << "\n";
  rep << "checksum-drops: ip-header=" << dl.total(DropReason::kIpBadHeader)
      << " ip=" << dl.total(DropReason::kIpBadChecksum)
      << " tcp=" << dl.total(DropReason::kTcpBadChecksum)
      << " udp=" << dl.total(DropReason::kUdpBadChecksum) << " injected=" << corrupted.size()
      << "\n";
  if (spec.tcp) {
    uint64_t got = 0;
    for (int k = 0; k < pairs; k++) {
      got += rx_bytes[k];
    }
    rep << "tcp: pairs=" << pairs << " bytes=" << got << "/"
        << spec.tcp_bytes * static_cast<size_t>(pairs) << " retransmits=" << tcp_retransmits
        << "\n";
  }
  if (spec.udp) {
    rep << "udp: sent=" << spec.udp_count << " unique=" << udp_unique << " dups=" << udp_dups
        << " bad=" << udp_bad << "\n";
  }
  if (spec.storm_clients > 0) {
    rep << "storm: clients=" << spec.storm_clients << " connected=" << storm_connected
        << " accepted=" << storm_accepted << " bytes=" << storm_rx_bytes << "/" << storm_tx_bytes
        << " overflow-drops=" << dl.total(DropReason::kTcpListenOverflow) << "\n";
  }
  if (mix != nullptr) {
    mix->Report(rep);
  }
  rep << "invariants:";
  if (result.passed) {
    rep << " all-ok\n";
  } else {
    rep << "\n";
    for (const std::string& f : result.failures) {
      rep << "  FAIL " << f << "\n";
    }
  }
  if (result.stalled) {
    // The packets that never finished their journey are the stall story.
    PktwalkFilter pf;
    pf.lost_only = true;
    rep << "--- pktwalk (lost packets) ---\n" << PktwalkText(w.obs(), pf);
  }
  rep << "result: " << (result.passed ? "PASS" : "FAIL") << "\n";
  result.report = rep.str();
  result.pktwalk = PktwalkText(w.obs(), PktwalkFilter{});
  return result;
}

}  // namespace psd
