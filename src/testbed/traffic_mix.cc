#include "src/testbed/traffic_mix.h"

#include <cstring>

#include "src/base/rng.h"
#include "src/proto/dns.h"
#include "src/proto/framing.h"
#include "src/proto/pswitch.h"
#include "src/proto/rpc.h"

namespace psd {
namespace {

// Port plan: one listener per connection so accepts never race and the
// fiber schedule stays deterministic. Clear of the torture harness's own
// ports (5001+, 5999, 6001).
constexpr uint16_t kRpcPortBase = 7100;
constexpr uint16_t kLinePortBase = 7200;
constexpr uint16_t kSwitchPortBase = 7400;
constexpr uint16_t kDnsPort = 7005;
constexpr uint16_t kDnsClientPortBase = 7050;

constexpr size_t kSwitchMaxLine = 256;
constexpr size_t kSwitchRpcPayload = 256;

// Golden-ratio hash so every connection gets its own payload stream while
// staying a pure function of the run seed.
uint64_t ConnSeed(uint64_t seed, uint64_t salt, int k) {
  return seed ^ (0x9E3779B97F4A7C15ULL * (salt + static_cast<uint64_t>(k) + 1));
}

// Line bytes are printable ASCII (0x20..0x7E): never CR/LF, so a line
// protocol can always frame them.
void FillLine(Rng* gen, uint8_t* out, size_t len) {
  for (size_t i = 0; i < len; i++) {
    out[i] = static_cast<uint8_t>(' ' + gen->Below(95));
  }
}

}  // namespace

const std::vector<MixSpec>& TrafficMixes() {
  static const std::vector<MixSpec>* mixes = [] {
    auto* v = new std::vector<MixSpec>();
    {
      MixSpec m;
      m.name = "rpc";
      m.summary = "pipelined request/response RPC over pfx framing";
      m.rpc_conns = 3;
      v->push_back(m);
    }
    {
      MixSpec m;
      m.name = "lines";
      m.summary = "CRLF echo, one client injecting a garbage burst";
      m.line_conns = 2;
      m.noisy_line_conns = 1;
      v->push_back(m);
    }
    {
      MixSpec m;
      m.name = "dns";
      m.summary = "DNS-like UDP query/retry against one server socket";
      m.dns_clients = 2;
      v->push_back(m);
    }
    {
      MixSpec m;
      m.name = "switchy";
      m.summary = "in-band STARTPFX switches racing a concurrent RPC stream";
      m.switch_conns = 2;
      m.rpc_conns = 1;
      v->push_back(m);
    }
    {
      MixSpec m;
      m.name = "mixed";
      m.summary = "every protocol flavor at once";
      m.rpc_conns = 2;
      m.line_conns = 1;
      m.noisy_line_conns = 1;
      m.switch_conns = 1;
      m.dns_clients = 1;
      v->push_back(m);
    }
    return v;
  }();
  return *mixes;
}

const MixSpec* FindTrafficMix(const std::string& name) {
  for (const MixSpec& m : TrafficMixes()) {
    if (m.name == name) {
      return &m;
    }
  }
  return nullptr;
}

TrafficMix::TrafficMix(const MixSpec& spec, uint64_t seed) : spec_(spec), seed_(seed) {
  rpc_sent_.assign(spec_.rpc_conns, 0);
  rpc_acked_.assign(spec_.rpc_conns, 0);
  rpc_served_.assign(spec_.rpc_conns, 0);
  rpc_completed_.assign(spec_.rpc_conns, 0);
  rpc_client_err_.assign(spec_.rpc_conns, 0);
  rpc_server_err_.assign(spec_.rpc_conns, 0);
  const int lconns = spec_.line_conns + spec_.noisy_line_conns;
  lines_sent_.assign(lconns, 0);
  lines_ok_.assign(lconns, 0);
  lines_bad_.assign(lconns, 0);
  lines_served_.assign(lconns, 0);
  line_client_err_.assign(lconns, 0);
  line_server_err_.assign(lconns, 0);
  switch_client_done_.assign(spec_.switch_conns, 0);
  switch_server_done_.assign(spec_.switch_conns, 0);
  switch_pre_ok_.assign(spec_.switch_conns, 0);
  switch_rpc_acked_.assign(spec_.switch_conns, 0);
  switch_served_.assign(spec_.switch_conns, 0);
  switch_completed_.assign(spec_.switch_conns, 0);
  switch_client_err_.assign(spec_.switch_conns, 0);
  switch_server_err_.assign(spec_.switch_conns, 0);
  dns_resolved_.assign(spec_.dns_clients, 0);
  dns_failed_.assign(spec_.dns_clients, 0);
  dns_tx_.assign(spec_.dns_clients, 0);
}

int TrafficMix::apps_total() const {
  return 2 * spec_.rpc_conns + 2 * (spec_.line_conns + spec_.noisy_line_conns) +
         2 * spec_.switch_conns + (spec_.dns_clients > 0 ? spec_.dns_clients + 1 : 0);
}

void TrafficMix::Launch(World* w, std::function<void()> app_done) {
  // --- RPC over pfx: one listener per connection, pipelined client.
  const size_t rpc_max_msg = kRpcHeaderLen + spec_.rpc_max_payload;
  for (int k = 0; k < spec_.rpc_conns; k++) {
    const uint16_t port = static_cast<uint16_t>(kRpcPortBase + k);
    w->SpawnApp(1, "mix-rpcsrv" + std::to_string(k), [this, w, app_done, k, port, rpc_max_msg] {
      SocketApi* api = w->api(1);
      int lfd = *api->CreateSocket(IpProto::kTcp);
      api->Bind(lfd, SockAddrIn{Ipv4Addr::Any(), port});
      api->Listen(lfd, 1);
      Result<int> cfd = api->Accept(lfd, nullptr);
      if (cfd.ok()) {
        SockByteStream bs(api, *cfd);
        PfxStream pfx(&bs, rpc_max_msg, &server_);
        Result<uint64_t> served = RpcServeLoop(&pfx, spec_.rpc_max_payload, &server_);
        if (served.ok()) {
          rpc_served_[k] = *served;
        } else {
          rpc_server_err_[k] = static_cast<int>(served.error());
        }
        api->Close(*cfd);
      }
      api->Close(lfd);
      app_done();
    });
    w->SpawnApp(0, "mix-rpc" + std::to_string(k), [this, w, app_done, k, port, rpc_max_msg] {
      SocketApi* api = w->api(0);
      int fd = *api->CreateSocket(IpProto::kTcp);
      w->sim().current_thread()->SleepFor(Millis(2 + k));
      if (api->Connect(fd, SockAddrIn{w->addr(1), port}).ok()) {
        SockByteStream bs(api, fd);
        PfxStream pfx(&bs, rpc_max_msg, &client_);
        RpcClientOutcome out = RpcRunPipelined(
            &pfx, ConnSeed(seed_, 1, k), /*conn_tag=*/1000 + static_cast<uint64_t>(k),
            spec_.rpc_calls, spec_.rpc_window, spec_.rpc_min_payload, spec_.rpc_max_payload,
            &client_);
        rpc_sent_[k] = out.sent;
        rpc_acked_[k] = out.acked;
        rpc_completed_[k] = out.completed ? 1 : 0;
        rpc_client_err_[k] = static_cast<int>(out.error);
      }
      api->Close(fd);
      app_done();
    });
  }

  // --- CRLF echo: lockstep send/expect-echo. Noisy clients precede their
  // lines with one overlong terminated garbage burst; the server's
  // resync-mode parser must skip it (exactly one resync), the client's own
  // strict parser never sees it.
  const int lconns = spec_.line_conns + spec_.noisy_line_conns;
  for (int k = 0; k < lconns; k++) {
    const uint16_t port = static_cast<uint16_t>(kLinePortBase + k);
    const bool noisy = k >= spec_.line_conns;
    w->SpawnApp(1, "mix-linesrv" + std::to_string(k), [this, w, app_done, k, port] {
      SocketApi* api = w->api(1);
      int lfd = *api->CreateSocket(IpProto::kTcp);
      api->Bind(lfd, SockAddrIn{Ipv4Addr::Any(), port});
      api->Listen(lfd, 1);
      Result<int> cfd = api->Accept(lfd, nullptr);
      if (cfd.ok()) {
        SockByteStream bs(api, *cfd);
        CrlfStream crlf(&bs, spec_.max_line, &server_, /*resync=*/true);
        std::vector<uint8_t> line(spec_.max_line);
        for (;;) {
          Result<size_t> n = crlf.RecvMsg(line.data(), line.size());
          if (!n.ok()) {
            if (n.error() != Err::kEof) {
              line_server_err_[k] = static_cast<int>(n.error());
            }
            break;
          }
          if (!crlf.SendMsg(line.data(), *n).ok()) {
            break;
          }
          lines_served_[k]++;
        }
        api->Close(*cfd);
      }
      api->Close(lfd);
      app_done();
    });
    w->SpawnApp(0, "mix-line" + std::to_string(k), [this, w, app_done, k, port, noisy] {
      SocketApi* api = w->api(0);
      int fd = *api->CreateSocket(IpProto::kTcp);
      w->sim().current_thread()->SleepFor(Millis(3 + k));
      if (api->Connect(fd, SockAddrIn{w->addr(1), port}).ok()) {
        SockByteStream bs(api, fd);
        Rng gen = Rng::Stream(ConnSeed(seed_, 2, k), 0);
        if (noisy) {
          // Longer than the line bound so the server cannot mistake it for
          // a line, terminated so resync has a boundary to find.
          std::vector<uint8_t> garbage(spec_.max_line + 16);
          for (uint8_t& b : garbage) {
            b = static_cast<uint8_t>('a' + gen.Below(26));
          }
          WriteFull(&bs, garbage.data(), garbage.size());
          static const uint8_t kCrlf[2] = {'\r', '\n'};
          WriteFull(&bs, kCrlf, 2);
        }
        CrlfStream crlf(&bs, spec_.max_line, &client_, /*resync=*/false);
        std::vector<uint8_t> line(spec_.max_line);
        std::vector<uint8_t> echo(spec_.max_line);
        for (int i = 0; i < spec_.lines_per_conn; i++) {
          size_t len = 1 + gen.Below(spec_.max_line - 1);
          FillLine(&gen, line.data(), len);
          if (!crlf.SendMsg(line.data(), len).ok()) {
            line_client_err_[k] = static_cast<int>(Err::kPipe);
            break;
          }
          lines_sent_[k]++;
          Result<size_t> n = crlf.RecvMsg(echo.data(), echo.size());
          if (!n.ok()) {
            line_client_err_[k] = static_cast<int>(n.error());
            break;
          }
          if (*n == len && std::memcmp(echo.data(), line.data(), len) == 0) {
            lines_ok_[k]++;
          } else {
            lines_bad_[k]++;  // a delivered echo that isn't verbatim
          }
        }
      }
      api->Close(fd);
      app_done();
    });
  }

  // --- In-band switch: echoed lines, then STARTPFX hands the live
  // connection to pfx framing, then RPC runs over the successor.
  const size_t switch_max_msg = kRpcHeaderLen + kSwitchRpcPayload;
  for (int k = 0; k < spec_.switch_conns; k++) {
    const uint16_t port = static_cast<uint16_t>(kSwitchPortBase + k);
    w->SpawnApp(1, "mix-swsrv" + std::to_string(k), [this, w, app_done, k, port, switch_max_msg] {
      SocketApi* api = w->api(1);
      int lfd = *api->CreateSocket(IpProto::kTcp);
      api->Bind(lfd, SockAddrIn{Ipv4Addr::Any(), port});
      api->Listen(lfd, 1);
      Result<int> cfd = api->Accept(lfd, nullptr);
      if (cfd.ok()) {
        SockByteStream bs(api, *cfd);
        CrlfStream crlf(&bs, kSwitchMaxLine, &server_, /*resync=*/false);
        std::vector<uint8_t> line(kSwitchMaxLine);
        const size_t req_len = std::strlen(kSwitchRequest);
        for (;;) {
          Result<size_t> n = crlf.RecvMsg(line.data(), line.size());
          if (!n.ok()) {
            if (n.error() != Err::kEof) {
              switch_server_err_[k] = static_cast<int>(n.error());
            }
            break;
          }
          if (*n == req_len && std::memcmp(line.data(), kSwitchRequest, req_len) == 0) {
            auto pfx = AcceptSwitch(&crlf, &bs, switch_max_msg, &server_);
            if (!pfx.ok()) {
              switch_server_err_[k] = static_cast<int>(pfx.error());
              break;
            }
            Result<uint64_t> served = RpcServeLoop(pfx->get(), kSwitchRpcPayload, &server_);
            if (served.ok()) {
              switch_served_[k] = *served;
            } else {
              switch_server_err_[k] = static_cast<int>(served.error());
            }
            break;
          }
          if (!crlf.SendMsg(line.data(), *n).ok()) {
            break;
          }
        }
        api->Close(*cfd);
      }
      api->Close(lfd);
      switch_server_done_[k] = 1;
      app_done();
    });
    w->SpawnApp(0, "mix-sw" + std::to_string(k), [this, w, app_done, k, port, switch_max_msg] {
      SocketApi* api = w->api(0);
      int fd = *api->CreateSocket(IpProto::kTcp);
      w->sim().current_thread()->SleepFor(Millis(4 + k));
      Result<void> cr = api->Connect(fd, SockAddrIn{w->addr(1), port});
      if (cr.ok()) {
        SockByteStream bs(api, fd);
        CrlfStream crlf(&bs, kSwitchMaxLine, &client_, /*resync=*/false);
        Rng gen = Rng::Stream(ConnSeed(seed_, 3, k), 0);
        std::vector<uint8_t> line(kSwitchMaxLine);
        std::vector<uint8_t> echo(kSwitchMaxLine);
        for (int i = 0; i < spec_.switch_pre_lines; i++) {
          size_t len = 1 + gen.Below(kSwitchMaxLine - 1);
          FillLine(&gen, line.data(), len);
          if (!crlf.SendMsg(line.data(), len).ok()) {
            break;
          }
          Result<size_t> n = crlf.RecvMsg(echo.data(), echo.size());
          if (!n.ok()) {
            switch_client_err_[k] = static_cast<int>(n.error());
            break;
          }
          if (*n == len && std::memcmp(echo.data(), line.data(), len) == 0) {
            switch_pre_ok_[k]++;
          }
        }
        auto pfx = RequestSwitch(&crlf, &bs, switch_max_msg, &client_);
        if (pfx.ok()) {
          switch_completed_[k] = 1;
          RpcClientOutcome out = RpcRunPipelined(
              pfx->get(), ConnSeed(seed_, 4, k), /*conn_tag=*/2000 + static_cast<uint64_t>(k),
              spec_.switch_rpc_calls, /*window=*/4, 0, kSwitchRpcPayload, &client_);
          switch_rpc_acked_[k] = out.acked;
          if (out.error != Err::kOk) {
            switch_client_err_[k] = static_cast<int>(out.error);
          }
        } else {
          switch_client_err_[k] = static_cast<int>(pfx.error());
        }
      }
      api->Close(fd);
      switch_client_done_[k] = 1;
      app_done();
    });
  }

  // --- DNS-like UDP query/retry: one server socket, per-client sockets.
  if (spec_.dns_clients > 0) {
    w->SpawnApp(1, "mix-dnssrv", [this, w, app_done] {
      SocketApi* api = w->api(1);
      int fd = *api->CreateSocket(IpProto::kUdp);
      api->SetOpt(fd, SockOpt::kRcvBuf, 64 * 1024);
      api->Bind(fd, SockAddrIn{Ipv4Addr::Any(), kDnsPort});
      SockDgram dg(api, fd);
      dns_answered_ = DnsServeLoop(&dg, &dns_stop_, Millis(100), &server_);
      api->Close(fd);
      app_done();
    });
    for (int c = 0; c < spec_.dns_clients; c++) {
      w->SpawnApp(0, "mix-dns" + std::to_string(c), [this, w, app_done, c] {
        SocketApi* api = w->api(0);
        int fd = *api->CreateSocket(IpProto::kUdp);
        api->Bind(fd, SockAddrIn{Ipv4Addr::Any(),
                                 static_cast<uint16_t>(kDnsClientPortBase + c)});
        SockDgram dg(api, fd);
        w->sim().current_thread()->SleepFor(Millis(10 + c));
        SockAddrIn server{w->addr(1), kDnsPort};
        for (int q = 0; q < spec_.dns_queries; q++) {
          uint64_t id = (static_cast<uint64_t>(c) << 16) | static_cast<uint64_t>(q);
          DnsOutcome out = DnsResolve(&dg, server, id, seed_, spec_.dns_payload,
                                      spec_.dns_retries, spec_.dns_timeout, &client_);
          dns_tx_[c] += static_cast<uint64_t>(out.transmissions);
          if (out.resolved) {
            dns_resolved_[c]++;
          } else {
            dns_failed_[c]++;
          }
        }
        api->Close(fd);
        dns_clients_finished_++;
        if (dns_clients_finished_ == spec_.dns_clients) {
          dns_stop_ = true;  // the server exits after one quiet poll window
        }
        app_done();
      });
    }
  }
}

uint64_t TrafficMix::ProgressSignature() const {
  uint64_t sig = client_.msgs_in + client_.msgs_out + client_.bytes_in + client_.bytes_out +
                 server_.msgs_in + server_.msgs_out + server_.bytes_in + server_.bytes_out +
                 client_.dns_queries + client_.dns_retries + client_.dns_answers +
                 client_.dns_failures + client_.dns_stale + server_.resyncs +
                 client_.switch_completed + server_.switch_completed;
  for (uint64_t v : dns_tx_) {
    sig += v;
  }
  return sig;
}

void TrafficMix::CheckInvariants(bool complete, std::vector<std::string>* failures) const {
  auto fail = [failures](const std::string& msg) { failures->push_back(msg); };

  // (6) rpc id bijection and content validity — valid even mid-run: a
  // mismatched or corrupt reply is wrong no matter when it shows up.
  if (client_.rpc_id_mismatch != 0) {
    fail("mix-rpc: " + std::to_string(client_.rpc_id_mismatch) +
         " responses named no outstanding call");
  }
  if (client_.rpc_bad_payload != 0) {
    fail("mix-rpc: " + std::to_string(client_.rpc_bad_payload) +
         " responses failed content validation");
  }
  for (size_t k = 0; k < rpc_served_.size(); k++) {
    if (rpc_server_err_[k] != 0) {
      fail("mix-rpc: server " + std::to_string(k) + " died with err " +
           std::to_string(rpc_server_err_[k]));
    }
  }
  if (complete) {
    for (size_t k = 0; k < rpc_completed_.size(); k++) {
      if (rpc_completed_[k] != 1) {
        fail("mix-rpc: conn " + std::to_string(k) + " incomplete (" +
             std::to_string(rpc_acked_[k]) + "/" + std::to_string(rpc_sent_[k]) + " acked, err " +
             std::to_string(rpc_client_err_[k]) + ")");
      } else if (rpc_served_[k] != rpc_sent_[k]) {
        fail("mix-rpc: conn " + std::to_string(k) + " server served " +
             std::to_string(rpc_served_[k]) + " of " + std::to_string(rpc_sent_[k]) + " calls");
      }
    }
  }

  // (7) framing hygiene: TCP hands adapters a reliable byte stream (the
  // wire's corruption is caught below by checksums), so no adapter may
  // ever be poisoned; and resyncs happen exactly where the noisy clients
  // injected garbage — resync-or-fail, never silent desync.
  if (client_.frame_errors != 0) {
    fail("mix-framing: " + std::to_string(client_.frame_errors) +
         " client adapters poisoned on a reliable substrate");
  }
  if (server_.frame_errors != 0) {
    fail("mix-framing: " + std::to_string(server_.frame_errors) +
         " server adapters poisoned on a reliable substrate");
  }
  if (client_.resyncs != 0) {
    fail("mix-framing: client strict parsers resynced " + std::to_string(client_.resyncs) +
         " times");
  }
  for (size_t k = 0; k < lines_sent_.size(); k++) {
    if (lines_bad_[k] != 0) {
      fail("mix-lines: conn " + std::to_string(k) + " got " + std::to_string(lines_bad_[k]) +
           " non-verbatim echoes (of " + std::to_string(lines_sent_[k]) + " sent)");
    }
    if (line_server_err_[k] != 0) {
      fail("mix-lines: server " + std::to_string(k) + " died with err " +
           std::to_string(line_server_err_[k]));
    }
  }
  if (complete) {
    const uint64_t expect_resyncs = static_cast<uint64_t>(spec_.noisy_line_conns);
    if (server_.resyncs != expect_resyncs) {
      fail("mix-framing: server resyncs " + std::to_string(server_.resyncs) + " != " +
           std::to_string(expect_resyncs) + " injected garbage bursts");
    }
    for (size_t k = 0; k < lines_sent_.size(); k++) {
      if (lines_ok_[k] != static_cast<uint64_t>(spec_.lines_per_conn)) {
        fail("mix-lines: conn " + std::to_string(k) + " completed " +
             std::to_string(lines_ok_[k]) + "/" + std::to_string(spec_.lines_per_conn) +
             " lines (err " + std::to_string(line_client_err_[k]) + ")");
      }
    }
  }

  // (8) switch exactly-once, on both sides of every switch connection.
  if (client_.switch_refused != 0 || server_.switch_refused != 0) {
    fail("mix-switch: " + std::to_string(client_.switch_refused + server_.switch_refused) +
         " handshakes refused");
  }
  if (complete) {
    const uint64_t conns = static_cast<uint64_t>(spec_.switch_conns);
    if (client_.switch_completed != conns || server_.switch_completed != conns) {
      fail("mix-switch: completed client=" + std::to_string(client_.switch_completed) +
           " server=" + std::to_string(server_.switch_completed) + ", expected " +
           std::to_string(conns) + " each (exactly once per connection)");
    }
    for (size_t k = 0; k < switch_completed_.size(); k++) {
      if (switch_completed_[k] != 1) {
        fail("mix-switch: conn " + std::to_string(k) + " never switched (err " +
             std::to_string(switch_client_err_[k]) + ")");
      } else {
        if (switch_pre_ok_[k] != static_cast<uint64_t>(spec_.switch_pre_lines)) {
          fail("mix-switch: conn " + std::to_string(k) + " pre-switch lines " +
               std::to_string(switch_pre_ok_[k]) + "/" + std::to_string(spec_.switch_pre_lines));
        }
        if (switch_rpc_acked_[k] != static_cast<uint64_t>(spec_.switch_rpc_calls) ||
            switch_served_[k] != static_cast<uint64_t>(spec_.switch_rpc_calls)) {
          fail("mix-switch: conn " + std::to_string(k) + " post-switch rpc acked " +
               std::to_string(switch_rpc_acked_[k]) + " served " +
               std::to_string(switch_served_[k]) + " of " +
               std::to_string(spec_.switch_rpc_calls));
        }
      }
      if (switch_server_err_[k] != 0) {
        fail("mix-switch: server " + std::to_string(k) + " died with err " +
             std::to_string(switch_server_err_[k]));
      }
    }
  }

  // (9) dns accounting: UDP checksums mean a corrupted answer never
  // reaches the client, so every accepted answer must validate; loss may
  // exhaust the retry budget but never un-balance the books.
  if (client_.dns_bad != 0) {
    fail("mix-dns: " + std::to_string(client_.dns_bad) + " content-invalid answers reached a client");
  }
  if (complete) {
    for (size_t c = 0; c < dns_resolved_.size(); c++) {
      if (dns_resolved_[c] + dns_failed_[c] != static_cast<uint64_t>(spec_.dns_queries)) {
        fail("mix-dns: client " + std::to_string(c) + " resolved " +
             std::to_string(dns_resolved_[c]) + " + failed " + std::to_string(dns_failed_[c]) +
             " != " + std::to_string(spec_.dns_queries) + " issued");
      }
      if (dns_tx_[c] < dns_resolved_[c] + dns_failed_[c]) {
        fail("mix-dns: client " + std::to_string(c) + " sent fewer datagrams than queries");
      }
    }
  }
}

void TrafficMix::Report(std::ostream& os) const {
  os << "mix: name=" << spec_.name << " apps=" << apps_total() << "\n";
  if (spec_.rpc_conns > 0) {
    uint64_t sent = 0, acked = 0, served = 0;
    int completed = 0;
    for (size_t k = 0; k < rpc_sent_.size(); k++) {
      sent += rpc_sent_[k];
      acked += rpc_acked_[k];
      served += rpc_served_[k];
      completed += rpc_completed_[k];
    }
    os << "mix-rpc: conns=" << spec_.rpc_conns << " sent=" << sent << " acked=" << acked
       << " served=" << served << " completed=" << completed << "/" << spec_.rpc_conns
       << " id-mismatch=" << client_.rpc_id_mismatch << " bad-payload=" << client_.rpc_bad_payload
       << "\n";
  }
  if (!lines_sent_.empty()) {
    uint64_t sent = 0, ok = 0, bad = 0, served = 0;
    for (size_t k = 0; k < lines_sent_.size(); k++) {
      sent += lines_sent_[k];
      ok += lines_ok_[k];
      bad += lines_bad_[k];
      served += lines_served_[k];
    }
    os << "mix-lines: conns=" << lines_sent_.size() << " noisy=" << spec_.noisy_line_conns
       << " sent=" << sent << " ok=" << ok << " bad=" << bad << " served=" << served
       << " resyncs=" << server_.resyncs << "\n";
  }
  if (spec_.switch_conns > 0) {
    uint64_t pre = 0, acked = 0, served = 0;
    int completed = 0;
    for (size_t k = 0; k < switch_completed_.size(); k++) {
      pre += switch_pre_ok_[k];
      acked += switch_rpc_acked_[k];
      served += switch_served_[k];
      completed += switch_completed_[k];
    }
    os << "mix-switch: conns=" << spec_.switch_conns << " completed=" << completed
       << " pre-lines=" << pre << " rpc-acked=" << acked << " served=" << served
       << " started=c" << client_.switch_started << "/s" << server_.switch_started
       << " refused=" << client_.switch_refused + server_.switch_refused << "\n";
  }
  if (spec_.dns_clients > 0) {
    uint64_t resolved = 0, failed = 0, tx = 0;
    for (size_t c = 0; c < dns_resolved_.size(); c++) {
      resolved += dns_resolved_[c];
      failed += dns_failed_[c];
      tx += dns_tx_[c];
    }
    os << "mix-dns: clients=" << spec_.dns_clients << " queries="
       << static_cast<uint64_t>(spec_.dns_clients) * static_cast<uint64_t>(spec_.dns_queries)
       << " resolved=" << resolved << " failed=" << failed << " tx=" << tx
       << " answered=" << dns_answered_ << " stale=" << client_.dns_stale
       << " bad=" << client_.dns_bad << "\n";
  }
  os << "mix-proto: client msgs=" << client_.msgs_in << "/" << client_.msgs_out
     << " bytes=" << client_.bytes_in << "/" << client_.bytes_out
     << " frame-errors=" << client_.frame_errors << "; server msgs=" << server_.msgs_in << "/"
     << server_.msgs_out << " bytes=" << server_.bytes_in << "/" << server_.bytes_out
     << " frame-errors=" << server_.frame_errors << "\n";
}

void TrafficMix::ExportStats(StatsRegistry* reg) const {
  client_.ExportStats(reg, "proto.client");
  server_.ExportStats(reg, "proto.server");
}

}  // namespace psd
