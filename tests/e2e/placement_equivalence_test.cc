// Differential testing across protocol placements: the same seeded workload
// run under the same fault plan must produce the same application-observable
// outcome in every system configuration of Table 2. Where the service lives
// (kernel, server, or library) may change timing and cost, but never what
// the application sees.
#include <gtest/gtest.h>

#include <vector>

#include "src/base/rng.h"
#include "src/obs/journey.h"
#include "src/proto/framing.h"
#include "src/proto/rpc.h"
#include "src/testbed/world.h"

namespace psd {
namespace {

constexpr Config kAllConfigs[] = {
    Config::kInKernel, Config::kServer, Config::kLibraryIpc, Config::kLibraryShm,
    Config::kLibraryShmIpf,
};

uint64_t FnvInit() { return 14695981039346656037ULL; }
void FnvAdd(uint64_t* h, const uint8_t* p, size_t n) {
  for (size_t i = 0; i < n; i++) {
    *h = (*h ^ p[i]) * 1099511628211ULL;
  }
}

struct TcpOutcome {
  bool completed = false;
  size_t bytes = 0;
  uint64_t digest = 0;
  uint64_t journey_conflicts = 0;
  uint64_t wire_in_flight = 0;
};

// One seeded TCP transfer under a lossy, delaying wire. Returns what the
// receiving application observed.
TcpOutcome RunLossyTcp(Config config, uint64_t seed) {
  TcpOutcome out;
  {
    World w(config, MachineProfile::DecStation5000());
    FaultPlan plan;
    plan.loss_rate = 0.03;
    plan.delay_rate = 0.05;
    plan.extra_delay = Millis(3);
    plan.seed = seed;
    w.wire().SetFaults(plan);

    constexpr size_t kTotal = 32 * 1024;
    w.SpawnApp(1, "rx", [&] {
      SocketApi* api = w.api(1);
      int lfd = *api->CreateSocket(IpProto::kTcp);
      ASSERT_TRUE(api->Bind(lfd, SockAddrIn{Ipv4Addr::Any(), 5003}).ok());
      ASSERT_TRUE(api->Listen(lfd, 5).ok());
      Result<int> cfd = api->Accept(lfd, nullptr);
      ASSERT_TRUE(cfd.ok());
      uint8_t buf[4096];
      uint64_t h = FnvInit();
      for (;;) {
        Result<size_t> n = api->Recv(*cfd, buf, sizeof(buf), nullptr, false);
        ASSERT_TRUE(n.ok()) << ErrName(n.error());
        if (*n == 0) {
          break;
        }
        FnvAdd(&h, buf, *n);
        out.bytes += *n;
      }
      out.digest = h;
      api->Close(*cfd);
      api->Close(lfd);
      out.completed = true;
    });
    w.SpawnApp(0, "tx", [&] {
      SocketApi* api = w.api(0);
      int fd = *api->CreateSocket(IpProto::kTcp);
      w.sim().current_thread()->SleepFor(Millis(10));
      ASSERT_TRUE(api->Connect(fd, SockAddrIn{w.addr(1), 5003}).ok());
      Rng content = Rng::Stream(seed, 1000);
      std::vector<uint8_t> data(kTotal);
      for (uint8_t& b : data) {
        b = static_cast<uint8_t>(content.Below(256));
      }
      size_t sent = 0;
      while (sent < data.size()) {
        Result<size_t> n = api->Send(fd, data.data() + sent, data.size() - sent, nullptr);
        ASSERT_TRUE(n.ok()) << ErrName(n.error());
        sent += *n;
      }
      api->Close(fd);
    });
    w.sim().Run(Seconds(300));
    out.journey_conflicts = w.obs().journey.conflicts();
    out.wire_in_flight = w.obs().journey.in_flight();
  }
  return out;
}

// Every placement delivers the identical byte stream — same length, same
// digest — and keeps the journey books clean, even though each placement
// sees different frame timing and different retransmission patterns.
TEST(PlacementEquivalence, LossyTcpStreamIsIdenticalEverywhere) {
  constexpr uint64_t kSeed = 20260806;

  // Reference digest, computed straight from the seeded generator.
  Rng content = Rng::Stream(kSeed, 1000);
  uint64_t want = FnvInit();
  for (size_t i = 0; i < 32 * 1024; i++) {
    uint8_t b = static_cast<uint8_t>(content.Below(256));
    FnvAdd(&want, &b, 1);
  }

  for (Config c : kAllConfigs) {
    TcpOutcome got = RunLossyTcp(c, kSeed);
    EXPECT_TRUE(got.completed) << ConfigName(c);
    EXPECT_EQ(got.bytes, 32u * 1024) << ConfigName(c);
    EXPECT_EQ(got.digest, want) << ConfigName(c);
    EXPECT_EQ(got.journey_conflicts, 0u) << ConfigName(c);
    EXPECT_EQ(got.wire_in_flight, 0u) << ConfigName(c);
  }
}

// On a fault-free wire, UDP is a deterministic transport in this simulator:
// every placement must deliver all datagrams, intact and in send order.
TEST(PlacementEquivalence, CleanUdpSequenceIsIdenticalEverywhere) {
  constexpr int kCount = 40;
  constexpr size_t kPayload = 128;
  std::vector<std::vector<uint8_t>> sequences;  // first byte of each datagram

  for (Config c : kAllConfigs) {
    std::vector<uint8_t> seq_tags;
    int intact = 0;
    {
      World w(c, MachineProfile::DecStation5000());
      bool tx_done = false;
      w.SpawnApp(1, "rx", [&] {
        SocketApi* api = w.api(1);
        int fd = *api->CreateSocket(IpProto::kUdp);
        ASSERT_TRUE(api->Bind(fd, SockAddrIn{Ipv4Addr::Any(), 9001}).ok());
        uint8_t buf[1024];
        for (;;) {
          SelectFds fds;
          fds.read.push_back(fd);
          Result<int> sel = api->Select(&fds, Millis(200));
          if (!sel.ok() || *sel == 0) {
            if (tx_done) {
              break;
            }
            continue;
          }
          Result<size_t> n = api->Recv(fd, buf, sizeof(buf), nullptr, false);
          ASSERT_TRUE(n.ok());
          ASSERT_EQ(*n, kPayload);
          seq_tags.push_back(buf[0]);
          Rng r = Rng::Stream(4242, buf[0]);
          bool ok = true;
          for (size_t i = 1; i < kPayload; i++) {
            ok = ok && buf[i] == static_cast<uint8_t>(r.Below(256));
          }
          intact += ok ? 1 : 0;
        }
        api->Close(fd);
      });
      w.SpawnApp(0, "tx", [&] {
        SocketApi* api = w.api(0);
        int fd = *api->CreateSocket(IpProto::kUdp);
        SockAddrIn dst{w.addr(1), 9001};
        w.sim().current_thread()->SleepFor(Millis(10));
        for (int i = 0; i < kCount; i++) {
          uint8_t p[kPayload];
          p[0] = static_cast<uint8_t>(i);
          Rng r = Rng::Stream(4242, static_cast<uint64_t>(i));
          for (size_t j = 1; j < kPayload; j++) {
            p[j] = static_cast<uint8_t>(r.Below(256));
          }
          ASSERT_TRUE(api->Send(fd, p, kPayload, &dst).ok());
          w.sim().current_thread()->SleepFor(Millis(3));
        }
        api->Close(fd);
        tx_done = true;
      });
      w.sim().Run(Seconds(30));
    }
    EXPECT_EQ(seq_tags.size(), static_cast<size_t>(kCount)) << ConfigName(c);
    EXPECT_EQ(intact, kCount) << ConfigName(c);
    sequences.push_back(seq_tags);
  }

  // Differential: all five placements saw the exact same arrival sequence.
  for (size_t i = 1; i < sequences.size(); i++) {
    EXPECT_EQ(sequences[i], sequences[0]) << ConfigName(kAllConfigs[i]);
  }
}

struct RpcTranscript {
  bool completed = false;
  uint64_t client_digest = 0;  // every response message, arrival order
  uint64_t server_digest = 0;  // every request message, arrival order
  uint64_t served = 0;
};

// Framed RPC (length-prefix framing + pipelined request/response) over a
// lossy wire. Both ends digest every whole message they receive; TCP's
// ordering guarantee makes those transcripts placement-independent even
// though retransmission patterns differ.
RpcTranscript RunFramedRpc(Config config, uint64_t seed) {
  RpcTranscript out;
  constexpr int kCalls = 24;
  constexpr int kWindow = 6;
  constexpr size_t kMaxPayload = 300;
  World w(config, MachineProfile::DecStation5000());
  FaultPlan plan;
  plan.loss_rate = 0.02;
  plan.delay_rate = 0.05;
  plan.extra_delay = Millis(2);
  plan.seed = seed;
  w.wire().SetFaults(plan);

  w.SpawnApp(1, "rpcsrv", [&] {
    SocketApi* api = w.api(1);
    int lfd = *api->CreateSocket(IpProto::kTcp);
    ASSERT_TRUE(api->Bind(lfd, SockAddrIn{Ipv4Addr::Any(), 5004}).ok());
    ASSERT_TRUE(api->Listen(lfd, 1).ok());
    Result<int> cfd = api->Accept(lfd, nullptr);
    ASSERT_TRUE(cfd.ok());
    SockByteStream bs(api, *cfd);
    PfxStream pfx(&bs, 4096);
    std::vector<uint8_t> msg(kRpcHeaderLen + kMaxPayload);
    uint64_t h = FnvInit();
    for (;;) {
      Result<size_t> n = pfx.RecvMsg(msg.data(), msg.size());
      if (!n.ok()) {
        ASSERT_EQ(n.error(), Err::kEof) << ErrName(n.error());
        break;
      }
      ASSERT_GE(*n, kRpcHeaderLen);
      ASSERT_EQ(msg[8], kRpcRequest);
      FnvAdd(&h, msg.data(), *n);
      for (size_t i = kRpcHeaderLen; i < *n; i++) {
        msg[i] ^= kRpcTransform;
      }
      msg[8] = kRpcResponse;
      ASSERT_TRUE(pfx.SendMsg(msg.data(), *n).ok());
      out.served++;
    }
    out.server_digest = h;
    api->Close(*cfd);
    api->Close(lfd);
  });
  w.SpawnApp(0, "rpccli", [&] {
    SocketApi* api = w.api(0);
    int fd = *api->CreateSocket(IpProto::kTcp);
    w.sim().current_thread()->SleepFor(Millis(10));
    ASSERT_TRUE(api->Connect(fd, SockAddrIn{w.addr(1), 5004}).ok());
    SockByteStream bs(api, fd);
    PfxStream pfx(&bs, 4096);
    std::vector<uint8_t> req(kRpcHeaderLen + kMaxPayload);
    std::vector<uint8_t> resp(kRpcHeaderLen + kMaxPayload);
    uint64_t h = FnvInit();
    int outstanding = 0;
    uint64_t got = 0;
    auto recv_one = [&] {
      Result<size_t> n = pfx.RecvMsg(resp.data(), resp.size());
      ASSERT_TRUE(n.ok()) << ErrName(n.error());
      FnvAdd(&h, resp.data(), *n);
      outstanding--;
      got++;
    };
    for (int i = 0; i < kCalls; i++) {
      while (outstanding >= kWindow) {
        recv_one();
      }
      Rng gen = Rng::Stream(seed, 500 + static_cast<uint64_t>(i));
      size_t len = gen.Below(kMaxPayload + 1);
      for (int b = 0; b < 8; b++) {
        req[b] = static_cast<uint8_t>(static_cast<uint64_t>(i) >> (8 * b));
      }
      req[8] = kRpcRequest;
      for (size_t b = 0; b < len; b++) {
        req[kRpcHeaderLen + b] = static_cast<uint8_t>(gen.Next());
      }
      ASSERT_TRUE(pfx.SendMsg(req.data(), kRpcHeaderLen + len).ok());
      outstanding++;
    }
    while (outstanding > 0) {
      recv_one();
    }
    out.client_digest = h;
    out.completed = got == kCalls;
    api->Close(fd);
  });
  w.sim().Run(Seconds(300));
  return out;
}

// The full framed-RPC transcript — every request the server parsed and every
// response the client parsed, in order — is identical across all five
// placements under the same lossy fault plan.
TEST(PlacementEquivalence, FramedRpcTranscriptIsIdenticalEverywhere) {
  constexpr uint64_t kSeed = 20260808;
  std::vector<RpcTranscript> transcripts;
  for (Config c : kAllConfigs) {
    RpcTranscript t = RunFramedRpc(c, kSeed);
    EXPECT_TRUE(t.completed) << ConfigName(c);
    EXPECT_EQ(t.served, 24u) << ConfigName(c);
    transcripts.push_back(t);
  }
  for (size_t i = 1; i < transcripts.size(); i++) {
    EXPECT_EQ(transcripts[i].client_digest, transcripts[0].client_digest)
        << ConfigName(kAllConfigs[i]);
    EXPECT_EQ(transcripts[i].server_digest, transcripts[0].server_digest)
        << ConfigName(kAllConfigs[i]);
  }
}

}  // namespace
}  // namespace psd
