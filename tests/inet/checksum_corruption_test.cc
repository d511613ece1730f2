// Checksum-vs-corruption property tests.
//
// The fault injector's contract (EthernetSegment::CorruptFrame) is that
// every injected corruption is detectable: 1-2 bit flips confined to one
// aligned 16-bit word can never alias the RFC 1071 ones-complement sum.
// This file proves the math exhaustively, then shows the protocol stacks
// holding the line end to end: corrupted datagrams never reach an
// application, corrupted TCP segments are retransmitted until the stream
// arrives intact, and every corrupted frame is accounted for by exactly one
// checksum/header-validation counter.
#include <gtest/gtest.h>

#include <vector>

#include "src/base/checksum.h"
#include "src/base/rng.h"
#include "src/testbed/world.h"

namespace psd {
namespace {

// Exhaustive: for every aligned 16-bit word and every 1- or 2-bit flip
// pattern within it, the Internet checksum of the buffer changes. The
// ones-complement sum is only blind to a word changing by a multiple of
// 0xFFFF; 1-2 flips move a word by at most ±0xC000, so no flip pattern the
// injector can produce is invisible.
TEST(ChecksumCorruption, AlignedWordFlipsAlwaysChangeTheSum) {
  Rng rng = Rng::Stream(1234, 0);
  std::vector<uint8_t> buf(64);
  for (uint8_t& b : buf) {
    b = static_cast<uint8_t>(rng.Below(256));
  }
  const uint16_t clean = InternetChecksum(buf.data(), buf.size());

  for (size_t w = 0; w < buf.size() / 2; w++) {
    for (int b1 = 0; b1 < 16; b1++) {
      // Single flip.
      buf[2 * w + b1 / 8] ^= static_cast<uint8_t>(1u << (b1 % 8));
      EXPECT_NE(InternetChecksum(buf.data(), buf.size()), clean)
          << "1-bit alias at word " << w << " bit " << b1;
      // Every distinct second flip in the same word.
      for (int b2 = b1 + 1; b2 < 16; b2++) {
        buf[2 * w + b2 / 8] ^= static_cast<uint8_t>(1u << (b2 % 8));
        EXPECT_NE(InternetChecksum(buf.data(), buf.size()), clean)
            << "2-bit alias at word " << w << " bits " << b1 << "," << b2;
        buf[2 * w + b2 / 8] ^= static_cast<uint8_t>(1u << (b2 % 8));
      }
      buf[2 * w + b1 / 8] ^= static_cast<uint8_t>(1u << (b1 % 8));
    }
  }
}

// Sums every checksum/header-validation drop on host `i` of `w` — the set
// of reasons a corrupted inbound frame can land in.
uint64_t ChecksumDrops(World& w, int i) {
  uint64_t total = 0;
  for (Stack* s : w.AllStacks(i)) {
    for (DropReason r : {DropReason::kIpBadHeader, DropReason::kIpBadChecksum,
                         DropReason::kTcpBadChecksum, DropReason::kUdpBadChecksum}) {
      total += w.obs().drops.total(r, s->env()->node);
    }
  }
  return total;
}

// UDP under heavy corruption: a datagram either arrives byte-exact or not
// at all, and the books reconcile — every corrupted frame shows up in
// exactly one checksum/header counter on the receiver.
TEST(ChecksumCorruption, CorruptedUdpNeverReachesTheApp) {
  World w(Config::kInKernel, MachineProfile::DecStation5000());
  FaultPlan plan;
  plan.corrupt_rate = 0.5;
  plan.corrupt_bits = 1;
  plan.seed = 99;
  w.wire().SetFaults(plan);

  constexpr int kCount = 200;
  constexpr size_t kPayload = 256;
  constexpr uint64_t kContentSeed = 0xC0FFEE;
  auto payload_for = [&](uint64_t seq) {
    std::vector<uint8_t> p(kPayload);
    Rng r = Rng::Stream(kContentSeed, seq);
    p[0] = static_cast<uint8_t>(seq);  // sequence tag, regenerable content
    for (size_t i = 1; i < p.size(); i++) {
      p[i] = static_cast<uint8_t>(r.Below(256));
    }
    return p;
  };

  int received = 0;
  int intact = 0;
  bool rx_done = false;
  bool tx_done = false;
  w.SpawnApp(1, "udp-rx", [&] {
    SocketApi* api = w.api(1);
    int fd = *api->CreateSocket(IpProto::kUdp);
    ASSERT_TRUE(api->Bind(fd, SockAddrIn{Ipv4Addr::Any(), 9000}).ok());
    uint8_t buf[2048];
    for (;;) {
      SelectFds fds;
      fds.read.push_back(fd);
      Result<int> sel = api->Select(&fds, Millis(500));
      if (!sel.ok() || *sel == 0) {
        if (tx_done) {
          break;  // sender finished and the wire went quiet
        }
        continue;
      }
      Result<size_t> n = api->Recv(fd, buf, sizeof(buf), nullptr, false);
      ASSERT_TRUE(n.ok());
      received++;
      ASSERT_EQ(*n, kPayload);
      std::vector<uint8_t> want = payload_for(buf[0]);
      if (std::equal(want.begin(), want.end(), buf)) {
        intact++;
      }
    }
    api->Close(fd);
    rx_done = true;
  });
  w.SpawnApp(0, "udp-tx", [&] {
    SocketApi* api = w.api(0);
    int fd = *api->CreateSocket(IpProto::kUdp);
    SockAddrIn dst{w.addr(1), 9000};
    w.sim().current_thread()->SleepFor(Millis(10));
    for (int i = 0; i < kCount; i++) {
      std::vector<uint8_t> p = payload_for(static_cast<uint64_t>(i));
      ASSERT_TRUE(api->Send(fd, p.data(), p.size(), &dst).ok());
      w.sim().current_thread()->SleepFor(Millis(2));
    }
    api->Close(fd);
    tx_done = true;
  });
  w.sim().Run(Seconds(30));
  ASSERT_TRUE(rx_done);

  // Nothing corrupt got through: every delivered datagram was byte-exact.
  EXPECT_EQ(intact, received);
  // Exact reconciliation: corrupt frames all died in a checksum/header
  // counter, and everything else arrived.
  uint64_t corrupted = w.wire().frames_corrupted();
  ASSERT_GT(corrupted, 0u);
  EXPECT_EQ(ChecksumDrops(w, 1), corrupted);
  EXPECT_EQ(received, kCount - static_cast<int>(corrupted));
}

// TCP under corruption: checksum drops look like loss, so the stream must
// still arrive complete and byte-exact through retransmission.
TEST(ChecksumCorruption, CorruptedTcpStreamArrivesIntact) {
  World w(Config::kInKernel, MachineProfile::DecStation5000());
  FaultPlan plan;
  plan.corrupt_rate = 0.05;
  plan.corrupt_bits = 2;
  plan.seed = 7;
  w.wire().SetFaults(plan);

  constexpr size_t kTotal = 96 * 1024;
  size_t got = 0;
  bool content_ok = true;
  bool server_done = false;
  bool client_done = false;
  w.SpawnApp(1, "tcp-rx", [&] {
    SocketApi* api = w.api(1);
    int lfd = *api->CreateSocket(IpProto::kTcp);
    ASSERT_TRUE(api->Bind(lfd, SockAddrIn{Ipv4Addr::Any(), 5002}).ok());
    ASSERT_TRUE(api->Listen(lfd, 5).ok());
    Result<int> cfd = api->Accept(lfd, nullptr);
    ASSERT_TRUE(cfd.ok());
    uint8_t buf[4096];
    for (;;) {
      Result<size_t> n = api->Recv(*cfd, buf, sizeof(buf), nullptr, false);
      ASSERT_TRUE(n.ok()) << ErrName(n.error());
      if (*n == 0) {
        break;
      }
      for (size_t i = 0; i < *n; i++) {
        content_ok = content_ok && buf[i] == static_cast<uint8_t>((got + i) * 131 % 251);
      }
      got += *n;
    }
    api->Close(*cfd);
    api->Close(lfd);
    server_done = true;
  });
  w.SpawnApp(0, "tcp-tx", [&] {
    SocketApi* api = w.api(0);
    int fd = *api->CreateSocket(IpProto::kTcp);
    w.sim().current_thread()->SleepFor(Millis(10));
    ASSERT_TRUE(api->Connect(fd, SockAddrIn{w.addr(1), 5002}).ok());
    std::vector<uint8_t> data(kTotal);
    for (size_t i = 0; i < data.size(); i++) {
      data[i] = static_cast<uint8_t>(i * 131 % 251);
    }
    size_t sent = 0;
    while (sent < data.size()) {
      Result<size_t> n = api->Send(fd, data.data() + sent, data.size() - sent, nullptr);
      ASSERT_TRUE(n.ok()) << ErrName(n.error());
      sent += *n;
    }
    api->Close(fd);
    client_done = true;
  });
  w.sim().Run(Seconds(300));

  ASSERT_TRUE(server_done);
  ASSERT_TRUE(client_done);
  EXPECT_EQ(got, kTotal);
  EXPECT_TRUE(content_ok);
  uint64_t corrupted = w.wire().frames_corrupted();
  ASSERT_GT(corrupted, 0u);
  // Both directions carry TCP, so both hosts' counters participate.
  EXPECT_EQ(ChecksumDrops(w, 0) + ChecksumDrops(w, 1), corrupted);
}

}  // namespace
}  // namespace psd
