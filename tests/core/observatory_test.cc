// Observatory end-to-end tests: the live-migration round trip
// (ReturnToServer + Reacquire) must preserve the byte stream while the
// metastate ledger records every handover phase, and the client-side RPC
// counters must reconcile with the server-side per-op recorders.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/obs/metastate.h"
#include "src/testbed/world.h"

namespace psd {
namespace {

// A session that is handed back to the OS server mid-transfer and then
// live-reacquired keeps its byte stream intact; the ledger sees the second
// server->app migration's phases and the client counts the reacquire RPC.
TEST(Observatory, LiveMigrationRoundTripPreservesByteStream) {
  World w(Config::kLibraryShm, MachineProfile::DecStation5000());
  constexpr size_t kTotal = 48 * 1024;
  bool rx_ok = false;

  w.SpawnApp(1, "rx", [&] {
    SocketApi* api = w.api(1);
    int lfd = *api->CreateSocket(IpProto::kTcp);
    api->Bind(lfd, SockAddrIn{Ipv4Addr::Any(), 5001});
    api->Listen(lfd, 1);
    Result<int> cfd = api->Accept(lfd, nullptr);
    ASSERT_TRUE(cfd.ok());
    size_t got = 0;
    bool content_ok = true;
    uint8_t buf[2048];
    for (;;) {
      Result<size_t> n = api->Recv(*cfd, buf, sizeof(buf), nullptr, false);
      if (!n.ok() || *n == 0) {
        break;
      }
      for (size_t i = 0; i < *n; i++) {
        content_ok &= buf[i] == static_cast<uint8_t>((got + i) % 251);
      }
      got += *n;
    }
    rx_ok = content_ok && got == kTotal;
  });

  w.SpawnApp(0, "tx", [&] {
    LibraryNode* node = w.library_node(0);
    w.sim().current_thread()->SleepFor(Millis(10));
    int fd = *node->CreateSocket(IpProto::kTcp);
    ASSERT_TRUE(node->Connect(fd, SockAddrIn{w.addr(1), 5001}).ok());
    EXPECT_TRUE(node->IsAppManaged(fd));
    std::vector<uint8_t> data(kTotal);
    for (size_t i = 0; i < kTotal; i++) {
      data[i] = static_cast<uint8_t>(i % 251);
    }
    size_t sent = 0;
    bool migrated = false;
    while (sent < kTotal) {
      size_t chunk = std::min<size_t>(4096, kTotal - sent);
      Result<size_t> n = node->Send(fd, data.data() + sent, chunk, nullptr);
      ASSERT_TRUE(n.ok()) << ErrName(n.error());
      sent += *n;
      if (!migrated && sent >= kTotal / 2) {
        // The live-migration round trip bench_c10k --migrate performs:
        // hand the established session (with unacknowledged data) back to
        // the server, then immediately reacquire it.
        ASSERT_TRUE(node->ReturnToServer(fd).ok());
        EXPECT_FALSE(node->IsAppManaged(fd));
        ASSERT_TRUE(node->Reacquire(fd).ok());
        EXPECT_TRUE(node->IsAppManaged(fd));
        migrated = true;
      }
    }
    node->Close(fd);
    EXPECT_TRUE(migrated);
  });

  w.sim().Run(Seconds(120));
  EXPECT_TRUE(rx_ok) << "migrated connection lost or corrupted data";

  // Connect migrated the session out once, the round trip moved it in and
  // back out again, and the clean close handed it back a second time
  // (Table 1: return session to the operating system).
  EXPECT_EQ(w.net_server(0)->migrations_out(), 2u);
  EXPECT_EQ(w.net_server(0)->migrations_in(), 2u);

  // World-wide: host 0's connect adopt + reacquire adopt and host 1's
  // accept adopt leave a server (3 outs); host 0's mid-stream return and
  // close-time return re-adopt (2 ins).
  MetastateLedger& meta = w.obs().meta;
  EXPECT_EQ(meta.total(MetaEvent::kMigrationOut), 3u);
  EXPECT_EQ(meta.total(MetaEvent::kMigrationIn), 2u);
  // Both server->app migrations (connect adopt, reacquire adopt) ran the
  // full phase pipeline; the client-observed transfer/resume legs fire on
  // the same two adoptions.
  EXPECT_EQ(w.net_server(0)->MergedRpcStats()
                .op(static_cast<size_t>(
                    ProxyOpSlot(static_cast<uint32_t>(ProxyOp::kProxyReacquire))))
                .count,
            1u);
  EXPECT_GE(meta.phase(MigrationPhase::kFreeze).count(), 2u);
  EXPECT_GE(meta.phase(MigrationPhase::kEncode).count(), 2u);
  EXPECT_GE(meta.phase(MigrationPhase::kInstall).count(), 2u);
  EXPECT_GE(meta.phase(MigrationPhase::kTransfer).count(), 2u);
  EXPECT_GE(meta.phase(MigrationPhase::kResume).count(), 2u);
  EXPECT_GT(meta.phase(MigrationPhase::kTransfer).max(), 0)
      << "the transfer leg crosses an RPC and must take virtual time";

  // The client-side amplification counter saw the reacquire op exactly once.
  const RpcClientCounter& calls = w.library(0)->rpc_calls();
  EXPECT_EQ(calls.count(static_cast<size_t>(
                ProxyOpSlot(static_cast<uint32_t>(ProxyOp::kProxyReacquire)))),
            1u);
}

// The library's client-side counter and the OS server's per-worker
// recorders are written independently (API layer vs worker fibers); at
// quiescence they must describe the same message stream.
TEST(Observatory, LibraryClientAndServerRpcAccountsReconcile) {
  World w(Config::kLibraryShm, MachineProfile::DecStation5000());
  bool done = false;

  w.SpawnApp(1, "rx", [&] {
    SocketApi* api = w.api(1);
    int lfd = *api->CreateSocket(IpProto::kTcp);
    api->Bind(lfd, SockAddrIn{Ipv4Addr::Any(), 6001});
    api->Listen(lfd, 2);
    for (int i = 0; i < 2; i++) {
      Result<int> cfd = api->Accept(lfd, nullptr);
      if (!cfd.ok()) {
        return;
      }
      uint8_t buf[512];
      while (true) {
        Result<size_t> n = api->Recv(*cfd, buf, sizeof(buf), nullptr, false);
        if (!n.ok() || *n == 0) {
          break;
        }
      }
      api->Close(*cfd);
    }
  });

  w.SpawnApp(0, "tx", [&] {
    LibraryNode* node = w.library_node(0);
    w.sim().current_thread()->SleepFor(Millis(5));
    for (int i = 0; i < 2; i++) {
      int fd = *node->CreateSocket(IpProto::kTcp);
      ASSERT_TRUE(node->Connect(fd, SockAddrIn{w.addr(1), 6001}).ok());
      uint8_t payload[256] = {0xab};
      ASSERT_TRUE(node->Send(fd, payload, sizeof(payload), nullptr).ok());
      node->Close(fd);
    }
    done = true;
  });

  w.sim().Run(Seconds(60));
  ASSERT_TRUE(done);

  const RpcClientCounter& client = w.library(0)->rpc_calls();
  const RpcOpRecorder& server = w.net_server(0)->MergedRpcStats();
  EXPECT_GT(client.total(), 0u);
  EXPECT_EQ(server.unknown(), 0u) << "server saw a message kind it could not map";
  EXPECT_EQ(client.total(), server.total_count() + server.unknown())
      << "client-side and server-side RPC accounts diverged";
  // Spot-check a per-op row both sides must agree on.
  size_t connect_slot =
      static_cast<size_t>(ProxyOpSlot(static_cast<uint32_t>(ProxyOp::kProxyConnect)));
  EXPECT_EQ(client.count(connect_slot), 2u);
  EXPECT_EQ(server.op(connect_slot).count, 2u);
  // Queue-wait/service split: every recorded op has both histograms filled.
  EXPECT_EQ(server.op(connect_slot).queue_wait.count(), 2u);
  EXPECT_EQ(server.op(connect_slot).service.count(), 2u);
  EXPECT_GT(server.op(connect_slot).service.total(), 0);
}

// Same reconciliation for the UX server placement: every socket call is an
// RPC, so the client counter equals the server's merged per-op total.
TEST(Observatory, UxClientAndServerRpcAccountsReconcile) {
  World w(Config::kServer, MachineProfile::DecStation5000());
  bool done = false;

  w.SpawnApp(1, "rx", [&] {
    SocketApi* api = w.api(1);
    int lfd = *api->CreateSocket(IpProto::kTcp);
    api->Bind(lfd, SockAddrIn{Ipv4Addr::Any(), 6002});
    api->Listen(lfd, 1);
    Result<int> cfd = api->Accept(lfd, nullptr);
    if (!cfd.ok()) {
      return;
    }
    uint8_t buf[512];
    while (true) {
      Result<size_t> n = api->Recv(*cfd, buf, sizeof(buf), nullptr, false);
      if (!n.ok() || *n == 0) {
        break;
      }
    }
    api->Close(*cfd);
  });

  w.SpawnApp(0, "tx", [&] {
    SocketApi* api = w.api(0);
    w.sim().current_thread()->SleepFor(Millis(5));
    int fd = *api->CreateSocket(IpProto::kTcp);
    ASSERT_TRUE(api->Connect(fd, SockAddrIn{w.addr(1), 6002}).ok());
    uint8_t payload[128] = {0x5a};
    ASSERT_TRUE(api->Send(fd, payload, sizeof(payload), nullptr).ok());
    api->Close(fd);
    done = true;
  });

  w.sim().Run(Seconds(60));
  ASSERT_TRUE(done);

  uint64_t client_total =
      w.ux_node(0)->rpc_calls().total() + w.ux_node(1)->rpc_calls().total();
  const RpcOpRecorder& server0 = w.ux_server(0)->MergedRpcStats();
  const RpcOpRecorder& server1 = w.ux_server(1)->MergedRpcStats();
  EXPECT_GT(client_total, 0u);
  EXPECT_EQ(server0.unknown() + server1.unknown(), 0u);
  EXPECT_EQ(client_total, server0.total_count() + server1.total_count())
      << "UX client and server RPC accounts diverged";
  // The sender's connect is exactly one RPC on the op's own row.
  size_t connect_slot = static_cast<size_t>(
      ServOpSlot(static_cast<uint32_t>(ServOp::kConnect)));
  EXPECT_EQ(server0.op(connect_slot).count + server1.op(connect_slot).count, 1u);
}

}  // namespace
}  // namespace psd
