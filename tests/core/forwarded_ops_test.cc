// Forwarded socket ops (kProxyFwd*): after PrepareFork every descriptor is
// server-managed, so each socket call travels to the OS server as a proxy
// RPC and runs on the server's own socket. The test drives every forwarded
// op against a live peer and checks both the call's result and the server's
// per-op RPC row.
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "src/testbed/world.h"

namespace psd {
namespace {

const RpcOpStats& Row(const RpcOpRecorder& rec, ProxyOp op) {
  return rec.op(static_cast<size_t>(ProxyOpSlot(static_cast<uint32_t>(op))));
}

TEST(ForwardedOps, EveryForwardedOpRunsOnTheServerSocket) {
  World w(Config::kLibraryShmIpf, MachineProfile::DecStation5000());
  const std::string hello = "hello, forwarded";  // 16 bytes
  const std::string data = "client stream bytes";
  const std::string dgram = "udp over the server";
  bool fwd_done = false;
  bool peer_done = false;

  w.SpawnApp(0, "fwd", [&] {
    LibraryNode* node = w.library_node(0);
    int lfd = *node->CreateSocket(IpProto::kTcp);
    int cfd = *node->CreateSocket(IpProto::kTcp);
    int rfd = *node->CreateSocket(IpProto::kTcp);
    int ufd = *node->CreateSocket(IpProto::kUdp);
    // Binding a UDP session migrates it into the library; PrepareFork hands
    // it back, so the server holds a live UDP socket for it.
    ASSERT_TRUE(node->Bind(ufd, SockAddrIn{Ipv4Addr::Any(), 7000}).ok());
    ASSERT_TRUE(node->PrepareFork().ok());
    for (int fd : {lfd, cfd, rfd, ufd}) {
      EXPECT_FALSE(node->IsAppManaged(fd));
    }

    // bind, localaddr, listen.
    ASSERT_TRUE(node->Bind(lfd, SockAddrIn{Ipv4Addr::Any(), 5001}).ok());
    Result<void> in_use = node->Bind(cfd, SockAddrIn{Ipv4Addr::Any(), 5001});
    ASSERT_FALSE(in_use.ok());
    EXPECT_EQ(in_use.error(), Err::kAddrInUse);
    EXPECT_EQ(node->LocalAddr(lfd).port, 5001);
    ASSERT_TRUE(node->Listen(lfd, 4).ok());
    Result<void> udp_listen = node->Listen(ufd, 1);
    ASSERT_FALSE(udp_listen.ok());
    EXPECT_EQ(udp_listen.error(), Err::kOpNotSupp);

    // accept, recv (peek, then consume), setopt, send, shutdown.
    SockAddrIn peer;
    Result<int> afd = node->Accept(lfd, &peer);
    ASSERT_TRUE(afd.ok()) << ErrName(afd.error());
    EXPECT_FALSE(node->IsAppManaged(*afd));
    EXPECT_EQ(peer.addr, w.addr(1));
    EXPECT_NE(peer.port, 0);
    SockAddrIn local = node->LocalAddr(*afd);
    EXPECT_EQ(local.addr, w.addr(0));
    EXPECT_EQ(local.port, 5001);
    char buf[64];
    Result<size_t> peeked = node->Recv(*afd, reinterpret_cast<uint8_t*>(buf), sizeof(buf),
                                       nullptr, /*peek=*/true);
    ASSERT_TRUE(peeked.ok());
    ASSERT_EQ(*peeked, hello.size());
    EXPECT_EQ(std::string(buf, *peeked), hello);
    std::memset(buf, 0, sizeof(buf));
    Result<size_t> got = node->Recv(*afd, reinterpret_cast<uint8_t*>(buf), sizeof(buf), nullptr,
                                    /*peek=*/false);
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(*got, hello.size());
    EXPECT_EQ(std::string(buf, *got), hello);
    EXPECT_TRUE(node->SetOpt(*afd, SockOpt::kNoDelay, 1).ok());
    Result<size_t> echoed = node->Send(*afd, reinterpret_cast<const uint8_t*>(hello.data()),
                                       hello.size(), nullptr);
    ASSERT_TRUE(echoed.ok());
    EXPECT_EQ(*echoed, hello.size());
    EXPECT_TRUE(node->Shutdown(*afd, /*rd=*/false, /*wr=*/true).ok());
    Result<size_t> after_shutdown =
        node->Send(*afd, reinterpret_cast<const uint8_t*>(hello.data()), hello.size(), nullptr);
    ASSERT_FALSE(after_shutdown.ok());
    EXPECT_EQ(after_shutdown.error(), Err::kPipe);

    // connect (refused, then established), send.
    Result<void> refused = node->Connect(rfd, SockAddrIn{w.addr(1), 6099});
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.error(), Err::kConnRefused);
    ASSERT_TRUE(node->Connect(cfd, SockAddrIn{w.addr(1), 6001}).ok());
    EXPECT_FALSE(node->IsAppManaged(cfd));
    SockAddrIn clocal = node->LocalAddr(cfd);
    EXPECT_EQ(clocal.addr, w.addr(0));
    EXPECT_NE(clocal.port, 0);
    Result<size_t> sent = node->Send(cfd, reinterpret_cast<const uint8_t*>(data.data()),
                                     data.size(), nullptr);
    ASSERT_TRUE(sent.ok());
    EXPECT_EQ(*sent, data.size());

    // UDP: send with an explicit destination, receive with the source.
    SockAddrIn to{w.addr(1), 7001};
    Result<size_t> usent =
        node->Send(ufd, reinterpret_cast<const uint8_t*>(dgram.data()), dgram.size(), &to);
    ASSERT_TRUE(usent.ok());
    EXPECT_EQ(*usent, dgram.size());
    SockAddrIn from;
    std::memset(buf, 0, sizeof(buf));
    Result<size_t> ugot =
        node->Recv(ufd, reinterpret_cast<uint8_t*>(buf), sizeof(buf), &from, /*peek=*/false);
    ASSERT_TRUE(ugot.ok());
    ASSERT_EQ(*ugot, hello.size());
    EXPECT_EQ(std::string(buf, *ugot), hello);
    EXPECT_EQ(from.addr, w.addr(1));
    EXPECT_EQ(from.port, 7001);

    // close.
    for (int fd : {*afd, cfd, rfd, lfd, ufd}) {
      EXPECT_TRUE(node->Close(fd).ok());
    }
    EXPECT_EQ(w.net_server(0)->session_count(), 0u);
    // The forwarded close released the UDP session's port name: a fresh
    // socket can bind it again.
    EXPECT_FALSE(w.net_server(0)->stack()->ports().InUse(7000));
    int ufd2 = *node->CreateSocket(IpProto::kUdp);
    Result<void> rebind = node->Bind(ufd2, SockAddrIn{Ipv4Addr::Any(), 7000});
    EXPECT_TRUE(rebind.ok()) << ErrName(rebind.error());
    EXPECT_TRUE(node->Close(ufd2).ok());
    fwd_done = true;
  });

  w.SpawnApp(1, "peer", [&] {
    SocketApi* api = w.api(1);
    int u = *api->CreateSocket(IpProto::kUdp);
    ASSERT_TRUE(api->Bind(u, SockAddrIn{Ipv4Addr::Any(), 7001}).ok());
    int l = *api->CreateSocket(IpProto::kTcp);
    ASSERT_TRUE(api->Bind(l, SockAddrIn{Ipv4Addr::Any(), 6001}).ok());
    ASSERT_TRUE(api->Listen(l, 2).ok());
    w.sim().current_thread()->SleepFor(Millis(200));

    int c = *api->CreateSocket(IpProto::kTcp);
    ASSERT_TRUE(api->Connect(c, SockAddrIn{w.addr(0), 5001}).ok());
    ASSERT_TRUE(
        api->Send(c, reinterpret_cast<const uint8_t*>(hello.data()), hello.size(), nullptr).ok());
    std::string echo;
    char buf[64];
    for (;;) {
      Result<size_t> n = api->Recv(c, reinterpret_cast<uint8_t*>(buf), sizeof(buf), nullptr,
                                   false);
      ASSERT_TRUE(n.ok());
      if (*n == 0) {
        break;  // the forwarded shutdown's FIN
      }
      echo.append(buf, *n);
    }
    EXPECT_EQ(echo, hello);
    api->Close(c);

    SockAddrIn cpeer;
    Result<int> a = api->Accept(l, &cpeer);
    ASSERT_TRUE(a.ok());
    EXPECT_EQ(cpeer.addr, w.addr(0));
    std::string stream;
    while (stream.size() < data.size()) {
      Result<size_t> n = api->Recv(*a, reinterpret_cast<uint8_t*>(buf), sizeof(buf), nullptr,
                                   false);
      ASSERT_TRUE(n.ok());
      ASSERT_GT(*n, 0u);
      stream.append(buf, *n);
    }
    EXPECT_EQ(stream, data);

    SockAddrIn from;
    Result<size_t> n =
        api->Recv(u, reinterpret_cast<uint8_t*>(buf), sizeof(buf), &from, false);
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(std::string(buf, *n), dgram);
    EXPECT_EQ(from.addr, w.addr(0));
    EXPECT_EQ(from.port, 7000);
    ASSERT_TRUE(
        api->Send(u, reinterpret_cast<const uint8_t*>(hello.data()), hello.size(), &from).ok());
    peer_done = true;
  });

  w.sim().Run(Seconds(30));
  ASSERT_TRUE(fwd_done);
  ASSERT_TRUE(peer_done);

  const RpcOpRecorder& rec = w.net_server(0)->MergedRpcStats();
  EXPECT_EQ(rec.unknown(), 0u);
  EXPECT_EQ(Row(rec, ProxyOp::kProxyFwdBind).count, 2u);
  EXPECT_EQ(Row(rec, ProxyOp::kProxyFwdBind).bytes_in, 2u * 6);  // one address each
  EXPECT_EQ(Row(rec, ProxyOp::kProxyFwdBind).bytes_out, 6u);     // the bound address
  EXPECT_EQ(Row(rec, ProxyOp::kProxyFwdListen).count, 2u);
  EXPECT_EQ(Row(rec, ProxyOp::kProxyFwdAccept).count, 1u);
  EXPECT_EQ(Row(rec, ProxyOp::kProxyFwdAccept).bytes_out, 6u);  // the peer address
  EXPECT_EQ(Row(rec, ProxyOp::kProxyFwdConnect).count, 2u);
  EXPECT_EQ(Row(rec, ProxyOp::kProxyFwdConnect).bytes_in, 2u * 6);
  EXPECT_EQ(Row(rec, ProxyOp::kProxyFwdSend).count, 4u);
  EXPECT_EQ(Row(rec, ProxyOp::kProxyFwdSend).bytes_in,
            2 * hello.size() + data.size() + dgram.size());
  EXPECT_EQ(Row(rec, ProxyOp::kProxyFwdRecv).count, 3u);
  EXPECT_EQ(Row(rec, ProxyOp::kProxyFwdRecv).bytes_out, 3 * hello.size());
  EXPECT_EQ(Row(rec, ProxyOp::kProxyFwdSetOpt).count, 1u);
  EXPECT_EQ(Row(rec, ProxyOp::kProxyFwdShutdown).count, 1u);
  EXPECT_EQ(Row(rec, ProxyOp::kProxyFwdLocalAddr).count, 3u);
  EXPECT_EQ(Row(rec, ProxyOp::kProxyFwdLocalAddr).bytes_out, 3u * 6);
  EXPECT_EQ(Row(rec, ProxyOp::kProxyFwdClose).count, 5u);
  // The descriptors reached the server through one proxy bind and one
  // session return, and nothing migrated back out; the rebind of port 7000
  // adds one more of each (its bind, and its close's return).
  EXPECT_EQ(Row(rec, ProxyOp::kProxyBind).count, 2u);
  EXPECT_EQ(Row(rec, ProxyOp::kProxyReturn).count, 2u);
  EXPECT_EQ(Row(rec, ProxyOp::kProxyReacquire).count, 0u);
}

}  // namespace
}  // namespace psd
