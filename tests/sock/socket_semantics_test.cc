// BSD socket semantics: blocking behaviour, EOF, shutdown, peek, errors,
// the ten data-movement veneers, and socket options.
#include <gtest/gtest.h>

#include "src/api/bsd.h"
#include "src/sock/socket.h"
#include "src/testbed/world.h"

namespace psd {
namespace {

class SockTest : public ::testing::Test {
 protected:
  SockTest() : w(Config::kInKernel, MachineProfile::DecStation5000()) {}
  World w;
};

TEST_F(SockTest, RecvPeekDoesNotConsume) {
  std::string first, second;
  w.SpawnApp(1, "rx", [&] {
    SocketApi* api = w.api(1);
    int lfd = *api->CreateSocket(IpProto::kTcp);
    api->Bind(lfd, SockAddrIn{Ipv4Addr::Any(), 5001});
    api->Listen(lfd, 1);
    Result<int> cfd = api->Accept(lfd, nullptr);
    ASSERT_TRUE(cfd.ok());
    uint8_t buf[16];
    Result<size_t> n = api->Recv(*cfd, buf, 5, nullptr, /*peek=*/true);
    ASSERT_TRUE(n.ok());
    first.assign(buf, buf + *n);
    n = api->Recv(*cfd, buf, 5, nullptr, false);
    ASSERT_TRUE(n.ok());
    second.assign(buf, buf + *n);
  });
  w.SpawnApp(0, "tx", [&] {
    SocketApi* api = w.api(0);
    int fd = *api->CreateSocket(IpProto::kTcp);
    w.sim().current_thread()->SleepFor(Millis(5));
    ASSERT_TRUE(api->Connect(fd, SockAddrIn{w.addr(1), 5001}).ok());
    api->Send(fd, reinterpret_cast<const uint8_t*>("hello"), 5, nullptr);
  });
  w.sim().Run(Seconds(10));
  EXPECT_EQ(first, "hello");
  EXPECT_EQ(second, "hello");
}

// The two call families of the one socket data path: classic Send/Recv
// (parameter false), and NEWAPI SendShared/RecvChain (true). NEWAPI runs in
// Library-SHM-IPF, where an application-managed session reaches Socket's
// shared-buffer calls (the other placements answer them with SocketApi's
// copying fallbacks).
class SockFamilyTest : public ::testing::TestWithParam<bool> {
 protected:
  SockFamilyTest()
      : w(newapi() ? Config::kLibraryShmIpf : Config::kInKernel,
          MachineProfile::DecStation5000()) {}

  static bool newapi() { return GetParam(); }

  // Sends `s` on `fd` through the family's send call, after checking that
  // NEWAPI will take the shared-buffer path.
  Result<size_t> Send(int host, int fd, const std::string& s) {
    SocketApi* api = w.api(host);
    if (!newapi()) {
      return api->Send(fd, reinterpret_cast<const uint8_t*>(s.data()), s.size());
    }
    EXPECT_TRUE(w.library_node(host)->IsAppManaged(fd));
    auto buf = std::make_shared<const std::vector<uint8_t>>(s.begin(), s.end());
    return api->SendShared(fd, buf, 0, buf->size());
  }

  // Receives at most `max` bytes from `fd` through the family's receive
  // call: "" at EOF (an empty Chain for NEWAPI).
  Result<std::string> Recv(int host, int fd, size_t max) {
    SocketApi* api = w.api(host);
    std::string out(max, '\0');
    if (!newapi()) {
      Result<size_t> n = api->Recv(fd, reinterpret_cast<uint8_t*>(out.data()), max);
      if (!n.ok()) {
        return n.error();
      }
      out.resize(*n);
      return out;
    }
    EXPECT_TRUE(w.library_node(host)->IsAppManaged(fd));
    Result<Chain> c = api->RecvChain(fd, max);
    if (!c.ok()) {
      return c.error();
    }
    out.resize(c->len());
    c->CopyOut(0, reinterpret_cast<uint8_t*>(out.data()), out.size());
    return out;
  }

  World w;
};

INSTANTIATE_TEST_SUITE_P(CallFamilies, SockFamilyTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "NewApi" : "Classic";
                         });

TEST_P(SockFamilyTest, ShutdownWriteDeliversEofButAllowsRead) {
  bool checked = false;
  w.SpawnApp(1, "rx", [&] {
    SocketApi* api = w.api(1);
    int lfd = *api->CreateSocket(IpProto::kTcp);
    api->Bind(lfd, SockAddrIn{Ipv4Addr::Any(), 5001});
    api->Listen(lfd, 1);
    Result<int> cfd = api->Accept(lfd, nullptr);
    ASSERT_TRUE(cfd.ok());
    // Peer shut down its write side: we see EOF...
    Result<std::string> got = Recv(1, *cfd, 8);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, "");
    // ...but can still send to it (half-close).
    Result<size_t> s = Send(1, *cfd, "bye");
    EXPECT_TRUE(s.ok());
    api->Close(*cfd);
  });
  w.SpawnApp(0, "tx", [&] {
    SocketApi* api = w.api(0);
    int fd = *api->CreateSocket(IpProto::kTcp);
    w.sim().current_thread()->SleepFor(Millis(5));
    ASSERT_TRUE(api->Connect(fd, SockAddrIn{w.addr(1), 5001}).ok());
    ASSERT_TRUE(api->Shutdown(fd, false, true).ok());
    Result<std::string> got = Recv(0, fd, 8);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, "bye");
    checked = true;
  });
  w.sim().Run(Seconds(20));
  EXPECT_TRUE(checked);
}

TEST_P(SockFamilyTest, SendAfterShutdownIsPipe) {
  bool checked = false;
  w.SpawnApp(1, "rx", [&] {
    SocketApi* api = w.api(1);
    int lfd = *api->CreateSocket(IpProto::kTcp);
    api->Bind(lfd, SockAddrIn{Ipv4Addr::Any(), 5001});
    api->Listen(lfd, 1);
    api->Accept(lfd, nullptr);
    w.sim().current_thread()->SleepFor(Seconds(5));
  });
  w.SpawnApp(0, "tx", [&] {
    SocketApi* api = w.api(0);
    int fd = *api->CreateSocket(IpProto::kTcp);
    w.sim().current_thread()->SleepFor(Millis(5));
    ASSERT_TRUE(api->Connect(fd, SockAddrIn{w.addr(1), 5001}).ok());
    api->Shutdown(fd, false, true);
    Result<size_t> r = Send(0, fd, "\x01");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error(), Err::kPipe);
    checked = true;
  });
  w.sim().Run(Seconds(20));
  EXPECT_TRUE(checked);
}

// A connected UDP socket's pending error (ICMP port unreachable from a port
// nobody listens on) is what the next receive returns, through either call.
TEST_F(SockTest, PendingUdpErrorReachesRecvAndRecvChain) {
  bool checked = false;
  w.SpawnApp(0, "tx", [&] {
    // Drive the socket layer directly: In-Kernel answers the NEWAPI calls
    // with SocketApi's copying fallbacks.
    Socket sock(w.kernel_node(0)->stack(), IpProto::kUdp);
    ASSERT_TRUE(sock.Connect(SockAddrIn{w.addr(1), 4444}).ok());
    uint8_t b[4] = {};
    ASSERT_TRUE(sock.Send(b, sizeof(b)).ok());
    Result<size_t> n = sock.Recv(b, sizeof(b));
    ASSERT_FALSE(n.ok());
    EXPECT_EQ(n.error(), Err::kConnRefused);
    ASSERT_TRUE(sock.Send(b, sizeof(b)).ok());
    Result<Chain> c = sock.RecvChain(sizeof(b));
    ASSERT_FALSE(c.ok());
    EXPECT_EQ(c.error(), Err::kConnRefused);
    sock.Close();
    checked = true;
  });
  w.sim().Run(Seconds(10));
  EXPECT_TRUE(checked);
}

// Close wakes a caller blocked in the receive wait, which then fails with
// EBADF instead of reading a pcb that is gone.
TEST_F(SockTest, CloseWakesBlockedRecvWithBadF) {
  std::unique_ptr<Socket> sock;
  Err err = Err::kOk;
  w.SpawnApp(0, "reader", [&] {
    sock = std::make_unique<Socket>(w.kernel_node(0)->stack(), IpProto::kUdp);
    uint8_t b[4];
    err = sock->Recv(b, sizeof(b)).error();
  });
  w.SpawnApp(0, "closer", [&] {
    w.sim().current_thread()->SleepFor(Millis(5));
    ASSERT_TRUE(sock->Close().ok());
  });
  w.sim().Run(Seconds(1));
  EXPECT_EQ(err, Err::kBadF);
}

TEST_F(SockTest, BindToTakenPortIsAddrInUse) {
  bool checked = false;
  w.SpawnApp(0, "app", [&] {
    SocketApi* api = w.api(0);
    int a = *api->CreateSocket(IpProto::kUdp);
    int b = *api->CreateSocket(IpProto::kUdp);
    ASSERT_TRUE(api->Bind(a, SockAddrIn{Ipv4Addr::Any(), 9000}).ok());
    Result<void> r = api->Bind(b, SockAddrIn{Ipv4Addr::Any(), 9000});
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error(), Err::kAddrInUse);
    // Closing releases the name for reuse.
    api->Close(a);
    EXPECT_TRUE(api->Bind(b, SockAddrIn{Ipv4Addr::Any(), 9000}).ok());
    checked = true;
  });
  w.sim().Run(Seconds(5));
  EXPECT_TRUE(checked);
}

TEST_F(SockTest, TenDataMovementCalls) {
  // The paper's "ten different ways to move data through a session" (§3.2):
  // send/sendto/sendmsg/write/writev and recv/recvfrom/recvmsg/read/readv.
  bool checked = false;
  w.SpawnApp(1, "rx", [&] {
    BsdApi bsd(w.api(1));
    int fd = *bsd.socket(IpProto::kUdp);
    bsd.bind(fd, SockAddrIn{Ipv4Addr::Any(), 9100});

    uint8_t b1[16], b2[16];
    // recv
    EXPECT_EQ(*bsd.recv(fd, b1, sizeof(b1)), 2u);
    // recvfrom
    SockAddrIn from;
    EXPECT_EQ(*bsd.recvfrom(fd, b1, sizeof(b1), &from), 2u);
    EXPECT_EQ(from.addr, w.addr(0));
    // read
    EXPECT_EQ(*bsd.read(fd, b1, sizeof(b1)), 2u);
    // readv (datagram semantics: each element consumes one datagram)
    std::vector<IoVec> iov = {{b1, 1}, {b2, 1}};
    EXPECT_EQ(*bsd.readv(fd, iov), 2u);
    // recvmsg
    MsgHdr mh;
    mh.name = &from;
    mh.iov = {{b1, 2}};
    EXPECT_EQ(*bsd.recvmsg(fd, &mh), 2u);
    checked = true;
  });
  w.SpawnApp(0, "tx", [&] {
    BsdApi bsd(w.api(0));
    int fd = *bsd.socket(IpProto::kUdp);
    SockAddrIn dst{w.addr(1), 9100};
    bsd.api()->Connect(fd, dst);
    w.sim().current_thread()->SleepFor(Millis(10));
    uint8_t payload[2] = {0xaa, 0xbb};
    // send (connected)
    EXPECT_TRUE(bsd.send(fd, payload, 2).ok());
    // sendto
    EXPECT_TRUE(bsd.sendto(fd, payload, 2, dst).ok());
    // write
    EXPECT_TRUE(bsd.write(fd, payload, 2).ok());
    // writev (one datagram per vector element for UDP)
    std::vector<IoVec> iov = {{payload, 2}, {payload, 2}};
    EXPECT_TRUE(bsd.writev(fd, iov).ok());
    // sendmsg
    MsgHdr mh;
    mh.name = &dst;
    mh.iov = {{payload, 1}, {payload + 1, 1}};
    EXPECT_TRUE(bsd.sendmsg(fd, mh).ok());
  });
  w.sim().Run(Seconds(10));
  EXPECT_TRUE(checked);
}

TEST_F(SockTest, SmallBuffersThrottleSender) {
  // A 2KB receive buffer forces the window shut until the reader drains.
  bool done = false;
  w.SpawnApp(1, "rx", [&] {
    SocketApi* api = w.api(1);
    int lfd = *api->CreateSocket(IpProto::kTcp);
    api->SetOpt(lfd, SockOpt::kRcvBuf, 2048);
    api->Bind(lfd, SockAddrIn{Ipv4Addr::Any(), 5001});
    api->Listen(lfd, 1);
    Result<int> cfd = api->Accept(lfd, nullptr);
    ASSERT_TRUE(cfd.ok());
    size_t got = 0;
    uint8_t buf[512];
    while (got < 20 * 1024) {
      // Slow reader.
      w.sim().current_thread()->SleepFor(Millis(5));
      Result<size_t> n = api->Recv(*cfd, buf, sizeof(buf), nullptr, false);
      if (!n.ok() || *n == 0) {
        break;
      }
      got += *n;
    }
    done = got == 20 * 1024;
  });
  w.SpawnApp(0, "tx", [&] {
    SocketApi* api = w.api(0);
    int fd = *api->CreateSocket(IpProto::kTcp);
    w.sim().current_thread()->SleepFor(Millis(5));
    ASSERT_TRUE(api->Connect(fd, SockAddrIn{w.addr(1), 5001}).ok());
    std::vector<uint8_t> data(20 * 1024, 0x71);
    size_t sent = 0;
    while (sent < data.size()) {
      Result<size_t> n = api->Send(fd, data.data() + sent, data.size() - sent, nullptr);
      ASSERT_TRUE(n.ok());
      sent += *n;
    }
    api->Close(fd);
  });
  w.sim().Run(Seconds(120));
  EXPECT_TRUE(done);
}

TEST_F(SockTest, UrgentDataTravelsInline) {
  // Out-of-band data (tcp_output URG flag + urgent pointer) is delivered
  // inline to the reader, BSD style.
  bool got = false;
  w.SpawnApp(1, "rx", [&] {
    SocketApi* api = w.api(1);
    int lfd = *api->CreateSocket(IpProto::kTcp);
    api->Bind(lfd, SockAddrIn{Ipv4Addr::Any(), 5001});
    api->Listen(lfd, 1);
    Result<int> cfd = api->Accept(lfd, nullptr);
    ASSERT_TRUE(cfd.ok());
    uint8_t buf[8];
    Result<size_t> n = api->Recv(*cfd, buf, sizeof(buf), nullptr, false);
    got = n.ok() && *n == 3 && buf[2] == 0x99;
  });
  w.SpawnApp(0, "tx", [&] {
    // Drive the socket layer directly to reach the urgent-send interface.
    Socket sock(w.kernel_node(0)->stack(), IpProto::kTcp);
    w.sim().current_thread()->SleepFor(Millis(5));
    ASSERT_TRUE(sock.Connect(SockAddrIn{w.addr(1), 5001}).ok());
    TcpPcb* pcb = sock.tcp_pcb();
    uint32_t up_before = pcb->snd_up;
    uint8_t oob[3] = {1, 2, 0x99};
    ASSERT_TRUE(sock.Send(oob, 3, nullptr, /*urgent=*/true).ok());
    EXPECT_TRUE(SeqGt(pcb->snd_up, up_before)) << "urgent pointer must advance";
    w.sim().current_thread()->SleepFor(Seconds(1));
    sock.Close();
  });
  w.sim().Run(Seconds(10));
  EXPECT_TRUE(got);
}

}  // namespace
}  // namespace psd
