// End-to-end integration across all protocol placements: TCP connect/
// transfer/close and UDP datagram exchange between two hosts, in every
// system configuration from Table 2.
#include <gtest/gtest.h>

#include <numeric>

#include "src/testbed/world.h"

namespace psd {
namespace {

class PlacementTest : public ::testing::TestWithParam<Config> {};

TEST_P(PlacementTest, UdpEcho) {
  World w(GetParam(), MachineProfile::DecStation5000());
  bool server_done = false;
  bool client_done = false;

  w.SpawnApp(1, "udp-server", [&] {
    SocketApi* api = w.api(1);
    int fd = *api->CreateSocket(IpProto::kUdp);
    ASSERT_TRUE(api->Bind(fd, SockAddrIn{Ipv4Addr::Any(), 7000}).ok());
    uint8_t buf[2048];
    SockAddrIn from;
    Result<size_t> n = api->Recv(fd, buf, sizeof(buf), &from, false);
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(*n, 11u);
    EXPECT_EQ(from.addr, w.addr(0));
    Result<size_t> s = api->Send(fd, buf, *n, &from);
    ASSERT_TRUE(s.ok());
    api->Close(fd);
    server_done = true;
  });

  w.SpawnApp(0, "udp-client", [&] {
    SocketApi* api = w.api(0);
    int fd = *api->CreateSocket(IpProto::kUdp);
    SockAddrIn dst{w.addr(1), 7000};
    // Give the server a head start to bind.
    w.sim().current_thread()->SleepFor(Millis(10));
    const char* msg = "hello world";
    Result<size_t> s = api->Send(fd, reinterpret_cast<const uint8_t*>(msg), 11, &dst);
    ASSERT_TRUE(s.ok()) << ErrName(s.error());
    uint8_t buf[64];
    Result<size_t> n = api->Recv(fd, buf, sizeof(buf), nullptr, false);
    ASSERT_TRUE(n.ok()) << ErrName(n.error());
    EXPECT_EQ(*n, 11u);
    EXPECT_EQ(std::string(reinterpret_cast<char*>(buf), *n), "hello world");
    api->Close(fd);
    client_done = true;
  });

  w.sim().Run(Seconds(30));
  EXPECT_TRUE(server_done);
  EXPECT_TRUE(client_done);
}

TEST_P(PlacementTest, TcpConnectTransferClose) {
  World w(GetParam(), MachineProfile::DecStation5000());
  constexpr size_t kTotal = 200 * 1024;
  bool server_done = false;
  bool client_done = false;

  w.SpawnApp(1, "tcp-server", [&] {
    SocketApi* api = w.api(1);
    int lfd = *api->CreateSocket(IpProto::kTcp);
    ASSERT_TRUE(api->Bind(lfd, SockAddrIn{Ipv4Addr::Any(), 5001}).ok());
    ASSERT_TRUE(api->Listen(lfd, 5).ok());
    SockAddrIn peer;
    Result<int> cfd = api->Accept(lfd, &peer);
    ASSERT_TRUE(cfd.ok()) << ErrName(cfd.error());
    EXPECT_EQ(peer.addr, w.addr(0));

    // Drain the byte stream; verify content (i mod 251) and count.
    size_t got = 0;
    uint64_t checksum = 0;
    uint8_t buf[4096];
    for (;;) {
      Result<size_t> n = api->Recv(*cfd, buf, sizeof(buf), nullptr, false);
      ASSERT_TRUE(n.ok()) << ErrName(n.error());
      if (*n == 0) {
        break;  // EOF
      }
      for (size_t i = 0; i < *n; i++) {
        EXPECT_EQ(buf[i], static_cast<uint8_t>((got + i) % 251));
        checksum += buf[i];
      }
      got += *n;
    }
    EXPECT_EQ(got, kTotal);
    api->Close(*cfd);
    api->Close(lfd);
    server_done = true;
  });

  w.SpawnApp(0, "tcp-client", [&] {
    SocketApi* api = w.api(0);
    int fd = *api->CreateSocket(IpProto::kTcp);
    w.sim().current_thread()->SleepFor(Millis(10));
    Result<void> c = api->Connect(fd, SockAddrIn{w.addr(1), 5001});
    ASSERT_TRUE(c.ok()) << ErrName(c.error());
    std::vector<uint8_t> data(kTotal);
    for (size_t i = 0; i < data.size(); i++) {
      data[i] = static_cast<uint8_t>(i % 251);
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

  w.sim().Run(Seconds(120));
  EXPECT_TRUE(server_done);
  EXPECT_TRUE(client_done);
}

// An event-driven server: one PollWait interest set multiplexes the listener
// and every accepted connection, in each placement (kernel trap, UX-server
// RPC, and the library placements' cooperative-select bridge).
TEST_P(PlacementTest, PollWaitDrivenAcceptAndEcho) {
  World w(GetParam(), MachineProfile::DecStation5000());
  constexpr int kClients = 3;
  int served = 0;
  int echoed = 0;

  w.SpawnApp(1, "poll-server", [&] {
    SocketApi* api = w.api(1);
    int lfd = *api->CreateSocket(IpProto::kTcp);
    ASSERT_TRUE(api->Bind(lfd, SockAddrIn{Ipv4Addr::Any(), 5001}).ok());
    ASSERT_TRUE(api->Listen(lfd, kClients).ok());
    Result<int> pfd = api->PollCreate();
    ASSERT_TRUE(pfd.ok()) << ErrName(pfd.error());
    ASSERT_TRUE(api->PollAdd(*pfd, lfd, kPollEventIn).ok());

    int open = 0;
    std::vector<PollEvent> events;
    while (served < kClients || open > 0) {
      Result<int> n = api->PollWait(*pfd, &events, Seconds(20));
      ASSERT_TRUE(n.ok()) << ErrName(n.error());
      ASSERT_GT(*n, 0) << "poll-driven server starved";
      for (const PollEvent& ev : events) {
        if (ev.fd == lfd) {
          Result<int> cfd = api->Accept(lfd, nullptr);
          ASSERT_TRUE(cfd.ok());
          ASSERT_TRUE(api->PollAdd(*pfd, *cfd, kPollEventIn).ok());
          served++;
          open++;
          continue;
        }
        uint8_t buf[64];
        Result<size_t> got = api->Recv(ev.fd, buf, sizeof(buf), nullptr, false);
        ASSERT_TRUE(got.ok());
        if (*got == 0) {  // EOF
          api->PollRemove(*pfd, ev.fd);
          api->Close(ev.fd);
          open--;
          continue;
        }
        Result<size_t> s = api->Send(ev.fd, buf, *got, nullptr);
        ASSERT_TRUE(s.ok());
      }
    }
    api->PollClose(*pfd);
    api->Close(lfd);
  });

  for (int k = 0; k < kClients; k++) {
    w.SpawnApp(0, "cli" + std::to_string(k), [&, k] {
      SocketApi* api = w.api(0);
      int fd = *api->CreateSocket(IpProto::kTcp);
      w.sim().current_thread()->SleepFor(Millis(10 + 7 * k));
      ASSERT_TRUE(api->Connect(fd, SockAddrIn{w.addr(1), 5001}).ok());
      std::string msg = "echo-" + std::to_string(k);
      ASSERT_TRUE(api->Send(fd, reinterpret_cast<const uint8_t*>(msg.data()), msg.size(),
                            nullptr).ok());
      uint8_t buf[64];
      size_t got = 0;
      while (got < msg.size()) {
        Result<size_t> n = api->Recv(fd, buf + got, sizeof(buf) - got, nullptr, false);
        ASSERT_TRUE(n.ok());
        ASSERT_GT(*n, 0u);
        got += *n;
      }
      EXPECT_EQ(std::string(buf, buf + got), msg);
      api->Close(fd);
      echoed++;
    });
  }

  w.sim().Run(Seconds(60));
  EXPECT_EQ(served, kClients);
  EXPECT_EQ(echoed, kClients);
}

// Close drops the descriptor from every poll set it was added to (epoll's
// implicit deregistration), in every placement: a closed fd is no longer a
// member, and a wait reports only the live connection.
TEST_P(PlacementTest, CloseDropsPollRegistration) {
  World w(GetParam(), MachineProfile::DecStation5000());
  constexpr int kClosed = 32;
  bool server_done = false;
  int clients_done = 0;

  w.SpawnApp(1, "poll-server", [&] {
    SocketApi* api = w.api(1);
    int lfd = *api->CreateSocket(IpProto::kTcp);
    ASSERT_TRUE(api->Bind(lfd, SockAddrIn{Ipv4Addr::Any(), 5001}).ok());
    ASSERT_TRUE(api->Listen(lfd, 2 * kClosed).ok());
    Result<int> pfd = api->PollCreate();
    ASSERT_TRUE(pfd.ok()) << ErrName(pfd.error());

    std::vector<int> fds;
    for (int i = 0; i < kClosed; i++) {
      Result<int> cfd = api->Accept(lfd, nullptr);
      ASSERT_TRUE(cfd.ok()) << ErrName(cfd.error());
      ASSERT_TRUE(api->PollAdd(*pfd, *cfd, kPollEventIn).ok());
      fds.push_back(*cfd);
    }
    for (int fd : fds) {
      ASSERT_TRUE(api->Close(fd).ok());
      Result<void> r = api->PollRemove(*pfd, fd);
      ASSERT_FALSE(r.ok()) << "fd " << fd << " still registered after Close";
      EXPECT_EQ(r.error(), Err::kBadF) << ErrName(r.error());
    }

    Result<int> live = api->Accept(lfd, nullptr);
    ASSERT_TRUE(live.ok()) << ErrName(live.error());
    ASSERT_TRUE(api->PollAdd(*pfd, *live, kPollEventIn).ok());
    std::vector<PollEvent> events;
    Result<int> n = api->PollWait(*pfd, &events, Seconds(20));
    ASSERT_TRUE(n.ok()) << ErrName(n.error());
    ASSERT_EQ(*n, 1);
    n = api->PollWait(*pfd, &events, 0);
    ASSERT_TRUE(n.ok()) << ErrName(n.error());
    ASSERT_EQ(*n, 1);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].fd, *live);
    EXPECT_EQ(events[0].events, kPollEventIn);

    api->Close(*live);
    api->PollClose(*pfd);
    api->Close(lfd);
    server_done = true;
  });

  for (int k = 0; k <= kClosed; k++) {
    w.SpawnApp(0, "cli" + std::to_string(k), [&, k] {
      SocketApi* api = w.api(0);
      int fd = *api->CreateSocket(IpProto::kTcp);
      w.sim().current_thread()->SleepFor(Millis(10 + k));
      ASSERT_TRUE(api->Connect(fd, SockAddrIn{w.addr(1), 5001}).ok());
      uint8_t byte = 'x';
      ASSERT_TRUE(api->Send(fd, &byte, 1, nullptr).ok());
      uint8_t buf[16];
      Result<size_t> got = api->Recv(fd, buf, sizeof(buf), nullptr, false);
      ASSERT_TRUE(got.ok()) << ErrName(got.error());
      EXPECT_EQ(*got, 0u);  // the server only ever closes
      api->Close(fd);
      clients_done++;
    });
  }

  w.sim().Run(Seconds(120));
  EXPECT_TRUE(server_done);
  EXPECT_EQ(clients_done, kClosed + 1);
}

// NEWAPI sendto on a fresh UDP socket binds implicitly, exactly like Send:
// the datagram reaches the peer, and in the library placements the session
// has migrated into the application, so later sends take the shared path.
TEST_P(PlacementTest, SendSharedToAddressOnUnboundUdp) {
  World w(GetParam(), MachineProfile::DecStation5000());
  bool server_done = false;
  bool client_done = false;

  w.SpawnApp(1, "udp-server", [&] {
    SocketApi* api = w.api(1);
    int fd = *api->CreateSocket(IpProto::kUdp);
    ASSERT_TRUE(api->Bind(fd, SockAddrIn{Ipv4Addr::Any(), 7000}).ok());
    uint8_t buf[64];
    SockAddrIn from;
    Result<size_t> n = api->Recv(fd, buf, sizeof(buf), &from, false);
    ASSERT_TRUE(n.ok()) << ErrName(n.error());
    EXPECT_EQ(std::string(reinterpret_cast<char*>(buf), *n), "shared hello");
    EXPECT_EQ(from.addr, w.addr(0));
    api->Close(fd);
    server_done = true;
  });

  w.SpawnApp(0, "udp-client", [&] {
    SocketApi* api = w.api(0);
    int fd = *api->CreateSocket(IpProto::kUdp);
    SockAddrIn dst{w.addr(1), 7000};
    w.sim().current_thread()->SleepFor(Millis(10));
    std::string msg = "shared hello";
    auto buf = std::make_shared<const std::vector<uint8_t>>(msg.begin(), msg.end());
    Result<size_t> s = api->SendShared(fd, buf, 0, buf->size(), &dst);
    ASSERT_TRUE(s.ok()) << ErrName(s.error());
    EXPECT_EQ(*s, msg.size());
    if (w.library_node(0) != nullptr) {
      EXPECT_TRUE(w.library_node(0)->IsAppManaged(fd));
    }
    api->Close(fd);
    client_done = true;
  });

  w.sim().Run(Seconds(30));
  EXPECT_TRUE(server_done);
  EXPECT_TRUE(client_done);
}

TEST_P(PlacementTest, TcpConnectRefused) {
  World w(GetParam(), MachineProfile::DecStation5000());
  bool done = false;
  w.SpawnApp(0, "client", [&] {
    SocketApi* api = w.api(0);
    int fd = *api->CreateSocket(IpProto::kTcp);
    Result<void> c = api->Connect(fd, SockAddrIn{w.addr(1), 4242});
    ASSERT_FALSE(c.ok());
    EXPECT_EQ(c.error(), Err::kConnRefused) << ErrName(c.error());
    api->Close(fd);
    done = true;
  });
  w.sim().Run(Seconds(30));
  EXPECT_TRUE(done);
}

// An accepted connection shares its listener's port name without owning
// it: closing the child must leave the name taken while the listener lives.
TEST_P(PlacementTest, ClosingAcceptedChildKeepsListenerPort) {
  World w(GetParam(), MachineProfile::DecStation5000());
  bool server_done = false;
  bool client_done = false;

  w.SpawnApp(1, "listener", [&] {
    SocketApi* api = w.api(1);
    int lfd = *api->CreateSocket(IpProto::kTcp);
    ASSERT_TRUE(api->Bind(lfd, SockAddrIn{Ipv4Addr::Any(), 5001}).ok());
    ASSERT_TRUE(api->Listen(lfd, 5).ok());
    SockAddrIn peer;
    Result<int> cfd = api->Accept(lfd, &peer);
    ASSERT_TRUE(cfd.ok()) << ErrName(cfd.error());
    ASSERT_TRUE(api->Close(*cfd).ok());
    int other = *api->CreateSocket(IpProto::kTcp);
    Result<void> rebind = api->Bind(other, SockAddrIn{Ipv4Addr::Any(), 5001});
    ASSERT_FALSE(rebind.ok());
    EXPECT_EQ(rebind.error(), Err::kAddrInUse) << ErrName(rebind.error());
    api->Close(other);
    api->Close(lfd);
    server_done = true;
  });

  w.SpawnApp(0, "client", [&] {
    SocketApi* api = w.api(0);
    int fd = *api->CreateSocket(IpProto::kTcp);
    w.sim().current_thread()->SleepFor(Millis(10));
    Result<void> c = api->Connect(fd, SockAddrIn{w.addr(1), 5001});
    ASSERT_TRUE(c.ok()) << ErrName(c.error());
    api->Close(fd);
    client_done = true;
  });

  w.sim().Run(Seconds(30));
  EXPECT_TRUE(server_done);
  EXPECT_TRUE(client_done);
}

// Only TCP and UDP sockets exist, in every placement.
TEST_P(PlacementTest, UnsupportedProtocolIsProtoNoSupport) {
  World w(GetParam(), MachineProfile::DecStation5000());
  bool done = false;
  w.SpawnApp(0, "app", [&] {
    Result<int> fd = w.api(0)->CreateSocket(IpProto::kIcmp);
    ASSERT_FALSE(fd.ok()) << "ICMP socket created as fd " << *fd;
    EXPECT_EQ(fd.error(), Err::kProtoNoSupport) << ErrName(fd.error());
    done = true;
  });
  w.sim().Run(Seconds(5));
  EXPECT_TRUE(done);
}

// Sockets and poll descriptors share one number space, but neither kind
// stands in for the other, and a closed descriptor of either kind is gone.
TEST_P(PlacementTest, DescriptorNamespaces) {
  World w(GetParam(), MachineProfile::DecStation5000());
  bool done = false;
  w.SpawnApp(0, "app", [&] {
    SocketApi* api = w.api(0);
    uint8_t b = 0;
    std::vector<PollEvent> events;
    // Never issued.
    EXPECT_EQ(api->Recv(999, &b, 1, nullptr, false).error(), Err::kBadF);
    EXPECT_EQ(api->Send(999, &b, 1, nullptr).error(), Err::kBadF);
    EXPECT_EQ(api->Close(999).error(), Err::kBadF);

    int fd = *api->CreateSocket(IpProto::kUdp);
    Result<int> pfd = api->PollCreate();
    ASSERT_TRUE(pfd.ok()) << ErrName(pfd.error());
    ASSERT_NE(fd, *pfd);
    // A poll descriptor is not a socket...
    EXPECT_EQ(api->Bind(*pfd, SockAddrIn{Ipv4Addr::Any(), 7100}).error(), Err::kBadF);
    EXPECT_EQ(api->Send(*pfd, &b, 1, nullptr).error(), Err::kBadF);
    EXPECT_EQ(api->Close(*pfd).error(), Err::kBadF);
    // ...and a socket is not a poll descriptor.
    EXPECT_EQ(api->PollAdd(fd, fd, kPollEventIn).error(), Err::kBadF);
    EXPECT_EQ(api->PollWait(fd, &events, 0).error(), Err::kBadF);
    EXPECT_EQ(api->PollClose(fd).error(), Err::kBadF);
    // Both survived the misdirected calls.
    EXPECT_TRUE(api->PollAdd(*pfd, fd, kPollEventOut).ok());

    EXPECT_TRUE(api->Close(fd).ok());
    EXPECT_EQ(api->Close(fd).error(), Err::kBadF);
    EXPECT_TRUE(api->PollClose(*pfd).ok());
    EXPECT_EQ(api->PollClose(*pfd).error(), Err::kBadF);

    // select treats a closed descriptor as never ready.
    SelectFds fds;
    fds.read = {fd};
    Result<int> n = api->Select(&fds, 0);
    ASSERT_TRUE(n.ok()) << ErrName(n.error());
    EXPECT_EQ(*n, 0);
    ASSERT_EQ(fds.read_ready.size(), 1u);
    EXPECT_FALSE(fds.read_ready[0]);
    done = true;
  });
  w.sim().Run(Seconds(5));
  EXPECT_TRUE(done);
}

INSTANTIATE_TEST_SUITE_P(AllPlacements, PlacementTest,
                         ::testing::Values(Config::kInKernel, Config::kServer,
                                           Config::kLibraryIpc, Config::kLibraryShm,
                                           Config::kLibraryShmIpf),
                         [](const ::testing::TestParamInfo<Config>& info) {
                           std::string n = ConfigName(info.param);
                           for (char& c : n) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return n;
                         });

}  // namespace
}  // namespace psd
