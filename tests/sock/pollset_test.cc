// PollSet semantics through the in-kernel placement's PollCreate/PollAdd/
// PollWait surface: level-at-add seeding, level-triggered re-reporting,
// stale-edge suppression, interest masks, removal, and the edge/wakeup
// observability counters that the C10K bench reads.
#include <gtest/gtest.h>

#include "src/api/kernel_node.h"
#include "src/sock/pollset.h"
#include "src/testbed/world.h"

namespace psd {
namespace {

class PollSetTest : public ::testing::Test {
 protected:
  PollSetTest() : w(Config::kInKernel, MachineProfile::DecStation5000()) {}
  World w;
};

// Readiness that predates registration must still report (epoll's
// level-triggered contract at EPOLL_CTL_ADD time), keep reporting until the
// data is consumed, and stop the moment it is.
TEST_F(PollSetTest, LevelTriggeredAtAddAndUntilConsumed) {
  bool done = false;
  w.SpawnApp(1, "srv", [&] {
    SocketApi* api = w.api(1);
    int lfd = *api->CreateSocket(IpProto::kTcp);
    api->Bind(lfd, SockAddrIn{Ipv4Addr::Any(), 5001});
    api->Listen(lfd, 1);
    Result<int> cfd = api->Accept(lfd, nullptr);
    ASSERT_TRUE(cfd.ok());

    // Let the client's 5 bytes land before the poll set even exists.
    w.sim().current_thread()->SleepFor(Millis(50));

    int pfd = *api->PollCreate();
    ASSERT_TRUE(api->PollAdd(pfd, *cfd, kPollEventIn).ok());
    std::vector<PollEvent> ev;
    // Level-at-add: the pre-existing data reports without any new edge.
    Result<int> n = api->PollWait(pfd, &ev, 0);
    ASSERT_TRUE(n.ok());
    ASSERT_EQ(*n, 1);
    EXPECT_EQ(ev[0].fd, *cfd);
    EXPECT_EQ(ev[0].events & kPollEventIn, kPollEventIn);
    // Level-triggered: unconsumed data keeps reporting.
    n = api->PollWait(pfd, &ev, 0);
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(*n, 1);
    // Consume it; the event must stop reporting.
    uint8_t buf[8];
    ASSERT_TRUE(api->Recv(*cfd, buf, sizeof(buf), nullptr, false).ok());
    n = api->PollWait(pfd, &ev, 0);
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(*n, 0);
    api->PollClose(pfd);
    api->Close(*cfd);
    api->Close(lfd);
    done = true;
  });
  w.SpawnApp(0, "cli", [&] {
    SocketApi* api = w.api(0);
    int fd = *api->CreateSocket(IpProto::kTcp);
    w.sim().current_thread()->SleepFor(Millis(5));
    ASSERT_TRUE(api->Connect(fd, SockAddrIn{w.addr(1), 5001}).ok());
    api->Send(fd, reinterpret_cast<const uint8_t*>("hello"), 5, nullptr);
    uint8_t buf[4];
    api->Recv(fd, buf, sizeof(buf), nullptr, false);  // park until server closes
    api->Close(fd);
  });
  w.sim().Run(Seconds(30));
  EXPECT_TRUE(done);
}

// A blocked PollWait is woken by a readiness edge, and the set's counters
// record the edge, the charged wakeup, and the block.
TEST_F(PollSetTest, BlockedWaitWakesOnEdgeAndCountsIt) {
  bool done = false;
  int server_pfd = -1;
  w.SpawnApp(1, "srv", [&] {
    SocketApi* api = w.api(1);
    int lfd = *api->CreateSocket(IpProto::kTcp);
    api->Bind(lfd, SockAddrIn{Ipv4Addr::Any(), 5001});
    api->Listen(lfd, 1);
    int pfd = *api->PollCreate();
    server_pfd = pfd;
    ASSERT_TRUE(api->PollAdd(pfd, lfd, kPollEventIn).ok());
    // Nothing is ready yet: this blocks until the client's SYN completes
    // the handshake and the listener becomes acceptable.
    std::vector<PollEvent> ev;
    Result<int> n = api->PollWait(pfd, &ev, Seconds(10));
    ASSERT_TRUE(n.ok());
    ASSERT_EQ(*n, 1);
    EXPECT_EQ(ev[0].fd, lfd);
    Result<int> cfd = api->Accept(lfd, nullptr);
    ASSERT_TRUE(cfd.ok());
    api->Close(*cfd);
    api->Close(lfd);
    done = true;
  });
  w.SpawnApp(0, "cli", [&] {
    SocketApi* api = w.api(0);
    int fd = *api->CreateSocket(IpProto::kTcp);
    w.sim().current_thread()->SleepFor(Millis(20));
    ASSERT_TRUE(api->Connect(fd, SockAddrIn{w.addr(1), 5001}).ok());
    uint8_t buf[4];
    api->Recv(fd, buf, sizeof(buf), nullptr, false);  // wait for server close
    api->Close(fd);
  });
  w.sim().Run(Seconds(30));
  ASSERT_TRUE(done);
  PollSet* set = w.kernel_node(1)->sockets().poll_set(server_pfd);
  ASSERT_NE(set, nullptr);
  EXPECT_GE(set->edges(), 1u);        // accept-readiness pushed an edge
  EXPECT_GE(set->wakeups(), 1u);      // ...which woke a blocked waiter
  EXPECT_GE(set->wait_blocks(), 1u);  // ...who had actually blocked
}

// Removing a socket stops its events; re-adding updates mask and cookie in
// place; waiting on an empty-interest set times out cleanly.
TEST_F(PollSetTest, RemoveAndTimeoutSemantics) {
  bool done = false;
  w.SpawnApp(1, "srv", [&] {
    SocketApi* api = w.api(1);
    int lfd = *api->CreateSocket(IpProto::kTcp);
    api->Bind(lfd, SockAddrIn{Ipv4Addr::Any(), 5001});
    api->Listen(lfd, 1);
    Result<int> cfd = api->Accept(lfd, nullptr);
    ASSERT_TRUE(cfd.ok());
    w.sim().current_thread()->SleepFor(Millis(50));  // client data lands

    int pfd = *api->PollCreate();
    ASSERT_TRUE(api->PollAdd(pfd, *cfd, kPollEventIn).ok());
    ASSERT_TRUE(api->PollRemove(pfd, *cfd).ok());
    std::vector<PollEvent> ev;
    // Removed: the buffered data must not report, and the wait times out.
    SimTime before = w.sim().Now();
    Result<int> n = api->PollWait(pfd, &ev, Millis(200));
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(*n, 0);
    EXPECT_GE(w.sim().Now() - before, Millis(200));
    // Double-remove is an error.
    EXPECT_FALSE(api->PollRemove(pfd, *cfd).ok());
    // Writable interest on a connected socket with send-buffer space
    // reports immediately.
    ASSERT_TRUE(api->PollAdd(pfd, *cfd, kPollEventOut).ok());
    n = api->PollWait(pfd, &ev, 0);
    ASSERT_TRUE(n.ok());
    ASSERT_EQ(*n, 1);
    EXPECT_EQ(ev[0].events & kPollEventOut, kPollEventOut);
    api->PollClose(pfd);
    // Operations on a closed poll descriptor fail.
    EXPECT_FALSE(api->PollAdd(pfd, *cfd, kPollEventIn).ok());
    api->Close(*cfd);
    api->Close(lfd);
    done = true;
  });
  w.SpawnApp(0, "cli", [&] {
    SocketApi* api = w.api(0);
    int fd = *api->CreateSocket(IpProto::kTcp);
    w.sim().current_thread()->SleepFor(Millis(5));
    ASSERT_TRUE(api->Connect(fd, SockAddrIn{w.addr(1), 5001}).ok());
    api->Send(fd, reinterpret_cast<const uint8_t*>("data"), 4, nullptr);
    uint8_t buf[4];
    api->Recv(fd, buf, sizeof(buf), nullptr, false);
    api->Close(fd);
  });
  w.sim().Run(Seconds(30));
  EXPECT_TRUE(done);
}

// One set watching many sockets wakes in O(ready): only the socket with
// traffic is harvested, not the whole interest set.
TEST_F(PollSetTest, HarvestReturnsOnlyReadySockets) {
  bool done = false;
  constexpr int kIdle = 8;
  w.SpawnApp(1, "srv", [&] {
    SocketApi* api = w.api(1);
    int lfd = *api->CreateSocket(IpProto::kTcp);
    api->Bind(lfd, SockAddrIn{Ipv4Addr::Any(), 5001});
    api->Listen(lfd, kIdle + 1);
    int pfd = *api->PollCreate();
    std::vector<int> fds;
    for (int i = 0; i < kIdle + 1; i++) {
      Result<int> cfd = api->Accept(lfd, nullptr);
      ASSERT_TRUE(cfd.ok());
      fds.push_back(*cfd);
      ASSERT_TRUE(api->PollAdd(pfd, *cfd, kPollEventIn).ok());
    }
    // Exactly one connection (the last accepted) carries data.
    std::vector<PollEvent> ev;
    Result<int> n = api->PollWait(pfd, &ev, Seconds(10));
    ASSERT_TRUE(n.ok());
    ASSERT_EQ(*n, 1) << "idle sockets leaked into the harvest";
    uint8_t buf[8];
    Result<size_t> got = api->Recv(ev[0].fd, buf, sizeof(buf), nullptr, false);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, 4u);
    for (int fd : fds) {
      api->Close(fd);
    }
    api->PollClose(pfd);
    api->Close(lfd);
    done = true;
  });
  w.SpawnApp(0, "cli", [&] {
    SocketApi* api = w.api(0);
    std::vector<int> fds;
    w.sim().current_thread()->SleepFor(Millis(5));
    for (int i = 0; i < kIdle + 1; i++) {
      int fd = *api->CreateSocket(IpProto::kTcp);
      ASSERT_TRUE(api->Connect(fd, SockAddrIn{w.addr(1), 5001}).ok());
      fds.push_back(fd);
    }
    w.sim().current_thread()->SleepFor(Millis(100));  // all adds settle
    api->Send(fds.back(), reinterpret_cast<const uint8_t*>("ping"), 4, nullptr);
    uint8_t buf[4];
    api->Recv(fds.back(), buf, sizeof(buf), nullptr, false);
    for (int fd : fds) {
      api->Close(fd);
    }
  });
  w.sim().Run(Seconds(30));
  EXPECT_TRUE(done);
}

}  // namespace
}  // namespace psd
