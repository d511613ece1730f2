// SelectSockets' contract, called directly on one host's sockets:
// positional results for a socket listed at several positions and in both
// directions (null slots never ready), error-only readiness that marks no
// position, a zero timeout that polls, and the cooperative wake through
// `extra_wake_cv` / `extra_wake_flag` that the library placement's
// proxy_select rides on.
#include <gtest/gtest.h>

#include <vector>

#include "src/api/kernel_node.h"
#include "src/inet/tcp.h"
#include "src/sock/select.h"
#include "src/testbed/world.h"

namespace psd {
namespace {

using Bits = std::vector<bool>;

class SelectTest : public ::testing::Test {
 protected:
  SelectTest() : w(Config::kInKernel, MachineProfile::DecStation5000()) {}

  // A UDP socket on host 1 bound to `port`.
  Socket* Udp(uint16_t port) {
    SocketApi* api = w.api(1);
    int fd = *api->CreateSocket(IpProto::kUdp);
    EXPECT_TRUE(api->Bind(fd, SockAddrIn{Ipv4Addr::Any(), port}).ok());
    return w.kernel_node(1)->sockets().Lookup(static_cast<uint64_t>(fd));
  }

  // One datagram from host 0 to host 1's `port` after `delay`.
  void SendLater(uint16_t port, SimDuration delay) {
    w.SpawnApp(0, "sender", [this, port, delay] {
      SocketApi* api = w.api(0);
      int fd = *api->CreateSocket(IpProto::kUdp);
      w.sim().current_thread()->SleepFor(delay);
      SockAddrIn dst{w.addr(1), port};
      uint8_t byte = 7;
      api->Send(fd, &byte, 1, &dst);
      api->Close(fd);
    });
  }

  Stack* stack() { return w.kernel_node(1)->stack(); }

  World w;
  std::vector<bool> rd_ready;
  std::vector<bool> wr_ready;
};

TEST_F(SelectTest, SocketAtSeveralPositionsAndBothDirections) {
  bool done = false;
  SendLater(9000, Millis(5));
  w.SpawnApp(1, "sel", [&] {
    Socket* a = Udp(9000);  // gets one datagram: readable
    Socket* b = Udp(9001);  // never readable
    w.sim().current_thread()->SleepFor(Millis(50));
    // UDP sockets are always writable; `a` sits at two read positions and
    // one write position, `b` at one of each, and both lists have a hole.
    int n = SelectSockets(stack(), {a, nullptr, b, a}, {b, nullptr, a}, 0, &rd_ready, &wr_ready);
    EXPECT_EQ(n, 4);
    EXPECT_EQ(rd_ready, Bits({true, false, false, true}));
    EXPECT_EQ(wr_ready, Bits({true, false, true}));
    // Only holes: nothing to register, nothing ready.
    n = SelectSockets(stack(), {nullptr}, {nullptr, nullptr}, 0, &rd_ready, &wr_ready);
    EXPECT_EQ(n, 0);
    EXPECT_EQ(rd_ready, Bits({false}));
    EXPECT_EQ(wr_ready, Bits({false, false}));
    done = true;
  });
  w.sim().Run(Seconds(1));
  EXPECT_TRUE(done);
}

TEST_F(SelectTest, ErrorOnlyReadinessMarksNoPosition) {
  bool done = false;
  w.SpawnApp(1, "sel", [&] {
    SocketApi* api = w.api(1);
    int fd = *api->CreateSocket(IpProto::kTcp);
    Socket* s = w.kernel_node(1)->sockets().Lookup(static_cast<uint64_t>(fd));
    // A closed TCP socket with a pending error: readable (the error and
    // EOF report there), never writable. Its write interest harvests as a
    // bare kPollErr, which must not mark the write position.
    s->tcp_pcb()->so_error = Err::kConnReset;
    ASSERT_TRUE(s->HasError());
    ASSERT_FALSE(s->Writable());
    int n = SelectSockets(stack(), {}, {s}, 0, &rd_ready, &wr_ready);
    EXPECT_EQ(n, 0);
    EXPECT_EQ(wr_ready, Bits({false}));
    n = SelectSockets(stack(), {s}, {s}, 0, &rd_ready, &wr_ready);
    EXPECT_EQ(n, 1);
    EXPECT_EQ(rd_ready, Bits({true}));
    EXPECT_EQ(wr_ready, Bits({false}));
    s->tcp_pcb()->so_error = Err::kOk;
    api->Close(fd);
    done = true;
  });
  w.sim().Run(Seconds(1));
  EXPECT_TRUE(done);
}

TEST_F(SelectTest, ZeroTimeoutPollsAndPositiveTimeoutExpires) {
  bool done = false;
  w.SpawnApp(1, "sel", [&] {
    Socket* a = Udp(9000);
    SimTime t0 = w.sim().Now();
    int n = SelectSockets(stack(), {a}, {}, 0, &rd_ready, &wr_ready);
    EXPECT_EQ(n, 0);
    EXPECT_EQ(rd_ready, Bits({false}));
    EXPECT_TRUE(wr_ready.empty());
    EXPECT_LT(w.sim().Now() - t0, Millis(1)) << "a zero timeout blocked";
    t0 = w.sim().Now();
    n = SelectSockets(stack(), {a}, {}, Millis(20), &rd_ready, &wr_ready);
    EXPECT_EQ(n, 0);
    EXPECT_GE(w.sim().Now() - t0, Millis(20));
    EXPECT_LT(w.sim().Now() - t0, Millis(21));
    done = true;
  });
  w.sim().Run(Seconds(1));
  EXPECT_TRUE(done);
}

TEST_F(SelectTest, CooperativeWakeEndsTheWait) {
  bool done = false;
  SimCondition cv(&w.sim());
  bool flag = false;
  // A ping (the OS server's proxy_status) at 10 ms; a datagram at 30 ms.
  w.SpawnApp(1, "pinger", [&] {
    w.sim().current_thread()->SleepFor(Millis(10));
    flag = true;
    cv.NotifyAll();
  });
  SendLater(9000, Millis(30));
  w.SpawnApp(1, "sel", [&] {
    Socket* a = Udp(9000);
    // The ping ends an unbounded wait with nothing ready.
    int n = SelectSockets(stack(), {a}, {}, -1, &rd_ready, &wr_ready, &cv, &flag);
    EXPECT_EQ(n, 0);
    EXPECT_EQ(rd_ready, Bits({false}));
    EXPECT_GE(w.sim().Now(), Millis(10));
    EXPECT_LT(w.sim().Now(), Millis(30));
    // While the cooperative wait is on, a socket's readiness edge wakes it
    // through the same condition and marks its position.
    flag = false;
    n = SelectSockets(stack(), {a}, {}, -1, &rd_ready, &wr_ready, &cv, &flag);
    EXPECT_EQ(n, 1);
    EXPECT_EQ(rd_ready, Bits({true}));
    EXPECT_FALSE(flag);
    EXPECT_GE(w.sim().Now(), Millis(30));
    done = true;
  });
  w.sim().Run(Seconds(1));
  EXPECT_TRUE(done);
}

}  // namespace
}  // namespace psd
