#include <gtest/gtest.h>

#include "src/cost/machine_profile.h"
#include "src/ipc/port.h"

namespace psd {
namespace {

class PortTest : public ::testing::Test {
 protected:
  Observatory obs;
  Simulator sim;
  HostCpu cpu;
  MachineProfile prof = MachineProfile::DecStation5000();
};

TEST_F(PortTest, SendReceiveRoundTrip) {
  Port port(&sim, &obs, &prof, "p");
  IpcMessage got;
  bool received = false;
  sim.Spawn("rx", &cpu, [&] {
    received = port.Receive(&got);
  });
  sim.Spawn("tx", &cpu, [&] {
    IpcMessage msg;
    msg.kind = 42;
    msg.arg[1] = 7;
    msg.payload = {1, 2, 3};
    port.Send(std::move(msg));
  });
  sim.Run();
  ASSERT_TRUE(received);
  EXPECT_EQ(got.kind, 42u);
  EXPECT_EQ(got.arg[1], 7u);
  EXPECT_EQ(got.payload, (std::vector<uint8_t>{1, 2, 3}));
}

TEST_F(PortTest, MessagesQueueInOrder) {
  Port port(&sim, &obs, &prof, "p");
  std::vector<uint32_t> kinds;
  sim.Spawn("tx", &cpu, [&] {
    for (uint32_t i = 0; i < 5; i++) {
      IpcMessage m;
      m.kind = i;
      port.Send(std::move(m));
    }
  });
  sim.Spawn("rx", &cpu, [&] {
    IpcMessage m;
    for (int i = 0; i < 5; i++) {
      if (port.Receive(&m)) {
        kinds.push_back(m.kind);
      }
    }
  });
  sim.Run();
  EXPECT_EQ(kinds, (std::vector<uint32_t>{0, 1, 2, 3, 4}));
}

TEST_F(PortTest, ReceiveTimesOut) {
  Port port(&sim, &obs, &prof, "p");
  bool got = true;
  sim.Spawn("rx", &cpu, [&] {
    IpcMessage m;
    got = port.Receive(&m, sim.Now() + Millis(2));
  });
  sim.Run();
  EXPECT_FALSE(got);
}

TEST_F(PortTest, TransferChargesVirtualTime) {
  Port port(&sim, &obs, &prof, "p");
  SimTime rx_done = 0;
  sim.Spawn("rx", &cpu, [&] {
    IpcMessage m;
    port.Receive(&m);
    rx_done = sim.Now();
  });
  sim.Spawn("tx", &cpu, [&] {
    IpcMessage m;
    m.payload.assign(1000, 0xab);
    port.Send(std::move(m));
  });
  sim.Run();
  // At least the fixed send+receive cost plus 2 x 1000 bytes of copies.
  SimDuration floor = prof.ipc_fixed + 2000 * prof.ipc_per_byte;
  EXPECT_GE(rx_done, floor);
}

TEST_F(PortTest, CompetingReceiversEachGetOneMessage) {
  // Regression: a receiver must dequeue before charging, or a second
  // receiver can claim the same message (server worker pools).
  Port port(&sim, &obs, &prof, "p");
  int delivered = 0;
  for (int i = 0; i < 2; i++) {
    sim.Spawn("rx" + std::to_string(i), &cpu, [&] {
      IpcMessage m;
      if (port.Receive(&m, sim.Now() + Seconds(1))) {
        delivered++;
      }
    });
  }
  sim.Spawn("tx", &cpu, [&] {
    for (int i = 0; i < 2; i++) {
      IpcMessage m;
      m.kind = static_cast<uint32_t>(i);
      m.payload.assign(500, 1);
      port.Send(std::move(m));
    }
  });
  sim.Run();
  EXPECT_EQ(delivered, 2);
}

TEST_F(PortTest, RpcCallRoundTrip) {
  Port server(&sim, &obs, &prof, "server");
  sim.Spawn("server", &cpu, [&] {
    IpcMessage req;
    while (server.Receive(&req, sim.Now() + Seconds(1))) {
      IpcMessage rep;
      rep.arg[1] = req.arg[1] * 2;
      req.reply_port->Send(std::move(rep));
    }
  });
  uint64_t answer = 0;
  sim.Spawn("client", &cpu, [&] {
    Port reply(&sim, &obs, &prof, "reply");
    IpcMessage req;
    req.arg[1] = 21;
    IpcMessage rep = RpcCall(&server, &reply, std::move(req));
    answer = rep.arg[1];
  });
  sim.Run();
  EXPECT_EQ(answer, 42u);
}

}  // namespace
}  // namespace psd
