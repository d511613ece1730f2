// A select()-driven chat server: one server multiplexes several client
// connections with select, the paper's "cooperative interface" (§3.2).
// In the library placement the listening socket is server-managed while
// accepted sessions are application-managed, so this exercises exactly the
// mixed-descriptor select the paper describes: the library checks its own
// sockets and cooperates with the OS server (proxy_select / proxy_status)
// for the rest.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/api/bsd.h"
#include "src/testbed/world.h"

using namespace psd;

namespace {
constexpr uint16_t kChatPort = 6667;
constexpr int kClients = 3;
}  // namespace

int main() {
  World w(Config::kLibraryShmIpf, MachineProfile::DecStation5000(), /*hosts=*/2);
  int messages_relayed = 0;

  w.SpawnApp(1, "chat-server", [&] {
    SocketApi* api = w.api(1);
    int lfd = *api->CreateSocket(IpProto::kTcp);
    api->Bind(lfd, SockAddrIn{Ipv4Addr::Any(), kChatPort});
    api->Listen(lfd, 8);

    std::vector<int> clients;
    int done_clients = 0;
    while (done_clients < kClients) {
      SelectFds fds;
      fds.read.push_back(lfd);  // listener
      for (int c : clients) {
        fds.read.push_back(c);
      }
      Result<int> n = api->Select(&fds, Seconds(30));
      if (!n.ok() || *n == 0) {
        break;
      }
      if (fds.read_ready[0]) {
        SockAddrIn peer;
        Result<int> c = api->Accept(lfd, &peer);
        if (c.ok()) {
          clients.push_back(*c);
          std::printf("[server %6.1fms] + client %s joins (%zu online)\n",
                      ToMillis(w.sim().Now()), peer.ToString().c_str(), clients.size());
        }
      }
      for (size_t i = 1; i < fds.read.size(); i++) {
        if (!fds.read_ready[i]) {
          continue;
        }
        int cfd = fds.read[i];
        uint8_t buf[512];
        Result<size_t> got = api->Recv(cfd, buf, sizeof(buf), nullptr, false);
        if (!got.ok() || *got == 0) {
          api->Close(cfd);
          clients.erase(std::remove(clients.begin(), clients.end(), cfd), clients.end());
          done_clients++;
          std::printf("[server %6.1fms] - client left (%zu online)\n", ToMillis(w.sim().Now()),
                      clients.size());
          continue;
        }
        // Relay to everyone else.
        for (int other : clients) {
          if (other != cfd) {
            api->Send(other, buf, *got, nullptr);
            messages_relayed++;
          }
        }
      }
    }
    api->Close(lfd);
  });

  // Clients all run on host 0 as separate processes (each gets its own
  // protocol library sharing host 0's OS server).
  // Declared after the World, so each node goes before the library it wraps.
  std::vector<std::unique_ptr<LibraryNode>> nodes;
  for (int id = 0; id < kClients; id++) {
    ProtocolLibrary* lib =
        id == 0 ? w.library(0) : w.AddLibrary(0, "h0/chat" + std::to_string(id));
    LibraryNode* node = nodes.emplace_back(std::make_unique<LibraryNode>(lib)).get();
    w.SpawnApp(0, "chat-client-" + std::to_string(id), [&, id, node] {
      SocketApi* api = node;
      SimThread* self = w.sim().current_thread();
      self->SleepFor(Millis(20 + 40 * id));
      int fd = *api->CreateSocket(IpProto::kTcp);
      if (!api->Connect(fd, SockAddrIn{w.addr(1), kChatPort}).ok()) {
        return;
      }
      std::string msg = "hi from client " + std::to_string(id);
      api->Send(fd, reinterpret_cast<const uint8_t*>(msg.data()), msg.size(), nullptr);
      // Listen for relayed chatter for a while.
      SimTime stop = w.sim().Now() + Millis(400);
      while (w.sim().Now() < stop) {
        SelectFds fds;
        fds.read.push_back(fd);
        Result<int> n = api->Select(&fds, Millis(100));
        if (n.ok() && *n > 0 && fds.read_ready[0]) {
          uint8_t buf[512];
          Result<size_t> got = api->Recv(fd, buf, sizeof(buf), nullptr, false);
          if (!got.ok() || *got == 0) {
            break;
          }
          std::printf("[client %d %6.1fms] heard: \"%.*s\"\n", id, ToMillis(w.sim().Now()),
                      static_cast<int>(*got), buf);
        }
      }
      api->Close(fd);
    });
  }

  w.sim().Run(Seconds(20));
  std::printf("\nserver relayed %d messages across %d clients via cooperative select\n",
              messages_relayed, kClients);
  return 0;
}
