// The descriptor table of the two placements that run the whole socket
// layer behind a protection boundary: In-Kernel (entered by a trap) and
// Server (entered by a Mach RPC). Sockets and poll sets take ids from one
// counter, and an id of the wrong kind is as unknown as one never issued.
// The table prices nothing: each placement charges its own boundary.
#ifndef PSD_SRC_SOCK_SOCKET_TABLE_H_
#define PSD_SRC_SOCK_SOCKET_TABLE_H_

#include <cstdint>
#include <map>
#include <memory>

#include "src/sock/pollset.h"
#include "src/sock/socket.h"

namespace psd {

// The two descriptors of a PollAdd/PollRemove.
struct PollMember {
  PollSet* set = nullptr;
  Socket* sock = nullptr;
};

class SocketTable {
 public:
  // Sockets and poll sets live on `stack`; ids start at `first_id`.
  SocketTable(Stack* stack, uint64_t first_id) : stack_(stack), next_id_(first_id) {}

  // A new TCP or UDP socket, not yet installed; kProtoNoSupport otherwise.
  Result<std::unique_ptr<Socket>> Create(IpProto proto);
  // Gives a created or accepted socket the next id.
  uint64_t Install(std::unique_ptr<Socket> sock);
  // The socket behind `id`, or nullptr (kBadF; never ready to select).
  Socket* Lookup(uint64_t id) { return Find(socks_, id); }
  // Closes socket `id` and forgets it: Socket::Close's result, or kBadF.
  Result<void> Close(uint64_t id);

  uint64_t PollCreate();
  // The poll set behind `pfd`, or nullptr; benches and tests read its
  // edge/wakeup counters.
  PollSet* poll_set(uint64_t pfd) { return Find(polls_, pfd); }
  // kBadF unless `pfd` names a poll set and `fd` a socket.
  Result<PollMember> ResolveMember(uint64_t pfd, uint64_t fd);
  Result<void> PollClose(uint64_t pfd) { return polls_.erase(pfd) != 0 ? OkResult() : Err::kBadF; }

 private:
  template <typename T>
  static T* Find(const std::map<uint64_t, std::unique_ptr<T>>& m, uint64_t id) {
    auto it = m.find(id);
    return it == m.end() ? nullptr : it->second.get();
  }

  Stack* stack_;
  uint64_t next_id_;
  // Declared before polls_, so every PollSet dies before its members.
  std::map<uint64_t, std::unique_ptr<Socket>> socks_;
  std::map<uint64_t, std::unique_ptr<PollSet>> polls_;
};

}  // namespace psd

#endif  // PSD_SRC_SOCK_SOCKET_TABLE_H_
