#include "src/sock/socket_table.h"

namespace psd {

Result<std::unique_ptr<Socket>> SocketTable::Create(IpProto proto) {
  if (proto != IpProto::kTcp && proto != IpProto::kUdp) {
    return Err::kProtoNoSupport;
  }
  return std::make_unique<Socket>(stack_, proto);
}

uint64_t SocketTable::Install(std::unique_ptr<Socket> sock) {
  uint64_t id = next_id_++;
  socks_[id] = std::move(sock);
  return id;
}

Result<void> SocketTable::Close(uint64_t id) {
  Socket* s = Lookup(id);
  if (s == nullptr) {
    return Err::kBadF;
  }
  Result<void> r = s->Close();
  socks_.erase(id);
  return r;
}

uint64_t SocketTable::PollCreate() {
  uint64_t pfd = next_id_++;
  polls_[pfd] = std::make_unique<PollSet>(stack_);
  return pfd;
}

Result<PollMember> SocketTable::ResolveMember(uint64_t pfd, uint64_t fd) {
  PollMember m{poll_set(pfd), Lookup(fd)};
  if (m.set == nullptr || m.sock == nullptr) {
    return Err::kBadF;
  }
  return m;
}

}  // namespace psd
