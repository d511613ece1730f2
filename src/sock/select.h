// select() over a set of sockets within one protocol domain: blocks until
// any tested socket becomes readable/writable, on the readiness edges of a
// transient PollSet (pollset.h). The library placement composes this local
// wait with the operating-system server's cooperative interface (paper
// §3.2).
#ifndef PSD_SRC_SOCK_SELECT_H_
#define PSD_SRC_SOCK_SELECT_H_

#include <vector>

#include "src/sock/socket.h"

namespace psd {

// Returns the number of ready positions; *rd_ready / *wr_ready are resized
// and filled positionally (a socket may sit at several positions and in
// both lists; null entries are never ready, and an error marks only the
// directions that are also readable/writable). timeout < 0 waits forever;
// timeout == 0 polls. `extra_wake_cv` (optional) is an additional condition
// that ends the wait when notified with `*extra_wake_flag` set (used for
// cross-placement cooperation); the flags then reflect current readiness.
// Beyond sizing the result vectors, allocates nothing once its per-thread
// scratch is warm.
int SelectSockets(Stack* stack, const std::vector<Socket*>& rd, const std::vector<Socket*>& wr,
                  SimDuration timeout, std::vector<bool>* rd_ready, std::vector<bool>* wr_ready,
                  SimCondition* extra_wake_cv = nullptr, bool* extra_wake_flag = nullptr);

}  // namespace psd

#endif  // PSD_SRC_SOCK_SELECT_H_
