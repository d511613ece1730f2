#include "src/sock/select.h"

#include <algorithm>
#include <functional>

#include "src/base/scratch.h"
#include "src/sock/pollset.h"

namespace psd {

namespace {

// One tested position: socket `sock` at index `at` of the read or the
// write list.
struct Position {
  Socket* sock;
  size_t at;
  bool write;
};

struct SelectScratch {
  std::vector<Position> positions;
  std::vector<PollReady> events;
};

}  // namespace

// Compatibility layer: one transient PollSet per call. Registration is the
// only per-fd work; every wakeup after that harvests just the sockets whose
// edges fired instead of re-polling the whole interest set. The positions
// live in pooled scratch, sorted by socket so that every socket's positions
// form one run: a socket at several positions and in both directions is
// registered once with the union mask, and its entry's cookie is the start
// of its run.
int SelectSockets(Stack* stack, const std::vector<Socket*>& rd, const std::vector<Socket*>& wr,
                  SimDuration timeout, std::vector<bool>* rd_ready, std::vector<bool>* wr_ready,
                  SimCondition* extra_wake_cv, bool* extra_wake_flag) {
  rd_ready->assign(rd.size(), false);
  wr_ready->assign(wr.size(), false);

  Scratch<SelectScratch> scratch;
  std::vector<Position>& pos = scratch->positions;
  pos.clear();
  for (size_t i = 0; i < rd.size(); i++) {
    if (rd[i] != nullptr) {
      pos.push_back(Position{rd[i], i, false});
    }
  }
  for (size_t i = 0; i < wr.size(); i++) {
    if (wr[i] != nullptr) {
      pos.push_back(Position{wr[i], i, true});
    }
  }
  std::sort(pos.begin(), pos.end(), [](const Position& a, const Position& b) {
    return std::less<Socket*>()(a.sock, b.sock);
  });

  PollSet set(stack);
  for (size_t run = 0; run < pos.size();) {
    uint32_t mask = 0;
    size_t end = run;
    for (; end < pos.size() && pos[end].sock == pos[run].sock; end++) {
      mask |= pos[end].write ? kPollOut : kPollIn;
    }
    set.Add(pos[run].sock, mask, run);
    run = end;
  }

  std::vector<PollReady>& events = scratch->events;
  events.clear();
  set.Wait(&events, timeout, extra_wake_cv, extra_wake_flag);

  int n = 0;
  for (const PollReady& ev : events) {
    for (size_t k = ev.data; k < pos.size() && pos[k].sock == ev.sock; k++) {
      if ((ev.events & (pos[k].write ? kPollOut : kPollIn)) == 0) {
        continue;
      }
      std::vector<bool>& ready = pos[k].write ? *wr_ready : *rd_ready;
      if (!ready[pos[k].at]) {
        ready[pos[k].at] = true;
        n++;
      }
    }
  }
  return n;
}

}  // namespace psd
