// TCP (RFC 793 + BSD Net/2-era behaviour): three-way handshake, sliding
// window with sender and receiver silly-window avoidance, Jacobson/Karn RTT
// estimation with backed-off retransmission, fast retransmit/fast recovery
// (Reno), slow start and congestion avoidance, delayed ACKs, Nagle, persist
// (zero-window probe), urgent data, MSS negotiation, out-of-order
// reassembly, the full close state machine with 2MSL TIME_WAIT, and RST
// handling.
//
// Deliberate omissions (post-paper or rare-path features, documented in
// DESIGN.md): simultaneous open, RFC 1323 window scaling/timestamps, IP
// options.
//
// The same code runs in all three placements; session state can be
// extracted to and adopted from a TcpMigrationState, which is how the
// operating-system server migrates established sessions into application
// protocol libraries and back (paper §3.1-3.2).
#ifndef PSD_SRC_INET_TCP_H_
#define PSD_SRC_INET_TCP_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "src/base/result.h"
#include "src/base/rng.h"
#include "src/inet/addr.h"
#include "src/inet/ip.h"
#include "src/inet/ports.h"
#include "src/inet/sockbuf.h"
#include "src/inet/stack_env.h"

namespace psd {

constexpr size_t kTcpHeaderLen = 20;
constexpr size_t kTcpDefaultBuf = 8192;
constexpr uint16_t kTcpDefaultMss = 536;
constexpr uint16_t kTcpEtherMss = 1460;  // MTU 1500 - 40
constexpr uint32_t kTcpMaxWin = 65535;

// Connection-establishment timeout: how long a handshake (SYN_SENT, or an
// embryonic SYN_RCVD child holding a listener slot) may sit unfinished
// before it is dropped, in 500 ms slow-timer ticks. BSD's TCPTV_KEEP_INIT,
// 75 s. Expiry on an embryonic child must release its SYN-half slot.
constexpr int kTcpConnEstablishTicks = 150;
// Keepalive probe interval once SO_KEEPALIVE kicks in (TCPTV_KEEPINTVL-ish):
// 75 s between probes, ~8 unanswered probes before giving up.
constexpr int kTcpKeepIntvlTicks = 150;

enum class TcpState : uint8_t {
  kClosed = 0,
  kListen,
  kSynSent,
  kSynRcvd,
  kEstablished,
  kCloseWait,
  kFinWait1,
  kClosing,
  kLastAck,
  kFinWait2,
  kTimeWait,
};

const char* TcpStateName(TcpState s);

// Sequence-space comparison (mod 2^32).
inline bool SeqLt(uint32_t a, uint32_t b) { return static_cast<int32_t>(a - b) < 0; }
inline bool SeqLeq(uint32_t a, uint32_t b) { return static_cast<int32_t>(a - b) <= 0; }
inline bool SeqGt(uint32_t a, uint32_t b) { return static_cast<int32_t>(a - b) > 0; }
inline bool SeqGeq(uint32_t a, uint32_t b) { return static_cast<int32_t>(a - b) >= 0; }

// TCP header flags.
constexpr uint8_t kTcpFin = 0x01;
constexpr uint8_t kTcpSyn = 0x02;
constexpr uint8_t kTcpRst = 0x04;
constexpr uint8_t kTcpPsh = 0x08;
constexpr uint8_t kTcpAck = 0x10;
constexpr uint8_t kTcpUrg = 0x20;

struct TcpPcb {
  TcpState state = TcpState::kClosed;
  SockAddrIn local;
  SockAddrIn remote;

  // Send sequence space.
  uint32_t iss = 0;
  uint32_t snd_una = 0;
  uint32_t snd_nxt = 0;
  uint32_t snd_max = 0;  // highest sequence sent
  uint32_t snd_wnd = 0;  // peer-advertised window
  uint32_t snd_up = 0;
  uint32_t snd_wl1 = 0;
  uint32_t snd_wl2 = 0;
  uint32_t snd_cwnd = kTcpMaxWin;
  uint32_t snd_ssthresh = kTcpMaxWin;
  uint32_t max_sndwnd = 0;

  // Receive sequence space.
  uint32_t irs = 0;
  uint32_t rcv_nxt = 0;
  uint32_t rcv_wnd = 0;
  uint32_t rcv_adv = 0;  // highest advertised rcv_nxt+wnd
  uint32_t rcv_up = 0;

  uint16_t t_maxseg = kTcpDefaultMss;

  // Flags.
  bool ack_now = false;
  bool delack = false;
  bool nodelay = false;    // TCP_NODELAY
  bool keepalive = false;  // SO_KEEPALIVE
  bool t_force = false;    // persist probe in progress
  bool sent_fin = false;
  bool cantsendmore = false;  // FIN queued by user (shutdown/close)
  bool cantrcvmore = false;   // peer FIN consumed
  int t_dupacks = 0;

  // Timers, in slow-timeout ticks (500 ms); 0 = disarmed.
  static constexpr int kTimerRexmt = 0;
  static constexpr int kTimerPersist = 1;
  static constexpr int kTimerKeep = 2;
  static constexpr int kTimer2Msl = 3;
  int t_timer[4] = {0, 0, 0, 0};
  int t_rxtshift = 0;
  int t_rxtcur = 2;

  // RTT estimation (Net/2 fixed point: srtt scaled by 8, rttvar by 4).
  int t_rtt = 0;  // ticks since measured transmission started (0 = idle)
  uint32_t t_rtseq = 0;
  int t_srtt = 0;
  int t_rttvar = 24;  // => initial RTO of 6s until first measurement
  int t_idle = 0;

  SockBuf snd{kTcpDefaultBuf};
  SockBuf rcv{kTcpDefaultBuf};
  std::map<uint32_t, Chain> reasm;  // out-of-order segments by sequence

  Err so_error = Err::kOk;
  bool port_owned = false;
  // Closed by the user (no socket attached): reap the pcb once it reaches
  // CLOSED (the background FIN handshake has finished).
  bool detached = false;

  // Socket-layer hooks.
  std::function<void()> rcv_wakeup;    // readable state changed
  std::function<void()> snd_wakeup;    // writable state changed
  std::function<void()> state_wakeup;  // connection state / error changed
  // Listener hook: fired when a child connection becomes acceptable.
  std::function<void()> accept_wakeup;

  // Listen bookkeeping, BSD sonewconn convention: the combined population
  // (embryonic children mid-handshake + established children awaiting
  // accept()) is bounded by syn_backlog = backlog * 3 / 2, enforced at SYN
  // admission — never at handshake completion, where refusal would strand
  // a peer that already believes it is established. Overflows are
  // ledgered as kTcpListenOverflow.
  TcpPcb* parent = nullptr;
  std::deque<TcpPcb*> accept_ready;
  int backlog = 0;      // listen(2) backlog as requested
  int syn_backlog = 0;  // admission bound on embryonic + accept_ready
  int embryonic = 0;    // children in SYN_RCVD

  uint64_t id = 0;  // diagnostics

  // Per-session observability counters (flight recorder; never consulted by
  // protocol logic and not part of migration state).
  uint64_t segs_in = 0;
  uint64_t segs_out = 0;
  uint64_t rexmt_segs = 0;

  size_t UnsentBytes() const {
    uint32_t off = snd_nxt - snd_una;
    return snd.cc() > off ? snd.cc() - off : 0;
  }
};

struct TcpStats {
  uint64_t segs_sent = 0;
  uint64_t segs_received = 0;
  uint64_t data_segs_sent = 0;
  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;
  uint64_t retransmits = 0;
  uint64_t fast_retransmits = 0;
  uint64_t dup_acks = 0;
  uint64_t out_of_order = 0;
  uint64_t rsts_sent = 0;
  uint64_t conns_established = 0;
  uint64_t conns_dropped = 0;
  uint64_t persist_probes = 0;
  uint64_t keepalive_probes = 0;
  uint64_t acks_delayed = 0;
  uint64_t acks_received = 0;
  uint64_t window_updates = 0;
  uint64_t rexmt_timeouts = 0;
};

// Serializable snapshot of one session's full protocol state, used to
// migrate sessions between the operating-system server and application
// protocol libraries.
struct TcpMigrationState {
  SockAddrIn local, remote;
  TcpState state = TcpState::kClosed;
  uint32_t iss, snd_una, snd_nxt, snd_max, snd_wnd, snd_up, snd_wl1, snd_wl2;
  uint32_t snd_cwnd, snd_ssthresh, max_sndwnd;
  uint32_t irs, rcv_nxt, rcv_wnd, rcv_adv, rcv_up;
  uint16_t t_maxseg = kTcpDefaultMss;
  int t_srtt = 0, t_rttvar = 24, t_rxtcur = 2;
  bool nodelay = false, cantsendmore = false, cantrcvmore = false, sent_fin = false;
  size_t snd_hiwat = kTcpDefaultBuf, rcv_hiwat = kTcpDefaultBuf;
  std::vector<uint8_t> snd_data;  // unacknowledged + unsent bytes
  std::vector<uint8_t> rcv_data;  // received, undelivered bytes
  std::vector<std::pair<uint32_t, std::vector<uint8_t>>> reasm;

  std::vector<uint8_t> Encode() const;
  static Result<TcpMigrationState> Decode(const std::vector<uint8_t>& bytes);
};

class TcpLayer {
 public:
  TcpLayer(StackEnv* env, IpLayer* ip, PortAlloc* ports);

  TcpPcb* Create();
  // Frees a pcb. Aborts (RST) if the connection is still alive.
  void Destroy(TcpPcb* pcb);

  Result<void> Bind(TcpPcb* pcb, SockAddrIn local);
  void AdoptBinding(TcpPcb* pcb, SockAddrIn local);
  Result<void> Listen(TcpPcb* pcb, int backlog);
  // Starts the three-way handshake; completion is signalled through
  // state_wakeup (socket layer blocks on it).
  Result<void> Connect(TcpPcb* pcb, SockAddrIn remote);
  // Appends data (already placed in pcb->snd by the socket layer would be
  // cheaper, but the BSD shape is: socket layer appends, then calls us).
  Result<void> UsrSend(TcpPcb* pcb, Chain data, bool urgent = false);
  // Reader consumed data; may trigger a window-update ACK.
  void UsrRcvd(TcpPcb* pcb);
  // User close: half-close the send side and run the shutdown handshake.
  Result<void> UsrClose(TcpPcb* pcb);
  void Abort(TcpPcb* pcb);

  Result<void> Output(TcpPcb* pcb);

  void SlowTick();
  void FastTick();

  // Accept support: pops an established child of `listener` (nullptr if
  // none ready).
  TcpPcb* PopAcceptable(TcpPcb* listener);

  // --- Session migration (the paper's mechanism) ---
  // Extracts a session's complete state and removes the pcb from this
  // stack. Timers stop; in-flight packets are recovered by the peer's
  // retransmission after the session resumes elsewhere.
  TcpMigrationState ExtractForMigration(TcpPcb* pcb);
  // Instantiates a migrated session in this stack.
  TcpPcb* AdoptMigrated(const TcpMigrationState& st);

  // Sends a bare RST for a connection this stack holds no pcb for (crash
  // cleanup of application-managed sessions, paper §3.2). Best effort: the
  // peer accepts it only if `seq` falls in its receive window.
  void SendRawRst(const SockAddrIn& local, const SockAddrIn& remote, uint32_t seq) {
    stats_.rsts_sent++;
    Respond(nullptr, local, remote, seq, 0, kTcpRst);
  }

  // If set and it returns true for (local, remote), segments that match no
  // pcb are dropped silently instead of answered with RST. The migration
  // machinery uses this for tuples in handover between placements, and
  // library stacks use it unconditionally (all their traffic is filtered;
  // strays are migration residue that the other placement owns).
  void SetRstSuppressor(std::function<bool(const SockAddrIn&, const SockAddrIn&)> fn) {
    rst_suppress_ = std::move(fn);
  }

  const TcpStats& stats() const { return stats_; }
  const std::vector<std::unique_ptr<TcpPcb>>& pcbs() const { return pcbs_; }
  StackEnv* env() { return env_; }

 private:
  friend class TcpTestPeer;

  void Input(Chain seg, Ipv4Addr src, Ipv4Addr dst);
  TcpPcb* Demux(const SockAddrIn& local, const SockAddrIn& remote);

  // Sends a bare control segment for `pcb` (or a reflected RST when pcb is
  // null, addressed by `local`/`remote`).
  void Respond(TcpPcb* pcb, const SockAddrIn& local, const SockAddrIn& remote, uint32_t seq,
               uint32_t ack, uint8_t flags);

  // Moves reassembled in-order data into the receive buffer.
  void ReassemblyDrain(TcpPcb* pcb);
  void InsertReassembly(TcpPcb* pcb, uint32_t seq, Chain data);

  // Connection teardown helpers.
  void DropConnection(TcpPcb* pcb, Err why);  // abort with error to user
  void CloseDone(TcpPcb* pcb);                // -> CLOSED, notify
  void CancelTimers(TcpPcb* pcb);
  // Unlinks a child from its listener, releasing whichever queue slot it
  // holds (SYN half while still in SYN_RCVD, accept half otherwise). The
  // single place parent->embryonic is decremented on a death path.
  void DetachFromParent(TcpPcb* pcb);

  void RexmtTimeout(TcpPcb* pcb);
  void PersistTimeout(TcpPcb* pcb);
  void KeepTimeout(TcpPcb* pcb);
  void SetPersist(TcpPcb* pcb);
  void UpdateRtt(TcpPcb* pcb, int rtt_ticks);
  int RexmtVal(const TcpPcb* pcb) const;

  uint32_t NextIss();

  StackEnv* env_;
  IpLayer* ip_;
  PortAlloc* ports_;
  std::function<bool(const SockAddrIn&, const SockAddrIn&)> rst_suppress_;
  std::vector<std::unique_ptr<TcpPcb>> pcbs_;
  // SlowTick's visit list, kept to reuse its storage; empty between ticks.
  std::vector<TcpPcb*> sweep_;
  TcpStats stats_;
  uint32_t iss_clock_ = 1;
  uint64_t next_id_ = 1;
  Rng rng_{0x7c33};
};

}  // namespace psd

#endif  // PSD_SRC_INET_TCP_H_
