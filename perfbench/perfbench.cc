// perfbench: the repository benchmark program. Runs one named workload from
// one seed on one OS thread (every simulated host is a fiber on it), for a
// fixed host-time budget, and prints every metric by name with its unit.
// The last stdout line is one JSON object:
//
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set; with --trace 1 they
// are the per-layer set (see README.md for the layer -> metric -> workload
// map). All traffic crosses the simulated 10 Mb/s segment only.
//
// Each layer is measured from outside, through public functions:
//   * host clock: World construction + app spawn (testbed), Simulator::Run
//     (sim), the process's peak RSS after the cold warm-up;
//   * virtual clock: each SocketApi / PfxStream call the workload makes
//     (api, proto), each workload operation (datagram, chunk, connect,
//     call);
//   * existing counters read through public accessors after the run;
//   * the HostProfiler domain split, only in traced iterations.
//
// Iteration 0 of every run is a warm-up: the frame and mbuf pools are
// process-wide, so it is the only iteration that starts cold. It is
// verified but not measured; every later iteration starts warm. Every
// iteration's virtual digest must equal iteration 0's.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/base/rng.h"
#include "src/mbuf/mbuf.h"
#include "src/netsim/frame_pool.h"
#include "src/obs/journey.h"
#include "src/obs/metastate.h"
#include "src/obs/prof.h"
#include "src/proto/framing.h"
#include "src/proto/rpc.h"
#include "src/testbed/world.h"

namespace psd {
namespace {

using Clock = std::chrono::steady_clock;

double NsBetween(Clock::time_point a, Clock::time_point b) {
  return static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

// Nearest-rank quantile of exact samples; 0 when there are none.
double Quantile(std::vector<SimDuration> v, double q) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return static_cast<double>(v[std::clamp<size_t>(rank, 1, v.size()) - 1]);
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// FNV-1a over 64-bit words: the virtual digest of one iteration.
struct Digest {
  uint64_t h = 14695981039346656037ULL;
  void Mix(uint64_t v) {
    for (int i = 0; i < 8; i++) {
      h = (h ^ ((v >> (8 * i)) & 0xff)) * 1099511628211ULL;
    }
  }
};

// "<prefix><i>", for fiber names.
std::string Numbered(const char* prefix, int i) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%s%d", prefix, i);
  return buf;
}

// Fisher-Yates shuffle driven by `rng`.
template <typename T>
void Shuffle(std::vector<T>* v, Rng* rng) {
  for (size_t i = v->size(); i > 1; i--) {
    std::swap((*v)[i - 1], (*v)[rng->Below(i)]);
  }
}

// Seeded payload content. Stream byte k is ring[k % kRing]; the buffer
// repeats the ring head so any span of up to kSpan bytes is contiguous, and
// producing or verifying content is a memcpy/memcmp.
class Pattern {
 public:
  static constexpr size_t kRing = 65521;  // prime: offsets of flows never alias
  static constexpr size_t kSpan = 32 * 1024;  // >= the largest chunk or flow

  explicit Pattern(uint64_t seed) : buf_(kRing + kSpan) {
    Rng rng = Rng::Stream(seed, 0xc0ffee);
    for (size_t i = 0; i < kRing; i++) {
      buf_[i] = static_cast<uint8_t>(rng.Next() >> 56);
    }
    std::memcpy(buf_.data() + kRing, buf_.data(), kSpan);
  }
  const uint8_t* at(uint64_t off) const { return buf_.data() + off % kRing; }
  bool Matches(uint64_t off, const uint8_t* p, size_t n) const {
    return std::memcmp(at(off), p, n) == 0;
  }

 private:
  std::vector<uint8_t> buf_;
};

// Virtual durations of the SocketApi calls a workload makes.
struct ApiTimes {
  std::vector<SimDuration> send;
  std::vector<SimDuration> recv;
};

// A ByteStream over a socket that times every Send/Recv on the virtual
// clock (the adapters below it call nothing else).
class TimedStream : public ByteStream {
 public:
  TimedStream(Simulator* sim, SocketApi* api, int fd, ApiTimes* times)
      : sim_(sim), api_(api), fd_(fd), times_(times) {}
  Result<size_t> Read(uint8_t* out, size_t len) override {
    SimTime t0 = sim_->Now();
    Result<size_t> r = api_->Recv(fd_, out, len);
    times_->recv.push_back(sim_->Now() - t0);
    return r;
  }
  Result<size_t> Write(const uint8_t* data, size_t len) override {
    SimTime t0 = sim_->Now();
    Result<size_t> r = api_->Send(fd_, data, len);
    times_->send.push_back(sim_->Now() - t0);
    return r;
  }

 private:
  Simulator* sim_;
  SocketApi* api_;
  int fd_;
  ApiTimes* times_;
};

// What one iteration produced. Everything except the host times and the
// profile is virtual and identical across iterations of one seed.
struct Iteration {
  double setup_ns = 0;  // host: World build + app spawn
  double sim_ns = 0;    // host: Simulator::Run
  int hosts = 0;
  uint64_t frames = 0;
  uint64_t events = 0;
  uint64_t switches = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t digest = 0;
  uint64_t frame_pool_miss = 0;
  uint64_t mbuf_pool_miss = 0;
  uint64_t conns = 0;  // TCP connections the workload opened
  double goodput_kbps = 0;
  std::vector<SimDuration> op_ns;  // the workload's unit operation
  std::map<std::string, double> layer;  // virtual per-layer metrics
  std::map<std::string, double> named;  // the workload's own named metrics
  bool traced = false;
  HostProfReport prof;
};

// One iteration's world and applications. Derived constructors build the
// World and spawn the apps (the set-up phase); Finish verifies the outputs
// and fills the virtual metrics after the run.
class Scenario {
 public:
  virtual ~Scenario() = default;
  virtual void Finish(Iteration* it, Digest* d) = 0;
  // Virtual horizon for Simulator::Run: far past the expected end, so an
  // incomplete run stops and is reported rather than hanging.
  virtual SimTime horizon() const = 0;
  // The host whose CPU and server counters the per-layer metrics report.
  virtual int server_host() const = 0;
  World& world() { return *w_; }
  int hosts() const { return hosts_; }
  const ApiTimes& api_times() const { return api_; }
  // Destroys the World (unwinding blocked fibers) while the derived
  // members its fibers reference are still alive.
  void Teardown() { w_.reset(); }

 protected:
  std::unique_ptr<World> w_;
  int hosts_ = 2;
  ApiTimes api_;
};

// --- udp_blast: In-Kernel, one-way 512 B datagrams, open loop ------------

class UdpBlast : public Scenario {
 public:
  static constexpr int kCount = 60000;
  static constexpr size_t kPayload = 512;
  static constexpr int kBurst = 8;
  static constexpr double kMeanGap = 1.75;
  static constexpr int kStrata = 16;

  explicit UdpBlast(uint64_t seed)
      : pattern_(seed), due_(kCount, 0), lat_(kCount, -1), late_(kCount, 0) {
    w_ = std::make_unique<World>(Config::kInKernel, MachineProfile::DecStation5000());
    // Stratified exponential gaps, in burst wire times: each run of kStrata
    // consecutive gaps draws once from each 1/kStrata quantile band, in
    // seeded order. Arrivals stay random within a block, and every seed
    // offers the same load at every longer time scale.
    Rng rng = Rng::Stream(seed, 1);
    std::vector<double> block(kStrata);
    while (gaps_.size() + 1 < kCount / kBurst) {
      for (int k = 0; k < kStrata; k++) {
        double u = (k + static_cast<double>(rng.Next() >> 11) * 0x1.0p-53) / kStrata;
        block[k] = -std::log(1.0 - u) * kMeanGap;
      }
      Shuffle(&block, &rng);
      gaps_.insert(gaps_.end(), block.begin(), block.end());
    }
    w_->SpawnApp(1, "sink", [this] { Sink(); });
    w_->SpawnApp(0, "blaster", [this] { Blast(); });
  }

  SimTime horizon() const override { return Seconds(600); }
  int server_host() const override { return 1; }

  void Finish(Iteration* it, Digest* d) override {
    it->attempted = kCount;
    uint64_t bytes = 0;
    SimTime last = 0;
    for (int i = 0; i < kCount; i++) {
      if (lat_[i] < 0) {
        it->failed++;
        continue;
      }
      it->op_ns.push_back(lat_[i]);
      bytes += kPayload;
      last = std::max(last, due_[i] + lat_[i]);
      d->Mix(static_cast<uint64_t>(lat_[i]));
    }
    it->failed += bad_;
    double span_s = ToSeconds(last - due_[0]);
    it->goodput_kbps = span_s > 0 ? static_cast<double>(bytes) * 8 / 1000 / span_s : 0;
    it->layer["api.send_lateness_p99_us"] = Quantile(late_, 0.99) / 1e3;
    it->named["virt_goodput_kbps"] = it->goodput_kbps;
    it->named["virt_datagram_p50_us"] = Quantile(it->op_ns, 0.50) / 1e3;
    it->named["virt_datagram_p99_us"] = Quantile(it->op_ns, 0.99) / 1e3;
    it->named["virt_send_lateness_p99_us"] = Quantile(late_, 0.99) / 1e3;
  }

 private:
  void Sink() {
    SocketApi* api = w_->api(1);
    int fd = *api->CreateSocket(IpProto::kUdp);
    api->Bind(fd, SockAddrIn{Ipv4Addr::Any(), 9000});
    api->SetOpt(fd, SockOpt::kRcvBuf, 256 * 1024);
    uint8_t buf[2048];
    for (int got = 0; got < kCount;) {
      SimTime t0 = w_->sim().Now();
      Result<size_t> n = api->Recv(fd, buf, sizeof(buf), nullptr, false);
      api_.recv.push_back(w_->sim().Now() - t0);
      if (!n.ok()) {
        break;
      }
      got++;
      uint32_t seq = 0;
      std::memcpy(&seq, buf, sizeof(seq));
      if (*n != kPayload || seq >= kCount || lat_[seq] >= 0 ||
          !pattern_.Matches(uint64_t{seq} * kPayload + 4, buf + 4, kPayload - 4)) {
        bad_++;
        continue;
      }
      lat_[seq] = w_->sim().Now() - due_[seq];
    }
    api->Close(fd);
  }

  // Offers bursts of kBurst datagrams back to back with exponential gaps
  // (a Poisson stream of bursts) whose mean is kMeanGap burst wire times:
  // the offered load is 57% of the wire, ~85% of the ~67% the receiving
  // host's CPU sustains. No datagram is dropped, and most bursts queue
  // behind earlier ones, so latencies vary with the seed's gap order. A
  // datagram is due at its burst's start; lateness is send start minus due
  // time.
  void Blast() {
    SocketApi* api = w_->api(0);
    w_->sim().current_thread()->SleepFor(Millis(5));
    int fd = *api->CreateSocket(IpProto::kUdp);
    SockAddrIn dst{w_->addr(1), 9000};
    std::vector<uint8_t> pkt(kPayload);
    const SimDuration burst_time = w_->wire().WireTime(kPayload + 42) * kBurst;
    SimTime burst_due = w_->sim().Now();
    for (int i = 0; i < kCount; i++) {
      if (i % kBurst == 0) {
        if (i > 0) {
          burst_due += static_cast<SimDuration>(gaps_[i / kBurst - 1] * static_cast<double>(burst_time));
        }
        if (w_->sim().Now() < burst_due) {
          w_->sim().current_thread()->SleepUntil(burst_due);
        }
      }
      uint32_t seq = static_cast<uint32_t>(i);
      std::memcpy(pkt.data(), &seq, sizeof(seq));
      std::memcpy(pkt.data() + 4, pattern_.at(uint64_t{seq} * kPayload + 4), kPayload - 4);
      SimTime t0 = w_->sim().Now();
      due_[i] = burst_due;
      late_[i] = t0 - burst_due;
      api->Send(fd, pkt.data(), pkt.size(), &dst);
      api_.send.push_back(w_->sim().Now() - t0);
    }
    api->Close(fd);
  }

  Pattern pattern_;
  std::vector<double> gaps_;  // between consecutive bursts
  std::vector<SimTime> due_;
  std::vector<SimDuration> lat_;  // -1 until received intact
  std::vector<SimDuration> late_;
  uint64_t bad_ = 0;
};

// --- tcp_bulk: Library-SHM-IPF, one window-limited transfer, closed loop --

class TcpBulk : public Scenario {
 public:
  static constexpr uint64_t kTotal = 24ull << 20;
  static constexpr size_t kMinChunk = 1024;
  static constexpr size_t kMaxChunk = 16 * 1024;

  explicit TcpBulk(uint64_t seed) : pattern_(seed) {
    w_ = std::make_unique<World>(Config::kLibraryShmIpf, MachineProfile::DecStation5000());
    Rng sizes = Rng::Stream(seed, 2);
    for (uint64_t off = 0; off < kTotal;) {
      uint64_t n = std::min<uint64_t>(kTotal - off, kMinChunk + sizes.Below(kMaxChunk - kMinChunk + 1));
      off += n;
      chunk_end_.push_back(off);
    }
    chunk_start_.assign(chunk_end_.size(), 0);
    w_->SpawnApp(1, "sink", [this] { Sink(); });
    w_->SpawnApp(0, "source", [this] { Source(); });
  }

  SimTime horizon() const override { return Seconds(3600); }
  int server_host() const override { return 1; }

  void Finish(Iteration* it, Digest* d) override {
    it->conns = 1;
    it->attempted = chunk_end_.size();
    it->failed = chunk_end_.size() - chunk_lat_.size();
    for (SimDuration l : chunk_lat_) {
      it->op_ns.push_back(l);
      d->Mix(static_cast<uint64_t>(l));
    }
    d->Mix(got_);
    double span_s = ToSeconds(last_rx_ - connect_start_);
    it->goodput_kbps = span_s > 0 ? static_cast<double>(got_) * 8 / 1000 / span_s : 0;
    it->named["virt_goodput_kbps"] = it->goodput_kbps;
    it->named["virt_chunk_p50_ms"] = Quantile(it->op_ns, 0.50) / 1e6;
    it->named["virt_chunk_p99_ms"] = Quantile(it->op_ns, 0.99) / 1e6;
  }

 private:
  void Sink() {
    SocketApi* api = w_->api(1);
    int lfd = *api->CreateSocket(IpProto::kTcp);
    api->Bind(lfd, SockAddrIn{Ipv4Addr::Any(), 5001});
    api->SetOpt(lfd, SockOpt::kRcvBuf, 24 * 1024);
    api->Listen(lfd, 1);
    Result<int> fd = api->Accept(lfd, nullptr);
    if (!fd.ok()) {
      return;
    }
    std::vector<uint8_t> buf(kMaxChunk);
    size_t next = 0;
    while (got_ < kTotal) {
      SimTime t0 = w_->sim().Now();
      Result<size_t> n = api->Recv(*fd, buf.data(), buf.size(), nullptr, false);
      api_.recv.push_back(w_->sim().Now() - t0);
      if (!n.ok() || *n == 0 || !pattern_.Matches(got_, buf.data(), *n)) {
        break;  // short or corrupt stream: the missing chunks count as failed
      }
      got_ += *n;
      last_rx_ = w_->sim().Now();
      for (; next < chunk_end_.size() && chunk_end_[next] <= got_; next++) {
        chunk_lat_.push_back(last_rx_ - chunk_start_[next]);
      }
    }
    api->Close(*fd);
    api->Close(lfd);
  }

  void Source() {
    SocketApi* api = w_->api(0);
    w_->sim().current_thread()->SleepFor(Millis(5));
    int fd = *api->CreateSocket(IpProto::kTcp);
    api->SetOpt(fd, SockOpt::kSndBuf, 24 * 1024);
    connect_start_ = w_->sim().Now();
    if (!api->Connect(fd, SockAddrIn{w_->addr(1), 5001}).ok()) {
      api->Close(fd);
      return;
    }
    uint64_t off = 0;
    for (size_t c = 0; c < chunk_end_.size(); c++) {
      chunk_start_[c] = w_->sim().Now();
      while (off < chunk_end_[c]) {
        SimTime t0 = w_->sim().Now();
        Result<size_t> n = api->Send(fd, pattern_.at(off), chunk_end_[c] - off);
        api_.send.push_back(w_->sim().Now() - t0);
        if (!n.ok()) {
          api->Close(fd);
          return;
        }
        off += *n;
      }
    }
    api->Close(fd);
  }

  Pattern pattern_;
  std::vector<uint64_t> chunk_end_;     // cumulative stream offsets
  std::vector<SimTime> chunk_start_;    // when the source began each chunk
  std::vector<SimDuration> chunk_lat_;  // chunk start -> last byte received
  uint64_t got_ = 0;
  SimTime connect_start_ = 0;
  SimTime last_rx_ = 0;
};

// --- c10k_churn: Library-SHM server, ~1024 In-Kernel clients --------------

class C10kChurn : public Scenario {
 public:
  static constexpr int kClients = 1024;
  static constexpr int kConns = 2;  // flows per client
  static constexpr int kFlows = kClients * kConns;
  static constexpr int kMigrations = 8;
  static constexpr size_t kHeader = 12;  // client, flow index, size (u32 each)
  static constexpr size_t kFlowMin = 256;
  static constexpr size_t kFlowCap = 32 * 1024;

  explicit C10kChurn(uint64_t seed)
      : seed_(seed), pattern_(seed), done_(kFlows, 0), arrival_(kClients), size_rank_(kFlows) {
    // Stratified inputs: the seed permutes which client arrives in which
    // slot of the ~2 s storm front and which flow gets which quantile of the
    // size distribution, so every seed offers the same aggregate load.
    Rng perm = Rng::Stream(seed, 3);
    std::iota(arrival_.begin(), arrival_.end(), 0);
    std::iota(size_rank_.begin(), size_rank_.end(), 0);
    Shuffle(&arrival_, &perm);
    Shuffle(&size_rank_, &perm);
    w_ = std::make_unique<World>(Config::kLibraryShm, MachineProfile::DecStation5000(),
                                 /*hosts=*/1 + kClients, /*pio_nic=*/false,
                                 /*placement_hosts=*/1);
    hosts_ = 1 + kClients;
    w_->SeedStaticArp();
    w_->SpawnApp(0, "c10k-server", [this] { Server(); });
    for (int c = 0; c < kClients; c++) {
      w_->SpawnApp(1 + c, Numbered("c", c), [this, c] { Client(c); });
    }
  }

  SimTime horizon() const override { return Seconds(3600); }
  int server_host() const override { return 0; }

  void Finish(Iteration* it, Digest* d) override {
    it->attempted = kFlows;
    it->failed = kFlows - static_cast<uint64_t>(std::count(done_.begin(), done_.end(), 1)) + bad_;
    if (migrated_ok_ != kMigrations) {
      it->failed++;  // a requested live migration did not happen cleanly
    }
    it->op_ns = connect_ns_;
    for (const auto& [flow, at] : completions_) {
      d->Mix(flow);
      d->Mix(static_cast<uint64_t>(at));
    }
    for (SimDuration c : connect_ns_) {
      d->Mix(static_cast<uint64_t>(c));
    }
    d->Mix(flow_bytes_);
    double span_s = ToSeconds(last_served_ - first_connect_);
    it->goodput_kbps = span_s > 0 ? static_cast<double>(flow_bytes_) * 8 / 1000 / span_s : 0;
    it->conns = accepts_;
    it->layer["core.migrate_p99_ms"] = Quantile(migrate_ns_, 0.99) / 1e6;
    it->named["virt_connect_p50_ms"] = Quantile(connect_ns_, 0.50) / 1e6;
    it->named["virt_connect_p99_ms"] = Quantile(connect_ns_, 0.99) / 1e6;
    it->named["virt_goodput_kbps"] = it->goodput_kbps;
    it->named["live_migrations"] = static_cast<double>(migrated_ok_);
  }

 private:
  // Per-connection receive state on the server.
  struct Rx {
    uint8_t header[kHeader] = {};
    size_t have = 0;     // bytes received so far (header included)
    uint32_t flow = 0;   // client * kConns + k, valid once the header is in
    uint32_t size = 0;
    bool ok = true;
    bool migrated = false;
  };

  static uint64_t FlowOffset(uint32_t flow) { return uint64_t{flow} * 7919; }

  // Bounded Pareto (alpha 1.2) at quantile rank/kFlows: mostly a few
  // hundred bytes, a tail that exercises windowed streaming, capped at
  // kFlowCap.
  static size_t FlowSize(int rank) {
    double u = (static_cast<double>(rank) + 0.5) / kFlows;
    double size = static_cast<double>(kFlowMin) * std::pow(u, -1.0 / 1.2);
    return std::min(kFlowCap, static_cast<size_t>(size));
  }

  void Absorb(Rx* rx, const uint8_t* p, size_t n) {
    while (n > 0 && rx->have < kHeader) {
      rx->header[rx->have++] = *p++;
      n--;
      if (rx->have == kHeader) {
        uint32_t client = 0, k = 0;
        std::memcpy(&client, rx->header, 4);
        std::memcpy(&k, rx->header + 4, 4);
        std::memcpy(&rx->size, rx->header + 8, 4);
        rx->flow = client * kConns + k;
        rx->ok = client < kClients && k < kConns && rx->size <= kFlowCap;
      }
    }
    if (n == 0) {
      return;
    }
    size_t off = rx->have - kHeader;
    rx->ok = rx->ok && off + n <= rx->size && pattern_.Matches(FlowOffset(rx->flow) + off, p, n);
    rx->have += n;
    flow_bytes_ += n;
  }

  void Server() {
    SocketApi* api = w_->api(0);
    LibraryNode* lib = w_->library_node(0);
    int lfd = *api->CreateSocket(IpProto::kTcp);
    api->Bind(lfd, SockAddrIn{Ipv4Addr::Any(), 5001});
    api->SetOpt(lfd, SockOpt::kRcvBuf, 16 * 1024);
    api->Listen(lfd, 128);
    int pfd = *api->PollCreate();
    api->PollAdd(pfd, lfd, kPollEventIn);
    const uint64_t stride = kFlows / (kMigrations + 1);
    std::unordered_map<int, Rx> rx;
    std::vector<PollEvent> events;
    uint8_t buf[8192];
    int closed = 0;
    while (closed < kFlows) {
      Result<int> n = api->PollWait(pfd, &events, Seconds(150));
      if (!n.ok() || *n == 0) {
        break;
      }
      for (const PollEvent& ev : events) {
        if (ev.fd == lfd) {
          Result<int> cfd = api->Accept(lfd, nullptr);
          if (!cfd.ok()) {
            continue;
          }
          accepts_++;
          api->PollAdd(pfd, *cfd, kPollEventIn);
          Rx& r = rx[*cfd];
          r = Rx{};
          if (migrations_ < kMigrations && accepts_ % stride == 0) {
            // Live migration under load: return the fresh session to the OS
            // server and reacquire it while its client is mid-flow.
            migrations_++;
            SimTime m0 = w_->sim().Now();
            if (lib->ReturnToServer(*cfd).ok() && lib->Reacquire(*cfd).ok()) {
              migrate_ns_.push_back(w_->sim().Now() - m0);
              r.migrated = true;
            }
          }
          continue;
        }
        SimTime t0 = w_->sim().Now();
        Result<size_t> got = api->Recv(ev.fd, buf, sizeof(buf), nullptr, false);
        api_.recv.push_back(w_->sim().Now() - t0);
        Rx& r = rx[ev.fd];
        if (got.ok() && *got > 0) {
          Absorb(&r, buf, *got);
          continue;
        }
        api->Close(ev.fd);
        closed++;
        last_served_ = w_->sim().Now();
        bool ok = got.ok() && r.ok && r.have == kHeader + r.size;
        if (ok && done_[r.flow] == 0) {
          done_[r.flow] = 1;
          completions_.emplace_back(r.flow, last_served_);
          migrated_ok_ += r.migrated ? 1 : 0;
        } else {
          bad_++;
        }
        rx.erase(ev.fd);
      }
    }
    api->Close(lfd);
  }

  void Client(int c) {
    SocketApi* api = w_->api(1 + c);
    Rng rng = Rng::Stream(seed_, 100 + static_cast<uint64_t>(c));
    // Staggered arrival over ~2 s, then think time between flows.
    w_->sim().current_thread()->SleepFor(Millis(1) + Millis(2000) * arrival_[c] / kClients +
                                         static_cast<SimDuration>(rng.Below(kMillisecond)));
    std::vector<uint8_t> msg;
    for (uint32_t k = 0; k < kConns; k++) {
      SimTime t_conn = w_->sim().Now();
      if (first_connect_ == 0) {
        first_connect_ = t_conn;
      }
      int fd = -1;
      for (int attempt = 0; attempt < 5; attempt++) {
        fd = *api->CreateSocket(IpProto::kTcp);
        if (api->Connect(fd, SockAddrIn{w_->addr(0), 5001}).ok()) {
          break;
        }
        api->Close(fd);
        fd = -1;
        w_->sim().current_thread()->SleepFor(
            Millis(200 + static_cast<int64_t>(rng.Below(400u << attempt))));
      }
      if (fd < 0) {
        continue;  // counted as a failed flow
      }
      connect_ns_.push_back(w_->sim().Now() - t_conn);
      uint32_t flow = static_cast<uint32_t>(c) * kConns + k;
      uint32_t size = static_cast<uint32_t>(FlowSize(size_rank_[flow]));
      uint32_t client = static_cast<uint32_t>(c);
      msg.resize(kHeader + size);
      std::memcpy(msg.data(), &client, 4);
      std::memcpy(msg.data() + 4, &k, 4);
      std::memcpy(msg.data() + 8, &size, 4);
      std::memcpy(msg.data() + kHeader, pattern_.at(FlowOffset(flow)), size);
      for (size_t sent = 0; sent < msg.size();) {
        SimTime t0 = w_->sim().Now();
        Result<size_t> n = api->Send(fd, msg.data() + sent, msg.size() - sent);
        api_.send.push_back(w_->sim().Now() - t0);
        if (!n.ok()) {
          break;
        }
        sent += *n;
      }
      api->Close(fd);
      w_->sim().current_thread()->SleepFor(Millis(static_cast<int64_t>(rng.Below(50))));
    }
  }

  uint64_t seed_;
  Pattern pattern_;
  std::vector<uint8_t> done_;  // per flow: completed intact exactly once
  std::vector<int> arrival_;    // per client: arrival slot
  std::vector<int> size_rank_;  // per flow: size quantile rank
  std::vector<std::pair<uint32_t, SimTime>> completions_;
  std::vector<SimDuration> connect_ns_;
  std::vector<SimDuration> migrate_ns_;
  uint64_t flow_bytes_ = 0;
  uint64_t accepts_ = 0;
  uint64_t bad_ = 0;
  int migrations_ = 0;
  int migrated_ok_ = 0;
  SimTime first_connect_ = 0;
  SimTime last_served_ = 0;
};

// --- rpc_server: Server (UX) placement, closed-loop pfx RPC clients --------

class RpcServer : public Scenario {
 public:
  static constexpr int kClients = 4;
  static constexpr int kCalls = 2500;  // per client
  static constexpr size_t kMinPayload = 16;
  static constexpr size_t kMaxPayload = 512;
  static constexpr size_t kMaxMsg = kRpcHeaderLen + kMaxPayload;

  explicit RpcServer(uint64_t seed)
      : seed_(seed), pattern_(seed), lat_(kClients * kCalls, -1) {
    w_ = std::make_unique<World>(Config::kServer, MachineProfile::DecStation5000());
    for (int k = 0; k < kClients; k++) {
      w_->SpawnApp(1, Numbered("rpcsrv", k), [this, k] { Serve(k); });
      w_->SpawnApp(0, Numbered("rpc", k), [this, k] { Call(k); });
    }
  }

  SimTime horizon() const override { return Seconds(3600); }
  int server_host() const override { return 1; }

  void Finish(Iteration* it, Digest* d) override {
    it->conns = kClients;
    it->attempted = kClients * kCalls;
    for (size_t i = 0; i < lat_.size(); i++) {
      if (lat_[i] < 0) {
        it->failed++;
        continue;
      }
      it->op_ns.push_back(lat_[i]);
      d->Mix(static_cast<uint64_t>(lat_[i]));
    }
    const uint64_t bytes = proto_.bytes_in + proto_.bytes_out;
    for (int k = 0; k < kClients; k++) {
      if (served_[k] != kCalls) {
        it->failed++;  // server-side count breaks the call/reply bijection
      }
    }
    d->Mix(bytes);
    double span_s = ToSeconds(last_reply_ - first_call_);
    it->goodput_kbps = span_s > 0 ? static_cast<double>(bytes) * 8 / 1000 / span_s : 0;
    uint64_t rpcs = w_->ux_node(0)->rpc_calls().total() + w_->ux_node(1)->rpc_calls().total();
    it->layer["serv.rpc_per_call"] =
        static_cast<double>(rpcs) / static_cast<double>(kClients * kCalls);
    it->layer["proto.msgs"] = static_cast<double>(proto_.msgs_in + proto_.msgs_out);
    it->layer["proto.bytes"] = static_cast<double>(bytes);
    it->named["virt_call_p50_us"] = Quantile(it->op_ns, 0.50) / 1e3;
    it->named["virt_call_p99_us"] = Quantile(it->op_ns, 0.99) / 1e3;
    it->named["virt_goodput_kbps"] = it->goodput_kbps;
  }

 private:
  static uint16_t Port(int k) { return static_cast<uint16_t>(7000 + k); }

  void Serve(int k) {
    SocketApi* api = w_->api(1);
    int lfd = *api->CreateSocket(IpProto::kTcp);
    api->Bind(lfd, SockAddrIn{Ipv4Addr::Any(), Port(k)});
    api->Listen(lfd, 1);
    Result<int> cfd = api->Accept(lfd, nullptr);
    if (cfd.ok()) {
      api->SetOpt(*cfd, SockOpt::kNoDelay, 1);
      TimedStream bs(&w_->sim(), api, *cfd, &api_);
      PfxStream pfx(&bs, kMaxMsg, &proto_);
      Result<uint64_t> served = RpcServeLoop(&pfx, kMaxPayload, &proto_);
      served_[k] = served.ok() ? *served : 0;
      api->Close(*cfd);
    }
    api->Close(lfd);
  }

  // One call outstanding at a time; the reply must carry this call's id
  // and the transformed payload before the next call goes out.
  void Call(int k) {
    SocketApi* api = w_->api(0);
    w_->sim().current_thread()->SleepFor(Millis(2 + k));
    int fd = *api->CreateSocket(IpProto::kTcp);
    if (!api->Connect(fd, SockAddrIn{w_->addr(1), Port(k)}).ok()) {
      api->Close(fd);
      return;
    }
    api->SetOpt(fd, SockOpt::kNoDelay, 1);
    TimedStream bs(&w_->sim(), api, fd, &api_);
    PfxStream pfx(&bs, kMaxMsg, &proto_);
    Rng sizes = Rng::Stream(seed_, 200 + static_cast<uint64_t>(k));
    std::vector<uint8_t> req(kMaxMsg), resp(kMaxMsg), want(kMaxPayload);
    for (int i = 0; i < kCalls; i++) {
      size_t len = kMinPayload + sizes.Below(kMaxPayload - kMinPayload + 1);
      uint64_t id = (static_cast<uint64_t>(k) << 20) | static_cast<uint64_t>(i);
      uint64_t off = id * 131;
      std::memcpy(req.data(), &id, 8);
      req[8] = kRpcRequest;
      std::memcpy(req.data() + kRpcHeaderLen, pattern_.at(off), len);
      for (size_t b = 0; b < len; b++) {
        want[b] = pattern_.at(off)[b] ^ kRpcTransform;
      }
      SimTime t0 = w_->sim().Now();
      if (first_call_ == 0) {
        first_call_ = t0;
      }
      if (!pfx.SendMsg(req.data(), kRpcHeaderLen + len).ok()) {
        break;
      }
      Result<size_t> n = pfx.RecvMsg(resp.data(), resp.size());
      if (!n.ok()) {
        break;
      }
      uint64_t rid = 0;
      std::memcpy(&rid, resp.data(), 8);
      if (*n != kRpcHeaderLen + len || resp[8] != kRpcResponse || rid != id ||
          std::memcmp(resp.data() + kRpcHeaderLen, want.data(), len) != 0) {
        break;  // id bijection or content broken: the rest count as failed
      }
      last_reply_ = w_->sim().Now();
      lat_[static_cast<size_t>(k) * kCalls + static_cast<size_t>(i)] = last_reply_ - t0;
    }
    api->Close(fd);
  }

  uint64_t seed_;
  Pattern pattern_;
  std::vector<SimDuration> lat_;  // per call; -1 until validated
  uint64_t served_[kClients] = {};
  ProtoCounters proto_;
  SimTime first_call_ = 0;
  SimTime last_reply_ = 0;
};

// --- Workload table ---------------------------------------------------------

struct WorkloadDef {
  const char* name;
  const char* placement;
  std::unique_ptr<Scenario> (*make)(uint64_t seed);
};

template <typename S>
std::unique_ptr<Scenario> Make(uint64_t seed) {
  return std::make_unique<S>(seed);
}

const WorkloadDef kWorkloads[] = {
    {"udp_blast", "In-Kernel", Make<UdpBlast>},
    {"tcp_bulk", "Library-SHM-IPF", Make<TcpBulk>},
    {"c10k_churn", "Library-SHM server, In-Kernel clients", Make<C10kChurn>},
    {"rpc_server", "Server", Make<RpcServer>},
};

// --- Per-layer folding of the host profile ----------------------------------

// Module-named share of host time for each profiler domain.
const char* ModuleMetric(ProfDomain d) {
  switch (d) {
    case ProfDomain::kSimSched:
    case ProfDomain::kSimEvent:
      return "sim.sched_pct";
    case ProfDomain::kFiberSwap:
      return "sim.fiber_swap_pct";
    case ProfDomain::kFiberRun:
      return "sim.fiber_run_pct";
    case ProfDomain::kPoolFrame:
      return "netsim.pool_pct";
    case ProfDomain::kNicRing:
    case ProfDomain::kWireDeliver:
      return "netsim.wire_pct";
    case ProfDomain::kPoolMbuf:
      return "mbuf.pool_pct";
    case ProfDomain::kFilterClassify:
      return "filter.classify_pct";
    case ProfDomain::kKernTrap:
    case ProfDomain::kKernIntrRead:
    case ProfDomain::kKernCopyout:
      return "kern.pct";
    case ProfDomain::kSockCopyin:
    case ProfDomain::kSockCopyout:
      return "sock.copy_pct";
    case ProfDomain::kSockWakeup:
      return "sock.wakeup_pct";
    case ProfDomain::kSockOther:
      return "sock.other_pct";
    case ProfDomain::kInetProtoOut:
    case ProfDomain::kInetProtoIn:
      return "inet.proto_pct";
    case ProfDomain::kInetIpOut:
    case ProfDomain::kInetIpIn:
      return "inet.ip_pct";
    case ProfDomain::kInetEtherOut:
    case ProfDomain::kInetMbufQueue:
    case ProfDomain::kInetOther:
      return "inet.other_pct";
    case ProfDomain::kIpcPort:
      return "ipc.port_pct";
    case ProfDomain::kCoreRpc:
      return "core.rpc_pct";
    case ProfDomain::kServRpc:
      return "serv.rpc_pct";
    case ProfDomain::kApp:
      return "api.app_pct";
    case ProfDomain::kOther:
    case ProfDomain::kNumDomains:
      break;
  }
  return nullptr;
}

// Every per-layer metric, in output order, with its unit.
const std::pair<const char*, const char*> kLayerMetrics[] = {
    {"sim.events_per_frame", "events/frame"},
    {"sim.switches_per_frame", "switches/frame"},
    {"sim.fiber_swap_pct", "%"},
    {"sim.fiber_run_pct", "%"},
    {"sim.sched_pct", "%"},
    {"netsim.frames", "count"},
    {"netsim.frame_pool_miss", "count"},
    {"netsim.pool_pct", "%"},
    {"netsim.wire_pct", "%"},
    {"mbuf.pool_miss", "count"},
    {"mbuf.pool_pct", "%"},
    {"kern.traps_per_frame", "traps/frame"},
    {"kern.pct", "%"},
    {"filter.classify_pct", "%"},
    {"filter.installs", "count"},
    {"ipc.port_pct", "%"},
    {"inet.proto_pct", "%"},
    {"inet.ip_pct", "%"},
    {"inet.other_pct", "%"},
    {"inet.rexmt_segs", "count"},
    {"inet.listen_overflows", "count"},
    {"sock.copy_pct", "%"},
    {"sock.wakeup_pct", "%"},
    {"sock.other_pct", "%"},
    {"core.rpc_pct", "%"},
    {"core.rpc_per_conn", "rpc/conn"},
    {"core.server_cpu_busy_pct", "%"},
    {"core.rpc_queue_p99_us", "us"},
    {"core.rpc_service_p99_us", "us"},
    {"core.migrate_p99_ms", "ms"},
    {"serv.rpc_pct", "%"},
    {"serv.rpc_per_call", "rpc/call"},
    {"serv.rpc_queue_p99_us", "us"},
    {"api.send_p50_us", "us"},
    {"api.recv_p50_us", "us"},
    {"api.send_lateness_p99_us", "us"},
    {"api.app_pct", "%"},
    {"proto.msgs", "count"},
    {"proto.bytes", "bytes"},
    {"testbed.setup_us_per_host", "us"},
    {"obs.prof_attributed_pct", "%"},
    {"obs.trace_overhead_pct", "%"},
};

// --- One iteration ----------------------------------------------------------

void ResetRunScopedLedgers() {
  PacketJourney::Get().Reset();
  DropLedger::Get().Reset();
  MetastateLedger::Get().Reset();
}

// p99 of queue wait (or service) over every op of a server's recorder.
double RecorderP99Us(const RpcOpRecorder& rec, bool service) {
  LatencyHistogram all;
  for (size_t i = 0; i < rec.slots(); i++) {
    all.Merge(service ? rec.op(i).service : rec.op(i).queue_wait);
  }
  return all.QuantileMicros(0.99);
}

Iteration RunIteration(const WorkloadDef& wl, uint64_t seed, bool traced) {
  ResetRunScopedLedgers();
  Iteration it;
  it.traced = traced;
  const uint64_t frame_miss0 = FramePool::misses();
  const uint64_t mbuf_miss0 = MbufPool::mbuf_misses() + MbufPool::cluster_misses();

  Clock::time_point t0 = Clock::now();
  std::unique_ptr<Scenario> s = wl.make(seed);
  Clock::time_point t1 = Clock::now();
  HostProfiler& hp = HostProfiler::Get();
  if (traced) {
    hp.Start();
  }
  World& w = s->world();
  w.sim().Run(s->horizon());
  if (traced) {
    it.prof = hp.Snapshot();
    hp.Stop();
  }
  Clock::time_point t2 = Clock::now();
  it.setup_ns = NsBetween(t0, t1);
  it.sim_ns = NsBetween(t1, t2);

  Digest d;
  s->Finish(&it, &d);
  it.frames = w.wire().frames_carried();
  it.events = w.sim().events_executed();
  it.switches = w.sim().thread_switches();
  d.Mix(it.frames);
  d.Mix(it.events);
  d.Mix(static_cast<uint64_t>(w.sim().Now()));
  it.digest = d.h;

  // Layer counters read through public accessors.
  uint64_t traps = 0, rexmt = 0, lib_rpcs = 0;
  it.hosts = s->hosts();
  for (int h = 0; h < it.hosts; h++) {
    if (w.kernel_node(h) != nullptr) {
      traps += w.kernel_node(h)->traps();
    }
    if (w.library(h) != nullptr) {
      lib_rpcs += w.library(h)->rpc_calls().total();
    }
    for (Stack* st : w.AllStacks(h)) {
      rexmt += st->tcp().stats().retransmits;
    }
  }
  const double frames = std::max<double>(1, static_cast<double>(it.frames));
  const int srv = s->server_host();
  it.layer["sim.events_per_frame"] = static_cast<double>(it.events) / frames;
  it.layer["sim.switches_per_frame"] = static_cast<double>(it.switches) / frames;
  it.layer["netsim.frames"] = static_cast<double>(it.frames);
  it.layer["kern.traps_per_frame"] = static_cast<double>(traps) / frames;
  it.layer["filter.installs"] =
      static_cast<double>(MetastateLedger::Get().total(MetaEvent::kFilterInstall));
  it.layer["inet.rexmt_segs"] = static_cast<double>(rexmt);
  it.layer["inet.listen_overflows"] =
      static_cast<double>(DropLedger::Get().total(DropReason::kTcpListenOverflow));
  it.layer["core.rpc_per_conn"] =
      it.conns > 0 ? static_cast<double>(lib_rpcs) / static_cast<double>(it.conns) : 0;
  it.layer["core.server_cpu_busy_pct"] =
      100.0 * static_cast<double>(w.host(srv)->cpu()->busy()) /
      std::max<double>(1, static_cast<double>(w.sim().Now()));
  if (w.net_server(srv) != nullptr) {
    RpcOpRecorder rec = w.net_server(srv)->MergedRpcStats();
    it.layer["core.rpc_queue_p99_us"] = RecorderP99Us(rec, false);
    it.layer["core.rpc_service_p99_us"] = RecorderP99Us(rec, true);
  }
  if (w.ux_server(srv) != nullptr) {
    it.layer["serv.rpc_queue_p99_us"] = RecorderP99Us(w.ux_server(srv)->MergedRpcStats(), false);
  }
  it.layer["api.send_p50_us"] = Quantile(s->api_times().send, 0.5) / 1e3;
  it.layer["api.recv_p50_us"] = Quantile(s->api_times().recv, 0.5) / 1e3;

  s->Teardown();
  s.reset();
  it.frame_pool_miss = FramePool::misses() - frame_miss0;
  it.mbuf_pool_miss = MbufPool::mbuf_misses() + MbufPool::cluster_misses() - mbuf_miss0;
  it.layer["netsim.frame_pool_miss"] = static_cast<double>(it.frame_pool_miss);
  it.layer["mbuf.pool_miss"] = static_cast<double>(it.mbuf_pool_miss);
  it.layer["testbed.setup_us_per_host"] = it.setup_ns / 1e3 / std::max(1, it.hosts);
  return it;
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

void PrintIteration(int idx, const Iteration& it, const char* role) {
  std::printf(
      "iter %d %-8s setup %.6f s  sim %.4f s  %llu frames  %.1f ns/frame  digest %016llx  "
      "pool misses frame %llu mbuf %llu  failed %llu/%llu\n",
      idx, role, it.setup_ns / 1e9, it.sim_ns / 1e9, static_cast<unsigned long long>(it.frames),
      it.sim_ns / static_cast<double>(std::max<uint64_t>(1, it.frames)),
      static_cast<unsigned long long>(it.digest),
      static_cast<unsigned long long>(it.frame_pool_miss),
      static_cast<unsigned long long>(it.mbuf_pool_miss),
      static_cast<unsigned long long>(it.failed), static_cast<unsigned long long>(it.attempted));
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); i++) {
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0,
                  metrics[i].unit.c_str());
    out += buf;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <udp_blast|tcp_bulk|c10k_churn|rpc_server> --seed N "
               "--seconds S --trace <0|1>\n",
               argv0);
  return 2;
}

}  // namespace
}  // namespace psd

int main(int argc, char** argv) {
  using namespace psd;
  const char* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--workload") == 0) {
      workload = argv[i + 1];
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      seed = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (std::strcmp(argv[i], "--seconds") == 0) {
      seconds = std::atof(argv[i + 1]);
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      trace = std::atoi(argv[i + 1]);
    } else {
      return Usage(argv[0]);
    }
  }
  if (argc % 2 == 0 || workload == nullptr || seconds <= 0 || (trace != 0 && trace != 1)) {
    return Usage(argv[0]);
  }
  const WorkloadDef* wl = nullptr;
  for (const WorkloadDef& d : kWorkloads) {
    if (std::strcmp(d.name, workload) == 0) {
      wl = &d;
    }
  }
  if (wl == nullptr) {
    return Usage(argv[0]);
  }
  std::printf("perfbench %s seed %llu placement %s trace %d budget %.1f s\n", wl->name,
              static_cast<unsigned long long>(seed), wl->placement, trace, seconds);

  // Warm-up (cold pools), then measured iterations until the budget is
  // spent. A traced run alternates untraced and traced iterations so the
  // trace overhead is measured on the same process and seed.
  Iteration ref = RunIteration(*wl, seed, false);
  PrintIteration(0, ref, "warm-up");
  bool correct = ref.failed == 0;
  uint64_t attempted = ref.attempted;
  uint64_t failed = ref.failed;
  // The footprint of one cold run, whatever the budget allows afterwards.
  const double peak_rss_mb = PeakRssMb();
  std::vector<Iteration> runs;
  constexpr size_t kMinIterations = 4;
  Clock::time_point start = Clock::now();
  while (runs.size() < kMinIterations || NsBetween(start, Clock::now()) < seconds * 1e9) {
    bool traced = trace == 1 && runs.size() % 2 == 1;
    // The first World built after a run and a ledger reset pays for
    // refilling the caches they evicted: 4x the construction work itself on
    // tcp_bulk, and varying with whatever else the host is doing. Build and
    // drop one World first, so the timed set-up is as warm as the pools.
    ResetRunScopedLedgers();
    wl->make(seed)->Teardown();
    Iteration it = RunIteration(*wl, seed, traced);
    PrintIteration(static_cast<int>(runs.size()) + 1, it, traced ? "traced" : "measured");
    if (it.digest != ref.digest) {
      std::fprintf(stderr, "perfbench: iteration %zu digest %016llx differs from %016llx\n",
                   runs.size() + 1, static_cast<unsigned long long>(it.digest),
                   static_cast<unsigned long long>(ref.digest));
      correct = false;
    }
    correct = correct && it.failed == 0;
    attempted += it.attempted;
    failed += it.failed;
    // Keep only what the summary reads, so the process footprint does not
    // grow with the number of iterations the budget allows.
    std::vector<SimDuration>().swap(it.op_ns);
    it.named.clear();
    decltype(it.prof.fibers)().swap(it.prof.fibers);
    decltype(it.prof.stacks)().swap(it.prof.stacks);
    runs.push_back(std::move(it));
  }
  std::printf("digest %016llx\n", static_cast<unsigned long long>(ref.digest));

  auto values_of = [&](bool traced, auto fn) {
    std::vector<double> v;
    for (const Iteration& it : runs) {
      if (it.traced == traced) {
        v.push_back(fn(it));
      }
    }
    return v;
  };
  auto median_of = [&](bool traced, auto fn) { return Median(values_of(traced, fn)); };
  // Interference from other work on the host only ever adds time, and on a
  // shared machine it comes in phases seconds long that can cover half a
  // run. The fastest iteration is the steadiest estimate of the engine's
  // own cost (bench_engine reports the same); the median is printed too.
  auto min_of = [&](bool traced, auto fn) {
    std::vector<double> v = values_of(traced, fn);
    return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
  };
  auto ns_per_frame = [](const Iteration& it) {
    return it.sim_ns / static_cast<double>(std::max<uint64_t>(1, it.frames));
  };

  // The workload's own named metrics (virtual, identical every iteration).
  std::printf("%s:", wl->name);
  for (const auto& [name, value] : ref.named) {
    std::printf(" %s %.6g", name.c_str(), value);
  }
  std::printf("  op_fail_pct %.6g %%  median wall_ns_per_frame %.6g ns\n",
              100.0 * static_cast<double>(failed) / static_cast<double>(std::max<uint64_t>(1, attempted)),
              median_of(false, ns_per_frame));

  std::vector<Metric> metrics;
  if (trace == 0) {
    metrics = {
        {"wall_ns_per_frame", min_of(false, ns_per_frame), "ns"},
        {"setup_s", median_of(false, [](const Iteration& it) { return it.setup_ns / 1e9; }), "s"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
        {"virt_goodput_kbps", ref.goodput_kbps, "kb/s"},
        {"virt_op_p50_us", Quantile(ref.op_ns, 0.50) / 1e3, "us"},
        {"virt_op_p95_us", Quantile(ref.op_ns, 0.95) / 1e3, "us"},
    };
  } else {
    // Counters from the last (warm) iteration; host-time shares from the
    // traced iterations' summed profiles.
    std::map<std::string, double> layer = runs.back().layer;
    double wall = 0, attributed = 0;
    std::map<std::string, double> dom_ns;
    bool prof_enabled = false;
    for (const Iteration& it : runs) {
      if (!it.traced || !it.prof.enabled) {
        continue;
      }
      prof_enabled = true;
      wall += it.prof.wall_ns;
      attributed += it.prof.attributed_ns;
      for (const HostProfReport::Dom& dom : it.prof.domains) {
        if (const char* m = ModuleMetric(dom.domain)) {
          dom_ns[m] += dom.total_ns;
        }
      }
    }
    for (const auto& [name, ns] : dom_ns) {
      layer[name] = wall > 0 ? 100.0 * ns / wall : 0;
    }
    layer["obs.prof_attributed_pct"] = wall > 0 ? 100.0 * attributed / wall : 0;
    double untraced = min_of(false, ns_per_frame);
    double traced = min_of(true, ns_per_frame);
    layer["obs.trace_overhead_pct"] = untraced > 0 ? 100.0 * (traced - untraced) / untraced : 0;
    layer["testbed.setup_us_per_host"] =
        median_of(false, [](const Iteration& it) { return it.setup_ns / 1e3 / std::max(1, it.hosts); });
    for (const auto& [name, unit] : kLayerMetrics) {
      metrics.push_back({name, layer.count(name) != 0 ? layer[name] : 0.0, unit});
    }
    if (prof_enabled && layer["obs.prof_attributed_pct"] < 95.0) {
      std::fprintf(stderr, "perfbench: host attribution %.1f%% is below 95%%\n",
                   layer["obs.prof_attributed_pct"]);
      correct = false;
    }
  }
  for (const Metric& m : metrics) {
    std::printf("  %-28s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}
