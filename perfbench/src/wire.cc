// The wire workloads (browse, purchase): an open-loop load generator
// against a running mbp_catalog_shard, its output checks, and the traced
// run's in-process replays of the recorded requests.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/arena.h"
#include "common/wal.h"
#include "core/mechanism.h"
#include "core/pricing_function.h"
#include "data/synthetic.h"
#include "ml/trainer.h"
#include "net/protocol.h"
#include "random/distributions.h"
#include "random/rng.h"
#include "serving/catalog_registry.h"
#include "serving/fulfillment.h"
#include "serving/pricing_snapshot.h"
#include "serving/synthetic_catalog.h"
#include "src/load_common.h"
#include "src/measure.h"

namespace perfbench {
namespace {

using mbp::net::Verb;

// Two buyers, one connection and one generator thread each.
constexpr size_t kConnections = 2;
// Listing popularity: zipf(1.1) over the catalog.
constexpr double kZipfS = 1.1;
// One delivered sale in this many keeps its weights for the REPLAY check.
constexpr size_t kKeepWeightsEvery = 8;

// ------------------------------------------------------- connections

// One non-blocking TCP connection to the shard with its own request-id
// space. Not thread-safe: one connection per generator thread.
class Connection {
 public:
  static std::unique_ptr<Connection> Open(uint16_t port) {
    const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return nullptr;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      close(fd);
      return nullptr;
    }
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK);
    return std::unique_ptr<Connection>(new Connection(fd));
  }
  ~Connection() { close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  // Appends one encoded request to the output queue.
  void Queue(const mbp::net::Request& request) {
    const size_t size = mbp::net::EncodedRequestSize(request);
    const size_t old = out_.size();
    out_.resize(old + size);
    mbp::net::EncodeRequestInto(request,
                                reinterpret_cast<uint8_t*>(out_.data() + old));
    bytes_sent_ += size;
  }

  // Writes as much queued output as the socket takes. False on error.
  bool Flush() {
    while (out_off_ < out_.size()) {
      const ssize_t n = send(fd_, out_.data() + out_off_,
                             out_.size() - out_off_, MSG_NOSIGNAL);
      if (n > 0) {
        out_off_ += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    if (out_off_ == out_.size()) {
      out_.clear();
      out_off_ = 0;
    }
    return true;
  }
  bool HasOutput() const { return out_off_ < out_.size(); }

  // Reads what is available and decodes every complete response, calling
  // on_response(response). False on a closed or corrupt stream.
  template <typename Fn>
  bool Drain(Fn&& on_response) {
    for (;;) {
      char buf[1 << 16];
      const ssize_t n = recv(fd_, buf, sizeof(buf), 0);
      if (n > 0) {
        in_.append(buf, static_cast<size_t>(n));
        if (static_cast<size_t>(n) < sizeof(buf)) break;
        continue;
      }
      if (n == 0) return false;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      return false;
    }
    size_t off = 0;
    while (off < in_.size()) {
      auto consumed = mbp::net::DecodeResponse(
          reinterpret_cast<const uint8_t*>(in_.data() + off),
          in_.size() - off, &response_);
      if (!consumed.ok()) return false;
      if (*consumed == 0) break;
      bytes_received_ += *consumed;
      on_response(response_);
      off += *consumed;
    }
    in_.erase(0, off);
    return true;
  }

  // Blocking single round trip (STATS, REPLAY, probes) on an idle
  // connection.
  bool Roundtrip(mbp::net::Request request, mbp::net::Response* out,
                 int timeout_ms = 10000) {
    request.request_id = NextId();
    Queue(request);
    const int64_t deadline = NowNs() + int64_t{timeout_ms} * 1000000;
    bool got = false;
    while (!got && NowNs() < deadline) {
      if (!Flush()) return false;
      pollfd pfd{fd_, static_cast<short>(POLLIN | (HasOutput() ? POLLOUT : 0)),
                 0};
      poll(&pfd, 1, 50);
      if (!Drain([&](const mbp::net::Response& r) {
            if (r.request_id == request.request_id) {
              *out = r;
              got = true;
            }
          })) {
        return false;
      }
    }
    return got;
  }

  uint64_t NextId() { return next_id_++; }
  int fd() const { return fd_; }
  uint64_t bytes_sent() const { return bytes_sent_; }
  uint64_t bytes_received() const { return bytes_received_; }

 private:
  explicit Connection(int fd) : fd_(fd) {}

  int fd_;
  std::string out_;
  size_t out_off_ = 0;
  std::string in_;
  mbp::net::Response response_;
  uint64_t next_id_ = 1;
  uint64_t bytes_sent_ = 0;
  uint64_t bytes_received_ = 0;
};

// ------------------------------------------------------ wire workload

struct WireConfig {
  std::string workload;  // "browse" | "purchase"
  uint16_t port = 0;
  uint64_t seed = 1;
  bool trace = false;
  int server_pid = 0;
  std::string workdir;
  mbp::serving::SyntheticCatalogSpec catalog;
  mbp::serving::FulfillmentOptions fulfillment;  // mirrors the shard's flags
  double rate = 1000;               // fixed rate, requests/s (all conns)
  std::vector<double> ladder;       // max_rps ladder, requests/s
  double limit_us = 1000;           // p99 limit for a ladder rung
  double fixed_s = 5;               // length of the fixed-rate phase
  double ladder_s = 0;              // length of the ladder (0: none)
  std::vector<int> shard_cpus;  // the shard's CPUs, for PinShardThreads
  uint64_t run_index = 0;       // which of a run's shards this is
  // Request mix.
  size_t budget_pct = 0;   // browse: BUDGET_TO_X share
  size_t buy_pct = 0;      // purchase: BUY share
  size_t retry_pct = 0;    // purchase: share of BUYs re-sending a txn id
  size_t xs_per_price = 1;
  // One request in `mix_every` is drawn from the mix above; the others
  // are browsing in the background (see Stream::Next).
  size_t mix_every = 1;
};

// One request of the stream: what was asked, when it was due and sent.
struct Sent {
  int64_t due_ns = 0;
  int64_t sent_ns = 0;
  uint32_t curve = 0;
  Verb verb = Verb::kPriceAt;
  bool answered = false;
  bool retry = false;
  uint64_t txn = 0;
  double delta = 0.0;
  int32_t audit = -1;  // index into the thread's audit log, or -1
  bool background = false;  // browsing around the mix, not timed
};

// A request kept for the output checks and the traced replays.
struct Audit {
  uint32_t curve = 0;
  Verb verb = Verb::kPriceAt;
  std::vector<double> args;
  std::vector<double> values;
  uint64_t txn = 0;
  double delta = 0.0;
  bool ok = false;
};

// A first delivery of a sale, as the buyer saw it.
struct SaleSeen {
  uint32_t curve = 0;
  double delta = 0.0;
  mbp::net::SaleRecordPayload record;
  uint64_t weights_hash = 0;
  std::vector<double> weights;  // kept for replay-sampled sales only
};

struct ThreadResult {
  std::vector<double> lat_price_us;  // PRICE_AT + BUDGET_TO_X, from due
  std::vector<double> lat_buy_us;
  std::vector<std::pair<int64_t, double>> timed;  // (due, latency)
  std::vector<double> rtt_us;        // from send, all requests
  std::vector<int64_t> background_due;  // due times of background requests
  std::vector<double> lateness_us;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t retry_mismatch = 0;
  uint64_t retries = 0;
  uint64_t max_outstanding = 0;
  uint64_t bytes = 0;
  std::vector<Audit> audits;
  std::unordered_map<uint64_t, SaleSeen> sales;  // txn -> first delivery
};

// Per-connection request stream: deterministic in (seed, connection).
class Stream {
 public:
  Stream(const WireConfig& config, const mbp::random::ZipfIndex& zipf,
         const std::vector<uint32_t>& perm, size_t conn)
      : config_(config),
        zipf_(zipf),
        perm_(perm),
        // Each shard of a run draws a stream of its own, so the median
        // over the shards spans one sample of the workload per shard.
        rng_(Mix(config.seed ^
                 (0xC0FFEEull + conn + (config.run_index << 8)))),
        // Every shard of a run recovers the ledger of the ones before it,
        // so each generator run sells under txn ids of its own.
        txn_base_(Mix(config.seed * 31 + conn + (config.run_index << 16)) &
                  ~0xFFFFFFFFFFull) {}

  // Fills `request` and `sent` with the next request of the stream.
  // `completed` holds recent first-delivery txn ids of this connection
  // (the pool a retry re-sends from).
  void Next(mbp::net::Request* request, Sent* sent,
            const std::vector<uint64_t>& completed,
            const std::unordered_map<uint64_t, SaleSeen>& sales) {
    const uint32_t curve = perm_[zipf_.Sample(rng_)];
    sent->curve = curve;
    sent->retry = false;
    request->curve_id = mbp::serving::SyntheticCurveId(curve);
    request->args.clear();
    request->delta = 0.0;
    request->txn_id = 0;
    request->token.clear();
    const mbp::serving::SyntheticCurveParams p =
        mbp::serving::SyntheticCurveParamsFor(config_.catalog, curve);
    const double x_max = p.dx * static_cast<double>(p.knots);
    const uint64_t pick = rng_.NextBounded(100);
    // Background browsing: point PRICE_AT between the mix's requests. A
    // shard serving a few hundred purchases a second alone sleeps between
    // them, and a request that finds it asleep finds its caches cold too:
    // what that costs is set by the host's other tenants, and it decided
    // the median. A market's shard also serves its browsers, which keep
    // it awake.
    sent->background = count_++ % config_.mix_every != 0;
    if (sent->background) {
      request->verb = Verb::kPriceAt;
      request->args.push_back(rng_.NextDouble(0.0, x_max));
    } else if (config_.workload == "browse") {
      if (pick < config_.budget_pct) {
        request->verb = Verb::kBudgetToX;
        const double max_price = p.scale * std::sqrt(x_max);
        request->args.push_back(rng_.NextDouble(0.0, max_price));
      } else {
        request->verb = Verb::kPriceAt;
        for (size_t i = 0; i < config_.xs_per_price; ++i) {
          request->args.push_back(rng_.NextDouble(0.0, x_max));
        }
      }
    } else if (pick < config_.buy_pct) {
      request->verb = Verb::kBuy;
      const bool retry = !completed.empty() &&
                         rng_.NextBounded(100) < config_.retry_pct;
      if (retry) {
        const uint64_t txn = completed[rng_.NextBounded(completed.size())];
        const SaleSeen& sale = sales.at(txn);
        sent->curve = sale.curve;
        request->curve_id = mbp::serving::SyntheticCurveId(sale.curve);
        request->delta = sale.delta;
        request->txn_id = txn;
        sent->retry = true;
      } else {
        request->delta = 1.0 / rng_.NextDouble(1.0, x_max);
        request->txn_id = txn_base_ + (++txn_seq_);
      }
    } else {
      request->verb = Verb::kPriceAt;
      for (size_t i = 0; i < config_.xs_per_price; ++i) {
        request->args.push_back(rng_.NextDouble(0.0, x_max));
      }
    }
    sent->verb = request->verb;
    sent->txn = request->txn_id;
    sent->delta = request->delta;
  }

 private:
  const WireConfig& config_;
  const mbp::random::ZipfIndex& zipf_;
  const std::vector<uint32_t>& perm_;
  mbp::random::Rng rng_;
  uint64_t txn_base_;
  uint64_t txn_seq_ = 0;
  uint64_t count_ = 0;
};

struct PhaseOptions {
  double rate = 0;          // all connections together
  int64_t start_ns = 0;
  int64_t end_ns = 0;       // no request is due at or after this
  bool record = false;      // keep latencies / audits
  size_t audit_every = 0;   // 0 = no audits
  Tracer* tracer = nullptr;  // client round-trip spans (traced phase)
};

// Drives one connection through one open-loop phase: sends every request
// as it falls due (coalescing those due together into one write), reads
// responses as they arrive, and waits up to 10 s past the phase for
// stragglers, which count as failed.
void RunConnectionPhase(Connection* conn, Stream* stream, size_t index,
                        const PhaseOptions& phase,
                        std::vector<uint64_t>* completed, ThreadResult* out) {
  const OpenLoopSchedule schedule(
      phase.start_ns, phase.rate / static_cast<double>(kConnections),
      static_cast<double>(index) / static_cast<double>(kConnections));
  const uint64_t total = schedule.CountBefore(phase.end_ns);
  std::vector<Sent> sent(total);
  const uint64_t id_base = conn->NextId();
  for (uint64_t i = 1; i < total; ++i) conn->NextId();
  mbp::net::Request request;
  uint64_t next = 0;
  uint64_t answered = 0;
  uint64_t outstanding = 0;
  const uint64_t bytes_before = conn->bytes_sent() + conn->bytes_received();
  // Stragglers: a miss on the ladder leaves at most one rung of backlog,
  // which drains well within this; what does not arrive counts failed.
  const int64_t give_up_ns = phase.end_ns + int64_t{10000000000};
  bool broken = false;

  const auto on_response = [&](const mbp::net::Response& r) {
    if (r.request_id < id_base || r.request_id >= id_base + total) return;
    Sent& s = sent[r.request_id - id_base];
    if (s.answered) return;
    s.answered = true;
    ++answered;
    --outstanding;
    const int64_t done = NowNs();
    const bool ok = r.code == mbp::StatusCode::kOk;
    if (phase.record) {
      out->rtt_us.push_back(static_cast<double>(done - s.sent_ns) / 1e3);
    }
    if (!phase.record || s.background) {
      if (!ok) ++out->failed;
      if (phase.record) out->background_due.push_back(s.due_ns);
    } else {
      // A failure misses any latency limit.
      const double lat = ok ? DueLatencyMicros(s.due_ns, done) : 1e12;
      (s.verb == Verb::kBuy ? out->lat_buy_us : out->lat_price_us)
          .push_back(lat);
      out->timed.emplace_back(s.due_ns, lat);
      if (!ok) ++out->failed;
      // One round-trip span in 16 keeps the trace file small; the RTT
      // mean uses every request.
      if (phase.tracer != nullptr && r.request_id % 16 == 0) {
        phase.tracer->Add("client.request", s.sent_ns, done, -1,
                          r.request_id);
      }
    }
    if (s.audit >= 0) {
      Audit& a = out->audits[static_cast<size_t>(s.audit)];
      a.ok = ok;
      a.values = r.values;
    }
    if (ok && s.verb == Verb::kBuy) {
      const uint64_t h = HashDoubles(r.buy.weights);
      auto it = out->sales.find(s.txn);
      if (s.retry) {
        ++out->retries;
        // A re-sent txn id must re-deliver the recorded sale: same
        // record, same bytes, nothing charged.
        if (it == out->sales.end() || !(it->second.record == r.buy.record) ||
            it->second.weights_hash != h) {
          ++out->retry_mismatch;
        }
      } else if (it == out->sales.end()) {
        SaleSeen seen;
        seen.curve = s.curve;
        seen.delta = s.delta;
        seen.record = r.buy.record;
        seen.weights_hash = h;
        if (out->sales.size() % kKeepWeightsEvery == 0) {
          seen.weights = r.buy.weights;
        }
        out->sales.emplace(s.txn, std::move(seen));
        completed->push_back(s.txn);
        if (completed->size() > 4096) {
          completed->erase(completed->begin(), completed->begin() + 2048);
        }
      }
    }
  };

  while (!broken) {
    int64_t now = NowNs();
    // Send everything that has fallen due.
    while (next < total && schedule.DueNs(next) <= now) {
      Sent& s = sent[next];
      s.due_ns = schedule.DueNs(next);
      stream->Next(&request, &s, *completed, out->sales);
      request.request_id = id_base + next;
      conn->Queue(request);
      if (phase.record && phase.audit_every > 0 &&
          (next % phase.audit_every == 0) && !s.retry) {
        Audit a;
        a.curve = s.curve;
        a.verb = s.verb;
        a.args = request.args;
        a.txn = s.txn;
        a.delta = s.delta;
        s.audit = static_cast<int32_t>(out->audits.size());
        out->audits.push_back(std::move(a));
      }
      s.sent_ns = now;
      if (phase.record) {
        out->lateness_us.push_back(LatenessMicros(s.due_ns, now));
        ++out->attempted;
      }
      ++next;
      ++outstanding;
    }
    out->max_outstanding = std::max(out->max_outstanding, outstanding);
    if (!conn->Flush()) {
      broken = true;
      break;
    }
    if (next == total && answered == total) break;
    if (now > give_up_ns) break;
    // Busy-poll: the generator owns its CPUs, and sleeping would add its
    // own wake-up latency (a halted vCPU takes tens of microseconds to
    // resume) to every response it times.
    // Yield between polls so per-CPU kernel work queued on these CPUs is
    // never starved by the poll loop.
    sched_yield();
    if (!conn->Drain(on_response)) broken = true;
  }
  const uint64_t missing = total - answered;
  out->failed += missing;
  if (phase.record) {
    for (uint64_t i = 0; i < total; ++i) {
      if (sent[i].answered || sent[i].background) continue;
      out->lat_price_us.push_back(1e12);
      out->timed.emplace_back(schedule.DueNs(i), 1e12);
    }
  }
  out->bytes += conn->bytes_sent() + conn->bytes_received() - bytes_before;
}

struct PhaseResult {
  std::vector<double> lat_price_us, lat_buy_us, rtt_us, lateness_us;
  std::vector<int64_t> background_due;
  uint64_t attempted = 0, failed = 0, retries = 0, retry_mismatch = 0,
           max_outstanding = 0, bytes = 0;
  double wall_s = 0;
  std::vector<std::pair<int64_t, double>> timed;
  int64_t start_ns = 0, end_ns = 0;
  std::vector<double> slice_cpu_s;  // shard CPU per time slice
  // Requests due in time slice k of `slices` (background included), and
  // the median latency of the timed ones.
  std::pair<size_t, double> SliceP50(size_t k, size_t slices) const {
    const int64_t span = end_ns - start_ns;
    const int64_t lo = start_ns + span * static_cast<int64_t>(k) /
                                      static_cast<int64_t>(slices);
    const int64_t hi = start_ns + span * static_cast<int64_t>(k + 1) /
                                      static_cast<int64_t>(slices);
    std::vector<double> lat;
    for (const auto& [due, us] : timed) {
      if (due >= lo && due < hi) lat.push_back(us);
    }
    size_t ops = lat.size();
    for (const int64_t due : background_due) ops += due >= lo && due < hi;
    std::sort(lat.begin(), lat.end());
    return {ops, Percentile(lat, 50)};
  }
  std::vector<double> all_us() const {
    std::vector<double> all = lat_price_us;
    all.insert(all.end(), lat_buy_us.begin(), lat_buy_us.end());
    return all;
  }
  // p99 of each of `windows` consecutive slices of the phase (by due
  // time), and their median: a host stall of a few milliseconds lands in
  // one slice instead of deciding the whole phase's tail. Slices with too
  // few samples for a p99 make it unsupported (returned as +inf).
  double WindowedP99(size_t windows) const {
    std::vector<std::pair<int64_t, double>> by_due = timed;
    std::sort(by_due.begin(), by_due.end());
    std::vector<double> p99s;
    for (size_t w = 0; w < windows; ++w) {
      const size_t lo = by_due.size() * w / windows;
      const size_t hi = by_due.size() * (w + 1) / windows;
      std::vector<double> slice;
      for (size_t i = lo; i < hi; ++i) slice.push_back(by_due[i].second);
      if (!PercentileSupported(slice.size(), 99)) return HUGE_VAL;
      std::sort(slice.begin(), slice.end());
      p99s.push_back(Percentile(slice, 99));
    }
    return Median(p99s);
  }
};

std::vector<int> ParseCpus(const std::string& list) {
  std::vector<int> cpus;
  std::stringstream in(list);
  for (std::string item; std::getline(in, item, ',');) {
    if (!item.empty()) cpus.push_back(std::stoi(item));
  }
  return cpus;
}

// Binds thread `tid` to one CPU.
void PinTo(int tid, int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(tid, sizeof(set), &set);
}

class WireRun {
 public:
  explicit WireRun(WireConfig config)
      : config_(std::move(config)),
        zipf_(config_.catalog.num_curves, kZipfS) {
    // Zipf rank -> curve index through a seeded permutation, so the hot
    // curves are different listings under different seeds.
    perm_.resize(config_.catalog.num_curves);
    for (size_t i = 0; i < perm_.size(); ++i) {
      perm_[i] = static_cast<uint32_t>(i);
    }
    mbp::random::Rng rng(Mix(config_.seed ^ 0x5EEDull));
    for (size_t i = perm_.size(); i > 1; --i) {
      std::swap(perm_[i - 1], perm_[rng.NextBounded(i)]);
    }
    sales_.resize(kConnections);
    completed_.resize(kConnections);
    // The CPUs this process was started on, one per connection's thread.
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &set)) gen_cpus_.push_back(cpu);
      }
    }
    for (size_t c = 0; c < kConnections; ++c) {
      streams_.push_back(
          std::make_unique<Stream>(config_, zipf_, perm_, c));
    }
  }

  // Opens the connections, all served by one shard event loop. The shard
  // listens on every loop with EPOLLEXCLUSIVE, and the kernel hands a new
  // connection to the first loop waiting for one: the same loop, unless it
  // happens to be busy. Left to chance, two buyers shared a loop on some
  // runs and not on others, which moved latency and CPU per request by a
  // third. So each new connection makes sequential round trips while the
  // shard's per-thread wake-ups are read from /proc, and one that landed
  // on another loop than the first connection is replaced.
  bool Connect() {
    int loop = 0;
    for (int attempt = 0; conns_.size() < kConnections; ++attempt) {
      auto conn = Connection::Open(config_.port);
      if (conn == nullptr) return false;
      const int served_by = ServingThread(conn.get());
      if (conns_.empty()) loop = served_by;
      if (served_by != loop && attempt < 64) continue;
      if (served_by != loop) {
        std::printf("note: connections are on different event loops\n");
      }
      conns_.push_back(std::move(conn));
    }
    PinShardThreads(loop);
    return true;
  }

  // Runs one open-loop phase on every connection. With `slices` > 0 the
  // shard's CPU time is also sampled at the phase's start and at each of
  // `slices` equal time slices (PhaseResult::slice_cpu_s).
  PhaseResult Phase(double rate, double seconds, bool record,
                    size_t audit_every, Tracer* tracer, size_t slices = 0) {
    PhaseOptions opts;
    opts.rate = rate;
    opts.start_ns = NowNs() + 2000000;
    opts.end_ns = opts.start_ns + static_cast<int64_t>(seconds * 1e9);
    opts.record = record;
    opts.audit_every = audit_every;
    std::vector<ThreadResult> results(kConnections);
    std::vector<Tracer> tracers;
    for (size_t c = 0; c < kConnections; ++c) {
      tracers.emplace_back(tracer != nullptr);
    }
    std::vector<std::thread> threads;
    for (size_t c = 0; c < kConnections; ++c) {
      threads.emplace_back([&, c] {
        // Each polling thread on a CPU of its own: two on one CPU take
        // turns, and a response waits for its thread's turn.
        if (gen_cpus_.size() >= kConnections) PinTo(0, gen_cpus_[c]);
        PhaseOptions mine = opts;
        mine.tracer = tracer != nullptr ? &tracers[c] : nullptr;
        // Sales persist across phases so retries can re-send any txn id
        // this connection has seen delivered.
        results[c].sales = std::move(sales_[c]);
        RunConnectionPhase(conns_[c].get(), streams_[c].get(), c, mine,
                           &completed_[c], &results[c]);
      });
    }
    PhaseResult merged;
    merged.start_ns = opts.start_ns;
    merged.end_ns = opts.end_ns;
    if (slices > 0) {
      const auto sleep_until = [](int64_t t) {
        const int64_t wait = t - NowNs();
        if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
      };
      sleep_until(opts.start_ns);
      double prev = ReadProc(config_.server_pid).cpu_s;
      for (size_t k = 1; k <= slices; ++k) {
        sleep_until(opts.start_ns + (opts.end_ns - opts.start_ns) *
                                        static_cast<int64_t>(k) /
                                        static_cast<int64_t>(slices));
        const double now = ReadProc(config_.server_pid).cpu_s;
        merged.slice_cpu_s.push_back(now - prev);
        prev = now;
      }
    }
    for (std::thread& t : threads) t.join();
    merged.wall_s = static_cast<double>(NowNs() - opts.start_ns) / 1e9;
    for (size_t c = 0; c < kConnections; ++c) {
      ThreadResult& r = results[c];
      const auto append = [](std::vector<double>* to,
                             const std::vector<double>& from) {
        to->insert(to->end(), from.begin(), from.end());
      };
      append(&merged.lat_price_us, r.lat_price_us);
      append(&merged.lat_buy_us, r.lat_buy_us);
      append(&merged.rtt_us, r.rtt_us);
      append(&merged.lateness_us, r.lateness_us);
      merged.timed.insert(merged.timed.end(), r.timed.begin(), r.timed.end());
      merged.background_due.insert(merged.background_due.end(),
                                   r.background_due.begin(),
                                   r.background_due.end());
      merged.attempted += r.attempted;
      merged.failed += r.failed;
      merged.retries += r.retries;
      merged.retry_mismatch += r.retry_mismatch;
      merged.max_outstanding =
          std::max(merged.max_outstanding, r.max_outstanding);
      merged.bytes += r.bytes;
      for (Audit& a : r.audits) audits_.push_back(std::move(a));
      sales_[c] = std::move(r.sales);
      if (tracer != nullptr) {
        for (const Span& s : tracers[c].spans()) {
          tracer->Add(s.name, s.start_ns, s.end_ns, s.parent, s.request_id);
        }
      }
    }
    return merged;
  }

  bool Stats(mbp::net::StatsPayload* out) {
    mbp::net::Request req;
    req.verb = Verb::kStats;
    mbp::net::Response resp;
    if (!conns_[0]->Roundtrip(req, &resp) ||
        resp.code != mbp::StatusCode::kOk) {
      return false;
    }
    *out = resp.stats;
    return true;
  }

  bool Replay(uint64_t txn, mbp::net::Response* out) {
    mbp::net::Request req;
    req.verb = Verb::kReplay;
    req.txn_id = txn;
    return conns_[0]->Roundtrip(req, out) &&
           out->code == mbp::StatusCode::kOk;
  }

  // Every first delivery seen on any connection, by txn id.
  std::unordered_map<uint64_t, const SaleSeen*> AllSales() const {
    std::unordered_map<uint64_t, const SaleSeen*> all;
    for (const auto& conn_sales : sales_) {
      for (const auto& [txn, sale] : conn_sales) all.emplace(txn, &sale);
    }
    return all;
  }

  const WireConfig& config() const { return config_; }
  const std::vector<Audit>& audits() const { return audits_; }

 private:
  // One CPU per thread: the loop serving the connections on the first
  // shard CPU, every other shard thread (the idle loop among them) on the
  // second, so the serving loop never migrates between the two.
  void PinShardThreads(int loop) {
    if (loop <= 0 || config_.shard_cpus.empty()) return;
    for (const auto& [tid, wakeups] : ThreadWakeups(config_.server_pid)) {
      (void)wakeups;
      const size_t k = tid == loop ? 0 : 1;
      PinTo(tid, config_.shard_cpus[k % config_.shard_cpus.size()]);
    }
  }

  // The shard thread that woke most often during 64 sequential round
  // trips on `conn` (0 when the shard's pid is unknown).
  int ServingThread(Connection* conn) {
    if (config_.server_pid <= 0) return 0;
    const auto before = ThreadWakeups(config_.server_pid);
    mbp::net::Request req;
    req.verb = Verb::kPriceAt;
    req.curve_id = mbp::serving::SyntheticCurveId(0);
    req.args.assign(1, 1.0);
    mbp::net::Response resp;
    for (int i = 0; i < 64; ++i) {
      if (!conn->Roundtrip(req, &resp)) return 0;
    }
    int best = 0;
    uint64_t most = 0;
    for (const auto& [tid, n] : ThreadWakeups(config_.server_pid)) {
      const auto it = before.find(tid);
      const uint64_t woke = n - (it == before.end() ? 0 : it->second);
      if (woke > most) {
        most = woke;
        best = tid;
      }
    }
    return best;
  }

  WireConfig config_;
  mbp::random::ZipfIndex zipf_;
  std::vector<uint32_t> perm_;
  std::vector<std::unique_ptr<Stream>> streams_;
  std::vector<std::unique_ptr<Connection>> conns_;
  // Each connection's first deliveries, carried across phases.
  std::vector<std::unordered_map<uint64_t, SaleSeen>> sales_;
  std::vector<std::vector<uint64_t>> completed_;
  std::vector<Audit> audits_;
  std::vector<int> gen_cpus_;  // this process's CPUs, by connection
};

WireConfig ParseWire(const Flags& f) {
  WireConfig c;
  c.workload = f.Str("workload", "browse");
  c.port = static_cast<uint16_t>(f.Num("port", 0));
  c.seed = f.U64("seed", 1);
  c.trace = f.Num("trace", 0) != 0;
  c.server_pid = static_cast<int>(f.Num("server-pid", 0));
  c.workdir = f.Str("workdir", ".");
  c.catalog.num_curves = static_cast<size_t>(f.Num("curves", 100000));
  c.catalog.seed = f.U64("catalog-seed", 7);
  c.catalog.min_knots = static_cast<size_t>(f.Num("min-knots", 8));
  c.catalog.max_knots = static_cast<size_t>(f.Num("max-knots", 128));
  c.fulfillment.epoch_seed = f.U64("epoch-seed", 0x5EED0001);
  c.fulfillment.dataset_seed = f.U64("dataset-seed", 0xD474);
  c.fulfillment.model_dim = static_cast<size_t>(f.Num("model-dim", 16));
  c.fulfillment.max_model_cache_bytes =
      static_cast<size_t>(f.Num("model-cache-bytes", 64.0 * (1 << 20)));
  c.rate = f.Num("rate", 1000);
  std::stringstream ladder(f.Str("ladder", ""));
  for (std::string item; std::getline(ladder, item, ',');) {
    if (!item.empty()) c.ladder.push_back(std::stod(item));
  }
  c.limit_us = f.Num("limit-us", 1000);
  c.fixed_s = f.Num("fixed-s", 5);
  c.ladder_s = f.Num("ladder-s", 0);
  c.shard_cpus = ParseCpus(f.Str("shard-cpus", ""));
  c.run_index = f.U64("run-index", 0);
  c.budget_pct = static_cast<size_t>(f.Num("budget-pct", 0));
  c.buy_pct = static_cast<size_t>(f.Num("buy-pct", 0));
  c.retry_pct = static_cast<size_t>(f.Num("retry-pct", 0));
  c.xs_per_price = static_cast<size_t>(f.Num("xs", 1));
  c.mix_every =
      std::max<size_t>(1, static_cast<size_t>(f.Num("mix-every", 1)));
  return c;
}

// p50 / p99 / highest supported percentile of `samples`, printed with
// the sample count.
void Report(const char* name, std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  const double top = HighestSupportedPercentile(n);
  std::printf("  %-14s n=%-8zu p50 %10.1f us", name, n,
              Percentile(samples, 50));
  if (PercentileSupported(n, 99)) {
    std::printf("   p99 %10.1f us", Percentile(samples, 99));
  } else {
    std::printf("   p99 (unsupported: <10 samples beyond)");
  }
  if (top > 0) std::printf("   p%g %10.1f us", top, Percentile(samples, top));
  std::printf("\n");
}

// Output checks shared by the traced and untraced runs: every audited
// answer is bit-identical to the research path, sampled sales replay
// bit-identically, retries were charged once, and the server's revenue
// is the sum of the distinct sales the buyers saw.
void CheckWireOutputs(WireRun* run, const mbp::net::StatsPayload& before,
                      Result* result, uint64_t* failed) {
  const WireConfig& config = run->config();
  std::unordered_map<uint32_t, mbp::core::PiecewiseLinearPricing> curves;
  const auto curve_of = [&](uint32_t index)
      -> const mbp::core::PiecewiseLinearPricing& {
    auto it = curves.find(index);
    if (it == curves.end()) {
      it = curves
               .emplace(index, mbp::serving::MakeSyntheticCurve(
                                   config.catalog, index))
               .first;
    }
    return it->second;
  };
  uint64_t audited = 0, mismatched = 0;
  for (const Audit& a : run->audits()) {
    if (a.verb == Verb::kBuy || !a.ok) continue;
    const auto& curve = curve_of(a.curve);
    bool same = a.values.size() == a.args.size();
    for (size_t i = 0; same && i < a.args.size(); ++i) {
      const double want = a.verb == Verb::kPriceAt
                               ? curve.PriceAtInverseNcp(a.args[i])
                               : curve.MaxInverseNcpForBudget(a.args[i]);
      same = SameBits(want, a.values[i]);
    }
    ++audited;
    if (!same) ++mismatched;
  }
  std::printf("  audit: %" PRIu64 " price/budget answers checked, %" PRIu64
              " differ from the research path\n",
              audited, mismatched);
  result->Check("served prices bit-identical to PiecewiseLinearPricing",
                mismatched == 0 && audited > 0);
  *failed += mismatched;

  const auto sales = run->AllSales();
  if (config.workload != "purchase") return;
  // Sale prices are the research price at x = 1/δ.
  uint64_t price_mismatch = 0;
  double seen_revenue = 0.0;
  for (const auto& [txn, sale] : sales) {
    seen_revenue += sale->record.price;
    const double want = curve_of(sale->curve).PriceAtInverseNcp(1.0 /
                                                                sale->delta);
    if (!SameBits(want, sale->record.price)) ++price_mismatch;
  }
  result->Check("sale prices equal the research price at 1/delta",
                price_mismatch == 0 && !sales.empty());
  *failed += price_mismatch;

  // Sampled sales must replay bit-identically.
  uint64_t replayed = 0, replay_mismatch = 0;
  for (const auto& [txn, sale] : sales) {
    if (sale->weights.empty() || replayed >= 64) continue;
    mbp::net::Response resp;
    const bool ok = run->Replay(txn, &resp);
    ++replayed;
    if (!ok || !(resp.buy.record == sale->record) ||
        resp.buy.weights.size() != sale->weights.size() ||
        std::memcmp(resp.buy.weights.data(), sale->weights.data(),
                    sale->weights.size() * sizeof(double)) != 0) {
      ++replay_mismatch;
    }
  }
  std::printf("  audit: %" PRIu64 " sales replayed, %" PRIu64
              " differ from the first delivery\n",
              replayed, replay_mismatch);
  result->Check("sampled sales replay bit-identically",
                replay_mismatch == 0 && replayed > 0);
  *failed += replay_mismatch;

  mbp::net::StatsPayload after;
  const bool have = run->Stats(&after);
  const uint64_t recorded =
      after.transactions_recorded - before.transactions_recorded;
  const double revenue = after.revenue - before.revenue;
  std::printf("  audit: %zu distinct sales seen, %" PRIu64
              " recorded by the server; revenue seen %.6f, charged %.6f\n",
              sales.size(), recorded, seen_revenue, revenue);
  const bool charged_once =
      have && recorded == sales.size() &&
      std::fabs(revenue - seen_revenue) <=
          1e-9 * std::max(1.0, std::fabs(seen_revenue));
  result->Check("each txn id charged once; revenue = sum of distinct sales",
                charged_once);
  if (!charged_once) ++*failed;
  // run.py compares this against the shard's DRAIN line.
  result->Set("check.server_revenue", after.revenue);
  result->Set("check.server_sales", static_cast<double>(
                                        after.transactions_recorded));
}

// --- traced run: in-process replays through each layer's public calls.

// Keeps replayed results observable so the timed loops are not elided.
volatile double g_sink = 0;

struct LayerReplay {
  double resolve_ns = 0, price_ns = 0, budget_ns = 0, codec_ns_per_byte = 0,
         buy_us = 0, compile_us = 0, publish_us = 0, ridge_train_us = 0,
         perturb_us = 0, wal_append_us = 0, wal_sync_us = 0,
         attributed_us = 0;  // per request, server-histogram layers only
};

LayerReplay ReplayLayers(const WireRun& run, Tracer* tracer) {
  const WireConfig& config = run.config();
  const std::vector<Audit>& audits = run.audits();
  LayerReplay out;
  if (audits.empty()) return out;
  const uint64_t rid = 0;
  const int32_t root = tracer->Begin("server.replay", -1, rid, NowNs());

  // Catalog: compile + publish every listing the sampled requests touch.
  mbp::serving::CatalogRegistry registry;
  std::vector<uint32_t> touched;
  for (const Audit& a : audits) touched.push_back(a.curve);
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  std::vector<mbp::core::PiecewiseLinearPricing> curves;
  for (uint32_t c : touched) {
    curves.push_back(mbp::serving::MakeSyntheticCurve(config.catalog, c));
  }
  {
    const int32_t s = tracer->Begin("serving.compile", -1, rid, NowNs());
    const int64_t t0 = NowNs();
    for (const auto& curve : curves) {
      auto snap = mbp::serving::PricingSnapshot::Compile(curve);
      if (!snap.ok()) std::exit(4);
    }
    out.compile_us = Ratio(static_cast<double>(NowNs() - t0) / 1e3,
                           static_cast<double>(curves.size()));
    tracer->End(s, NowNs());
  }
  {
    const int32_t s = tracer->Begin("serving.publish", -1, rid, NowNs());
    const int64_t t0 = NowNs();
    for (size_t i = 0; i < curves.size(); ++i) {
      auto slot = registry.Publish(
          mbp::serving::SyntheticCurveId(touched[i]), curves[i]);
      if (!slot.ok()) std::exit(4);
    }
    out.publish_us = Ratio(static_cast<double>(NowNs() - t0) / 1e3,
                           static_cast<double>(curves.size()));
    tracer->End(s, NowNs());
  }

  // Encoded frames of the sampled requests, as the shard received them.
  std::vector<std::string> ids;
  std::vector<std::string> frames;
  for (const Audit& a : audits) {
    mbp::net::Request req;
    req.verb = a.verb;
    req.curve_id = mbp::serving::SyntheticCurveId(a.curve);
    req.args = a.args;
    req.delta = a.delta;
    req.txn_id = a.txn;
    req.request_id = 1;
    std::string wire;
    mbp::net::EncodeRequest(req, &wire);
    frames.push_back(std::move(wire));
    ids.push_back(req.curve_id);
  }
  const size_t reps = std::max<size_t>(1, 20000 / audits.size());
  const double n_req = static_cast<double>(audits.size());

  // serving registry: CatalogRegistry::Find over the run's curve ids.
  std::vector<const mbp::serving::CatalogRegistry::CurveSlot*> slots(
      audits.size());
  double resolve_total_ns = 0;
  {
    const int32_t s = tracer->Begin("serving.resolve", root, rid, NowNs());
    const int64_t t0 = NowNs();
    for (size_t r = 0; r < reps; ++r) {
      for (size_t i = 0; i < ids.size(); ++i) slots[i] = registry.Find(ids[i]);
    }
    resolve_total_ns = static_cast<double>(NowNs() - t0) / reps;
    out.resolve_ns = resolve_total_ns / n_req;
    tracer->End(s, NowNs());
  }

  // serving snapshot: PriceAtBatch per price, BudgetToInverseNcp per
  // budget, each timed over the whole loop (one call is too short for
  // the clock).
  std::vector<size_t> price_idx, budget_idx;
  size_t prices = 0;
  for (size_t i = 0; i < audits.size(); ++i) {
    if (audits[i].verb == Verb::kPriceAt) {
      price_idx.push_back(i);
      prices += audits[i].args.size();
    } else if (audits[i].verb == Verb::kBudgetToX) {
      budget_idx.push_back(i);
    }
  }
  double kernel_total_ns = 0;
  {
    const int32_t s = tracer->Begin("serving.kernel", root, rid, NowNs());
    std::vector<double> outv(mbp::net::kMaxVectorElements);
    double sink = 0;
    const int64_t t0 = NowNs();
    for (size_t r = 0; r < reps; ++r) {
      for (size_t i : price_idx) {
        const Audit& a = audits[i];
        slots[i]->Load()->PriceAtBatch(a.args.data(), outv.data(),
                                       a.args.size());
        sink += outv[0];
      }
    }
    const int64_t t1 = NowNs();
    for (size_t r = 0; r < reps; ++r) {
      for (size_t i : budget_idx) {
        sink += slots[i]->Load()->BudgetToInverseNcp(audits[i].args[0]);
      }
    }
    const int64_t t2 = NowNs();
    g_sink = sink;
    kernel_total_ns = static_cast<double>(t2 - t0) / reps;
    out.price_ns = Ratio(static_cast<double>(t1 - t0) / reps,
                         static_cast<double>(prices));
    out.budget_ns = Ratio(static_cast<double>(t2 - t1) / reps,
                          static_cast<double>(budget_idx.size()));
    tracer->End(s, t2);
  }

  // net protocol, server side inside the latency window: framing each
  // response.
  std::vector<uint8_t> buf(1 << 20);
  const std::vector<double> weights(config.fulfillment.model_dim, 0.5);
  const auto encode_response = [&](const Audit& a) {
    if (a.verb == Verb::kBuy) {
      mbp::net::SaleRecordPayload record;
      record.txn_id = a.txn;
      return mbp::net::EncodeBuyResponseInto(Verb::kBuy, 1, record,
                                             weights.data(), weights.size(),
                                             buf.data());
    }
    return mbp::net::EncodeValuesResponseInto(a.verb, 1, a.args.data(),
                                              a.args.size(), buf.data());
  };
  double encode_total_ns = 0;
  {
    const int32_t s = tracer->Begin("net.encode", root, rid, NowNs());
    const int64_t t0 = NowNs();
    for (size_t r = 0; r < reps; ++r) {
      for (const Audit& a : audits) encode_response(a);
    }
    encode_total_ns = static_cast<double>(NowNs() - t0) / reps;
    tracer->End(s, NowNs());
  }

  // net protocol, whole round trip: the recorded frames through every
  // codec call (client encode, server decode, server encode, client
  // decode), per byte.
  {
    const int32_t s = tracer->Begin("net.codec", -1, rid, NowNs());
    mbp::Arena arena;
    mbp::net::Response decoded;
    double bytes = 0;
    const int64_t t0 = NowNs();
    for (size_t r = 0; r < reps; ++r) {
      for (size_t i = 0; i < audits.size(); ++i) {
        const Audit& a = audits[i];
        mbp::net::Request req;
        req.verb = a.verb;
        req.curve_id = ids[i];
        req.args = a.args;
        req.delta = a.delta;
        req.txn_id = a.txn;
        const size_t req_bytes = mbp::net::EncodeRequestInto(req, buf.data());
        mbp::net::RequestView view;
        (void)mbp::net::DecodeRequestView(
            reinterpret_cast<const uint8_t*>(frames[i].data()),
            frames[i].size(), &view, &arena);
        const size_t resp_bytes = encode_response(a);
        (void)mbp::net::DecodeResponse(buf.data(), resp_bytes, &decoded);
        bytes += static_cast<double>(req_bytes + frames[i].size() +
                                     2 * resp_bytes);
        arena.Reset();
      }
    }
    out.codec_ns_per_byte = Ratio(static_cast<double>(NowNs() - t0), bytes);
    tracer->End(s, NowNs());
  }

  // serving fulfillment + common wal + ml + core, for the BUY share.
  std::vector<const Audit*> buys;
  for (const Audit& a : audits) {
    if (a.verb == Verb::kBuy) buys.push_back(&a);
  }
  double fulfillment_total_ns = 0;
  if (!buys.empty()) {
    mbp::serving::FulfillmentEngine engine(&registry, config.fulfillment);
    const int32_t s =
        tracer->Begin("serving.fulfillment", root, rid, NowNs());
    const int64_t t0 = NowNs();
    uint64_t txn = 1;
    for (const Audit* a : buys) {
      auto sale = engine.Buy(mbp::serving::SyntheticCurveId(a->curve),
                             a->delta, txn++);
      if (!sale.ok()) std::exit(4);
    }
    fulfillment_total_ns = static_cast<double>(NowNs() - t0);
    out.buy_us = fulfillment_total_ns / 1e3 / static_cast<double>(buys.size());
    tracer->End(s, NowNs());

    // The sale ledger: append every sale record on the run's own device,
    // then time the fdatasync separately.
    const std::string dir = config.workdir + "/replay-wal";
    mbp::wal::WalOptions wopts;
    wopts.fsync_policy = mbp::wal::FsyncPolicy::kNone;
    auto wal = mbp::wal::Wal::Open(dir, wopts, [](std::string_view) {});
    if (!wal.ok()) std::exit(4);
    double append_ns = 0, sync_ns = 0;
    const int32_t ws = tracer->Begin("wal.append+sync", root, rid, NowNs());
    for (const Audit* a : buys) {
      mbp::serving::SaleRecord record;
      record.txn_id = a->txn;
      record.delta = a->delta;
      record.price = 1.0;
      const std::string bytes = mbp::serving::FulfillmentEngine::
          EncodeSaleRecord(record, mbp::serving::SyntheticCurveId(a->curve));
      const int64_t a0 = NowNs();
      if (!(*wal)->Append(bytes).ok()) std::exit(4);
      const int64_t a1 = NowNs();
      if (!(*wal)->Sync().ok()) std::exit(4);
      append_ns += static_cast<double>(a1 - a0);
      sync_ns += static_cast<double>(NowNs() - a1);
    }
    tracer->End(ws, NowNs());
    out.wal_append_us = append_ns / 1e3 / static_cast<double>(buys.size());
    out.wal_sync_us = sync_ns / 1e3 / static_cast<double>(buys.size());
    fulfillment_total_ns += append_ns + sync_ns;

    // ml: the closed-form ridge a model-cache miss trains; core: the
    // Gaussian perturbation every sale draws.
    const size_t k = std::min<size_t>(buys.size(), 16);
    double train_ns = 0, perturb_ns = 0;
    auto mechanism =
        mbp::core::MakeMechanism(mbp::core::MechanismKind::kGaussian);
    mbp::random::Rng rng(config.seed);
    for (size_t i = 0; i < k; ++i) {
      const std::string id = mbp::serving::SyntheticCurveId(buys[i]->curve);
      auto data = mbp::data::GenerateSimulated1(
          engine.TrainingSetOptionsFor(id));
      if (!data.ok()) std::exit(4);
      const int32_t ts = tracer->Begin("ml.ridge_train", -1, rid, NowNs());
      const int64_t a0 = NowNs();
      auto trained =
          mbp::ml::TrainLinearRegression(*data, config.fulfillment.l2);
      const int64_t a1 = NowNs();
      tracer->End(ts, a1);
      if (!trained.ok()) std::exit(4);
      const int32_t ps = tracer->Begin("core.perturb", -1, rid, NowNs());
      const int64_t p0 = NowNs();
      auto noisy = mechanism->Perturb(trained->model.coefficients(),
                                      buys[i]->delta, rng);
      const int64_t p1 = NowNs();
      tracer->End(ps, p1);
      if (noisy.size() == 0) std::exit(4);
      train_ns += static_cast<double>(a1 - a0);
      perturb_ns += static_cast<double>(p1 - p0);
    }
    out.ridge_train_us = train_ns / 1e3 / static_cast<double>(k);
    out.perturb_us = perturb_ns / 1e3 / static_cast<double>(k);
  }
  tracer->End(root, NowNs());

  // Server-histogram layers per request: resolve, kernel, response encode
  // for reads; fulfillment (with its ledger append) for BUYs.
  out.attributed_us = (resolve_total_ns + kernel_total_ns +
                       encode_total_ns + fulfillment_total_ns) /
                      1e3 / n_req;
  return out;
}

double HistQuantileDelta(const mbp::LatencyHistogramSnapshot& a,
                         const mbp::LatencyHistogramSnapshot& b, double q) {
  mbp::LatencyHistogramSnapshot d;
  d.count = b.count - a.count;
  d.sum_micros = b.sum_micros - a.sum_micros;
  for (size_t i = 0; i < d.buckets.size(); ++i) {
    d.buckets[i] = b.buckets[i] - a.buckets[i];
  }
  return d.QuantileMicros(q);
}

double HistMeanDelta(const mbp::LatencyHistogramSnapshot& a,
                     const mbp::LatencyHistogramSnapshot& b) {
  return Ratio(b.sum_micros - a.sum_micros,
               static_cast<double>(b.count - a.count));
}

}  // namespace

int RunProbe(const Flags& flags) {
  WireConfig config = ParseWire(flags);
  auto conn = Connection::Open(config.port);
  if (conn == nullptr) return 1;
  mbp::net::Request req;
  mbp::net::Response resp;
  req.verb = Verb::kPriceAt;
  req.curve_id = mbp::serving::SyntheticCurveId(0);
  req.args.assign(config.xs_per_price, 1.0);
  if (!conn->Roundtrip(req, &resp) || resp.code != mbp::StatusCode::kOk) {
    return 1;
  }
  req.args.clear();
  if (config.workload == "purchase") {
    req.verb = Verb::kBuy;
    req.delta = 0.5;
    // The same id on every set-up of a run: the first probe buys, later
    // ones (after a restart) re-deliver the recorded sale.
    req.txn_id = Mix(config.seed ^ 0x9B0BEull) | 1;
  } else {
    req.verb = Verb::kBudgetToX;
    req.args.push_back(1.0);
  }
  if (!conn->Roundtrip(req, &resp) || resp.code != mbp::StatusCode::kOk) {
    return 1;
  }
  return 0;
}

int RunWire(const Flags& flags) {
  WireConfig config = ParseWire(flags);
  WireRun run(config);
  if (!run.Connect()) {
    std::fprintf(stderr, "cannot connect to port %u\n", config.port);
    return 1;
  }
  Result result;
  // Server counters before this process sent anything: the charged-once
  // check compares every sale this run saw against the server's deltas.
  mbp::net::StatsPayload s_begin;
  if (!run.Stats(&s_begin)) return 1;
  // Warm-up, not recorded. A restarted shard's model cache is empty and
  // fills only as BUYs miss, so a workload that buys first runs at three
  // times its rate until the cache is full (it starts evicting); only
  // then do misses, and the training behind them, recur at their steady
  // rate. Then TCP windows and branch predictors warm at the fixed rate.
  if (config.buy_pct > 0) {
    for (int i = 0; i < 8; ++i) {
      run.Phase(3 * config.rate, 1.0, false, 0, nullptr);
      mbp::net::StatsPayload warm;
      if (!run.Stats(&warm)) return 1;
      if (warm.model_cache_evictions > s_begin.model_cache_evictions) break;
    }
  }
  run.Phase(config.rate, config.buy_pct > 0 ? 1.0 : 2.0, false, 0, nullptr);

  mbp::net::StatsPayload s0;
  if (!run.Stats(&s0)) return 1;
  const ProcSample p0 = ReadProc(config.server_pid);
  const size_t audit_every = config.trace ? 4 : 61;
  const double fixed_s = config.fixed_s;
  // The fixed phase is cut into five time slices: the latency median is
  // the median of the slices' medians, and CPU per request drops the
  // slice with the most CPU per request, so a host stall in one slice
  // moves neither.
  const size_t kSlices = 5;
  PhaseResult fixed = run.Phase(config.rate, fixed_s, true, audit_every,
                                nullptr, kSlices);
  const ProcSample p1 = ReadProc(config.server_pid);
  mbp::net::StatsPayload s1;
  if (!run.Stats(&s1)) return 1;

  uint64_t failed = fixed.failed + fixed.retry_mismatch;
  uint64_t attempted = fixed.attempted;
  const std::vector<double> all = fixed.all_us();
  const uint64_t completed = s1.requests_ok - s0.requests_ok;
  std::printf("fixed rate %.0f req/s for %.2f s: %" PRIu64
              " requests, %" PRIu64 " failed\n",
              config.rate, fixed.wall_s, fixed.attempted, fixed.failed);
  Report("all", all);
  Report("price", fixed.lat_price_us);
  if (!fixed.lat_buy_us.empty()) Report("buy", fixed.lat_buy_us);
  Report("gen.lateness", fixed.lateness_us);
  if (config.mix_every > 1) {
    std::printf("  background     n=%-8zu point PRICE_AT around the mix, "
                "not timed\n",
                fixed.background_due.size());
  }
  if (config.workload == "purchase") {
    std::printf("  audit: %" PRIu64 " re-sent txn ids, %" PRIu64
                " re-delivered something other than the recorded sale\n",
                fixed.retries, fixed.retry_mismatch);
    result.Check("re-sent txn ids re-deliver the recorded sale",
                 fixed.retries > 0 && fixed.retry_mismatch == 0);
  }

  std::vector<double> sorted_price = fixed.lat_price_us;
  std::sort(sorted_price.begin(), sorted_price.end());
  std::vector<double> sorted_buy = fixed.lat_buy_us;
  std::sort(sorted_buy.begin(), sorted_buy.end());
  std::vector<double> sorted_late = fixed.lateness_us;
  std::sort(sorted_late.begin(), sorted_late.end());

  std::vector<double> slice_p50, slice_cpu, slice_ops;
  for (size_t k = 0; k < kSlices; ++k) {
    const auto [ops, p50] = fixed.SliceP50(k, kSlices);
    slice_p50.push_back(p50);
    slice_ops.push_back(static_cast<double>(ops));
    slice_cpu.push_back(
        Ratio(fixed.slice_cpu_s[k] * 1e6, static_cast<double>(ops)));
  }
  const size_t worst = static_cast<size_t>(
      std::max_element(slice_cpu.begin(), slice_cpu.end()) -
      slice_cpu.begin());
  double kept_cpu_s = 0, kept_ops = 0;
  for (size_t k = 0; k < kSlices; ++k) {
    if (k == worst) continue;
    kept_cpu_s += fixed.slice_cpu_s[k];
    kept_ops += slice_ops[k];
  }
  std::printf("  slices: p50");
  for (double v : slice_p50) std::printf(" %.1f", v);
  std::printf(" us; shard cpu/op");
  for (double v : slice_cpu) std::printf(" %.2f", v);
  std::printf(" us\n");
  const double op_p50 = Median(slice_p50);
  result.Set("op_p50_us", op_p50);
  result.Set("price_p50_us", Percentile(sorted_price, 50));
  result.Set("price_p99_us", Percentile(sorted_price, 99));
  result.Set("buy_p50_us", Percentile(sorted_buy, 50));
  result.Set("buy_p99_us", Percentile(sorted_buy, 99));
  result.Set("samples.price", static_cast<double>(sorted_price.size()));
  result.Set("samples.buy", static_cast<double>(sorted_buy.size()));
  result.Set("cpu_us_per_op", Ratio(kept_cpu_s * 1e6, kept_ops));

  if (!config.trace && config.ladder_s > 0 && !config.ladder.empty()) {
    // max_rps: climb the ladder; a rung passes when it fails no request
    // and its p99 meets the limit. The climb stops after two missed rungs
    // in a row, so one rung spoiled by a host stall does not end it. When
    // the rung after the highest pass missed on p99 alone, the limit's
    // crossing is interpolated (log p99 against rate) between the two, so
    // the result moves smoothly with the program instead of by rungs.
    const double ladder_s =
        config.ladder_s / static_cast<double>(config.ladder.size());
    double max_rps = 0;
    double pass_p99 = 0;
    size_t misses_in_row = 0;
    for (double rate : config.ladder) {
      // Long enough for a supported p99 however short the run.
      const double rung_s = std::max(
          ladder_s, 1100.0 * static_cast<double>(config.mix_every) / rate);
      PhaseResult rung = run.Phase(rate, rung_s, true, 0, nullptr);
      const size_t n = rung.timed.size();
      // Five slices when each can hold a supported p99, else the rung.
      const size_t windows = std::clamp<size_t>(n / 2000, 1, 5);
      const double p99 = rung.WindowedP99(windows);
      // A growing backlog needs no test of its own: past capacity the
      // queue, and with it every later slice's p99, grows through the
      // rung, so the median slice misses the limit.
      const bool clean = rung.failed == 0 && std::isfinite(p99);
      const bool pass = clean && p99 <= config.limit_us;
      std::printf("  ladder %8.0f req/s: n=%zu p99 %9.1f us (median of %zu "
                  "slices)  failed %" PRIu64 "  %s\n",
                  rate, n, p99, windows, rung.failed, pass ? "pass" : "miss");
      if (pass) {
        max_rps = rate;
        pass_p99 = p99;
        misses_in_row = 0;
        continue;
      }
      if (misses_in_row++ == 0 && clean && max_rps > 0) {
        const double t = (std::log(config.limit_us) - std::log(pass_p99)) /
                         (std::log(p99) - std::log(pass_p99));
        max_rps += std::clamp(t, 0.0, 1.0) * (rate - max_rps);
      }
      if (misses_in_row == 2) break;
    }
    result.Set("max_rps", max_rps);
    std::printf("max_rps %.0f (p99 limit %.0f us)\n", max_rps,
                config.limit_us);
  } else if (config.trace) {
    // Traced run: the same fixed rate again, with client spans on; the
    // difference to the untraced phase is the tracing overhead.
    Tracer tracer(true);
    mbp::net::StatsPayload t0s;
    if (!run.Stats(&t0s)) return 1;
    PhaseResult traced = run.Phase(config.rate, fixed_s, true, 0, &tracer);
    mbp::net::StatsPayload t1s;
    if (!run.Stats(&t1s)) return 1;
    failed += traced.failed + traced.retry_mismatch;
    attempted += traced.attempted;
    std::vector<double> traced_slices;
    for (size_t k = 0; k < kSlices; ++k) {
      traced_slices.push_back(traced.SliceP50(k, kSlices).second);
    }
    const double traced_p50 = Median(traced_slices);
    Report("traced all", traced.all_us());

    const LayerReplay layers = ReplayLayers(run, &tracer);
    const double server_mean = HistMeanDelta(t0s.latency, t1s.latency);
    double rtt_mean = 0;
    for (double v : traced.rtt_us) rtt_mean += v;
    rtt_mean = Ratio(rtt_mean, static_cast<double>(traced.rtt_us.size()));
    const uint64_t reqs = t1s.requests_ok - t0s.requests_ok;
    const double share = AttributedShare(layers.attributed_us, server_mean);

    result.Set("net.transport_us", rtt_mean - server_mean);
    result.Set("net.syscalls_per_req",
               Ratio(static_cast<double>(t1s.transport_syscalls -
                                         t0s.transport_syscalls),
                     static_cast<double>(reqs)));
    result.Set("proc.ctx_switches_per_op",
               Ratio(static_cast<double>(p1.ctx_switches - p0.ctx_switches),
                     static_cast<double>(completed)));
    result.Set("net.codec_ns_per_byte", layers.codec_ns_per_byte);
    result.Set("net.frame_bytes_per_req",
               Ratio(static_cast<double>(traced.bytes),
                     static_cast<double>(traced.attempted)));
    result.Set("net.server_us_p50",
               HistQuantileDelta(t0s.latency, t1s.latency, 0.5));
    result.Set("net.server_us_p99",
               HistQuantileDelta(t0s.latency, t1s.latency, 0.99));
    result.Set("net.prices_per_dispatch",
               Ratio(static_cast<double>(t1s.queries - t0s.queries),
                     static_cast<double>(t1s.batches - t0s.batches)));
    result.Set("net.shed_or_dropped",
               static_cast<double>(t1s.requests_shed - s0.requests_shed +
                                   t1s.deadline_drops - s0.deadline_drops));
    result.Set("net.write_queue_peak_bytes",
               static_cast<double>(t1s.write_queue_peak_bytes));
    result.Set("serving.resolve_ns", layers.resolve_ns);
    result.Set("serving.resident_mb",
               static_cast<double>(t1s.catalog_bytes) / (1 << 20));
    result.Set("serving.price_ns", layers.price_ns);
    result.Set("serving.budget_ns", layers.budget_ns);
    result.Set("serving.sale_us_p50",
               HistQuantileDelta(t0s.fulfillment_latency,
                                 t1s.fulfillment_latency, 0.5));
    result.Set("serving.sale_us_p99",
               HistQuantileDelta(t0s.fulfillment_latency,
                                 t1s.fulfillment_latency, 0.99));
    result.Set("serving.buy_us", layers.buy_us);
    const double lookups = static_cast<double>(
        t1s.model_cache_hits - t0s.model_cache_hits +
        t1s.model_cache_misses - t0s.model_cache_misses);
    result.Set("serving.model_cache_lookups", lookups);
    result.Set("serving.model_cache_hit_ratio",
               Ratio(static_cast<double>(t1s.model_cache_hits -
                                         t0s.model_cache_hits),
                     lookups));
    result.Set("serving.model_cache_evictions",
               static_cast<double>(t1s.model_cache_evictions -
                                   t0s.model_cache_evictions));
    result.Set("wal.append_us", layers.wal_append_us);
    result.Set("wal.sync_us", layers.wal_sync_us);
    result.Set("wal.appends_per_fsync",
               Ratio(static_cast<double>(t1s.wal_appends - t0s.wal_appends),
                     static_cast<double>(t1s.wal_fsyncs - t0s.wal_fsyncs)));
    result.Set("wal.bytes_per_sale",
               Ratio(static_cast<double>(t1s.wal_bytes - t0s.wal_bytes),
                     static_cast<double>(t1s.wal_appends - t0s.wal_appends)));
    result.Set("wal.recovery_ms", static_cast<double>(t1s.recovery_ms));
    result.Set("serving.compile_us", layers.compile_us);
    result.Set("serving.publish_us", layers.publish_us);
    result.Set("ml.ridge_train_us", layers.ridge_train_us);
    result.Set("core.perturb_us", layers.perturb_us);
    result.Set("trace.server_mean_us", server_mean);
    result.Set("trace.attributed_us", layers.attributed_us);
    result.Set("trace.unattributed_frac", 1.0 - share);
    result.Set("trace.overhead_frac", Ratio(traced_p50 - op_p50, op_p50));

    std::printf("traced: client RTT mean %.2f us = transport %.2f us + "
                "server %.2f us\n",
                rtt_mean, rtt_mean - server_mean, server_mean);
    std::printf("traced: layer self time %.2f us of the server mean "
                "(%.1f%%), unattributed %.1f%%\n",
                layers.attributed_us, 100 * share, 100 * (1 - share));
    for (const auto& [name, ns] : SelfTimeByName(tracer.spans())) {
      if (name == "client.request") continue;
      std::printf("  self %-22s %12.3f ms\n", name.c_str(),
                  static_cast<double>(ns) / 1e6);
    }
    std::printf("traced: overhead %.2f%% (p50 %.1f us traced vs %.1f us)\n",
                100 * Ratio(traced_p50 - op_p50, op_p50), traced_p50, op_p50);
    WriteTrace(tracer, config.workdir + "/trace-" + config.workload +
                           ".jsonl");
  }

  result.Set("gen.lateness_us_p99", Percentile(sorted_late, 99));
  result.Set("gen.max_outstanding",
             static_cast<double>(fixed.max_outstanding));
  result.Set("peak_rss_mb", PeakRssMb(config.server_pid));

  CheckWireOutputs(&run, s_begin, &result, &failed);
  result.Set("attempted", static_cast<double>(attempted));
  result.Set("failed", static_cast<double>(failed));
  result.Set("check.failures", static_cast<double>(result.check_failures()));
  result.Print();
  return 0;
}

}  // namespace perfbench
