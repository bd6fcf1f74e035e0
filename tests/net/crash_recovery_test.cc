// Kill-9 recovery chaos harness (DESIGN.md §5j): fork/exec the real
// mbp_catalog_shard with --wal-dir, murder it — at named crash points
// (--crash-point) and at random moments under BUY load — restart it on
// the same WAL directory, and hold the money-path invariants:
//   - no acked sale is ever lost: REPLAY(txn) after the restart returns
//     the exact bytes the pre-crash BUY delivered;
//   - no sale is charged twice: retrying every acked txn leaves revenue
//     unchanged, and revenue always equals the sum over DISTINCT
//     recorded sales;
//   - an in-flight (unacked) BUY retried with the SAME txn id lands
//     exactly once, whether or not its record survived the crash.
// The random-cycle count honors MBP_CRASH_CYCLES (scripts/crash_chaos.sh
// and the `ctest -C crash` configuration raise it).

#include <dirent.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/client.h"
#include "random/rng.h"
#include "serving/synthetic_catalog.h"

namespace mbp::net {
namespace {

uint64_t EnvU64(const char* name, uint64_t fallback) {
  const char* env = std::getenv(name);
  if (env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 10);
  }
  return fallback;
}

// One mbp_catalog_shard child. Start() blocks until the READY line and
// parses its durability tokens; Kill() is SIGKILL (the crash under
// test); StopGraceful() closes stdin and captures the DRAIN line.
class ShardProcess {
 public:
  ~ShardProcess() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      int status = 0;
      waitpid(pid_, &status, 0);
    }
    if (stdin_fd_ >= 0) close(stdin_fd_);
    if (stdout_fd_ >= 0) close(stdout_fd_);
  }

  bool Start(std::vector<std::string> args) {
    int in_pipe[2], out_pipe[2];
    if (pipe(in_pipe) < 0 || pipe(out_pipe) < 0) return false;
    args.insert(args.begin(), MBP_SHARD_PATH);
    pid_ = fork();
    if (pid_ < 0) return false;
    if (pid_ == 0) {
      dup2(in_pipe[0], STDIN_FILENO);
      dup2(out_pipe[1], STDOUT_FILENO);
      close(in_pipe[0]);
      close(in_pipe[1]);
      close(out_pipe[0]);
      close(out_pipe[1]);
      std::vector<char*> cargs;
      for (std::string& a : args) cargs.push_back(a.data());
      cargs.push_back(nullptr);
      execv(MBP_SHARD_PATH, cargs.data());
      _exit(127);
    }
    close(in_pipe[0]);
    close(out_pipe[1]);
    stdin_fd_ = in_pipe[1];
    stdout_fd_ = out_pipe[0];
    return ReadReadyLine();
  }

  // SIGKILL — no drain, no flush; exactly what the harness is about.
  void Kill() {
    if (pid_ <= 0) return;
    kill(pid_, SIGKILL);
    int status = 0;
    waitpid(pid_, &status, 0);
    pid_ = -1;
  }

  // Waits for a self-inflicted exit (an armed crash point). Returns the
  // child's exit code, or -1 on timeout.
  int WaitCrash(int timeout_ms = 15000) {
    if (pid_ <= 0) return -1;
    int status = 0;
    for (int waited = 0; waited < timeout_ms; waited += 20) {
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return WIFEXITED(status) ? WEXITSTATUS(status) : -2;
      }
      usleep(20 * 1000);
    }
    return -1;
  }

  // Closes stdin (the graceful-drain signal) and returns the DRAIN line.
  std::string StopGraceful() {
    if (pid_ <= 0) return "";
    close(stdin_fd_);
    stdin_fd_ = -1;
    std::string drain = ReadLine(10000);
    int status = 0;
    waitpid(pid_, &status, 0);
    pid_ = -1;
    return drain;
  }

  uint16_t port() const { return port_; }
  size_t curves() const { return curves_; }
  uint64_t recovered() const { return recovered_; }
  uint64_t torn() const { return torn_; }

 private:
  static uint64_t TokenAfter(const std::string& line, const std::string& key) {
    const size_t pos = line.find(key);
    if (pos == std::string::npos) return 0;
    return std::strtoull(line.c_str() + pos + key.size(), nullptr, 10);
  }

  std::string ReadLine(int timeout_ms) {
    std::string line;
    while (line.find('\n') == std::string::npos && line.size() < 8192) {
      struct pollfd pfd = {stdout_fd_, POLLIN, 0};
      if (poll(&pfd, 1, timeout_ms) <= 0) return "";
      char buf[512];
      const ssize_t n = read(stdout_fd_, buf, sizeof(buf));
      if (n <= 0) return "";
      line.append(buf, static_cast<size_t>(n));
    }
    return line;
  }

  bool ReadReadyLine() {
    const std::string line = ReadLine(120000);
    if (line.find("READY ") == std::string::npos) return false;
    port_ = static_cast<uint16_t>(TokenAfter(line, "port="));
    curves_ = static_cast<size_t>(TokenAfter(line, "curves="));
    recovered_ = TokenAfter(line, "recovered=");
    torn_ = TokenAfter(line, "torn=");
    return port_ != 0;
  }

  pid_t pid_ = -1;
  int stdin_fd_ = -1;
  int stdout_fd_ = -1;
  uint16_t port_ = 0;
  size_t curves_ = 0;
  uint64_t recovered_ = 0;
  uint64_t torn_ = 0;
};

class CrashRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // The pid keeps the directory private to this process: `ctest -C
    // crash` runs the same case in mbp_crash_chaos and in its own
    // registered copy, possibly at the same time.
    wal_dir_ = ::testing::TempDir() + "/crash_" + std::to_string(getpid()) +
               "_" +
               ::testing::UnitTest::GetInstance()->current_test_info()->name();
    RemoveTree(wal_dir_);
  }

  void TearDown() override { RemoveTree(wal_dir_); }

  static void RemoveTree(const std::string& dir) {
    for (const char* sub : {"/catalog", "/ledger", ""}) {
      const std::string path = dir + sub;
      DIR* d = opendir(path.c_str());
      if (d == nullptr) continue;
      while (struct dirent* entry = readdir(d)) {
        const std::string name = entry->d_name;
        if (name == "." || name == "..") continue;
        unlink((path + "/" + name).c_str());
      }
      closedir(d);
      rmdir(path.c_str());
    }
  }

  // Baseline shard args: a small catalog (startup stays fast across ~20
  // restart cycles) and no fsync (kill -9 durability relies on the page
  // cache surviving the process; the fsync policies' durability is
  // bench_net/BENCH territory).
  std::vector<std::string> ShardArgs(const std::string& fsync = "none") {
    return {"--curves=24",      "--seed=11",
            "--min-knots=8",    "--max-knots=32",
            "--wal-dir=" + wal_dir_, "--wal-fsync=" + fsync};
  }

  static std::unique_ptr<PriceClient> Connect(uint16_t port) {
    ClientOptions options;
    options.connect_timeout_ms = 2000;
    options.attempt_timeout_ms = 2000;
    options.request_timeout_ms = 4000;
    auto client = PriceClient::Connect("127.0.0.1", port, options);
    EXPECT_TRUE(client.ok()) << client.status();
    return client.ok() ? *std::move(client) : nullptr;
  }

  static bool SameBits(const std::vector<double>& a,
                       const std::vector<double>& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
  }

  std::string wal_dir_;
};

// Satellite (a) + tentpole: a graceful drain checkpoints both logs, the
// restart replays ZERO segment records, the catalog rebuilds from the
// journal (ignoring contradictory flags), and every recorded sale
// replays bit-identically.
TEST_F(CrashRecoveryTest, GracefulDrainThenRestartSkipsReplayKeepsSales) {
  std::map<uint64_t, BuyPayload> acked;
  {
    ShardProcess shard;
    ASSERT_TRUE(shard.Start(ShardArgs()));
    EXPECT_EQ(shard.recovered(), 0u);
    EXPECT_EQ(shard.curves(), 24u);
    auto client = Connect(shard.port());
    ASSERT_NE(client, nullptr);
    for (uint64_t txn = 1; txn <= 8; ++txn) {
      auto sale = client->Buy(serving::SyntheticCurveId(txn % 5), 0.5, txn);
      ASSERT_TRUE(sale.ok()) << sale.status();
      acked[txn] = *sale;
    }
    const std::string drain = shard.StopGraceful();
    EXPECT_NE(drain.find("DRAIN "), std::string::npos) << drain;
    EXPECT_NE(drain.find("sales=8"), std::string::npos) << drain;
    EXPECT_NE(drain.find("checkpoint=clean"), std::string::npos) << drain;
  }

  ShardProcess shard;
  // Contradictory --curves: the journal, not the flag, is the catalog's
  // source of truth once it exists.
  auto args = ShardArgs();
  args[0] = "--curves=3";
  ASSERT_TRUE(shard.Start(args));
  EXPECT_EQ(shard.curves(), 24u) << "catalog must rebuild from the journal";
  EXPECT_EQ(shard.recovered(), 0u)
      << "a clean shutdown leaves no segment records to replay";
  EXPECT_EQ(shard.torn(), 0u);

  auto client = Connect(shard.port());
  ASSERT_NE(client, nullptr);
  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->transactions_recorded, 8u);
  EXPECT_EQ(stats->recovery_records, 0u);
  double expected_revenue = 0.0;
  for (auto& [txn, sale] : acked) {
    auto replay = client->Replay(txn);
    ASSERT_TRUE(replay.ok()) << "txn " << txn << ": " << replay.status();
    EXPECT_TRUE(SameBits(replay->weights, sale.weights))
        << "txn " << txn << " must replay bit-identically across restart";
    EXPECT_EQ(replay->record.seed_commitment, sale.record.seed_commitment);
    expected_revenue += sale.record.price;
  }
  EXPECT_NEAR(stats->revenue, expected_revenue, 1e-9)
      << "revenue must equal the sum over distinct recorded sales";
}

// Tentpole: crash AFTER the record is durable but BEFORE the ack leaves
// the process. The client saw an error — but the money moved. A retry
// with the same txn id must re-deliver the recorded sale, charged once.
TEST_F(CrashRecoveryTest, PostFsyncPreAckCrashRetriesAreChargedOnce) {
  {
    ShardProcess shard;
    auto args = ShardArgs();
    args.push_back("--crash-point=wal.crash.post_fsync");
    args.push_back("--crash-after=2");  // two BUYs ack; the third dies
    ASSERT_TRUE(shard.Start(args));
    auto client = Connect(shard.port());
    ASSERT_NE(client, nullptr);
    ASSERT_TRUE(client->Buy(serving::SyntheticCurveId(0), 0.5, 1).ok());
    ASSERT_TRUE(client->Buy(serving::SyntheticCurveId(1), 0.5, 2).ok());
    EXPECT_FALSE(client->Buy(serving::SyntheticCurveId(2), 0.5, 3).ok())
        << "the armed append must kill the process before the ack";
    EXPECT_EQ(shard.WaitCrash(), 137);
  }

  ShardProcess shard;
  ASSERT_TRUE(shard.Start(ShardArgs()));
  EXPECT_EQ(shard.recovered(), 3u + 24u)
      << "24 journaled publishes + 3 sale records (txn 3's append "
         "completed before the crash point fired)";
  EXPECT_EQ(shard.torn(), 0u);
  auto client = Connect(shard.port());
  ASSERT_NE(client, nullptr);
  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok());
  const double revenue_before = stats->revenue;
  EXPECT_EQ(stats->transactions_recorded, 3u);

  // The failed BUY's retry — same txn id — is answered from the ledger.
  auto retry = client->Buy(serving::SyntheticCurveId(2), 0.5, 3);
  ASSERT_TRUE(retry.ok()) << retry.status();
  EXPECT_EQ(retry->record.txn_id, 3u);
  auto after = client->Stats();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->revenue, revenue_before)
      << "a recovered sale retried is never charged again";
  EXPECT_EQ(after->buys_ok, 0u) << "no NEW sale happened on this boot";
}

// Tentpole: crash MID-WRITE — a torn record on disk. Recovery truncates
// the tail; the unacked BUY was never recorded, so its retry is a fresh
// sale charged exactly once.
TEST_F(CrashRecoveryTest, TornWriteCrashTruncatesTailAndRetriesFresh) {
  {
    ShardProcess shard;
    auto args = ShardArgs();
    args.push_back("--crash-point=wal.append.torn");
    args.push_back("--crash-after=1");
    ASSERT_TRUE(shard.Start(args));
    auto client = Connect(shard.port());
    ASSERT_NE(client, nullptr);
    ASSERT_TRUE(client->Buy(serving::SyntheticCurveId(0), 0.5, 1).ok());
    EXPECT_FALSE(client->Buy(serving::SyntheticCurveId(1), 0.5, 2).ok());
    EXPECT_EQ(shard.WaitCrash(), 137);
  }

  ShardProcess shard;
  ASSERT_TRUE(shard.Start(ShardArgs()));
  EXPECT_EQ(shard.recovered(), 1u + 24u);
  EXPECT_EQ(shard.torn(), 1u) << "the half-written record is a torn tail";
  auto client = Connect(shard.port());
  ASSERT_NE(client, nullptr);
  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->transactions_recorded, 1u)
      << "the torn record must NOT be admitted";
  EXPECT_EQ(stats->recovery_torn_tail, 1u);

  auto retry = client->Buy(serving::SyntheticCurveId(1), 0.5, 2);
  ASSERT_TRUE(retry.ok()) << retry.status();
  auto after = client->Stats();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->buys_ok, 1u) << "the retry is a fresh, first delivery";
  EXPECT_NEAR(after->revenue, stats->revenue + retry->record.price, 1e-9);
  EXPECT_EQ(after->transactions_recorded, 2u);
}

// The acceptance gate: >= MBP_CRASH_CYCLES (default 20) random
// SIGKILL/restart cycles under concurrent BUY load. Across every cycle:
// acked sales replay bit-identically, retries never double-charge, and
// revenue reconciles exactly with the distinct recorded sales.
TEST_F(CrashRecoveryTest, RandomKillNineCyclesLoseNoAckedSale) {
  const uint64_t cycles = EnvU64("MBP_CRASH_CYCLES", 20);
  random::Rng rng(EnvU64("MBP_CHAOS_SEED", 12648430));

  std::map<uint64_t, BuyPayload> acked;  // every sale a client saw ack'd
  double recorded_revenue = 0.0;  // sum over DISTINCT recorded sales,
                                  // including recorded-but-unacked ones
  uint64_t next_txn = 1;
  uint64_t inflight_txn = 0;  // BUY whose ack the kill swallowed, if any

  for (uint64_t cycle = 0; cycle <= cycles; ++cycle) {
    ShardProcess shard;
    ASSERT_TRUE(shard.Start(ShardArgs())) << "cycle " << cycle;
    auto client = Connect(shard.port());
    ASSERT_NE(client, nullptr) << "cycle " << cycle;

    // Invariant 2 first: the txn in flight at kill time, retried with
    // the SAME id, lands exactly once — whether or not its record beat
    // the SIGKILL to the log. Either way the books close at
    // recorded_revenue + price.
    if (inflight_txn != 0) {
      auto boot = client->Stats();
      ASSERT_TRUE(boot.ok()) << "cycle " << cycle << ": " << boot.status();
      auto retry = client->Buy(serving::SyntheticCurveId(inflight_txn % 24),
                               0.5, inflight_txn);
      ASSERT_TRUE(retry.ok()) << "cycle " << cycle << ": " << retry.status();
      recorded_revenue += retry->record.price;
      auto after = client->Stats();
      ASSERT_TRUE(after.ok());
      if (after->buys_ok > 0) {
        ASSERT_NEAR(boot->revenue + retry->record.price, recorded_revenue,
                    1e-9)
            << "cycle " << cycle << ": fresh retry must charge exactly once";
      } else {
        ASSERT_NEAR(boot->revenue, recorded_revenue, 1e-9)
            << "cycle " << cycle
            << ": the record survived the kill, the retry must not re-charge";
      }
      acked[inflight_txn] = *retry;
      inflight_txn = 0;
    }

    // Invariant 3: revenue ≡ sum over DISTINCT recorded sales.
    auto stats = client->Stats();
    ASSERT_TRUE(stats.ok()) << "cycle " << cycle << ": " << stats.status();
    ASSERT_NEAR(stats->revenue, recorded_revenue, 1e-9)
        << "cycle " << cycle
        << ": recovered revenue must equal the distinct recorded sales";
    ASSERT_EQ(stats->transactions_recorded, acked.size())
        << "cycle " << cycle;

    // Invariant 1: nothing acked is ever lost, and replays are
    // bit-identical. (Spot-check a bounded sample to keep cycles fast.)
    size_t checked = 0;
    for (auto it = acked.rbegin(); it != acked.rend() && checked < 8;
         ++it, ++checked) {
      auto replay = client->Replay(it->first);
      ASSERT_TRUE(replay.ok())
          << "cycle " << cycle << " lost acked txn " << it->first << ": "
          << replay.status();
      ASSERT_TRUE(SameBits(replay->weights, it->second.weights))
          << "cycle " << cycle << " txn " << it->first
          << ": replay is not bit-identical";
    }
    if (cycle == cycles) break;  // final boot only reconciles

    // BUY load until a SIGKILL lands at a random moment — possibly in
    // the middle of a charge-durable-then-deliver append.
    const uint64_t kill_after_ms = 3 + rng.NextUint64() % 35;
    std::thread killer([&shard, kill_after_ms] {
      std::this_thread::sleep_for(std::chrono::milliseconds(
          static_cast<long>(kill_after_ms)));
      shard.Kill();
    });
    while (true) {
      const uint64_t txn = next_txn++;
      auto sale =
          client->Buy(serving::SyntheticCurveId(txn % 24), 0.5, txn);
      if (!sale.ok()) {
        inflight_txn = txn;  // ack swallowed: recorded or not, unknown
        break;
      }
      acked[txn] = *sale;
      recorded_revenue += sale->record.price;
    }
    killer.join();
  }

  EXPECT_GE(acked.size(), cycles)
      << "the load loop must actually have sold things";
}

}  // namespace
}  // namespace mbp::net
