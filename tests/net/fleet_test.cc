// Multi-process fleet tests: fork/exec the real mbp_price_fleet launcher
// (paths injected via MBP_FLEET_PATH / MBP_SHARD_PATH compile
// definitions), route to it with ClusterPriceClient, and hold the
// cross-process bit-identity contract — including while one shard is
// fault-stormed (the pass scripts/chaos.sh runs, honoring
// MBP_CHAOS_SEED) and in ring-partitioned mode. Also drives the shard
// binary's command line directly where a flag's contract is process-level
// (exit code and stderr).

#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "net/cluster.h"
#include "random/distributions.h"
#include "random/rng.h"
#include "serving/synthetic_catalog.h"

namespace mbp::net {
namespace {

// A fleet child process: the launcher with its stdin held open by us
// (closing it triggers the graceful drain) and its stdout piped back for
// the FLEET line.
class FleetProcess {
 public:
  bool Start(std::vector<std::string> args) {
    int in_pipe[2], out_pipe[2];
    if (pipe(in_pipe) < 0 || pipe(out_pipe) < 0) return false;
    args.insert(args.begin(), MBP_FLEET_PATH);
    args.push_back(std::string("--shard-bin=") + MBP_SHARD_PATH);
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
      execv(MBP_FLEET_PATH, cargs.data());
      _exit(127);
    }
    close(in_pipe[0]);
    close(out_pipe[1]);
    stdin_fd_ = in_pipe[1];
    stdout_fd_ = out_pipe[0];
    return ReadFleetLine();
  }

  ~FleetProcess() { Stop(); }

  void Stop() {
    if (pid_ < 0) return;
    close(stdin_fd_);  // graceful drain signal
    int status = 0;
    for (int waited = 0; waited < 10000; waited += 50) {
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        break;
      }
      usleep(50 * 1000);
    }
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, &status, 0);
      pid_ = -1;
    }
    close(stdout_fd_);
  }

  const std::string& endpoints_csv() const { return endpoints_csv_; }
  const std::vector<std::string>& labels() const { return labels_; }

 private:
  bool ReadFleetLine() {
    std::string line;
    while (line.find('\n') == std::string::npos && line.size() < 8192) {
      struct pollfd pfd = {stdout_fd_, POLLIN, 0};
      if (poll(&pfd, 1, 120000) <= 0) return false;
      char buf[512];
      const ssize_t n = read(stdout_fd_, buf, sizeof(buf));
      if (n <= 0) return false;
      line.append(buf, static_cast<size_t>(n));
    }
    const size_t ep = line.find("endpoints=");
    const size_t lb = line.find(" labels=");
    const size_t nl = line.find('\n');
    if (line.find("FLEET ") == std::string::npos || ep == std::string::npos ||
        lb == std::string::npos || nl == std::string::npos) {
      return false;
    }
    endpoints_csv_ = line.substr(ep + 10, lb - (ep + 10));
    std::string labels_csv = line.substr(lb + 8, nl - (lb + 8));
    size_t pos = 0;
    while (pos <= labels_csv.size()) {
      const size_t comma = std::min(labels_csv.find(',', pos),
                                    labels_csv.size());
      labels_.push_back(labels_csv.substr(pos, comma - pos));
      if (comma == labels_csv.size()) break;
      pos = comma + 1;
    }
    return true;
  }

  pid_t pid_ = -1;
  int stdin_fd_ = -1;
  int stdout_fd_ = -1;
  std::string endpoints_csv_;
  std::vector<std::string> labels_;
};

uint64_t ChaosSeed() {
  const char* env = std::getenv("MBP_CHAOS_SEED");
  if (env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 10);
  }
  return 12648430;  // 0xC0FFEE
}

// Satellite (e): a fixed-seed 2-process consistent-hash fleet with one
// shard fault-stormed. Every zipf-sampled answer routed through the
// cluster client must be bit-identical to the in-process engine's curve —
// faults may slow a request down or fail it over, never change its value.
TEST(NetFleetTest, FaultStormedFleetStaysBitIdenticalUnderZipfLoad) {
  serving::SyntheticCatalogSpec spec;
  spec.num_curves = 256;
  spec.seed = 7;

  FleetProcess fleet;
  ASSERT_TRUE(fleet.Start({"--n=2", "--curves=256", "--seed=7",
                           "--fault-shard=0",
                           "--fault-seed=" + std::to_string(ChaosSeed()),
                           "--fault-scale=1.0"}))
      << "fleet launcher did not report FLEET";
  auto endpoints = ParseEndpoints(fleet.endpoints_csv());
  ASSERT_TRUE(endpoints.ok()) << endpoints.status();
  ASSERT_EQ(endpoints->size(), 2u);
  ASSERT_EQ(fleet.labels().size(), 2u);

  ClusterClientOptions options;
  options.node_labels = fleet.labels();
  options.cooldown_ms = 20;
  auto client = ClusterPriceClient::Create(*endpoints, options);
  ASSERT_TRUE(client.ok()) << client.status();

  // Local oracles for the whole catalog, compiled from the same spec the
  // shards used — cross-process determinism is the property under test.
  std::vector<core::PiecewiseLinearPricing> oracles;
  for (size_t i = 0; i < spec.num_curves; ++i) {
    oracles.push_back(serving::MakeSyntheticCurve(spec, i));
  }

  random::Rng rng(ChaosSeed() ^ 0x5A5A5A5Aull);
  const random::ZipfIndex zipf(spec.num_curves, 1.1);
  size_t served = 0;
  for (int round = 0; round < 400; ++round) {
    const size_t index = zipf.Sample(rng);
    const std::string id = serving::SyntheticCurveId(index);
    const double hi = serving::SyntheticCurveXMax(spec, index);
    if (round % 3 == 0) {
      const double x = rng.NextDouble(0.0, hi);
      const auto remote = (*client)->PriceAt(id, x);
      ASSERT_TRUE(remote.ok()) << id << ": " << remote.status();
      ASSERT_EQ(*remote, oracles[index].PriceAtInverseNcp(x)) << id;
      ++served;
    } else {
      std::vector<double> xs(8);
      for (double& x : xs) x = rng.NextDouble(0.0, hi);
      const auto remote = (*client)->PriceBatch(id, xs);
      ASSERT_TRUE(remote.ok()) << id << ": " << remote.status();
      for (size_t i = 0; i < xs.size(); ++i) {
        ASSERT_EQ((*remote)[i], oracles[index].PriceAtInverseNcp(xs[i]))
            << id;
      }
      served += xs.size();
    }
  }
  EXPECT_GT(served, 0u);
}

// Ring-partitioned fleet: 3 shards, replicas=2, so each shard compiles
// only its share and every curve is resident on exactly its 2 ring
// owners. The cluster client (same labels) must still serve the whole
// catalog bit-identically, and the fleet-wide resident-listing total must
// equal curves x replicas.
TEST(NetFleetTest, PartitionedFleetServesWholeCatalogBitIdentically) {
  serving::SyntheticCatalogSpec spec;
  spec.num_curves = 128;
  spec.seed = 9;

  FleetProcess fleet;
  ASSERT_TRUE(fleet.Start({"--n=3", "--curves=128", "--seed=9",
                           "--partition", "--replicas=2"}));
  auto endpoints = ParseEndpoints(fleet.endpoints_csv());
  ASSERT_TRUE(endpoints.ok()) << endpoints.status();
  ASSERT_EQ(endpoints->size(), 3u);

  ClusterClientOptions options;
  options.node_labels = fleet.labels();
  auto client = ClusterPriceClient::Create(*endpoints, options);
  ASSERT_TRUE(client.ok()) << client.status();

  for (size_t i = 0; i < spec.num_curves; ++i) {
    const std::string id = serving::SyntheticCurveId(i);
    const auto oracle = serving::MakeSyntheticCurve(spec, i);
    const double x = serving::SyntheticCurveXMax(spec, i) * 0.5;
    const auto remote = (*client)->PriceAt(id, x);
    ASSERT_TRUE(remote.ok()) << id << ": " << remote.status();
    EXPECT_EQ(*remote, oracle.PriceAtInverseNcp(x)) << id;
  }

  uint64_t total_resident = 0;
  for (size_t e = 0; e < endpoints->size(); ++e) {
    const auto stats = (*client)->Stats(e);
    ASSERT_TRUE(stats.ok()) << stats.status();
    EXPECT_LT(stats->catalog_listings, spec.num_curves)
        << "a partitioned shard must not hold the whole catalog";
    total_resident += stats->catalog_listings;
  }
  EXPECT_EQ(total_resident, spec.num_curves * 2)
      << "replicas=2 means every curve is resident on exactly 2 shards";
}

// Runs the shard binary with `args`, stdin at EOF (READY is followed by an
// immediate graceful drain) and stderr folded into the captured output.
// Returns the exit code, or -1 when the process did not exit normally.
int RunShard(const std::string& args, std::string* output) {
  const std::string cmd =
      std::string(MBP_SHARD_PATH) + " " + args + " </dev/null 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return -1;
  char buf[512];
  size_t n;
  while ((n = fread(buf, 1, sizeof(buf), pipe)) > 0) output->append(buf, n);
  const int status = pclose(pipe);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

// epoll is the only TCP shard-loop transport. Any other --transport value
// (including the removed second backend's name) must fail loudly, naming
// the accepted value, instead of silently serving on epoll.
TEST(CatalogShardCliTest, TransportFlagAcceptsOnlyEpoll) {
  std::string refused;
  EXPECT_NE(RunShard("--curves=4 --transport=uring", &refused), 0);
  EXPECT_NE(refused.find("epoll"), std::string::npos) << refused;
  EXPECT_EQ(refused.find("READY"), std::string::npos) << refused;

  std::string served;
  EXPECT_EQ(RunShard("--curves=4 --transport=epoll", &served), 0) << served;
  EXPECT_NE(served.find("READY port="), std::string::npos) << served;
}

}  // namespace
}  // namespace mbp::net
