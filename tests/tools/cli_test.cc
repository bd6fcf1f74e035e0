// Subprocess tests of the mbp_market_cli operator tool: every subcommand
// is exercised end to end against a generated CSV, including the
// error paths (bad flags, corrupt files) and the exit-code contract.
// The binary path is injected by CMake via MBP_CLI_PATH.

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>

#include <gtest/gtest.h>

#include "net/client.h"
#include "random/distributions.h"
#include "random/rng.h"

#ifndef MBP_CLI_PATH
#error "MBP_CLI_PATH must be defined by the build"
#endif

namespace mbp {
namespace {

struct CommandResult {
  int exit_code = -1;
  std::string output;
};

// ctest runs each test of this binary as its own process, concurrently
// under -j; fixed names in the shared TempDir race (one process rewrites
// cli_data.csv while another's subprocess reads it). Keying every path by
// pid keeps each test process in its own namespace.
std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/cli_" + std::to_string(getpid()) + "_" +
         name;
}

CommandResult RunCli(const std::string& args) {
  const std::string command =
      std::string(MBP_CLI_PATH) + " " + args + " 2>&1";
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return {};
  CommandResult result;
  char buffer[512];
  while (fgets(buffer, sizeof(buffer), pipe) != nullptr) {
    result.output += buffer;
  }
  const int status = pclose(pipe);
  result.exit_code = WEXITSTATUS(status);
  return result;
}

class CliTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    csv_path_ = new std::string(TempPath("data.csv"));
    std::ofstream out(*csv_path_);
    out << "a,b,y\n";
    random::Rng rng(7);
    for (int i = 0; i < 500; ++i) {
      const double a = random::SampleStandardNormal(rng);
      const double b = random::SampleStandardNormal(rng);
      const double y =
          2.0 * a - b + random::SampleNormal(rng, 0.0, 0.05);
      out << a << "," << b << "," << y << "\n";
    }
  }
  static void TearDownTestSuite() {
    delete csv_path_;
    csv_path_ = nullptr;
  }

  static std::string* csv_path_;
};

std::string* CliTest::csv_path_ = nullptr;

TEST_F(CliTest, NoArgumentsPrintsUsageAndFails) {
  const CommandResult result = RunCli("");
  EXPECT_NE(result.exit_code, 0);
  EXPECT_NE(result.output.find("usage:"), std::string::npos);
}

TEST_F(CliTest, UnknownCommandFails) {
  const CommandResult result = RunCli("frobnicate");
  EXPECT_NE(result.exit_code, 0);
  EXPECT_NE(result.output.find("unknown command"), std::string::npos);
}

TEST_F(CliTest, TrainReportsMetricsAndWritesModel) {
  const std::string model_path = TempPath("model.mbp");
  const CommandResult result = RunCli(
      "train --csv=" + *csv_path_ +
      " --task=regression --out-model=" + model_path);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("test MSE"), std::string::npos);
  std::ifstream model(model_path);
  EXPECT_TRUE(model.good());
}

TEST_F(CliTest, TrainRequiresFlags) {
  EXPECT_NE(RunCli("train --task=regression").exit_code, 0);
  EXPECT_NE(RunCli("train --csv=" + *csv_path_).exit_code, 0);
  EXPECT_NE(
      RunCli("train --csv=" + *csv_path_ + " --task=clustering").exit_code,
      0);
  EXPECT_NE(RunCli("train --csv=/no/such.csv --task=regression").exit_code,
            0);
}

TEST_F(CliTest, PriceSellCheckRoundTrip) {
  const std::string pricing_path = TempPath("pricing.mbp");
  const CommandResult price = RunCli(
      "price --csv=" + *csv_path_ +
      " --task=regression --out-pricing=" + pricing_path);
  ASSERT_EQ(price.exit_code, 0) << price.output;
  EXPECT_NE(price.output.find("E[error]"), std::string::npos);

  const CommandResult check =
      RunCli("check-pricing --pricing=" + pricing_path);
  EXPECT_EQ(check.exit_code, 0) << check.output;
  EXPECT_NE(check.output.find("no arbitrage"), std::string::npos);

  const std::string instance_path =
      TempPath("instance.mbp");
  const CommandResult sell = RunCli(
      "sell --csv=" + *csv_path_ + " --task=regression --pricing=" +
      pricing_path + " --budget=25 --out-model=" + instance_path);
  EXPECT_EQ(sell.exit_code, 0) << sell.output;
  EXPECT_NE(sell.output.find("sold instance"), std::string::npos);
  std::ifstream instance(instance_path);
  EXPECT_TRUE(instance.good());
}

TEST_F(CliTest, SellRejectsNanBudget) {
  const std::string pricing_path = TempPath("sell_nan_pricing.mbp");
  {
    std::ofstream out(pricing_path);
    out << "mbp-pricing v1\npoints 4\n1 10\n2 18\n4 30\n8 40\n";
  }
  const CommandResult result =
      RunCli("sell --csv=" + *csv_path_ + " --task=regression --pricing=" +
             pricing_path + " --budget=nan");
  // Fail()'s exit code, not an abort (134) from the budget MBP_CHECK.
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("--budget must be a number >= 0"),
            std::string::npos)
      << result.output;
  EXPECT_EQ(result.output.find("MBP_CHECK"), std::string::npos)
      << result.output;
}

TEST_F(CliTest, CheckPricingFlagsBrokenCurves) {
  const std::string bad_path = TempPath("bad_pricing.mbp");
  {
    std::ofstream out(bad_path);
    // Convex (superadditive) prices.
    out << "mbp-pricing v1\npoints 2\n1 1\n2 4\n";
  }
  const CommandResult result = RunCli("check-pricing --pricing=" + bad_path);
  EXPECT_NE(result.exit_code, 0);
}

TEST_F(CliTest, ServeAnswersPriceAndBudgetQueries) {
  const std::string pricing_path =
      TempPath("serve_pricing.mbp");
  {
    std::ofstream out(pricing_path);
    out << "mbp-pricing v1\npoints 4\n1 10\n2 18\n4 30\n8 40\n";
  }
  const std::string queries_path =
      TempPath("serve_queries.txt");
  {
    std::ofstream out(queries_path);
    out << "0.5\n1.5\n3\n";  // prices 5, 14, 24 on this curve
  }
  const CommandResult result = RunCli("serve --pricing=" + pricing_path +
                                      " --queries=" + queries_path);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("serving 'pricing': 4 knots"),
            std::string::npos);
  EXPECT_NE(result.output.find("0.5 5\n"), std::string::npos);
  EXPECT_NE(result.output.find("1.5 14\n"), std::string::npos);
  EXPECT_NE(result.output.find("3 24\n"), std::string::npos);
  EXPECT_NE(result.output.find("served 3 price queries"), std::string::npos);

  // Budget inversion: 24 affords exactly x = 3.
  const std::string budgets_path =
      TempPath("serve_budgets.txt");
  {
    std::ofstream out(budgets_path);
    out << "24\n";
  }
  const CommandResult invert =
      RunCli("serve --pricing=" + pricing_path + " --queries=" +
             budgets_path + " --invert-budget");
  EXPECT_EQ(invert.exit_code, 0) << invert.output;
  EXPECT_NE(invert.output.find("24 3\n"), std::string::npos);
  EXPECT_NE(invert.output.find("served 1 budget queries"),
            std::string::npos);
}

TEST_F(CliTest, ServeInvertBudgetRejectsNegativeAndNanBudgets) {
  const std::string pricing_path = TempPath("serve_budget_pricing.mbp");
  {
    std::ofstream out(pricing_path);
    out << "mbp-pricing v1\npoints 4\n1 10\n2 18\n4 30\n8 40\n";
  }
  for (const std::string budget : {"-5", "nan"}) {
    const std::string budgets_path = TempPath("serve_bad_budget.txt");
    {
      std::ofstream out(budgets_path);
      out << "24\n" << budget << "\n";
    }
    const CommandResult result =
        RunCli("serve --pricing=" + pricing_path + " --queries=" +
               budgets_path + " --invert-budget");
    // Fail()'s exit code: a clean usage error, not an abort (134) and not
    // a signal (which popen's status would report as 0).
    EXPECT_EQ(result.exit_code, 1) << budget << ": " << result.output;
    EXPECT_NE(result.output.find("budget must be a number >= 0"),
              std::string::npos)
        << budget << ": " << result.output;
    EXPECT_EQ(result.output.find("MBP_CHECK"), std::string::npos)
        << budget << ": " << result.output;
  }
}

TEST_F(CliTest, ServeRefusesArbitrageableCurve) {
  // Publish re-runs the certificate at snapshot-compile time: a convex
  // (superadditive) curve must be rejected before serving anything.
  const std::string bad_path = TempPath("serve_bad.mbp");
  {
    std::ofstream out(bad_path);
    out << "mbp-pricing v1\npoints 2\n1 1\n2 4\n";
  }
  const CommandResult result = RunCli("serve --pricing=" + bad_path);
  EXPECT_NE(result.exit_code, 0);
}

// The TCP serving mode needs a real child process (popen exposes no pid
// to signal): fork/exec the CLI with stdin/stdout wired to pipes, parse
// the "listening on" line for the ephemeral port, and drive it with the
// real net::PriceClient.
struct ServeProcess {
  pid_t pid = -1;
  FILE* out = nullptr;    // child stdout+stderr
  int stdin_fd = -1;      // child stdin (-1 when wired to /dev/null)
};

ServeProcess SpawnServeTcp(const std::string& pricing_path,
                           bool with_stdin) {
  ServeProcess proc;
  int out_pipe[2];
  int in_pipe[2] = {-1, -1};
  if (pipe(out_pipe) != 0) return proc;
  if (with_stdin && pipe(in_pipe) != 0) return proc;
  const pid_t pid = fork();
  if (pid < 0) return proc;
  if (pid == 0) {
    if (with_stdin) {
      dup2(in_pipe[0], STDIN_FILENO);
      close(in_pipe[0]);
      close(in_pipe[1]);
    } else {
      const int null_fd = open("/dev/null", O_RDONLY);
      if (null_fd >= 0) dup2(null_fd, STDIN_FILENO);
    }
    dup2(out_pipe[1], STDOUT_FILENO);
    dup2(out_pipe[1], STDERR_FILENO);
    close(out_pipe[0]);
    close(out_pipe[1]);
    const std::string pricing_flag = "--pricing=" + pricing_path;
    execl(MBP_CLI_PATH, MBP_CLI_PATH, "serve", pricing_flag.c_str(),
          "--tcp", "--shards=2", static_cast<char*>(nullptr));
    _exit(127);
  }
  close(out_pipe[1]);
  if (with_stdin) {
    close(in_pipe[0]);
    proc.stdin_fd = in_pipe[1];
  }
  proc.pid = pid;
  proc.out = fdopen(out_pipe[0], "r");
  return proc;
}

// Reads child output lines into `captured` until one contains `marker`;
// returns false on EOF.
bool ReadUntil(FILE* out, const std::string& marker, std::string* captured) {
  char line[512];
  while (fgets(line, sizeof(line), out) != nullptr) {
    *captured += line;
    if (std::string(line).find(marker) != std::string::npos) return true;
  }
  return false;
}

uint16_t ParseListeningPort(const std::string& captured) {
  const auto pos = captured.find("listening on 127.0.0.1:");
  if (pos == std::string::npos) return 0;
  return static_cast<uint16_t>(
      std::atoi(captured.c_str() + pos + strlen("listening on 127.0.0.1:")));
}

void WritePricingFile(const std::string& path, double scale) {
  std::ofstream out(path);
  out << "mbp-pricing v1\npoints 4\n1 " << 10.0 * scale << "\n2 "
      << 18.0 * scale << "\n4 " << 30.0 * scale << "\n8 " << 40.0 * scale
      << "\n";
}

TEST_F(CliTest, ServeTcpDrainsGracefullyOnSigterm) {
  const std::string pricing_path = TempPath("serve_tcp.mbp");
  WritePricingFile(pricing_path, 1.0);
  // stdin is /dev/null: the server must keep serving past stdin EOF and
  // rely on the signal for shutdown.
  ServeProcess proc = SpawnServeTcp(pricing_path, /*with_stdin=*/false);
  ASSERT_GE(proc.pid, 0);
  ASSERT_NE(proc.out, nullptr);

  std::string captured;
  ASSERT_TRUE(ReadUntil(proc.out, "listening on", &captured)) << captured;
  const uint16_t port = ParseListeningPort(captured);
  ASSERT_GT(port, 0) << captured;

  {
    auto client = net::PriceClient::Connect("127.0.0.1", port);
    ASSERT_TRUE(client.ok()) << client.status();
    const auto price = (*client)->PriceAt("pricing", 3.0);
    ASSERT_TRUE(price.ok()) << price.status();
    EXPECT_EQ(*price, 24.0);  // 18 + (30 - 18) * (3 - 2) / (4 - 2)
    const auto budget = (*client)->BudgetToX("pricing", 24.0);
    ASSERT_TRUE(budget.ok()) << budget.status();
    EXPECT_EQ(*budget, 3.0);
  }

  ASSERT_EQ(kill(proc.pid, SIGTERM), 0);
  while (ReadUntil(proc.out, "\x01never", &captured)) {
  }  // drain to EOF
  fclose(proc.out);
  int status = 0;
  ASSERT_EQ(waitpid(proc.pid, &status, 0), proc.pid);
  ASSERT_TRUE(WIFEXITED(status)) << captured;
  EXPECT_EQ(WEXITSTATUS(status), 0) << captured;
  // The graceful drain reports its serving metrics on the way out.
  EXPECT_NE(captured.find("drained:"), std::string::npos) << captured;
  EXPECT_NE(captured.find("requests ok"), std::string::npos) << captured;
}

TEST_F(CliTest, ServeTcpRepublishesLiveOverStdin) {
  const std::string pricing_path = TempPath("serve_tcp_v1.mbp");
  WritePricingFile(pricing_path, 1.0);
  ServeProcess proc = SpawnServeTcp(pricing_path, /*with_stdin=*/true);
  ASSERT_GE(proc.pid, 0);
  ASSERT_NE(proc.out, nullptr);
  ASSERT_GE(proc.stdin_fd, 0);

  std::string captured;
  ASSERT_TRUE(ReadUntil(proc.out, "listening on", &captured)) << captured;
  const uint16_t port = ParseListeningPort(captured);
  ASSERT_GT(port, 0) << captured;

  auto client = net::PriceClient::Connect("127.0.0.1", port);
  ASSERT_TRUE(client.ok()) << client.status();
  const auto before = (*client)->PriceAt("pricing", 3.0);
  ASSERT_TRUE(before.ok()) << before.status();
  EXPECT_EQ(*before, 24.0);

  // Republish a doubled curve by writing its path to the CLI's stdin;
  // the connection stays open across the swap.
  const std::string doubled_path = TempPath("serve_tcp_v2.mbp");
  WritePricingFile(doubled_path, 2.0);
  const std::string command = doubled_path + "\n";
  ASSERT_EQ(write(proc.stdin_fd, command.data(), command.size()),
            static_cast<ssize_t>(command.size()));
  ASSERT_TRUE(ReadUntil(proc.out, "republished", &captured)) << captured;

  const auto after = (*client)->PriceAt("pricing", 3.0);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(*after, 48.0);
  const auto info = (*client)->SnapshotInfo("pricing");
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_GE(info->version, 2u);

  // 'quit' drains and exits 0.
  ASSERT_EQ(write(proc.stdin_fd, "quit\n", 5), 5);
  close(proc.stdin_fd);
  while (ReadUntil(proc.out, "\x01never", &captured)) {
  }
  fclose(proc.out);
  int status = 0;
  ASSERT_EQ(waitpid(proc.pid, &status, 0), proc.pid);
  ASSERT_TRUE(WIFEXITED(status)) << captured;
  EXPECT_EQ(WEXITSTATUS(status), 0) << captured;
  EXPECT_NE(captured.find("drained:"), std::string::npos) << captured;
}

// The `buy` subcommand against a selling `serve --tcp` process: QUOTE
// locks the snapshot price, BUY delivers the weights, a retried txn id
// and REPLAY re-deliver the identical bytes, and the drain line reports
// the per-verb counts plus fulfillment revenue (DESIGN.md §5i).
TEST_F(CliTest, BuySubcommandPurchasesIdempotentlyAndReplays) {
  const std::string pricing_path = TempPath("serve_buy.mbp");
  WritePricingFile(pricing_path, 1.0);
  ServeProcess proc = SpawnServeTcp(pricing_path, /*with_stdin=*/true);
  ASSERT_GE(proc.pid, 0);
  ASSERT_NE(proc.out, nullptr);

  std::string captured;
  ASSERT_TRUE(ReadUntil(proc.out, "listening on", &captured)) << captured;
  const uint16_t port = ParseListeningPort(captured);
  ASSERT_GT(port, 0) << captured;
  const std::string port_flag = " --port=" + std::to_string(port);

  const auto read_file = [](const std::string& path) {
    std::ifstream in(path);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  };

  // δ=0.5 → x=2 on the 1→10, 2→18, 4→30, 8→40 curve: price 18.
  const std::string w1 = TempPath("buy_w1.txt");
  const CommandResult bought = RunCli(
      "buy" + port_flag + " --curve-id=pricing --delta=0.5 --txn=77" +
      " --out-weights=" + w1);
  EXPECT_EQ(bought.exit_code, 0) << bought.output;
  EXPECT_NE(bought.output.find("quoted price 18.0000"), std::string::npos)
      << bought.output;
  EXPECT_NE(bought.output.find("sale txn=77"), std::string::npos)
      << bought.output;
  EXPECT_NE(bought.output.find("price=18.0000"), std::string::npos)
      << bought.output;
  const std::string weights = read_file(w1);
  EXPECT_FALSE(weights.empty());

  // Same txn id retried (even with a different δ, skipping the quote):
  // the RECORDED sale comes back, bit-identical, charged once.
  const std::string w2 = TempPath("buy_w2.txt");
  const CommandResult retried = RunCli(
      "buy" + port_flag + " --curve-id=pricing --delta=0.9 --txn=77" +
      " --no-quote --out-weights=" + w2);
  EXPECT_EQ(retried.exit_code, 0) << retried.output;
  EXPECT_NE(retried.output.find("price=18.0000"), std::string::npos)
      << retried.output;
  EXPECT_EQ(read_file(w2), weights);

  // REPLAY re-delivers the recorded sale too.
  const std::string w3 = TempPath("buy_w3.txt");
  const CommandResult replayed = RunCli(
      "buy" + port_flag + " --txn=77 --replay --out-weights=" + w3);
  EXPECT_EQ(replayed.exit_code, 0) << replayed.output;
  EXPECT_EQ(read_file(w3), weights);

  ASSERT_EQ(write(proc.stdin_fd, "quit\n", 5), 5);
  close(proc.stdin_fd);
  while (ReadUntil(proc.out, "\x01never", &captured)) {
  }
  fclose(proc.out);
  int status = 0;
  ASSERT_EQ(waitpid(proc.pid, &status, 0), proc.pid);
  ASSERT_TRUE(WIFEXITED(status)) << captured;
  EXPECT_EQ(WEXITSTATUS(status), 0) << captured;
  EXPECT_NE(captured.find("requests by verb:"), std::string::npos)
      << captured;
  EXPECT_NE(captured.find("BUY=2"), std::string::npos) << captured;
  EXPECT_NE(captured.find("REPLAY=1"), std::string::npos) << captured;
  EXPECT_NE(captured.find("fulfillment: 1 sales, revenue 18.00"),
            std::string::npos)
      << captured;
}

TEST_F(CliTest, SimulateRunsAndWritesLedger) {
  const std::string ledger_path = TempPath("ledger.mbp");
  const CommandResult result = RunCli(
      "simulate --csv=" + *csv_path_ +
      " --task=regression --buyers=200 --out-ledger=" + ledger_path);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("SLA audit: OK"), std::string::npos);
  EXPECT_NE(result.output.find("sales"), std::string::npos);
  std::ifstream ledger(ledger_path);
  std::string header;
  std::getline(ledger, header);
  EXPECT_EQ(header, "mbp-ledger v1");
}

}  // namespace
}  // namespace mbp
