// mbp_market_cli — command-line front end for the MBP library, so a data
// seller can run the full model-based-pricing workflow on a CSV dataset
// without writing C++:
//
//   mbp_market_cli train  --csv=data.csv --task=regression
//                         [--model=linear_regression] [--l2=0.001]
//                         [--out-model=model.mbp]
//     Trains the optimal model instance and reports train/test error.
//     Every subcommand also accepts --libsvm=data.libsvm instead of
//     --csv (sparse input, densified for the dense pipeline).
//
//   mbp_market_cli price  --csv=data.csv --task=classification
//                         [--model=logistic_regression] [--l2=0.01]
//                         [--points=10] [--x-min=10] [--x-max=100]
//                         [--max-value=100] [--value-shape=concave]
//                         [--demand-shape=uniform]
//                         [--out-pricing=pricing.mbp]
//     Runs market research -> revenue optimization and writes the
//     arbitrage-free pricing curve.
//
//   mbp_market_cli sell   --csv=data.csv --task=regression
//                         --pricing=pricing.mbp --budget=40
//                         [--out-model=instance.mbp] [--seed=42]
//     Stands up a broker with the stored pricing curve and buys the most
//     accurate instance the budget affords.
//
//   mbp_market_cli check-pricing --pricing=pricing.mbp
//     Verifies the arbitrage-freeness certificate and runs the attacker.
//
//   mbp_market_cli serve  --pricing=pricing.mbp [--queries=q.txt]
//                         [--curve-id=pricing] [--threads=0]
//                         [--quantum=0] [--invert-budget]
//     Compiles the stored curve into an immutable serving snapshot
//     (re-checking the certificate), publishes it in an in-process
//     registry, and answers price queries through the lock-free
//     PriceQueryEngine batch path. Queries are one x = 1/NCP per line
//     from --queries or stdin; each answer line is "x price". With
//     --invert-budget each input line is a budget and the answer is the
//     largest affordable x. --quantum snaps queries to a grid before
//     evaluation (see DESIGN.md §5b).
//
//     With --tcp[=PORT] the curve is served over TCP on 127.0.0.1
//     instead (epoll front end, DESIGN.md §5d). --tcp=N or --port=N
//     picks the port — 0 (the default) binds an ephemeral port, and the
//     actual port is printed as "listening on 127.0.0.1:<port>".
//     --shards=N sets event-loop shards (default 2). Each stdin line is
//     then a pricing file path to republish live under the same curve
//     id, or 'quit' to exit; stdin EOF keeps serving. SIGINT/SIGTERM
//     trigger a graceful drain (pending responses are flushed before
//     exit) and the serving metrics — including per-verb request counts
//     and fulfillment revenue — are printed on shutdown.
//
//     TCP serving also answers the fulfillment verbs (QUOTE/BUY/REPLAY,
//     DESIGN.md §5i) unless --no-sell is given. --epoch-seed=N and
//     --dataset-seed=N pin the noise/training seeds (defaults match
//     mbp_catalog_shard), --model-dim=N sets the sold model's
//     dimensionality, --model-cache-bytes=N the trained-model LRU
//     budget. --wal-dir=PATH makes the sale ledger crash-safe
//     (DESIGN.md §5j): sales append to a write-ahead log before
//     delivery, the ledger rebuilds from it on restart, and the drain
//     prints a durability summary; --wal-fsync=none|batch|every picks
//     the fsync policy (default batch).
//
//   mbp_market_cli buy    --port=N [--host=127.0.0.1] [--curve-id=ID]
//                         --delta=0.5 [--txn=N] [--no-quote]
//                         [--replay] [--out-weights=w.txt]
//     Buys a noised model instance over TCP from a `serve --tcp` (or
//     mbp_catalog_shard) process: QUOTEs the curve at δ, then BUYs with
//     the signed token so the paid price is exactly the quoted one
//     (--no-quote skips the token and buys at the live snapshot price).
//     --txn pins the transaction id (0 auto-generates one); re-running
//     with the same id re-delivers the recorded sale without charging
//     again, and --replay fetches it via the REPLAY verb instead.
//     --out-weights writes the delivered weights one per line.
//
//   mbp_market_cli simulate --csv=data.csv --task=regression
//                           [--buyers=1000] [--jitter=0.1]
//                           [--out-ledger=books.mbp] [curve flags as in
//                           `price`]
//     Prices the market, simulates a buyer population against it, audits
//     the SLA, and optionally writes the transaction ledger.

#include <sys/select.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>

#include "core/arbitrage.h"
#include "core/buyer_population.h"
#include "core/curves.h"
#include "core/ledger.h"
#include "core/market.h"
#include "data/csv.h"
#include "data/sparse_dataset.h"
#include "data/split.h"
#include "io/model_io.h"
#include "ml/metrics.h"
#include "ml/trainer.h"
#include "net/client.h"
#include "net/server.h"
#include "serving/catalog_registry.h"
#include "serving/fulfillment.h"
#include "serving/price_query_engine.h"

namespace mbp {
namespace {

// ------------------------------------------------------------- flag utils

std::optional<std::string> StringFlag(int argc, char** argv,
                                      const char* name) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 2; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::string(argv[i] + prefix.size());
    }
  }
  return std::nullopt;
}

double DoubleFlag(int argc, char** argv, const char* name, double fallback) {
  const auto value = StringFlag(argc, argv, name);
  return value ? std::atof(value->c_str()) : fallback;
}

bool BoolFlag(int argc, char** argv, const char* name) {
  const std::string flag = std::string("--") + name;
  for (int i = 2; i < argc; ++i) {
    if (flag == argv[i]) return true;
  }
  return false;
}

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

// --------------------------------------------------------- shared parsing

StatusOr<data::TaskType> ParseTask(const std::string& name) {
  if (name == "regression") return data::TaskType::kRegression;
  if (name == "classification") {
    return data::TaskType::kBinaryClassification;
  }
  return InvalidArgumentError("unknown task '" + name +
                              "' (want regression|classification)");
}

StatusOr<ml::ModelKind> ParseModel(const std::string& name) {
  if (name == "linear_regression") return ml::ModelKind::kLinearRegression;
  if (name == "logistic_regression") {
    return ml::ModelKind::kLogisticRegression;
  }
  if (name == "linear_svm") return ml::ModelKind::kLinearSvm;
  return InvalidArgumentError("unknown model '" + name + "'");
}

StatusOr<core::ValueShape> ParseValueShape(const std::string& name) {
  if (name == "linear") return core::ValueShape::kLinear;
  if (name == "convex") return core::ValueShape::kConvex;
  if (name == "concave") return core::ValueShape::kConcave;
  if (name == "sigmoid") return core::ValueShape::kSigmoid;
  return InvalidArgumentError("unknown value shape '" + name + "'");
}

StatusOr<core::DemandShape> ParseDemandShape(const std::string& name) {
  if (name == "uniform") return core::DemandShape::kUniform;
  if (name == "mid_peaked") return core::DemandShape::kMidPeaked;
  if (name == "extremes") return core::DemandShape::kExtremes;
  if (name == "high_accuracy") return core::DemandShape::kHighAccuracy;
  if (name == "low_accuracy") return core::DemandShape::kLowAccuracy;
  return InvalidArgumentError("unknown demand shape '" + name + "'");
}

ml::ModelKind DefaultModel(data::TaskType task) {
  return task == data::TaskType::kRegression
             ? ml::ModelKind::kLinearRegression
             : ml::ModelKind::kLogisticRegression;
}

struct LoadedData {
  data::TrainTestSplit split;
  ml::ModelKind model;
  double l2;
};

StatusOr<LoadedData> LoadCommon(int argc, char** argv) {
  const auto csv = StringFlag(argc, argv, "csv");
  const auto libsvm = StringFlag(argc, argv, "libsvm");
  if (!csv && !libsvm) {
    return InvalidArgumentError("--csv or --libsvm is required");
  }
  const auto task_name = StringFlag(argc, argv, "task");
  if (!task_name) return InvalidArgumentError("--task is required");
  MBP_ASSIGN_OR_RETURN(data::TaskType task, ParseTask(*task_name));

  StatusOr<data::Dataset> loaded_dataset = [&]() -> StatusOr<data::Dataset> {
    if (csv) {
      data::CsvReadOptions read_options;
      read_options.task = task;
      return data::ReadCsv(*csv, read_options);
    }
    MBP_ASSIGN_OR_RETURN(data::SparseDataset sparse,
                         data::ReadLibSvm(*libsvm, task));
    return sparse.ToDense();
  }();
  MBP_ASSIGN_OR_RETURN(data::Dataset dataset, std::move(loaded_dataset));
  random::Rng rng(
      static_cast<uint64_t>(DoubleFlag(argc, argv, "seed", 42)));
  MBP_ASSIGN_OR_RETURN(data::TrainTestSplit split,
                       data::RandomSplit(dataset, 0.25, rng));

  ml::ModelKind model = DefaultModel(task);
  if (const auto model_name = StringFlag(argc, argv, "model")) {
    MBP_ASSIGN_OR_RETURN(model, ParseModel(*model_name));
  }
  return LoadedData{std::move(split), model,
                    DoubleFlag(argc, argv, "l2", 1e-3)};
}

StatusOr<std::vector<core::CurvePoint>> ResearchFromFlags(int argc,
                                                          char** argv) {
  core::MarketCurveOptions options;
  options.num_points =
      static_cast<size_t>(DoubleFlag(argc, argv, "points", 10));
  options.x_min = DoubleFlag(argc, argv, "x-min", 10.0);
  options.x_max = DoubleFlag(argc, argv, "x-max", 100.0);
  options.max_value = DoubleFlag(argc, argv, "max-value", 100.0);
  if (const auto shape = StringFlag(argc, argv, "value-shape")) {
    MBP_ASSIGN_OR_RETURN(options.value_shape, ParseValueShape(*shape));
  } else {
    options.value_shape = core::ValueShape::kConcave;
  }
  if (const auto shape = StringFlag(argc, argv, "demand-shape")) {
    MBP_ASSIGN_OR_RETURN(options.demand_shape, ParseDemandShape(*shape));
  }
  return core::MakeMarketCurve(options);
}

// ---------------------------------------------------------- subcommands

int RunTrain(int argc, char** argv) {
  auto loaded = LoadCommon(argc, argv);
  if (!loaded.ok()) return Fail(loaded.status().ToString());
  auto trained = ml::TrainOptimalModel(loaded->model, loaded->split.train,
                                       loaded->l2);
  if (!trained.ok()) return Fail(trained.status().ToString());

  std::printf("model: %s  (d=%zu, n_train=%zu, n_test=%zu, l2=%g)\n",
              ml::ModelKindToString(loaded->model).c_str(),
              loaded->split.train.num_features(),
              loaded->split.train.num_examples(),
              loaded->split.test.num_examples(), loaded->l2);
  std::printf("training objective: %.6f  (converged: %s, iterations: %zu)\n",
              trained->final_loss, trained->converged ? "yes" : "no",
              trained->iterations);
  if (loaded->split.train.task() == data::TaskType::kRegression) {
    std::printf("test MSE: %.6f   test R^2: %.4f\n",
                ml::MeanSquaredError(trained->model, loaded->split.test),
                ml::RSquared(trained->model, loaded->split.test));
  } else {
    std::printf("test 0/1 error: %.4f   accuracy: %.4f\n",
                ml::MisclassificationRate(trained->model,
                                          loaded->split.test),
                ml::Accuracy(trained->model, loaded->split.test));
  }
  if (const auto out = StringFlag(argc, argv, "out-model")) {
    const Status status = io::WriteModel(trained->model, *out);
    if (!status.ok()) return Fail(status.ToString());
    std::printf("wrote model to %s\n", out->c_str());
  }
  return 0;
}

int RunPrice(int argc, char** argv) {
  auto loaded = LoadCommon(argc, argv);
  if (!loaded.ok()) return Fail(loaded.status().ToString());
  auto research = ResearchFromFlags(argc, argv);
  if (!research.ok()) return Fail(research.status().ToString());

  auto seller = core::Seller::Create("cli-seller", std::move(loaded->split),
                                     *research);
  if (!seller.ok()) return Fail(seller.status().ToString());
  core::ModelListing listing;
  listing.model = loaded->model;
  listing.l2 = loaded->l2;
  listing.test_error =
      seller->train().task() == data::TaskType::kRegression
          ? ml::LossKind::kSquare
          : ml::LossKind::kZeroOne;
  core::Broker::Options options;
  options.seed = static_cast<uint64_t>(DoubleFlag(argc, argv, "seed", 42));
  auto broker = core::Broker::Create(std::move(seller).value(), listing,
                                     options);
  if (!broker.ok()) return Fail(broker.status().ToString());

  std::printf("%10s %12s %10s\n", "1/NCP", "E[error]", "price");
  for (const core::QuotePoint& quote : broker->QuoteCurve(10)) {
    std::printf("%10.2f %12.5f %10.2f\n", quote.x, quote.expected_error,
                quote.price);
  }
  if (const auto out = StringFlag(argc, argv, "out-pricing")) {
    const Status status = io::WritePricing(broker->pricing(), *out);
    if (!status.ok()) return Fail(status.ToString());
    std::printf("wrote pricing curve to %s\n", out->c_str());
  }
  return 0;
}

int RunSell(int argc, char** argv) {
  auto loaded = LoadCommon(argc, argv);
  if (!loaded.ok()) return Fail(loaded.status().ToString());
  const auto pricing_path = StringFlag(argc, argv, "pricing");
  if (!pricing_path) return Fail("--pricing is required");
  auto pricing = io::ReadPricing(*pricing_path);
  if (!pricing.ok()) return Fail(pricing.status().ToString());
  const double budget = DoubleFlag(argc, argv, "budget", -1.0);
  if (budget < 0.0) return Fail("--budget is required (>= 0)");

  core::MarketCurveOptions placeholder;  // research unused with fixed pricing
  placeholder.x_min = pricing->points().front().x;
  placeholder.x_max = pricing->points().back().x * 1.001;
  auto research = core::MakeMarketCurve(placeholder);
  if (!research.ok()) return Fail(research.status().ToString());
  auto seller = core::Seller::Create("cli-seller", std::move(loaded->split),
                                     std::move(research).value());
  if (!seller.ok()) return Fail(seller.status().ToString());

  core::ModelListing listing;
  listing.model = loaded->model;
  listing.l2 = loaded->l2;
  listing.test_error =
      seller->train().task() == data::TaskType::kRegression
          ? ml::LossKind::kSquare
          : ml::LossKind::kZeroOne;
  core::Broker::Options options;
  options.seed = static_cast<uint64_t>(DoubleFlag(argc, argv, "seed", 42));
  auto broker = core::Broker::CreateWithPricing(
      std::move(seller).value(), listing, std::move(pricing).value(),
      options);
  if (!broker.ok()) return Fail(broker.status().ToString());

  auto txn = broker->BuyWithPriceBudget(budget);
  if (!txn.ok()) return Fail(txn.status().ToString());
  std::printf(
      "sold instance #%llu: price %.2f (budget %.2f), NCP %.5f, quoted "
      "E[error] %.5f\n",
      static_cast<unsigned long long>(txn->id), txn->price, budget,
      txn->delta, txn->quoted_expected_error);
  if (const auto out = StringFlag(argc, argv, "out-model")) {
    const Status status = io::WriteModel(txn->instance, *out);
    if (!status.ok()) return Fail(status.ToString());
    std::printf("wrote purchased instance to %s\n", out->c_str());
  }
  return 0;
}

int RunCheckPricing(int argc, char** argv) {
  const auto pricing_path = StringFlag(argc, argv, "pricing");
  if (!pricing_path) return Fail("--pricing is required");
  auto pricing = io::ReadPricing(*pricing_path);
  if (!pricing.ok()) return Fail(pricing.status().ToString());

  const Status certificate = pricing->ValidateArbitrageFree();
  std::printf("certificate (monotone + ratio non-increasing): %s\n",
              certificate.ok() ? "OK" : certificate.ToString().c_str());
  const auto price = [&](double x) { return pricing->PriceAtInverseNcp(x); };
  const double x_max = pricing->points().back().x * 2.0;
  auto attack = core::FindArbitrageAttack(price, x_max, 200);
  if (attack.has_value()) {
    std::printf(
        "attacker FOUND arbitrage: combine %zu instances, pay %.4f "
        "instead of %.4f at 1/NCP=%.2f\n",
        attack->purchase_deltas.size(), attack->total_price,
        attack->target_price, 1.0 / attack->target_delta);
    return 2;
  }
  std::printf("attacker found no arbitrage on a %d-point grid up to "
              "1/NCP=%.1f\n",
              200, x_max);
  return certificate.ok() ? 0 : 2;
}

// SIGINT/SIGTERM request a graceful drain of the TCP serving loop
// instead of killing the process mid-response.
volatile std::sig_atomic_t g_serve_shutdown = 0;
void HandleServeSignal(int) { g_serve_shutdown = 1; }

int RunServeTcp(int argc, char** argv, serving::CatalogRegistry* registry,
                serving::PriceQueryEngine* engine,
                const serving::CatalogRegistry::CurveSlot* slot,
                const std::string& curve_id) {
  net::ServerOptions options;
  options.port = static_cast<uint16_t>(DoubleFlag(argc, argv, "port", 0));
  if (const auto tcp_port = StringFlag(argc, argv, "tcp")) {
    options.port = static_cast<uint16_t>(std::atoi(tcp_port->c_str()));
  }
  options.num_shards =
      static_cast<size_t>(DoubleFlag(argc, argv, "shards", 2));
  options.default_curve_id = curve_id;
  // Fulfillment (QUOTE/BUY/REPLAY, DESIGN.md §5i): on unless --no-sell.
  // The engine must outlive the server, which holds a raw pointer.
  std::unique_ptr<serving::FulfillmentEngine> fulfillment;
  if (!BoolFlag(argc, argv, "no-sell")) {
    serving::FulfillmentOptions fopts;
    fopts.epoch_seed = static_cast<uint64_t>(
        DoubleFlag(argc, argv, "epoch-seed",
                   static_cast<double>(fopts.epoch_seed)));
    fopts.dataset_seed = static_cast<uint64_t>(
        DoubleFlag(argc, argv, "dataset-seed",
                   static_cast<double>(fopts.dataset_seed)));
    fopts.model_dim = static_cast<size_t>(
        DoubleFlag(argc, argv, "model-dim",
                   static_cast<double>(fopts.model_dim)));
    fopts.max_model_cache_bytes = static_cast<size_t>(
        DoubleFlag(argc, argv, "model-cache-bytes",
                   static_cast<double>(fopts.max_model_cache_bytes)));
    fulfillment =
        std::make_unique<serving::FulfillmentEngine>(registry, fopts);
    if (const auto wal_dir = StringFlag(argc, argv, "wal-dir")) {
      wal::WalOptions wal_options;
      const auto fsync_name = StringFlag(argc, argv, "wal-fsync");
      if (fsync_name &&
          !wal::ParseFsyncPolicy(*fsync_name, &wal_options.fsync_policy)) {
        return Fail("--wal-fsync must be none|batch|every");
      }
      const Status opened =
          fulfillment->OpenDurableLedger(*wal_dir, wal_options);
      if (!opened.ok()) {
        return Fail("sale ledger open failed: " + opened.ToString());
      }
      const serving::FulfillmentStats fs = fulfillment->Stats();
      std::printf("sale ledger: %s (%s fsync), recovered %llu sales "
                  "(%llu torn) in %llu ms\n",
                  wal_dir->c_str(),
                  std::string(wal::FsyncPolicyName(
                                  wal_options.fsync_policy)).c_str(),
                  static_cast<unsigned long long>(fs.recovery_records),
                  static_cast<unsigned long long>(fs.recovery_torn_tail),
                  static_cast<unsigned long long>(fs.recovery_ms));
    }
    options.fulfillment = fulfillment.get();
  }
  auto server = net::PriceServer::Start(engine, options);
  if (!server.ok()) return Fail(server.status().ToString());

  g_serve_shutdown = 0;
  std::signal(SIGINT, HandleServeSignal);
  std::signal(SIGTERM, HandleServeSignal);

  const auto snapshot = slot->Load();
  std::printf("serving '%s': %zu knots, x_max %.4g, max price %.4g "
              "(snapshot v%llu)\n",
              curve_id.c_str(), snapshot->num_knots(), snapshot->x_max(),
              snapshot->max_price(),
              static_cast<unsigned long long>(snapshot->version()));
  // Tests and scripts parse this line for the resolved ephemeral port;
  // flush so it is visible before the first query arrives.
  std::printf("listening on 127.0.0.1:%u (%zu shards)\n",
              (*server)->port(), options.num_shards);
  std::printf("stdin: a pricing file path republishes '%s' live; 'quit' "
              "drains and exits\n",
              curve_id.c_str());
  std::fflush(stdout);

  bool stdin_open = true;
  while (!g_serve_shutdown) {
    fd_set readable;
    FD_ZERO(&readable);
    if (stdin_open) FD_SET(STDIN_FILENO, &readable);
    timeval timeout{0, 200 * 1000};  // re-check the signal flag at 5 Hz
    const int n = select(stdin_open ? STDIN_FILENO + 1 : 0,
                         stdin_open ? &readable : nullptr, nullptr, nullptr,
                         &timeout);
    if (n < 0) {
      if (errno == EINTR) continue;  // a signal lands; the loop re-checks
      break;
    }
    if (n == 0 || !stdin_open) continue;
    char line[4096];
    if (std::fgets(line, sizeof(line), stdin) == nullptr) {
      stdin_open = false;  // EOF: keep serving until a signal arrives
      continue;
    }
    std::string command(line);
    while (!command.empty() &&
           (command.back() == '\n' || command.back() == '\r' ||
            command.back() == ' ')) {
      command.pop_back();
    }
    if (command.empty()) continue;
    if (command == "quit" || command == "exit") break;
    // Live republish: clients keep querying across the swap and every
    // response still comes from one complete snapshot (old or new).
    auto pricing = io::ReadPricing(command);
    if (!pricing.ok()) {
      std::printf("republish failed: %s\n",
                  pricing.status().ToString().c_str());
      std::fflush(stdout);
      continue;
    }
    auto republished = registry->Publish(curve_id, *pricing);
    if (!republished.ok()) {
      std::printf("republish rejected: %s\n",
                  republished.status().ToString().c_str());
      std::fflush(stdout);
      continue;
    }
    const auto republished_snapshot = slot->Load();
    std::printf("republished '%s' (snapshot v%llu, %zu knots)\n",
                curve_id.c_str(),
                static_cast<unsigned long long>(
                    republished_snapshot->version()),
                republished_snapshot->num_knots());
    std::fflush(stdout);
  }

  (*server)->Shutdown();
  if (fulfillment != nullptr && fulfillment->durable()) {
    // Flush + clean checkpoint, so the next --wal-dir start replays
    // zero segment records.
    const Status drained = fulfillment->Shutdown();
    if (!drained.ok()) {
      std::printf("ledger checkpoint failed: %s\n",
                  drained.ToString().c_str());
    }
  }
  const net::StatsPayload stats = (*server)->stats();
  std::printf(
      "drained: %llu requests ok, %llu errors, %llu queries in %llu "
      "batches; p50 %.1f us, p99 %.1f us; %llu connections accepted\n",
      static_cast<unsigned long long>(stats.requests_ok),
      static_cast<unsigned long long>(stats.requests_error),
      static_cast<unsigned long long>(stats.queries),
      static_cast<unsigned long long>(stats.batches),
      stats.latency.QuantileMicros(0.5), stats.latency.QuantileMicros(0.99),
      static_cast<unsigned long long>(stats.connections_accepted));
  static const char* const kVerbNames[] = {
      "",      "PRICE_AT", "BUDGET_TO_X", "SNAPSHOT_INFO",
      "STATS", "QUOTE",    "BUY",         "REPLAY"};
  std::printf("requests by verb:");
  for (size_t v = 1; v < net::kNumVerbSlots; ++v) {
    if (stats.requests_by_verb[v] == 0) continue;
    std::printf(" %s=%llu", kVerbNames[v],
                static_cast<unsigned long long>(stats.requests_by_verb[v]));
  }
  std::printf("\n");
  if (stats.buys_ok > 0 || stats.transactions_recorded > 0) {
    std::printf(
        "fulfillment: %llu sales, revenue %.2f, %llu recorded; model cache "
        "%llu/%llu hit/miss, %llu evictions, %llu bytes; sale p99 %.1f us\n",
        static_cast<unsigned long long>(stats.buys_ok), stats.revenue,
        static_cast<unsigned long long>(stats.transactions_recorded),
        static_cast<unsigned long long>(stats.model_cache_hits),
        static_cast<unsigned long long>(stats.model_cache_misses),
        static_cast<unsigned long long>(stats.model_cache_evictions),
        static_cast<unsigned long long>(stats.model_cache_bytes),
        stats.fulfillment_latency.QuantileMicros(0.99));
  }
  if (stats.wal_appends + stats.recovery_records > 0) {
    std::printf(
        "durability: %llu wal appends (%llu fsyncs, %llu bytes); recovery "
        "replayed %llu records, %llu torn, %llu ms; checkpoint=clean\n",
        static_cast<unsigned long long>(stats.wal_appends),
        static_cast<unsigned long long>(stats.wal_fsyncs),
        static_cast<unsigned long long>(stats.wal_bytes),
        static_cast<unsigned long long>(stats.recovery_records),
        static_cast<unsigned long long>(stats.recovery_torn_tail),
        static_cast<unsigned long long>(stats.recovery_ms));
  }
  if (stats.requests_shed + stats.deadline_drops + stats.connections_killed +
          stats.connections_refused >
      0) {
    std::printf(
        "degraded: %llu shed, %llu deadline drops, %llu killed, %llu "
        "refused\n",
        static_cast<unsigned long long>(stats.requests_shed),
        static_cast<unsigned long long>(stats.deadline_drops),
        static_cast<unsigned long long>(stats.connections_killed),
        static_cast<unsigned long long>(stats.connections_refused));
  }
  return 0;
}

int RunServe(int argc, char** argv) {
  const auto pricing_path = StringFlag(argc, argv, "pricing");
  if (!pricing_path) return Fail("--pricing is required");
  auto pricing = io::ReadPricing(*pricing_path);
  if (!pricing.ok()) return Fail(pricing.status().ToString());
  const std::string curve_id =
      StringFlag(argc, argv, "curve-id").value_or("pricing");

  // Publish: compiles the curve into an immutable snapshot, re-checking
  // the arbitrage-freeness certificate (a tampered pricing file is
  // rejected here, before it can serve a single price).
  serving::CatalogRegistry registry;
  auto published = registry.Publish(curve_id, *pricing);
  if (!published.ok()) return Fail(published.status().ToString());
  const serving::CatalogRegistry::CurveSlot* slot = *published;

  serving::PriceQueryEngineOptions engine_options;
  engine_options.quantum = DoubleFlag(argc, argv, "quantum", 0.0);
  serving::PriceQueryEngine engine(&registry, engine_options);

  if (BoolFlag(argc, argv, "tcp") ||
      StringFlag(argc, argv, "tcp").has_value()) {
    return RunServeTcp(argc, argv, &registry, &engine, slot, curve_id);
  }

  // One query per line, from --queries or stdin.
  FILE* in = stdin;
  if (const auto queries_path = StringFlag(argc, argv, "queries")) {
    in = std::fopen(queries_path->c_str(), "r");
    if (in == nullptr) {
      return Fail("cannot open --queries=" + *queries_path);
    }
  }
  std::vector<double> queries;
  double value = 0.0;
  while (std::fscanf(in, "%lf", &value) == 1) queries.push_back(value);
  if (in != stdin) std::fclose(in);

  const bool invert = BoolFlag(argc, argv, "invert-budget");
  const auto snapshot = slot->Load();
  std::printf("serving '%s': %zu knots, x_max %.4g, max price %.4g "
              "(snapshot v%llu)\n",
              curve_id.c_str(), snapshot->num_knots(), snapshot->x_max(),
              snapshot->max_price(),
              static_cast<unsigned long long>(snapshot->version()));
  if (invert) {
    for (const double budget : queries) {
      auto x = engine.BudgetToInverseNcp(slot, budget);
      if (!x.ok()) return Fail(x.status().ToString());
      std::printf("%.17g %.17g\n", budget, x.value());
    }
  } else {
    ParallelConfig parallel;
    parallel.num_threads =
        static_cast<size_t>(DoubleFlag(argc, argv, "threads", 0));
    std::vector<double> prices(queries.size());
    const Status status = engine.PriceBatch(
        slot, queries.data(), prices.data(), queries.size(), parallel);
    if (!status.ok()) return Fail(status.ToString());
    for (size_t i = 0; i < queries.size(); ++i) {
      std::printf("%.17g %.17g\n", queries[i], prices[i]);
    }
  }
  std::printf("served %zu %s queries\n", queries.size(),
              invert ? "budget" : "price");
  return 0;
}

// Remote purchase over the wire protocol: QUOTE -> BUY with the signed
// token (so the paid price is the quoted one), or straight BUY with
// --no-quote, or REPLAY of a recorded sale with --replay. The client's
// retry ladder is safe here: the server ledger dedupes the transaction
// id, so a retried BUY is charged once (DESIGN.md §5i).
int RunBuy(int argc, char** argv) {
  const uint16_t port =
      static_cast<uint16_t>(DoubleFlag(argc, argv, "port", 0));
  if (port == 0) return Fail("--port is required (a serve --tcp port)");
  const std::string host =
      StringFlag(argc, argv, "host").value_or("127.0.0.1");
  const std::string curve_id =
      StringFlag(argc, argv, "curve-id").value_or("");
  const uint64_t txn =
      static_cast<uint64_t>(DoubleFlag(argc, argv, "txn", 0));

  auto client = net::PriceClient::Connect(host, port);
  if (!client.ok()) return Fail(client.status().ToString());

  net::BuyPayload sale;
  if (BoolFlag(argc, argv, "replay")) {
    if (txn == 0) return Fail("--replay requires --txn=<id>");
    auto replayed = (*client)->Replay(txn);
    if (!replayed.ok()) return Fail(replayed.status().ToString());
    sale = std::move(replayed).value();
  } else {
    const double delta = DoubleFlag(argc, argv, "delta", 0.0);
    if (delta <= 0.0) return Fail("--delta is required (> 0)");
    std::string token;
    if (!BoolFlag(argc, argv, "no-quote")) {
      auto quote = (*client)->Quote(curve_id, delta);
      if (!quote.ok()) return Fail(quote.status().ToString());
      std::printf("quoted price %.4f at delta %.6g (token %zu bytes)\n",
                  quote->price, quote->delta, quote->token.size());
      token = std::move(quote->token);
    }
    auto bought = (*client)->Buy(curve_id, delta, txn, token);
    if (!bought.ok()) return Fail(bought.status().ToString());
    sale = std::move(bought).value();
  }

  std::printf(
      "sale txn=%llu curve-ref=%lu delta=%.6g price=%.4f "
      "seed-commitment=%016llx: %zu weights\n",
      static_cast<unsigned long long>(sale.record.txn_id),
      static_cast<unsigned long>(sale.record.curve_ref), sale.record.delta,
      sale.record.price,
      static_cast<unsigned long long>(sale.record.seed_commitment),
      sale.weights.size());
  if (const auto out = StringFlag(argc, argv, "out-weights")) {
    FILE* f = std::fopen(out->c_str(), "w");
    if (f == nullptr) return Fail("cannot open --out-weights=" + *out);
    for (const double w : sale.weights) std::fprintf(f, "%.17g\n", w);
    std::fclose(f);
    std::printf("wrote %zu weights to %s\n", sale.weights.size(),
                out->c_str());
  } else {
    const size_t shown = sale.weights.size() < 4 ? sale.weights.size() : 4;
    for (size_t i = 0; i < shown; ++i) {
      std::printf("  w[%zu] = %.17g\n", i, sale.weights[i]);
    }
    if (shown < sale.weights.size()) {
      std::printf("  ... (%zu more; --out-weights=FILE for all)\n",
                  sale.weights.size() - shown);
    }
  }
  return 0;
}

int RunSimulate(int argc, char** argv) {
  auto loaded = LoadCommon(argc, argv);
  if (!loaded.ok()) return Fail(loaded.status().ToString());
  auto research = ResearchFromFlags(argc, argv);
  if (!research.ok()) return Fail(research.status().ToString());
  const std::vector<core::CurvePoint> curve = research.value();

  auto seller = core::Seller::Create("cli-seller", std::move(loaded->split),
                                     curve);
  if (!seller.ok()) return Fail(seller.status().ToString());
  core::ModelListing listing;
  listing.model = loaded->model;
  listing.l2 = loaded->l2;
  listing.test_error =
      seller->train().task() == data::TaskType::kRegression
          ? ml::LossKind::kSquare
          : ml::LossKind::kZeroOne;
  core::Broker::Options broker_options;
  broker_options.seed =
      static_cast<uint64_t>(DoubleFlag(argc, argv, "seed", 42));
  auto broker = core::Broker::Create(std::move(seller).value(), listing,
                                     broker_options);
  if (!broker.ok()) return Fail(broker.status().ToString());

  const Status sla = broker->VerifySla();
  std::printf("SLA audit: %s\n", sla.ok() ? "OK" : sla.ToString().c_str());

  core::PopulationOptions population;
  population.num_buyers =
      static_cast<size_t>(DoubleFlag(argc, argv, "buyers", 1000));
  population.valuation_jitter = DoubleFlag(argc, argv, "jitter", 0.0);
  random::Rng rng(
      static_cast<uint64_t>(DoubleFlag(argc, argv, "seed", 42)) + 1);
  auto outcome =
      core::SimulateBuyerPopulation(*broker, curve, population, rng);
  if (!outcome.ok()) return Fail(outcome.status().ToString());

  std::printf(
      "buyers %zu: %zu sales, %zu priced out (affordability %.3f)\n"
      "revenue %.2f (expected per-buyer %.4f, realized %.4f)\n",
      outcome->buyers, outcome->sales, outcome->priced_out,
      outcome->affordability, outcome->revenue,
      outcome->expected_revenue_per_buyer,
      outcome->revenue / static_cast<double>(outcome->buyers));

  if (const auto out = StringFlag(argc, argv, "out-ledger")) {
    core::TransactionLedger ledger;
    for (const core::Transaction& txn : broker->transactions()) {
      const Status status = ledger.Append(core::LedgerRecord{
          "cli-listing", txn.id, txn.delta, txn.price,
          txn.quoted_expected_error});
      if (!status.ok()) return Fail(status.ToString());
    }
    const Status status = ledger.SaveTo(*out);
    if (!status.ok()) return Fail(status.ToString());
    std::printf("wrote %zu ledger records to %s\n", ledger.size(),
                out->c_str());
  }
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: mbp_market_cli "
                 "<train|price|sell|check-pricing|serve|buy|simulate> "
                 "[flags]\n(see "
                 "the header comment of tools/mbp_market_cli.cc for flag "
                 "documentation)\n");
    return 1;
  }
  const std::string command = argv[1];
  if (command == "train") return RunTrain(argc, argv);
  if (command == "price") return RunPrice(argc, argv);
  if (command == "sell") return RunSell(argc, argv);
  if (command == "check-pricing") return RunCheckPricing(argc, argv);
  if (command == "serve") return RunServe(argc, argv);
  if (command == "buy") return RunBuy(argc, argv);
  if (command == "simulate") return RunSimulate(argc, argv);
  return Fail("unknown command '" + command + "'");
}

}  // namespace
}  // namespace mbp

int main(int argc, char** argv) { return mbp::Main(argc, argv); }
