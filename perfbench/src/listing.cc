// The listing workload: the paper's offline path, closed loop, one caller
// (train, error transform, revenue DP, arbitrage check, compile, publish).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "core/curves.h"
#include "core/error_transform.h"
#include "core/market.h"
#include "core/mechanism.h"
#include "core/pricing_function.h"
#include "core/revenue_opt.h"
#include "data/uci_like.h"
#include "ml/loss.h"
#include "ml/trainer.h"
#include "serving/catalog_registry.h"
#include "serving/pricing_snapshot.h"
#include "src/load_common.h"
#include "src/measure.h"

namespace perfbench {
namespace {

// What the menu earns under its market research. The research does not
// depend on the seed, so neither does this: a change that moves it has
// changed what sellers earn.
constexpr double kMenuRevenue = 299.67942893107659;

// One menu item: a Table-3 stand-in with its natural model.
struct MenuItem {
  std::string name;
  mbp::data::TrainTestSplit data;
  mbp::core::ModelListing listing;
  std::vector<mbp::core::CurvePoint> research;
};

std::vector<MenuItem> BuildMenu(uint64_t seed, double scale) {
  // Fig 7/8 market research: the (value, demand) shapes of three of the
  // panels, cycled over the menu.
  const std::pair<mbp::core::ValueShape, mbp::core::DemandShape> panels[] = {
      {mbp::core::ValueShape::kConvex, mbp::core::DemandShape::kMidPeaked},
      {mbp::core::ValueShape::kConcave, mbp::core::DemandShape::kMidPeaked},
      {mbp::core::ValueShape::kConcave, mbp::core::DemandShape::kExtremes},
  };
  std::vector<MenuItem> menu;
  const auto specs = mbp::data::PaperTable3Specs();
  for (size_t i = 0; i < specs.size(); ++i) {
    auto data = mbp::data::GenerateUciLike(specs[i], scale,
                                           Mix(seed ^ (0xDA7Aull + i)));
    if (!data.ok()) {
      std::fprintf(stderr, "dataset %s: %s\n", specs[i].name.c_str(),
                   data.status().ToString().c_str());
      std::exit(1);
    }
    const bool classification =
        specs[i].task == mbp::data::TaskType::kBinaryClassification;
    // Square-loss regressors take the analytic transform; logistic
    // classifiers with 0/1 error take the Monte-Carlo one.
    mbp::core::ModelListing listing;
    listing.model = classification ? mbp::ml::ModelKind::kLogisticRegression
                                   : mbp::ml::ModelKind::kLinearRegression;
    listing.test_error = classification ? mbp::ml::LossKind::kZeroOne
                                        : mbp::ml::LossKind::kSquare;
    mbp::core::MarketCurveOptions research;
    research.num_points = 10;
    research.x_min = 10.0;
    research.x_max = 100.0;
    research.max_value = 100.0;
    research.value_shape = panels[i % 3].first;
    research.demand_shape = panels[i % 3].second;
    MenuItem item{specs[i].name, std::move(data).value(), listing,
                  mbp::core::MakeMarketCurve(research).value()};
    menu.push_back(std::move(item));
  }
  return menu;
}

}  // namespace

int RunListing(const Flags& flags) {
  const int64_t setup_start = NowNs();
  const uint64_t seed = flags.U64("seed", 1);
  const double seconds = flags.Num("seconds", 10);
  const bool trace = flags.Num("trace", 0) != 0;
  const double scale = flags.Num("scale", 0.0005);
  const size_t threads = static_cast<size_t>(flags.Num("threads", 4));
  const size_t trials = static_cast<size_t>(flags.Num("trials", 2000));
  const std::string workdir = flags.Str("workdir", ".");

  // Set-up: datasets generated and the pool started before timing.
  std::vector<MenuItem> menu = BuildMenu(seed, scale);
  mbp::ThreadPool pool(threads > 0 ? threads - 1 : 0);
  mbp::core::Broker::Options options;
  options.transform.trials_per_delta = trials;
  options.transform.parallel.num_threads = threads;
  options.transform.parallel.pool = &pool;
  const double setup_s = static_cast<double>(NowNs() - setup_start) / 1e9;
  std::printf("READY setup_s=%.6f\n", setup_s);
  std::fflush(stdout);
  if (flags.Num("setup-only", 0) != 0) return 0;

  Result result;
  uint64_t attempted = 0, failed = 0;
  mbp::serving::CatalogRegistry registry;
  double menu_revenue = 0;
  std::vector<double> pass_s, traced_pass_s;
  std::vector<std::optional<mbp::core::PiecewiseLinearPricing>> last_pricing(
      menu.size());
  const double cpu0 = SelfCpuSeconds();
  Tracer tracer(trace);
  // Untraced passes go through the public Broker::Create; traced passes
  // call the same steps one by one with a span around each.
  std::map<std::string, double> layer_ms;
  size_t mc_models = 0;
  double mc_ms = 0;
  const int64_t begin = NowNs();
  const double untraced_s = trace ? 0.5 * seconds : seconds;
  for (size_t pass = 0;; ++pass) {
    const int64_t now = NowNs();
    const double elapsed = static_cast<double>(now - begin) / 1e9;
    const bool traced_pass = trace && elapsed >= untraced_s;
    if (elapsed >= seconds && (pass_s.size() >= 3 || elapsed > 3 * seconds) &&
        (!trace || traced_pass_s.size() >= 3)) {
      break;
    }
    // Fresh datasets every pass (same seed, same content): a listing is a
    // dataset the market has not seen, so no pass may reuse the
    // sufficient statistics an earlier pass cached for its data.
    if (pass > 0) menu = BuildMenu(seed, scale);
    double revenue = 0;
    int64_t pass_ns = 0;
    const int32_t menu_span =
        traced_pass ? tracer.Begin("listing.menu", -1, pass, NowNs()) : -1;
    for (size_t i = 0; i < menu.size(); ++i) {
      MenuItem& item = menu[i];
      ++attempted;
      const std::string id = "listing-" + item.name;
      if (!traced_pass) {
        auto seller = mbp::core::Seller::Create(item.name, item.data,
                                                item.research);
        if (!seller.ok()) {
          ++failed;
          continue;
        }
        const int64_t t0 = NowNs();
        auto broker = mbp::core::Broker::Create(std::move(seller).value(),
                                                item.listing, options);
        bool ok = broker.ok();
        if (ok) {
          auto snap = mbp::serving::PricingSnapshot::Compile(
              broker->pricing());
          ok = snap.ok() && registry.Publish(id, broker->pricing()).ok();
        }
        pass_ns += NowNs() - t0;
        if (!ok) {
          ++failed;
          continue;
        }
        last_pricing[i] = broker->pricing();
        std::vector<double> knot_prices;
        for (const auto& point : broker->pricing().points()) {
          knot_prices.push_back(point.price);
        }
        revenue += mbp::core::RevenueOf(item.research, knot_prices);
        continue;
      }
      // Traced: the pipeline Broker::Create runs, call by call.
      const int64_t t0 = NowNs();
      const int32_t ls = tracer.Begin("listing", menu_span, pass, t0);
      const auto span = [&](const char* name, auto&& fn) {
        const int64_t a = NowNs();
        const int32_t s = tracer.Begin(name, ls, pass, a);
        auto r = fn();
        const int64_t b = NowNs();
        tracer.End(s, b);
        layer_ms[name] += static_cast<double>(b - a) / 1e6;
        return r;
      };
      auto trained = span("ml.train", [&] {
        return mbp::ml::TrainOptimalModel(item.listing.model, item.data.train,
                                          item.listing.l2);
      });
      if (!trained.ok()) {
        ++failed;
        continue;
      }
      bool transform_ok = true;
      if (item.listing.test_error == mbp::ml::LossKind::kSquare) {
        auto t = span("core.error_transform", [&] {
          return mbp::core::AnalyticSquareLossTransform::Build(
              trained->model.coefficients(), item.data.test);
        });
        transform_ok = t.ok();
      } else {
        auto mechanism =
            mbp::core::MakeMechanism(mbp::core::MechanismKind::kGaussian);
        auto epsilon = mbp::ml::MakeLoss(item.listing.test_error, 0.0);
        mbp::core::EmpiricalErrorTransform::BuildOptions topts =
            options.transform;
        topts.delta_min = 0.5 / item.research.back().x;
        topts.delta_max = 2.0 / item.research.front().x;
        topts.seed = options.seed ^ 0x9E3779B97F4A7C15ULL;
        const int64_t a = NowNs();
        auto t = span("core.error_transform", [&] {
          return mbp::core::EmpiricalErrorTransform::Build(
              *mechanism, trained->model.coefficients(), *epsilon,
              item.data.test, topts);
        });
        mc_ms += static_cast<double>(NowNs() - a) / 1e6;
        mc_models += topts.grid_size * topts.trials_per_delta;
        transform_ok = t.ok();
      }
      auto dp = span("core.revenue_dp", [&] {
        return mbp::core::MaximizeRevenueDp(item.research);
      });
      bool ok = transform_ok && dp.ok();
      mbp::StatusOr<mbp::core::PiecewiseLinearPricing> pricing =
          mbp::InternalError("not built");
      if (ok) {
        pricing = span("core.pricing_from_knots", [&] {
          return mbp::core::PricingFromKnots(item.research, dp->prices);
        });
        ok = pricing.ok() &&
             span("core.arbitrage_check", [&] {
               return pricing->ValidateArbitrageFree();
             }).ok();
      }
      if (ok) {
        ok = span("serving.compile", [&] {
               return mbp::serving::PricingSnapshot::Compile(*pricing);
             }).ok() &&
             span("serving.publish", [&] {
               return registry.Publish(id, *pricing);
             }).ok();
      }
      const int64_t t1 = NowNs();
      tracer.End(ls, t1);
      pass_ns += t1 - t0;
      if (!ok) {
        ++failed;
        continue;
      }
      revenue += dp->revenue;
      // The decomposed pipeline must price exactly as Broker::Create did.
      bool same = last_pricing[i].has_value() &&
                  last_pricing[i]->points().size() == pricing->points().size();
      for (size_t k = 0; same && k < pricing->points().size(); ++k) {
        const auto& want = last_pricing[i]->points()[k];
        const auto& got = pricing->points()[k];
        same = SameBits(want.x, got.x) && SameBits(want.price, got.price);
      }
      result.Check("traced pipeline prices " + item.name +
                       " as Broker::Create does",
                   same);
      if (!same) ++failed;
    }
    tracer.End(menu_span, NowNs());
    (traced_pass ? traced_pass_s : pass_s)
        .push_back(static_cast<double>(pass_ns) / 1e9);
    menu_revenue = revenue;
  }
  const double cpu_s = SelfCpuSeconds() - cpu0;

  // Output checks: every listing arbitrage-free, the served snapshot
  // prices each knot as the curve does, and the optimizer's revenue is
  // what the listed curve earns from the research buyers.
  double dp_revenue = 0;
  for (size_t i = 0; i < menu.size(); ++i) {
    if (!last_pricing[i].has_value()) {
      result.Check(menu[i].name + " was listed", false);
      ++failed;
      continue;
    }
    const auto& pricing = *last_pricing[i];
    const bool free = pricing.ValidateArbitrageFree().ok();
    result.Check(menu[i].name + " listing is arbitrage-free", free);
    if (!free) ++failed;
    const auto* slot = registry.Find("listing-" + menu[i].name);
    bool same = slot != nullptr && slot->Load() != nullptr;
    for (size_t k = 0; same && k < menu[i].research.size(); ++k) {
      const double x = menu[i].research[k].x;
      same = SameBits(slot->Load()->PriceAt(x), pricing.PriceAtInverseNcp(x));
    }
    result.Check(menu[i].name + " published snapshot prices as the curve",
                 same);
    if (!same) ++failed;
    auto dp = mbp::core::MaximizeRevenueDp(menu[i].research);
    if (dp.ok()) dp_revenue += dp->revenue;
  }
  const bool revenue_ok =
      std::fabs(dp_revenue - menu_revenue) <= 1e-9 * std::max(1.0, dp_revenue);
  result.Check("menu revenue equals the revenue DP's", revenue_ok);
  if (!revenue_ok) ++failed;
  const bool earns_the_same =
      std::fabs(menu_revenue - kMenuRevenue) <= 1e-9 * kMenuRevenue;
  result.Check("menu revenue is the reference menu's", earns_the_same);
  if (!earns_the_same) ++failed;

  const double menu_s = Median(pass_s);
  std::printf("listing: %zu untraced passes, menu of %zu: median %.4f s "
              "(min %.4f, max %.4f)\n",
              pass_s.size(), menu.size(), menu_s,
              *std::min_element(pass_s.begin(), pass_s.end()),
              *std::max_element(pass_s.begin(), pass_s.end()));
  std::printf("listing: menu_revenue %.10g\n", menu_revenue);
  result.Set("op_p50_us", menu_s * 1e6);
  result.Set("list_menu_s", menu_s);
  result.Set("menu_revenue", menu_revenue);
  result.Set("samples.passes", static_cast<double>(pass_s.size()));
  // CPU of the whole process over the untraced and traced passes, per
  // listing built.
  result.Set("cpu_us_per_op",
             Ratio(cpu_s * 1e6, static_cast<double>(attempted)));
  result.Set("peak_rss_mb", PeakRssMb(0));

  if (trace) {
    const double traced_s = Median(traced_pass_s);
    const auto self = SelfTimeByName(tracer.spans());
    double attributed_ms = 0;
    for (const auto& [name, ns] : self) {
      if (name != "listing" && name != "listing.menu") {
        attributed_ms += static_cast<double>(ns) / 1e6;
      }
    }
    double menu_total_ms = 0;
    for (double s : traced_pass_s) menu_total_ms += s * 1e3;
    const double share = AttributedShare(attributed_ms, menu_total_ms);
    const double passes = static_cast<double>(traced_pass_s.size());
    result.Set("ml.train_ms", layer_ms["ml.train"] / passes);
    result.Set("core.error_transform_ms",
               layer_ms["core.error_transform"] / passes);
    result.Set("core.transform_models_per_s",
               Ratio(static_cast<double>(mc_models), mc_ms / 1e3));
    result.Set("core.revenue_dp_ms", layer_ms["core.revenue_dp"] / passes);
    result.Set("core.arbitrage_check_ms",
               layer_ms["core.arbitrage_check"] / passes);
    const double listings = passes * static_cast<double>(menu.size());
    result.Set("serving.compile_us",
               layer_ms["serving.compile"] * 1e3 / listings);
    result.Set("serving.publish_us",
               layer_ms["serving.publish"] * 1e3 / listings);
    result.Set("trace.unattributed_frac", 1.0 - share);
    result.Set("trace.overhead_frac", Ratio(traced_s - menu_s, menu_s));
    std::printf("traced: %zu passes, median %.4f s; layer self time covers "
                "%.1f%% of the menu, unattributed %.1f%%\n",
                traced_pass_s.size(), traced_s, 100 * share,
                100 * (1 - share));
    for (const auto& [name, ns] : self) {
      std::printf("  self %-26s %10.3f ms/pass\n", name.c_str(),
                  static_cast<double>(ns) / 1e6 / passes);
    }
    WriteTrace(tracer, workdir + "/trace-listing.jsonl");
  }
  result.Set("attempted", static_cast<double>(attempted));
  result.Set("failed", static_cast<double>(failed));
  result.Set("check.failures", static_cast<double>(result.check_failures()));
  result.Print();
  return 0;
}

}  // namespace perfbench
