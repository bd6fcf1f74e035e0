// Two-level kernel benchmark (see DESIGN.md §5c):
//
//   1. Flop level — scalar vs SIMD micro-kernel timings (Dot, MatTVec,
//      GramMatrix) at Table-3-like scales, single thread, by pinning the
//      dispatch table to each variant in turn. Reports the speedup and the
//      max relative deviation of SIMD from scalar (exactness gate: 1e-10).
//
//   2. Block level — a 64-model block scored by ml::Loss::EvaluateBlock
//      (the Monte-Carlo error sweep's path) against 64 per-model
//      Evaluate calls, at the three Table-3 classifier eval shapes, at
//      each dispatch level. Reports the speedup and the max absolute
//      difference between the two paths.
//
//   3. Reuse level — cold vs warm SufficientStats regimes: an l2-sweep of
//      closed-form retrains and a SelectL2-style k-fold CV, each timed
//      from scratch (every retrain rebuilds its stats; per-fold Subset +
//      full Gram) and with caller-owned reuse (one SufficientStats value
//      handed to TrainLinearRegressionFromStats per candidate; fold
//      downdates). Reports the speedup and whether the reused-stats
//      coefficients are bit-identical to the from-scratch ones.
//
// Emits one JSON document (bench_util.h JsonWriter). Flags:
//   --out=FILE   write JSON there instead of stdout
//   --scale=S    multiply workload sizes by S (default 1.0)
//
// scripts/bench_record.sh appends the document to BENCH_kernels.json so
// future PRs can track the trajectory.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/cpu_features.h"
#include "common/timer.h"
#include "data/dataset.h"
#include "data/synthetic.h"
#include "linalg/kernels.h"
#include "linalg/matrix.h"
#include "linalg/vector_ops.h"
#include "ml/cross_validation.h"
#include "ml/loss.h"
#include "ml/sufficient_stats.h"
#include "ml/trainer.h"
#include "random/rng.h"
#include "random/distributions.h"

namespace mbp {
namespace {

struct KernelRow {
  std::string name;
  std::string workload;
  double scalar_ms = 0.0;
  double simd_ms = 0.0;
  double speedup = 0.0;
  double max_rel_diff = 0.0;
  bool within_tolerance = true;  // 1e-10 relative
};

struct BlockRow {
  std::string loss;
  std::string workload;
  std::string level;
  double per_model_ms = 0.0;
  double block_ms = 0.0;
  double speedup = 0.0;
  double max_abs_diff = 0.0;
};

struct ReuseRow {
  std::string name;
  std::string workload;
  double cold_ms = 0.0;
  double warm_ms = 0.0;
  double speedup = 0.0;
  bool bit_identical = true;  // reused-stats vs from-scratch results
};

// Median-of-3 wall time of `body` in milliseconds.
double TimeMs(const std::function<void()>& body) {
  double times[3];
  for (double& t : times) {
    Timer timer;
    body();
    t = timer.ElapsedSeconds() * 1e3;
  }
  std::sort(times, times + 3);
  return times[1];
}

double MaxRelDiff(const std::vector<double>& a, const std::vector<double>& b) {
  double worst = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double scale = std::max({1.0, std::abs(a[i]), std::abs(b[i])});
    worst = std::max(worst, std::abs(a[i] - b[i]) / scale);
  }
  return worst;
}

// Times `body` once with the dispatch pinned to scalar and once pinned to
// the SIMD variant; `body` returns a result fingerprint for the exactness
// comparison. With no SIMD variant available, both timings run scalar.
KernelRow SweepKernel(
    const std::string& name, const std::string& workload,
    const std::function<std::vector<double>()>& body) {
  using linalg::kernels::ForceLevelForTesting;
  KernelRow row;
  row.name = name;
  row.workload = workload;
  MBP_CHECK(ForceLevelForTesting(SimdLevel::kScalar));
  const std::vector<double> scalar_result = body();
  row.scalar_ms = TimeMs([&] { body(); });
  const bool have_simd = ForceLevelForTesting(SimdLevel::kAvx2Fma);
  const std::vector<double> simd_result = body();
  row.simd_ms = TimeMs([&] { body(); });
  MBP_CHECK(ForceLevelForTesting(std::nullopt));
  row.speedup = row.simd_ms > 0.0 ? row.scalar_ms / row.simd_ms : 0.0;
  row.max_rel_diff =
      have_simd ? MaxRelDiff(scalar_result, simd_result) : 0.0;
  row.within_tolerance = row.max_rel_diff <= 1e-10;
  return row;
}

data::Dataset MakeDataset(size_t n, size_t d, uint64_t seed) {
  data::Simulated1Options options;
  options.num_examples = n;
  options.num_features = d;
  options.seed = seed;
  auto dataset = data::GenerateSimulated1(options);
  MBP_CHECK(dataset.ok());
  return std::move(dataset).value();
}

std::vector<double> Flatten(const linalg::Matrix& m) {
  return std::vector<double>(m.data(), m.data() + m.rows() * m.cols());
}

std::vector<double> Flatten(const linalg::Vector& v) {
  return std::vector<double>(v.data(), v.data() + v.size());
}

// --- Block-level scenarios -------------------------------------------------

// 64 models on an (n, d) classification set: `reps` rounds of 64
// Evaluate calls vs `reps` EvaluateBlock calls, with dispatch pinned to
// `level`.
BlockRow SweepBlock(const ml::Loss& loss, size_t n, size_t d,
                    SimdLevel level, size_t reps) {
  using linalg::kernels::kBlockLanes;
  BlockRow row;
  row.loss = loss.name();
  row.workload = "n=" + std::to_string(n) + " d=" + std::to_string(d) +
                 " models=" + std::to_string(kBlockLanes) +
                 " reps=" + std::to_string(reps);
  row.level = SimdLevelName(level);
  data::Simulated2Options options;
  options.num_examples = n;
  options.num_features = d;
  options.seed = 23 + d;
  auto generated = data::GenerateSimulated2(options);
  MBP_CHECK(generated.ok());
  const data::Dataset dataset = std::move(generated).value();
  random::Rng rng(41 + d);
  std::vector<double> block(d * kBlockLanes);
  std::vector<linalg::Vector> models(kBlockLanes, linalg::Vector(d));
  for (size_t j = 0; j < d; ++j) {
    for (size_t t = 0; t < kBlockLanes; ++t) {
      block[j * kBlockLanes + t] = random::SampleNormal(rng, 0.0, 1.0);
      models[t][j] = block[j * kBlockLanes + t];
    }
  }
  std::vector<double> per_model(kBlockLanes), blocked(kBlockLanes);
  MBP_CHECK(linalg::kernels::ForceLevelForTesting(level));
  row.per_model_ms = TimeMs([&] {
    for (size_t rep = 0; rep < reps; ++rep) {
      for (size_t t = 0; t < kBlockLanes; ++t) {
        per_model[t] = loss.Evaluate(models[t], dataset);
      }
    }
  });
  row.block_ms = TimeMs([&] {
    for (size_t rep = 0; rep < reps; ++rep) {
      loss.EvaluateBlock(block.data(), kBlockLanes, dataset,
                         blocked.data());
    }
  });
  MBP_CHECK(linalg::kernels::ForceLevelForTesting(std::nullopt));
  row.speedup = row.block_ms > 0.0 ? row.per_model_ms / row.block_ms : 0.0;
  for (size_t t = 0; t < kBlockLanes; ++t) {
    row.max_abs_diff =
        std::max(row.max_abs_diff, std::abs(per_model[t] - blocked[t]));
  }
  return row;
}

// --- Reuse-level scenarios -------------------------------------------------

// Cold: every retrain rebuilds Gram/X^T y from the examples. Warm: the
// caller builds SufficientStats once (outside the timing) and each retrain
// is a solve from it.
ReuseRow SweepL2Retrain(const data::Dataset& dataset,
                        const std::vector<double>& candidates) {
  ReuseRow row;
  row.name = "l2_sweep_retrain";
  row.workload = "n=" + std::to_string(dataset.num_examples()) +
                 " d=" + std::to_string(dataset.num_features()) +
                 " retrains=" + std::to_string(candidates.size());
  std::vector<double> cold_coeffs, warm_coeffs;
  row.cold_ms = TimeMs([&] {
    cold_coeffs.clear();
    for (double l2 : candidates) {
      auto trained = ml::TrainLinearRegression(dataset, l2);
      MBP_CHECK(trained.ok());
      const auto flat = Flatten(trained->model.coefficients());
      cold_coeffs.insert(cold_coeffs.end(), flat.begin(), flat.end());
    }
  });
  const ml::SufficientStats stats = ml::SufficientStats::Build(dataset);
  row.warm_ms = TimeMs([&] {
    warm_coeffs.clear();
    for (double l2 : candidates) {
      auto trained = ml::TrainLinearRegressionFromStats(stats, l2);
      MBP_CHECK(trained.ok());
      const auto flat = Flatten(trained->model.coefficients());
      warm_coeffs.insert(warm_coeffs.end(), flat.begin(), flat.end());
    }
  });
  row.speedup = row.warm_ms > 0.0 ? row.cold_ms / row.warm_ms : 0.0;
  row.bit_identical = cold_coeffs == warm_coeffs;
  return row;
}

// Cold: the pre-reuse CV shape — per candidate, per fold, materialize the
// training Subset and train from scratch. Warm: SelectL2ByCrossValidation,
// which builds fold contexts (downdated stats) once and reuses them for
// every candidate.
ReuseRow SweepCvSelect(const data::Dataset& dataset,
                       const std::vector<double>& candidates, size_t folds) {
  ReuseRow row;
  row.name = "cv_select_l2";
  row.workload = "n=" + std::to_string(dataset.num_examples()) +
                 " d=" + std::to_string(dataset.num_features()) +
                 " folds=" + std::to_string(folds) +
                 " candidates=" + std::to_string(candidates.size());
  const ml::SquareLoss eval_loss(0.0);
  const ParallelConfig serial = ParallelConfig::Serial();

  row.cold_ms = TimeMs([&] {
    // From-scratch baseline with the same fold geometry (contiguous
    // chunks of a fixed permutation).
    random::Rng rng(99);
    std::vector<size_t> order(dataset.num_examples());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.NextUint64() % i]);
    }
    const size_t base = order.size() / folds;
    for (double l2 : candidates) {
      for (size_t f = 0; f < folds; ++f) {
        const size_t begin = f * base;
        const size_t end = f + 1 == folds ? order.size() : begin + base;
        std::vector<size_t> train_idx(order.begin(), order.begin() + begin);
        train_idx.insert(train_idx.end(), order.begin() + end, order.end());
        std::vector<size_t> test_idx(order.begin() + begin,
                                     order.begin() + end);
        const data::Dataset train = dataset.Subset(train_idx);
        const data::Dataset test = dataset.Subset(test_idx);
        auto trained = ml::TrainLinearRegression(train, l2);
        MBP_CHECK(trained.ok());
        (void)eval_loss.Evaluate(trained->model.coefficients(), test);
      }
    }
  });
  row.warm_ms = TimeMs([&] {
    random::Rng rng(99);
    auto best = ml::SelectL2ByCrossValidation(
        ml::ModelKind::kLinearRegression, dataset, candidates, eval_loss,
        folds, rng, serial);
    MBP_CHECK(best.ok());
  });
  row.speedup = row.warm_ms > 0.0 ? row.cold_ms / row.warm_ms : 0.0;
  return row;
}

void EmitJson(FILE* out, const std::vector<KernelRow>& kernels,
              const std::vector<BlockRow>& blocks,
              const std::vector<ReuseRow>& reuse) {
  bench::JsonWriter json(out);
  json.BeginObject();
  json.Field("bench", "kernels");

  const CpuFeatures& cpu = DetectCpuFeatures();
  json.Key("dispatch");
  json.BeginObject();
#if defined(MBP_HAVE_AVX2)
  json.Field("build_has_avx2_variants", true);
#else
  json.Field("build_has_avx2_variants", false);
#endif
  json.Field("cpu_avx", cpu.avx);
  json.Field("cpu_avx2", cpu.avx2);
  json.Field("cpu_fma", cpu.fma);
  json.Field("active_level", SimdLevelName(ActiveSimdLevel()));
  json.EndObject();

  json.Key("kernel_speedups");
  json.BeginArray();
  for (const KernelRow& row : kernels) {
    json.BeginObject();
    json.Field("kernel", row.name);
    json.Field("workload", row.workload);
    json.Field("scalar_ms", row.scalar_ms);
    json.Field("simd_ms", row.simd_ms);
    json.Field("speedup", row.speedup);
    json.Field("max_rel_diff", row.max_rel_diff);
    json.Field("within_1e-10", row.within_tolerance);
    json.EndObject();
  }
  json.EndArray();

  json.Key("block_scoring");
  json.BeginArray();
  for (const BlockRow& row : blocks) {
    json.BeginObject();
    json.Field("loss", row.loss);
    json.Field("workload", row.workload);
    json.Field("level", row.level);
    json.Field("per_model_ms", row.per_model_ms);
    json.Field("block_ms", row.block_ms);
    json.Field("speedup", row.speedup);
    json.Field("max_abs_diff", row.max_abs_diff);
    json.EndObject();
  }
  json.EndArray();

  json.Key("stats_reuse");
  json.BeginArray();
  for (const ReuseRow& row : reuse) {
    json.BeginObject();
    json.Field("scenario", row.name);
    json.Field("workload", row.workload);
    json.Field("cold_ms", row.cold_ms);
    json.Field("warm_ms", row.warm_ms);
    json.Field("speedup", row.speedup);
    json.Field("bit_identical", row.bit_identical);
    json.EndObject();
  }
  json.EndArray();

  json.EndObject();
  json.Finish();
}

int Run(int argc, char** argv) {
  const double scale = bench::FlagValue(argc, argv, "scale", 1.0);
  const std::string out_path = bench::FlagString(argc, argv, "out", "");

  // Table-3-like single-thread kernel workloads: YearMSD's d=90 at a
  // sub-sampled n, and a long-vector dot.
  const size_t gram_n = static_cast<size_t>(38650 * scale);
  const size_t gram_d = 90;
  const data::Dataset gram_data = MakeDataset(gram_n, gram_d, 21);

  bench::PrintHeader("kernel dispatch");
  std::printf("active level: %s\n",
              SimdLevelName(ActiveSimdLevel()).c_str());

  std::vector<KernelRow> kernels;
  {
    const linalg::Matrix& x = gram_data.features();
    kernels.push_back(SweepKernel(
        "gram_matrix",
        "n=" + std::to_string(gram_n) + " d=" + std::to_string(gram_d) +
            " threads=1",
        [&] { return Flatten(linalg::GramMatrix(x, ParallelConfig::Serial())); }));
    kernels.push_back(SweepKernel(
        "mat_t_vec",
        "n=" + std::to_string(gram_n) + " d=" + std::to_string(gram_d) +
            " threads=1",
        [&] {
          return Flatten(linalg::MatTVec(x, gram_data.targets(),
                                         ParallelConfig::Serial()));
        }));
    // Cache-resident vectors (2 x 64 KiB): measures the kernel's
    // arithmetic throughput, not DRAM bandwidth.
    const size_t dot_n = 8192;
    const size_t dot_reps = 4096;
    random::Rng rng(31);
    std::vector<double> a(dot_n), b(dot_n);
    for (size_t i = 0; i < dot_n; ++i) {
      a[i] = random::SampleNormal(rng, 0.0, 1.0);
      b[i] = random::SampleNormal(rng, 0.0, 1.0);
    }
    kernels.push_back(SweepKernel(
        "dot",
        "n=" + std::to_string(dot_n) + " reps=" + std::to_string(dot_reps),
        [&] {
          double total = 0.0;
          for (size_t rep = 0; rep < dot_reps; ++rep) {
            total += linalg::Dot(a.data(), b.data(), dot_n);
          }
          return std::vector<double>{total};
        }));
  }

  bench::PrintHeader("scalar vs SIMD (single thread)");
  for (const KernelRow& row : kernels) {
    std::printf("%-12s %-28s scalar %8.2f ms  simd %8.2f ms  %5.2fx  "
                "max_rel_diff %.2e %s\n",
                row.name.c_str(), row.workload.c_str(), row.scalar_ms,
                row.simd_ms, row.speedup, row.max_rel_diff,
                row.within_tolerance ? "OK" : "FAIL");
  }

  // The listing benchmark's Table-3 classifier stand-ins, as their
  // Monte-Carlo sweeps see them: (eval examples, features).
  std::vector<BlockRow> blocks;
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  if (linalg::kernels::Avx2Funcs() != nullptr) {
    levels.push_back(SimdLevel::kAvx2Fma);
  }
  const ml::ZeroOneLoss zero_one;
  const ml::LogisticLoss logistic(0.0);
  const size_t shapes[][2] = {{1250, 20}, {200, 54}, {625, 18}};
  for (const ml::Loss* loss :
       {static_cast<const ml::Loss*>(&zero_one),
        static_cast<const ml::Loss*>(&logistic)}) {
    for (const auto& shape : shapes) {
      for (SimdLevel level : levels) {
        blocks.push_back(SweepBlock(*loss, shape[0], shape[1], level,
                                    std::max<size_t>(1, 20 * scale)));
      }
    }
  }
  bench::PrintHeader("64-model block vs per-model Evaluate (single thread)");
  for (const BlockRow& row : blocks) {
    std::printf("%-9s %-34s %-9s per-model %8.2f ms  block %8.2f ms  "
                "%5.2fx  max_abs_diff %.2e\n",
                row.loss.c_str(), row.workload.c_str(), row.level.c_str(),
                row.per_model_ms, row.block_ms, row.speedup,
                row.max_abs_diff);
  }

  std::vector<ReuseRow> reuse;
  const std::vector<double> candidates = {0.0001, 0.001, 0.01, 0.1,
                                          1.0,    10.0};
  reuse.push_back(SweepL2Retrain(gram_data, candidates));
  const data::Dataset cv_data =
      MakeDataset(static_cast<size_t>(20000 * scale), 60, 22);
  reuse.push_back(SweepCvSelect(cv_data, candidates, 5));

  bench::PrintHeader("cold vs warm sufficient statistics");
  for (const ReuseRow& row : reuse) {
    std::printf("%-18s %-40s cold %8.2f ms  warm %8.2f ms  %5.2fx%s\n",
                row.name.c_str(), row.workload.c_str(), row.cold_ms,
                row.warm_ms, row.speedup,
                row.bit_identical ? "  bit-identical" : "");
  }

  if (out_path.empty()) {
    EmitJson(stdout, kernels, blocks, reuse);
  } else {
    FILE* out = std::fopen(out_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open --out=%s\n", out_path.c_str());
      return 1;
    }
    EmitJson(out, kernels, blocks, reuse);
    std::fclose(out);
    std::printf("wrote %s\n", out_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace mbp

int main(int argc, char** argv) { return mbp::Run(argc, argv); }
