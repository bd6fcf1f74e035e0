// Oracle tests for the SIMD-dispatched micro-kernels: every variant the
// dispatcher can select must agree with the always-compiled scalar
// reference — bitwise for scale (a single multiply either way), within
// 1e-10 relative for the kernels whose AVX2 variants fuse multiply-adds
// (dot, axpy, axpy4, gram4) — on random, zero-heavy, non-finite, and
// non-lane-multiple inputs. Within ONE variant, element-wise kernels must
// be invariant to how a caller splits the range (fused tails, kernels.h),
// which the split-consistency tests pin bitwise; score_block is pinned
// bitwise to its per-score chain in both variants.

#include "linalg/kernels.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/cpu_features.h"
#include "gtest/gtest.h"
#include "random/distributions.h"
#include "random/rng.h"

namespace mbp::linalg::kernels {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// Sizes straddling every tail path: sub-lane, lane multiples, the 16-wide
// dot unroll, and off-by-one around each.
const size_t kSizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 31, 64, 129, 1000};

enum class Fill { kRandom, kZeroHeavy, kNonFinite };

std::vector<double> MakeInput(Fill fill, size_t n, uint64_t seed) {
  random::Rng rng(seed);
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = random::SampleNormal(rng, 0.0, 1.0);
    if (fill == Fill::kZeroHeavy && rng.NextDouble() < 0.7) v[i] = 0.0;
    if (fill == Fill::kNonFinite && rng.NextDouble() < 0.1) {
      v[i] = rng.NextDouble() < 0.5 ? kNan : kInf;
    }
  }
  return v;
}

// EXPECT_EQ-like comparison that treats NaN == NaN as equal (bitwise
// contract modulo NaN payload).
void ExpectSameValues(const std::vector<double>& want,
                      const std::vector<double>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    if (std::isnan(want[i])) {
      EXPECT_TRUE(std::isnan(got[i])) << "index " << i;
    } else {
      EXPECT_EQ(want[i], got[i]) << "index " << i;
    }
  }
}

// Cross-variant comparison: NaN matches NaN, infinities match exactly,
// finite values within the 1e-10 relative scalar-vs-SIMD gate.
void ExpectCloseValues(const std::vector<double>& want,
                       const std::vector<double>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    if (std::isnan(want[i])) {
      EXPECT_TRUE(std::isnan(got[i])) << "index " << i;
    } else if (std::isinf(want[i])) {
      EXPECT_EQ(want[i], got[i]) << "index " << i;
    } else {
      const double tol = 1e-10 * std::max(1.0, std::abs(want[i]));
      EXPECT_NEAR(want[i], got[i], tol) << "index " << i;
    }
  }
}

class KernelOracleTest : public ::testing::TestWithParam<Fill> {
 protected:
  void TearDown() override { ForceLevelForTesting(std::nullopt); }
};

TEST_P(KernelOracleTest, DotMatchesScalarReference) {
  const Funcs* avx2 = Avx2Funcs();
  if (avx2 == nullptr) GTEST_SKIP() << "AVX2 variant not available";
  const Funcs& scalar = ScalarFuncs();
  for (size_t n : kSizes) {
    const std::vector<double> a = MakeInput(GetParam(), n, 11 * n + 1);
    const std::vector<double> b = MakeInput(GetParam(), n, 13 * n + 2);
    const double want = scalar.dot(a.data(), b.data(), n);
    const double got = avx2->dot(a.data(), b.data(), n);
    if (std::isnan(want)) {
      EXPECT_TRUE(std::isnan(got)) << "n=" << n;
    } else if (std::isinf(want)) {
      // Inf - Inf across accumulators is NaN in any order; accept either
      // non-finite outcome for mixed-sign infinities.
      EXPECT_FALSE(std::isfinite(got)) << "n=" << n;
    } else {
      const double tol = 1e-10 * std::max(1.0, std::abs(want));
      EXPECT_NEAR(want, got, tol) << "n=" << n;
    }
  }
}

TEST_P(KernelOracleTest, AxpyMatchesScalarReference) {
  const Funcs* avx2 = Avx2Funcs();
  if (avx2 == nullptr) GTEST_SKIP() << "AVX2 variant not available";
  const Funcs& scalar = ScalarFuncs();
  for (size_t n : kSizes) {
    const std::vector<double> x = MakeInput(GetParam(), n, 17 * n + 3);
    const std::vector<double> y0 = MakeInput(Fill::kRandom, n, 19 * n + 4);
    const double alpha = 0.37;
    std::vector<double> want = y0;
    scalar.axpy(alpha, x.data(), want.data(), n);
    std::vector<double> got = y0;
    avx2->axpy(alpha, x.data(), got.data(), n);
    ExpectCloseValues(want, got);
  }
}

TEST_P(KernelOracleTest, Axpy4MatchesScalarReference) {
  const Funcs* avx2 = Avx2Funcs();
  if (avx2 == nullptr) GTEST_SKIP() << "AVX2 variant not available";
  const Funcs& scalar = ScalarFuncs();
  for (size_t n : kSizes) {
    const std::vector<double> x0 = MakeInput(GetParam(), n, 23 * n + 5);
    const std::vector<double> x1 = MakeInput(GetParam(), n, 29 * n + 6);
    const std::vector<double> x2 = MakeInput(GetParam(), n, 31 * n + 7);
    const std::vector<double> x3 = MakeInput(GetParam(), n, 37 * n + 8);
    const std::vector<double> y0 = MakeInput(Fill::kRandom, n, 41 * n + 9);
    const double alphas[4] = {0.5, -1.25, 0.0, 2.0};
    std::vector<double> want = y0;
    scalar.axpy4(alphas, x0.data(), x1.data(), x2.data(), x3.data(),
                 want.data(), n);
    std::vector<double> got = y0;
    avx2->axpy4(alphas, x0.data(), x1.data(), x2.data(), x3.data(),
                got.data(), n);
    ExpectCloseValues(want, got);
  }
}

// Within one variant, where a caller splits a range must not change any
// element: the AVX2 tails use std::fma, which rounds exactly like a
// vector lane. This is what makes MatTVec's column partition (and gram4's
// row pairing) bit-deterministic across thread counts.
TEST_P(KernelOracleTest, Axpy4SplitInvariantWithinVariant) {
  for (const Funcs* funcs : {&ScalarFuncs(), Avx2Funcs()}) {
    if (funcs == nullptr) continue;
    const size_t n = 129;
    const std::vector<double> x0 = MakeInput(GetParam(), n, 101);
    const std::vector<double> x1 = MakeInput(GetParam(), n, 102);
    const std::vector<double> x2 = MakeInput(GetParam(), n, 103);
    const std::vector<double> x3 = MakeInput(GetParam(), n, 104);
    const std::vector<double> y0 = MakeInput(Fill::kRandom, n, 105);
    const double alphas[4] = {0.5, -1.25, 0.0, 2.0};
    std::vector<double> whole = y0;
    funcs->axpy4(alphas, x0.data(), x1.data(), x2.data(), x3.data(),
                 whole.data(), n);
    for (size_t split : {1ul, 2ul, 3ul, 64ul, 127ul}) {
      std::vector<double> parts = y0;
      funcs->axpy4(alphas, x0.data(), x1.data(), x2.data(), x3.data(),
                   parts.data(), split);
      funcs->axpy4(alphas, x0.data() + split, x1.data() + split,
                   x2.data() + split, x3.data() + split,
                   parts.data() + split, n - split);
      ExpectSameValues(whole, parts);
    }
  }
}

TEST_P(KernelOracleTest, Gram4MatchesScalarReference) {
  const Funcs* avx2 = Avx2Funcs();
  if (avx2 == nullptr) GTEST_SKIP() << "AVX2 variant not available";
  const Funcs& scalar = ScalarFuncs();
  // d spans the two-row pass, its single-row remainder, and every prefix
  // tail; [i_begin, i_end) sub-ranges mirror how GramMatrix partitions
  // output rows across tasks.
  for (size_t d : {1ul, 2ul, 3ul, 5ul, 8ul, 17ul, 90ul}) {
    const std::vector<double> r0 = MakeInput(GetParam(), d, 47 * d + 11);
    const std::vector<double> r1 = MakeInput(GetParam(), d, 53 * d + 12);
    const std::vector<double> r2 = MakeInput(GetParam(), d, 59 * d + 13);
    const std::vector<double> r3 = MakeInput(GetParam(), d, 61 * d + 14);
    const std::vector<double> g0 = MakeInput(Fill::kRandom, d * d, 67 * d + 15);
    const size_t ranges[][2] = {{0, d}, {0, d / 2}, {d / 2, d}, {d / 3, d - d / 3}};
    for (const auto& range : ranges) {
      std::vector<double> want = g0;
      scalar.gram4(r0.data(), r1.data(), r2.data(), r3.data(), want.data(), d,
                   range[0], range[1]);
      std::vector<double> got = g0;
      avx2->gram4(r0.data(), r1.data(), r2.data(), r3.data(), got.data(), d,
                  range[0], range[1]);
      ExpectCloseValues(want, got);
    }
  }
}

TEST_P(KernelOracleTest, Gram4PartitionInvariantWithinVariant) {
  // Splitting the output-row range — which also flips which rows pair up
  // in the AVX2 two-row pass — must not change a bit, and must equal
  // axpy4 applied row by row.
  for (const Funcs* funcs : {&ScalarFuncs(), Avx2Funcs()}) {
    if (funcs == nullptr) continue;
    const size_t d = 33;
    const std::vector<double> r0 = MakeInput(GetParam(), d, 111);
    const std::vector<double> r1 = MakeInput(GetParam(), d, 112);
    const std::vector<double> r2 = MakeInput(GetParam(), d, 113);
    const std::vector<double> r3 = MakeInput(GetParam(), d, 114);
    const std::vector<double> g0 = MakeInput(Fill::kRandom, d * d, 115);
    std::vector<double> whole = g0;
    funcs->gram4(r0.data(), r1.data(), r2.data(), r3.data(), whole.data(), d,
                 0, d);
    std::vector<double> rowwise = g0;
    for (size_t i = 0; i < d; ++i) {
      const double alphas[4] = {r0[i], r1[i], r2[i], r3[i]};
      funcs->axpy4(alphas, r0.data(), r1.data(), r2.data(), r3.data(),
                   rowwise.data() + i * d, i + 1);
    }
    ExpectSameValues(whole, rowwise);
    for (size_t split : {1ul, 2ul, 16ul, 32ul}) {
      std::vector<double> parts = g0;
      funcs->gram4(r0.data(), r1.data(), r2.data(), r3.data(), parts.data(),
                   d, 0, split);
      funcs->gram4(r0.data(), r1.data(), r2.data(), r3.data(), parts.data(),
                   d, split, d);
      ExpectSameValues(whole, parts);
    }
  }
}

TEST_P(KernelOracleTest, ScaleBitIdenticalToScalarReference) {
  const Funcs* avx2 = Avx2Funcs();
  if (avx2 == nullptr) GTEST_SKIP() << "AVX2 variant not available";
  const Funcs& scalar = ScalarFuncs();
  for (size_t n : kSizes) {
    const std::vector<double> x = MakeInput(GetParam(), n, 43 * n + 10);
    std::vector<double> want = x;
    scalar.scale(-0.75, want.data(), n);
    std::vector<double> got = x;
    avx2->scale(-0.75, got.data(), n);
    ExpectSameValues(want, got);
  }
}

// score_block's contract: each score is ONE chain over the features in
// feature order — plain mul + add in the scalar reference, fused in the
// AVX2 variant — so both variants are pinned bitwise to that chain, and
// agree with each other within the 1e-10 scalar-vs-SIMD gate. Seven rows
// cover the 3-row register tile and its remainder; k covers the 16- and
// 4-lane tiles and the < 4 leftover lanes.
TEST_P(KernelOracleTest, ScoreBlockIsOneFeatureOrderChainPerScore) {
  const size_t rows = 7;
  for (size_t d : {1ul, 3ul, 18ul, 54ul}) {
    const std::vector<double> x = MakeInput(GetParam(), rows * d, 71 * d);
    const std::vector<double> h =
        MakeInput(GetParam(), d * kBlockLanes, 73 * d + 1);
    for (size_t k : {1ul, 3ul, 4ul, 13ul, 28ul, 63ul, 64ul}) {
      std::vector<double> plain(rows * kBlockLanes, 0.0);
      std::vector<double> fused(rows * kBlockLanes, 0.0);
      for (size_t r = 0; r < rows; ++r) {
        for (size_t t = 0; t < k; ++t) {
          double p = 0.0, f = 0.0;
          for (size_t j = 0; j < d; ++j) {
            const double xj = x[r * d + j];
            const double hj = h[j * kBlockLanes + t];
            const double product = xj * hj;
            p = p + product;
            f = std::fma(xj, hj, f);
          }
          plain[r * kBlockLanes + t] = p;
          fused[r * kBlockLanes + t] = f;
        }
      }
      std::vector<double> got(rows * kBlockLanes, 0.0);
      ScalarFuncs().score_block(x.data(), d, rows, d, h.data(), k,
                                got.data());
      ExpectSameValues(plain, got);
      const Funcs* avx2 = Avx2Funcs();
      if (avx2 == nullptr) continue;
      std::vector<double> simd(rows * kBlockLanes, 0.0);
      avx2->score_block(x.data(), d, rows, d, h.data(), k, simd.data());
      ExpectSameValues(fused, simd);
      ExpectCloseValues(got, simd);
    }
  }
}

// Within a variant a score must not depend on which other rows and models
// share the call or on the model's lane: scoring a row subset, or a run of
// models moved to the front of a fresh block, reproduces the same bits.
// The Monte-Carlo sweep's chunking relies on this.
TEST_P(KernelOracleTest, ScoreBlockInvariantToRowsAndLanes) {
  for (const Funcs* funcs : {&ScalarFuncs(), Avx2Funcs()}) {
    if (funcs == nullptr) continue;
    const size_t rows = 13;
    const size_t d = 20;
    const std::vector<double> x = MakeInput(GetParam(), rows * d, 201);
    const std::vector<double> h =
        MakeInput(GetParam(), d * kBlockLanes, 202);
    std::vector<double> whole(rows * kBlockLanes);
    funcs->score_block(x.data(), d, rows, d, h.data(), kBlockLanes,
                       whole.data());
    for (size_t split : {1ul, 5ul, 8ul}) {
      std::vector<double> parts(rows * kBlockLanes);
      funcs->score_block(x.data(), d, split, d, h.data(), kBlockLanes,
                         parts.data());
      funcs->score_block(x.data() + split * d, d, rows - split, d,
                         h.data(), kBlockLanes,
                         parts.data() + split * kBlockLanes);
      ExpectSameValues(whole, parts);
    }
    for (size_t first : {1ul, 6ul, 37ul}) {
      const size_t k = std::min<size_t>(kBlockLanes - first, 22);
      std::vector<double> moved(d * kBlockLanes, 0.0);
      for (size_t j = 0; j < d; ++j) {
        for (size_t t = 0; t < k; ++t) {
          moved[j * kBlockLanes + t] = h[j * kBlockLanes + first + t];
        }
      }
      std::vector<double> got(rows * kBlockLanes);
      funcs->score_block(x.data(), d, rows, d, moved.data(), k, got.data());
      for (size_t r = 0; r < rows; ++r) {
        const std::vector<double> want(
            whole.begin() + r * kBlockLanes + first,
            whole.begin() + r * kBlockLanes + first + k);
        const std::vector<double> lanes(got.begin() + r * kBlockLanes,
                                        got.begin() + r * kBlockLanes + k);
        ExpectSameValues(want, lanes);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllFills, KernelOracleTest,
                         ::testing::Values(Fill::kRandom, Fill::kZeroHeavy,
                                           Fill::kNonFinite),
                         [](const auto& info) {
                           switch (info.param) {
                             case Fill::kRandom:
                               return "random";
                             case Fill::kZeroHeavy:
                               return "zero_heavy";
                             case Fill::kNonFinite:
                               return "non_finite";
                           }
                           return "unknown";
                         });

TEST(KernelDispatchTest, ActiveTableMatchesReportedLevel) {
  const SimdLevel level = ActiveLevel();
  if (level == SimdLevel::kAvx2Fma) {
    EXPECT_EQ(&Active(), Avx2Funcs());
  } else {
    EXPECT_EQ(&Active(), &ScalarFuncs());
  }
}

TEST(KernelDispatchTest, ForceLevelPinsAndRestores) {
  ASSERT_TRUE(ForceLevelForTesting(SimdLevel::kScalar));
  EXPECT_EQ(SimdLevel::kScalar, ActiveLevel());
  EXPECT_EQ(&Active(), &ScalarFuncs());
  if (Avx2Funcs() != nullptr) {
    ASSERT_TRUE(ForceLevelForTesting(SimdLevel::kAvx2Fma));
    EXPECT_EQ(SimdLevel::kAvx2Fma, ActiveLevel());
    EXPECT_EQ(&Active(), Avx2Funcs());
  } else {
    EXPECT_FALSE(ForceLevelForTesting(SimdLevel::kAvx2Fma));
  }
  ASSERT_TRUE(ForceLevelForTesting(std::nullopt));  // back to auto
}

TEST(KernelDispatchTest, ScalarDotKeepsSeedAccumulatorPattern) {
  // The scalar dot is pinned to the pre-dispatch kernel: 4 interleaved
  // accumulators, pairwise reduction. Verify against a literal transcription
  // on a size exercising both the unrolled body and the tail.
  const size_t n = 23;
  const std::vector<double> a = MakeInput(Fill::kRandom, n, 71);
  const std::vector<double> b = MakeInput(Fill::kRandom, n, 72);
  double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc0 += a[i] * b[i];
    acc1 += a[i + 1] * b[i + 1];
    acc2 += a[i + 2] * b[i + 2];
    acc3 += a[i + 3] * b[i + 3];
  }
  for (; i < n; ++i) acc0 += a[i] * b[i];
  EXPECT_EQ((acc0 + acc1) + (acc2 + acc3),
            ScalarFuncs().dot(a.data(), b.data(), n));
}

}  // namespace
}  // namespace mbp::linalg::kernels
