#include "linalg/kernels.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>

#if defined(MBP_HAVE_AVX2)
#include <immintrin.h>
#endif

namespace mbp::linalg::kernels {
namespace {

// ---------------------------------------------------------------------------
// Piecewise-linear batch evaluation, shared index math. These helpers are
// the single definition of the segment lookup for BOTH variants (the AVX2
// kernel calls them per interior lane), so the bracketing index can never
// diverge between dispatch levels.
// ---------------------------------------------------------------------------

// Index of the first knot with x[i] > q, for q strictly inside
// (x[0], x[n-1]). Identical to PricingSnapshot::UpperKnot: bucket
// estimate, edge settles, then upper_bound over the bucket's window.
inline size_t PwlUpperKnot(const PwlView& c, double q) {
  size_t b = std::min(c.num_buckets - 1,
                      static_cast<size_t>(q * c.inv_bucket_width));
  while (b > 0 && q < c.bucket_width * static_cast<double>(b)) --b;
  while (b + 1 < c.num_buckets &&
         q >= c.bucket_width * static_cast<double>(b + 1)) {
    ++b;
  }
  const double* first = c.x + c.bucket_hint[b];
  const double* last = c.x + c.bucket_hint[b + 1];
  return static_cast<size_t>(std::upper_bound(first, last, q) - c.x);
}

// One element of the batch policy (see Funcs::pwl_batch). Every branch
// body is a single-rounding expression — the same ones PriceAt evaluates —
// so this scalar path is the bit-exact oracle for the vector lanes.
inline double PwlEvalOne(const PwlView& c, double q) {
  if (!(q >= 0.0)) return std::numeric_limits<double>::quiet_NaN();
  if (q == 0.0) return 0.0;
  if (q <= c.x[0]) return c.price[0] * (q / c.x[0]);
  if (q >= c.x[c.n - 1]) return c.price[c.n - 1];
  const size_t lo = PwlUpperKnot(c, q) - 1;
  const double t = (q - c.x[lo]) / c.dx[lo];
  return c.price[lo] + t * c.dprice[lo];
}

// ---------------------------------------------------------------------------
// Scalar reference variant. Bit-identical to the pre-dispatch kernels in
// vector_ops.cc: dot keeps the 4-accumulator pattern and its reduction
// order, the element-wise kernels are plain mul+add (the baseline ISA has
// no FMA, so the compiler cannot contract these).
// ---------------------------------------------------------------------------

double DotScalar(const double* a, const double* b, size_t n) {
  double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc0 += a[i] * b[i];
    acc1 += a[i + 1] * b[i + 1];
    acc2 += a[i + 2] * b[i + 2];
    acc3 += a[i + 3] * b[i + 3];
  }
  for (; i < n; ++i) acc0 += a[i] * b[i];
  return (acc0 + acc1) + (acc2 + acc3);
}

void AxpyScalar(double alpha, const double* x, double* y, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void ScaleScalar(double alpha, double* x, size_t n) {
  for (size_t i = 0; i < n; ++i) x[i] *= alpha;
}

void Axpy4Scalar(const double alpha[4], const double* x0, const double* x1,
                 const double* x2, const double* x3, double* y, size_t n) {
  const double a0 = alpha[0], a1 = alpha[1], a2 = alpha[2], a3 = alpha[3];
  for (size_t i = 0; i < n; ++i) {
    // Same add sequence as four successive AxpyScalar passes.
    double acc = y[i] + a0 * x0[i];
    acc += a1 * x1[i];
    acc += a2 * x2[i];
    acc += a3 * x3[i];
    y[i] = acc;
  }
}

void Gram4Scalar(const double* r0, const double* r1, const double* r2,
                 const double* r3, double* g, size_t ld, size_t i_begin,
                 size_t i_end) {
  for (size_t i = i_begin; i < i_end; ++i) {
    const double alpha[4] = {r0[i], r1[i], r2[i], r3[i]};
    Axpy4Scalar(alpha, r0, r1, r2, r3, g + i * ld, i + 1);
  }
}

void PwlBatchScalar(const PwlView& curve, const double* xs, double* out,
                    size_t count) {
  for (size_t i = 0; i < count; ++i) out[i] = PwlEvalOne(curve, xs[i]);
}

void ScoreBlockScalar(const double* x, size_t ldx, size_t rows, size_t d,
                      const double* h, size_t k, double* scores) {
  for (size_t r = 0; r < rows; ++r) {
    const double* xr = x + r * ldx;
    double* out = scores + r * kBlockLanes;
    for (size_t t = 0; t < k; ++t) out[t] = 0.0;
    // Feature-major sweep: every lane's chain still adds its terms in
    // feature order, and the block is read contiguously.
    for (size_t j = 0; j < d; ++j) {
      const double xj = xr[j];
      const double* hj = h + j * kBlockLanes;
      for (size_t t = 0; t < k; ++t) out[t] += xj * hj[t];
    }
  }
}

constexpr Funcs kScalarFuncs{DotScalar,      AxpyScalar,  ScaleScalar,
                             Axpy4Scalar,    Gram4Scalar, PwlBatchScalar,
                             ScoreBlockScalar};

#if defined(MBP_HAVE_AVX2)

// ---------------------------------------------------------------------------
// AVX2 + FMA variant. Compiled with per-function target attributes so the
// rest of the library stays baseline-ISA; only reachable after the CPUID
// check in Avx2Funcs().
//
// Determinism: the element-wise kernels (axpy, axpy4, gram4) fuse every
// multiply-add — vector lanes via _mm256_fmadd_pd and scalar tails via
// std::fma, which round identically. Output element i is therefore ONE
// fixed expression of input element i no matter how a caller splits the
// range (MatTVec's column partition, gram4's row pairing): results are
// bit-identical across thread counts and partitions within a build. They
// differ from the scalar reference (plain mul + add, the baseline ISA has
// no FMA) by at most one rounding per term, ~1e-16 relative; tests and
// benches gate scalar-vs-SIMD agreement at 1e-10 end to end.
// ---------------------------------------------------------------------------

__attribute__((target("avx2,fma"))) double DotAvx2(const double* a,
                                                   const double* b,
                                                   size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  __m256d acc2 = _mm256_setzero_pd();
  __m256d acc3 = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i),
                           acc0);
    acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 4),
                           _mm256_loadu_pd(b + i + 4), acc1);
    acc2 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 8),
                           _mm256_loadu_pd(b + i + 8), acc2);
    acc3 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 12),
                           _mm256_loadu_pd(b + i + 12), acc3);
  }
  for (; i + 4 <= n; i += 4) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i),
                           acc0);
  }
  // Fixed lane-reduction order: registers pairwise, then lanes pairwise.
  const __m256d sum =
      _mm256_add_pd(_mm256_add_pd(acc0, acc1), _mm256_add_pd(acc2, acc3));
  double lanes[4];
  _mm256_storeu_pd(lanes, sum);
  double result = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
  for (; i < n; ++i) result += a[i] * b[i];
  return result;
}

__attribute__((target("avx2,fma"))) void AxpyAvx2(double alpha,
                                                  const double* x, double* y,
                                                  size_t n) {
  const __m256d va = _mm256_set1_pd(alpha);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_pd(
        y + i, _mm256_fmadd_pd(va, _mm256_loadu_pd(x + i),
                               _mm256_loadu_pd(y + i)));
    _mm256_storeu_pd(
        y + i + 4, _mm256_fmadd_pd(va, _mm256_loadu_pd(x + i + 4),
                                   _mm256_loadu_pd(y + i + 4)));
  }
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        y + i, _mm256_fmadd_pd(va, _mm256_loadu_pd(x + i),
                               _mm256_loadu_pd(y + i)));
  }
  // std::fma rounds exactly like a vector lane, so where the tail begins
  // (a caller's range split) cannot change any element's value.
  for (; i < n; ++i) y[i] = std::fma(alpha, x[i], y[i]);
}

__attribute__((target("avx2,fma"))) void ScaleAvx2(double alpha, double* x,
                                                   size_t n) {
  const __m256d va = _mm256_set1_pd(alpha);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(x + i, _mm256_mul_pd(va, _mm256_loadu_pd(x + i)));
  }
  for (; i < n; ++i) x[i] *= alpha;
}

__attribute__((target("avx2,fma"))) void Axpy4Avx2(
    const double alpha[4], const double* x0, const double* x1,
    const double* x2, const double* x3, double* y, size_t n) {
  const __m256d a0 = _mm256_set1_pd(alpha[0]);
  const __m256d a1 = _mm256_set1_pd(alpha[1]);
  const __m256d a2 = _mm256_set1_pd(alpha[2]);
  const __m256d a3 = _mm256_set1_pd(alpha[3]);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    // Same term order as Axpy4Scalar, each term fused.
    __m256d acc = _mm256_fmadd_pd(a0, _mm256_loadu_pd(x0 + i),
                                  _mm256_loadu_pd(y + i));
    acc = _mm256_fmadd_pd(a1, _mm256_loadu_pd(x1 + i), acc);
    acc = _mm256_fmadd_pd(a2, _mm256_loadu_pd(x2 + i), acc);
    acc = _mm256_fmadd_pd(a3, _mm256_loadu_pd(x3 + i), acc);
    _mm256_storeu_pd(y + i, acc);
  }
  for (; i < n; ++i) {
    double acc = std::fma(alpha[0], x0[i], y[i]);
    acc = std::fma(alpha[1], x1[i], acc);
    acc = std::fma(alpha[2], x2[i], acc);
    acc = std::fma(alpha[3], x3[i], acc);
    y[i] = acc;
  }
}

__attribute__((target("avx2,fma"))) void Gram4Avx2(
    const double* r0, const double* r1, const double* r2, const double* r3,
    double* g, size_t ld, size_t i_begin, size_t i_end) {
  size_t i = i_begin;
  // Two adjacent output rows per pass: both rows scale the same four
  // streamed example rows, so the x-loads are issued once and consumed by
  // eight fused chains. Each element of each output row sees Axpy4Avx2's
  // term order with every term fused (std::fma in the remainders), so the
  // result is bit-identical to calling axpy4 once per row — row pairing
  // and the [i_begin, i_end) partition cannot change any value.
  for (; i + 2 <= i_end; i += 2) {
    double* ga = g + i * ld;
    double* gb = ga + ld;
    const __m256d a0 = _mm256_set1_pd(r0[i]);
    const __m256d a1 = _mm256_set1_pd(r1[i]);
    const __m256d a2 = _mm256_set1_pd(r2[i]);
    const __m256d a3 = _mm256_set1_pd(r3[i]);
    const __m256d b0 = _mm256_set1_pd(r0[i + 1]);
    const __m256d b1 = _mm256_set1_pd(r1[i + 1]);
    const __m256d b2 = _mm256_set1_pd(r2[i + 1]);
    const __m256d b3 = _mm256_set1_pd(r3[i + 1]);
    const size_t na = i + 1;  // row i prefix length
    const size_t nb = i + 2;  // row i+1 prefix length
    size_t j = 0;
    for (; j + 4 <= na; j += 4) {
      const __m256d x0 = _mm256_loadu_pd(r0 + j);
      const __m256d x1 = _mm256_loadu_pd(r1 + j);
      const __m256d x2 = _mm256_loadu_pd(r2 + j);
      const __m256d x3 = _mm256_loadu_pd(r3 + j);
      __m256d acc = _mm256_fmadd_pd(a0, x0, _mm256_loadu_pd(ga + j));
      acc = _mm256_fmadd_pd(a1, x1, acc);
      acc = _mm256_fmadd_pd(a2, x2, acc);
      acc = _mm256_fmadd_pd(a3, x3, acc);
      _mm256_storeu_pd(ga + j, acc);
      __m256d accb = _mm256_fmadd_pd(b0, x0, _mm256_loadu_pd(gb + j));
      accb = _mm256_fmadd_pd(b1, x1, accb);
      accb = _mm256_fmadd_pd(b2, x2, accb);
      accb = _mm256_fmadd_pd(b3, x3, accb);
      _mm256_storeu_pd(gb + j, accb);
    }
    // Remainders: <= 3 elements for row i, <= 4 for row i+1.
    for (size_t t = j; t < na; ++t) {
      double acc = std::fma(r0[i], r0[t], ga[t]);
      acc = std::fma(r1[i], r1[t], acc);
      acc = std::fma(r2[i], r2[t], acc);
      acc = std::fma(r3[i], r3[t], acc);
      ga[t] = acc;
    }
    for (size_t t = j; t < nb; ++t) {
      double acc = std::fma(r0[i + 1], r0[t], gb[t]);
      acc = std::fma(r1[i + 1], r1[t], acc);
      acc = std::fma(r2[i + 1], r2[t], acc);
      acc = std::fma(r3[i + 1], r3[t], acc);
      gb[t] = acc;
    }
  }
  if (i < i_end) {
    const double alpha[4] = {r0[i], r1[i], r2[i], r3[i]};
    Axpy4Avx2(alpha, r0, r1, r2, r3, g + i * ld, i + 1);
  }
}

// Batched piecewise-linear evaluation, 4 queries per pass. The heavy
// per-element costs of the scalar loop — the unpredictable range-
// classification branches and the two divisions — vectorize; the segment
// lookup stays scalar per interior lane (it is a handful of compares via
// the bucket index) and feeds lane gathers. Bit identity with the scalar
// reference holds because every arithmetic op here is a single IEEE
// rounding: _mm256_div_pd / _mm256_mul_pd / _mm256_add_pd round exactly
// like their scalar counterparts lane-wise, no FMA is used (this file is
// compiled with -ffp-contract=off so the compiler cannot fuse the
// mul+add), and the lookup indices come from the same PwlUpperKnot the
// scalar variant uses. The tail (< 4 elements) runs PwlEvalOne, which is
// also exactly what a vector lane computes — so any remainder length
// 0..7 produces the same bits as the scalar loop.
__attribute__((target("avx2,fma"))) void PwlBatchAvx2(const PwlView& curve,
                                                      const double* xs,
                                                      double* out,
                                                      size_t count) {
  // A single-knot curve has no interior segments (dx/dprice are empty):
  // every query resolves through the edge branches, which the scalar
  // loop handles without touching segment arrays.
  if (curve.n < 2) {
    PwlBatchScalar(curve, xs, out, count);
    return;
  }
  const __m256d zero = _mm256_setzero_pd();
  const __m256d x_first = _mm256_set1_pd(curve.x[0]);
  const __m256d p_first = _mm256_set1_pd(curve.price[0]);
  const __m256d x_last = _mm256_set1_pd(curve.x[curve.n - 1]);
  const __m256d p_last = _mm256_set1_pd(curve.price[curve.n - 1]);
  const __m256d nan =
      _mm256_set1_pd(std::numeric_limits<double>::quiet_NaN());
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m256d xv = _mm256_loadu_pd(xs + i);
    // Lane classification on the original query (ordered compares are
    // false on NaN lanes, which fall through to the NaN blend).
    const __m256d ge_zero = _mm256_cmp_pd(xv, zero, _CMP_GE_OQ);
    const __m256d eq_zero = _mm256_cmp_pd(xv, zero, _CMP_EQ_OQ);
    const __m256d le_first = _mm256_cmp_pd(xv, x_first, _CMP_LE_OQ);
    const __m256d ge_last = _mm256_cmp_pd(xv, x_last, _CMP_GE_OQ);
    // Interior lanes: strictly inside (x[0], x[n-1]) and well-formed.
    const __m256d interior = _mm256_andnot_pd(
        le_first, _mm256_andnot_pd(ge_last, ge_zero));
    const int interior_bits = _mm256_movemask_pd(interior);
    // Bracketing segment per interior lane via the shared scalar lookup;
    // non-interior lanes use segment 0 as a harmless placeholder (dx[0] >
    // 0, so the arithmetic below cannot fault) and are overwritten by the
    // edge blends.
    alignas(32) double lane[4];
    _mm256_store_pd(lane, xv);
    size_t lo[4] = {0, 0, 0, 0};
    for (int k = 0; k < 4; ++k) {
      if ((interior_bits >> k) & 1) lo[k] = PwlUpperKnot(curve, lane[k]) - 1;
    }
    const __m256d x_lo = _mm256_set_pd(curve.x[lo[3]], curve.x[lo[2]],
                                       curve.x[lo[1]], curve.x[lo[0]]);
    const __m256d dx_lo = _mm256_set_pd(curve.dx[lo[3]], curve.dx[lo[2]],
                                        curve.dx[lo[1]], curve.dx[lo[0]]);
    const __m256d p_lo =
        _mm256_set_pd(curve.price[lo[3]], curve.price[lo[2]],
                      curve.price[lo[1]], curve.price[lo[0]]);
    const __m256d dp_lo =
        _mm256_set_pd(curve.dprice[lo[3]], curve.dprice[lo[2]],
                      curve.dprice[lo[1]], curve.dprice[lo[0]]);
    // t = (x - x_lo) / dx_lo;  result = p_lo + t * dp_lo. Plain mul +
    // add, NOT fmadd: PriceAt's expression rounds twice and so must we.
    const __m256d t = _mm256_div_pd(_mm256_sub_pd(xv, x_lo), dx_lo);
    __m256d result = _mm256_add_pd(p_lo, _mm256_mul_pd(t, dp_lo));
    // Edge blends in reverse order of PriceAt's if-chain, so earlier
    // branches override later ones exactly as taken branches would.
    const __m256d below = _mm256_mul_pd(p_first, _mm256_div_pd(xv, x_first));
    result = _mm256_blendv_pd(result, p_last, ge_last);
    result = _mm256_blendv_pd(result, below, le_first);
    result = _mm256_blendv_pd(result, zero, eq_zero);
    result = _mm256_blendv_pd(nan, result, ge_zero);
    _mm256_storeu_pd(out + i, result);
  }
  for (; i < count; ++i) out[i] = PwlEvalOne(curve, xs[i]);
}

// Score-block register tile: R examples x V vectors of 4 model lanes,
// R * V accumulators held in registers across the whole feature loop.
// The main tile is 3 x 4: 12 accumulators, 3 block-row vectors and one
// broadcast fill the 16 ymm registers (the compiler feeds the fourth
// block-row vector to its FMAs as a memory operand), so nothing spills
// and each feature's 12 FMAs share its block-row and example loads. `h`
// and `scores` point at the tile's first lane.
template <size_t R, size_t V>
__attribute__((target("avx2,fma"), always_inline)) inline void ScoreTileAvx2(
    const double* x, size_t ldx, size_t d, const double* h,
    double* scores) {
  __m256d acc[R][V];
  for (size_t r = 0; r < R; ++r) {
    for (size_t v = 0; v < V; ++v) acc[r][v] = _mm256_setzero_pd();
  }
  for (size_t j = 0; j < d; ++j) {
    const double* hj = h + j * kBlockLanes;
    __m256d hv[V];
    for (size_t v = 0; v < V; ++v) hv[v] = _mm256_loadu_pd(hj + 4 * v);
    for (size_t r = 0; r < R; ++r) {
      const __m256d xb = _mm256_broadcast_sd(x + r * ldx + j);
      for (size_t v = 0; v < V; ++v) {
        acc[r][v] = _mm256_fmadd_pd(xb, hv[v], acc[r][v]);
      }
    }
  }
  for (size_t r = 0; r < R; ++r) {
    for (size_t v = 0; v < V; ++v) {
      _mm256_storeu_pd(scores + r * kBlockLanes + 4 * v, acc[r][v]);
    }
  }
}

// All k lanes of R example rows: 16-lane tiles, then 4-lane tiles, then
// the < 4 leftover lanes as std::fma chains — each rounds exactly like a
// vector lane, so where the tiles end cannot change a score.
template <size_t R>
__attribute__((target("avx2,fma"), always_inline)) inline void ScoreRowsAvx2(
    const double* x, size_t ldx, size_t d, const double* h, size_t k,
    double* scores) {
  size_t t = 0;
  for (; t + 16 <= k; t += 16) {
    ScoreTileAvx2<R, 4>(x, ldx, d, h + t, scores + t);
  }
  for (; t + 4 <= k; t += 4) {
    ScoreTileAvx2<R, 1>(x, ldx, d, h + t, scores + t);
  }
  for (; t < k; ++t) {
    for (size_t r = 0; r < R; ++r) {
      const double* xr = x + r * ldx;
      double acc = 0.0;
      for (size_t j = 0; j < d; ++j) {
        acc = std::fma(xr[j], h[j * kBlockLanes + t], acc);
      }
      scores[r * kBlockLanes + t] = acc;
    }
  }
}

__attribute__((target("avx2,fma"))) void ScoreBlockAvx2(
    const double* x, size_t ldx, size_t rows, size_t d, const double* h,
    size_t k, double* scores) {
  size_t r = 0;
  for (; r + 3 <= rows; r += 3) {
    ScoreRowsAvx2<3>(x + r * ldx, ldx, d, h, k, scores + r * kBlockLanes);
  }
  for (; r < rows; ++r) {
    ScoreRowsAvx2<1>(x + r * ldx, ldx, d, h, k, scores + r * kBlockLanes);
  }
}

constexpr Funcs kAvx2Funcs{DotAvx2,      AxpyAvx2,  ScaleAvx2,
                           Axpy4Avx2,    Gram4Avx2, PwlBatchAvx2,
                           ScoreBlockAvx2};

#endif  // MBP_HAVE_AVX2

const Funcs* ResolveAuto() {
  if (ActiveSimdLevel() == SimdLevel::kAvx2Fma) {
    const Funcs* avx2 = Avx2Funcs();
    if (avx2 != nullptr) return avx2;
  }
  return &kScalarFuncs;
}

// The active table. Resolved lazily so MBP_FORCE_SCALAR set by a test
// harness before first kernel use is honored; one acquire load per kernel
// call afterwards.
std::atomic<const Funcs*> g_active{nullptr};

}  // namespace

const Funcs& ScalarFuncs() { return kScalarFuncs; }

const Funcs* Avx2Funcs() {
#if defined(MBP_HAVE_AVX2)
  const CpuFeatures& features = DetectCpuFeatures();
  if (features.avx2 && features.fma) return &kAvx2Funcs;
#endif
  return nullptr;
}

const Funcs& Active() {
  const Funcs* funcs = g_active.load(std::memory_order_acquire);
  if (funcs == nullptr) {
    funcs = ResolveAuto();
    g_active.store(funcs, std::memory_order_release);
  }
  return *funcs;
}

SimdLevel ActiveLevel() {
  return &Active() == Avx2Funcs() ? SimdLevel::kAvx2Fma
                                  : SimdLevel::kScalar;
}

bool ForceLevelForTesting(std::optional<SimdLevel> level) {
  if (!level.has_value()) {
    g_active.store(ResolveAuto(), std::memory_order_release);
    return true;
  }
  if (*level == SimdLevel::kAvx2Fma) {
    const Funcs* avx2 = Avx2Funcs();
    if (avx2 == nullptr) return false;
    g_active.store(avx2, std::memory_order_release);
    return true;
  }
  g_active.store(&ScalarFuncs(), std::memory_order_release);
  return true;
}

}  // namespace mbp::linalg::kernels
