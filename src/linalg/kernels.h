#ifndef MBP_LINALG_KERNELS_H_
#define MBP_LINALG_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <optional>

#include "common/cpu_features.h"

namespace mbp::linalg::kernels {

// Raw view over a compiled piecewise-linear pricing curve in the SoA
// layout PricingSnapshot builds (serving/pricing_snapshot.*): knot
// coordinates, precomputed per-segment deltas, and the uniform bucket
// index that turns segment lookup into O(1). Defined here so the batch
// evaluation kernel can live in the dispatch table without linalg
// depending on serving.
//
// Invariants (guaranteed by PricingSnapshot::Compile): x is strictly
// increasing with x[0] > 0; dx/dprice have n - 1 entries and are the
// exact subtractions x[i+1]-x[i] / price[i+1]-price[i]; bucket_hint has
// num_buckets + 1 entries with bucket_hint[num_buckets] == n.
struct PwlView {
  const double* x = nullptr;
  const double* price = nullptr;
  const double* dx = nullptr;
  const double* dprice = nullptr;
  const uint32_t* bucket_hint = nullptr;
  size_t n = 0;            // number of knots, >= 1
  size_t num_buckets = 0;  // >= 1
  double bucket_width = 0.0;
  double inv_bucket_width = 0.0;
};

// Lane count of a model block (Funcs::score_block): up to this many
// models are stored as the columns of a d x kBlockLanes row-major block,
// coefficient j of model t at block[j * kBlockLanes + t].
inline constexpr size_t kBlockLanes = 64;

// Primitive micro-kernels behind every dense linalg hot path (vector_ops,
// MatVec/MatTVec/MatMul/GramMatrix, sufficient-statistic builds). Two
// variants exist: a scalar reference path that is always compiled in, and
// an AVX2+FMA path compiled when the build enables MBP_ENABLE_AVX2 and
// selected at runtime via CPUID (see common/cpu_features.h). Dispatch is a
// table of function pointers so higher-level kernels pick the variant once
// per call, not per element.
//
// Determinism contract: each kernel commits to ONE fixed reduction order
// per variant, so a kernel's result depends only on its inputs and the
// selected SimdLevel — never on thread count, alignment of the call site,
// or how a caller partitions work:
//  - dot accumulates in a fixed 4-lane x 4-register pattern with a fixed
//    horizontal-reduction order (scalar tail added last);
//  - axpy / axpy4 / scale / gram4 are element-wise: within a variant,
//    output element i is one fixed expression of input element i (the
//    AVX2 variants fuse every multiply-add, std::fma in the tails), so
//    any range split a caller makes lands on the same per-element
//    operations and results are invariant to thread count and partition;
//  - score_block computes each (example, model) score as ONE chain over
//    the features in feature order, so a score depends only on its
//    example row and its model column — never on how many rows or models
//    share the call, or on the model's lane in the block.
// Across variants the fused multiply-adds round differently, so
// scalar-vs-SIMD results agree only to ~1e-15 relative error per
// operation; tests and benches gate this at 1e-10 end to end. Forcing
// SimdLevel::kScalar reproduces the pre-SIMD kernels bitwise.
struct Funcs {
  // Returns sum_i a[i] * b[i].
  double (*dot)(const double* a, const double* b, size_t n);
  // y[i] += alpha * x[i].
  void (*axpy)(double alpha, const double* x, double* y, size_t n);
  // x[i] *= alpha.
  void (*scale)(double alpha, double* x, size_t n);
  // y[i] += a0 x0[i] + a1 x1[i] + a2 x2[i] + a3 x3[i], accumulated per
  // element in exactly that order. The register-blocked update behind
  // MatMul, MatTVec, and GramMatrix: one pass over y for four source rows
  // (4x less write traffic than four successive axpy calls, and the same
  // per-element add sequence).
  void (*axpy4)(const double alpha[4], const double* x0, const double* x1,
                const double* x2, const double* x3, double* y, size_t n);
  // Gram-matrix block update: for each output row i in [i_begin, i_end),
  //   g[i * ld + j] += r0[i] r0[j] + r1[i] r1[j] + r2[i] r2[j] + r3[i] r3[j]
  // for j in [0, i] (lower-triangle prefix), accumulated per element in
  // exactly axpy4's term order with alpha[k] = rk[i]. Semantically the loop
  //   for i: axpy4({r0[i], r1[i], r2[i], r3[i]}, r0, r1, r2, r3, row i, i+1)
  // moved inside the dispatched call so the variant can amortize call and
  // broadcast overhead across the short triangle rows (the AVX2 variant
  // shares the streamed-example loads between adjacent output rows).
  void (*gram4)(const double* r0, const double* r1, const double* r2,
                const double* r3, double* g, size_t ld, size_t i_begin,
                size_t i_end);
  // Batched piecewise-linear curve evaluation: out[i] = price of the
  // curve at xs[i], the kernel behind PricingSnapshot::PriceAtBatch.
  // Per element this is the exact expression chain of
  // PricingSnapshot::PriceAt — every operation (the bucket-index
  // multiply, the comparisons, (x - x_lo) / dx_lo, price_lo + t * dprice_lo)
  // is a single IEEE rounding with no fused multiply-adds in EITHER
  // variant, so scalar and AVX2 results are BIT-IDENTICAL to each other
  // and to PriceAt, at every batch length and remainder (unlike the
  // FMA-fusing kernels above, which only agree to ~1e-15). Input policy,
  // identical across variants: x == 0 -> 0; 0 < x <= x[0] -> linear from
  // the origin; x >= x[n-1] -> price[n-1] (so +inf saturates to the max
  // price); NaN or negative x -> quiet NaN (PriceAt MBP_CHECKs instead;
  // the batch path must not let one bad query abort a serving process).
  void (*pwl_batch)(const PwlView& curve, const double* xs, double* out,
                    size_t count);
  // Margin scores of a tile of examples against a block of models, the
  // kernel behind ml::Loss::EvaluateBlock (the Monte-Carlo error sweep):
  //   scores[r * kBlockLanes + t] = x_r . h_t   for r < rows, t < k,
  // where x_r = x + r * ldx holds d features and model t is column t of
  // the d x kBlockLanes block h (k <= kBlockLanes). Each score is one
  // chain over j = 0..d-1 starting from 0: acc = acc + x_j * h_jt (plain
  // mul + add) in the scalar variant, acc = fma(x_j, h_jt, acc) in the
  // AVX2 one, whose lanes, register tiles and std::fma remainders all
  // round identically. So within a variant a score is the same whatever
  // rows, k, or lane position it is computed at — the Monte-Carlo sweep's
  // chunking and thread count cannot move it. The chain is not dot's
  // 4-accumulator split: a score agrees with dot(x_r, h_t) to rounding
  // (~1e-16 relative per term), not bitwise. Lanes >= k of `scores` are
  // not written.
  void (*score_block)(const double* x, size_t ldx, size_t rows, size_t d,
                      const double* h, size_t k, double* scores);
};

// The scalar reference table (bit-identical to the pre-SIMD kernels).
const Funcs& ScalarFuncs();

// The AVX2+FMA table, or nullptr when the binary was built without
// MBP_ENABLE_AVX2 or the executing CPU lacks AVX2/FMA.
const Funcs* Avx2Funcs();

// The table dispatch resolves to: Avx2Funcs() at SimdLevel::kAvx2Fma,
// ScalarFuncs() otherwise. Honors MBP_FORCE_SCALAR (via ActiveSimdLevel)
// and any ForceLevelForTesting override.
const Funcs& Active();

// The level Active() currently corresponds to.
SimdLevel ActiveLevel();

// Pins dispatch to `level` until reset with std::nullopt (which restores
// automatic selection). Returns false — leaving dispatch unchanged — when
// kAvx2Fma is requested but unavailable. For bench/test setup only; do not
// flip while kernels are executing on other threads.
bool ForceLevelForTesting(std::optional<SimdLevel> level);

}  // namespace mbp::linalg::kernels

#endif  // MBP_LINALG_KERNELS_H_
