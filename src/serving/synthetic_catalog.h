#ifndef MBP_SERVING_SYNTHETIC_CATALOG_H_
#define MBP_SERVING_SYNTHETIC_CATALOG_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "common/status.h"
#include "core/pricing_function.h"
#include "serving/catalog_registry.h"

namespace mbp::serving {

// Deterministic synthetic marketplace catalog: curve i is a pure function
// of (spec, i), so every process that agrees on the spec compiles the
// bit-identical catalog — the property the multi-process fleet leans on
// (bench_net's bit-identity gate compares fleet answers against a local
// registry built from the same spec, and every shard of a replicated fleet
// serves the same curve for the same id).
//
// Curves are scaled sqrt shapes (concave increasing through the origin
// region, hence arbitrage-free like bench_net's dense curve) with
// per-curve randomized knot count in [min_knots, max_knots], knot spacing,
// and price scale, seeded by spec.seed ^ index.
struct SyntheticCatalogSpec {
  size_t num_curves = 1;
  size_t min_knots = 8;
  size_t max_knots = 128;
  uint64_t seed = 7;
};

// Shape parameters of curve `index` under `spec`.
struct SyntheticCurveParams {
  size_t knots = 0;
  double dx = 0.0;     // knot spacing
  double scale = 0.0;  // price multiplier
};
SyntheticCurveParams SyntheticCurveParamsFor(const SyntheticCatalogSpec& spec,
                                             size_t index);

// Canonical listing id of curve `index`: "curve-%08zu". Fixed width so
// ids sort lexicographically by index and all have equal wire size.
std::string SyntheticCurveId(size_t index);

// Largest knot x of curve `index` — the natural query-range upper bound.
double SyntheticCurveXMax(const SyntheticCatalogSpec& spec, size_t index);

core::PiecewiseLinearPricing MakeSyntheticCurve(
    const SyntheticCatalogSpec& spec, size_t index);

// Publishes curves [0, spec.num_curves) into `registry`. When `owns` is
// non-null only indices it accepts are published — the hook a
// ring-partitioned shard uses to compile just its share of the catalog.
Status PublishSyntheticCatalog(
    const SyntheticCatalogSpec& spec, CatalogRegistry* registry,
    const std::function<bool(size_t)>& owns = nullptr);

}  // namespace mbp::serving

#endif  // MBP_SERVING_SYNTHETIC_CATALOG_H_
