// Concurrency stress tests for the serving subsystem: sellers republish
// (and withdraw) pricing curves while reader threads hammer the engine
// with point, budget, and batch queries. Run under ThreadSanitizer by
// scripts/tsan.sh (the suite names match its default filter).
//
// Correctness oracle: every published curve comes from a small fixed set
// of variants whose exact prices are precomputed, so readers can assert —
// bit for bit — that every served price belongs to SOME variant, without
// knowing which publish they raced.

#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/pricing_function.h"
#include "random/rng.h"
#include "serving/catalog_registry.h"
#include "serving/price_query_engine.h"

namespace mbp::serving {
namespace {

using core::PiecewiseLinearPricing;
using core::PricePoint;

// Variant k scales a fixed arbitrage-free shape by (k + 1): scaling
// preserves both certificate conditions.
PiecewiseLinearPricing MakeVariant(size_t k) {
  const double s = static_cast<double>(k + 1);
  return PiecewiseLinearPricing::Create({{1.0, 10.0 * s},
                                         {2.0, 18.0 * s},
                                         {4.0, 30.0 * s},
                                         {8.0, 40.0 * s}})
      .value();
}

TEST(ServingStressTest, RepublishUnderQueryLoad) {
  constexpr size_t kVariants = 4;
  constexpr size_t kPublishes = 400;
  constexpr size_t kReaders = 4;
  constexpr size_t kQueryPoints = 64;

  // Fixed query grid with every variant's exact price precomputed.
  std::vector<double> xs(kQueryPoints);
  for (size_t i = 0; i < kQueryPoints; ++i) {
    xs[i] = 10.0 * static_cast<double>(i + 1) /
            static_cast<double>(kQueryPoints);
  }
  std::vector<std::vector<double>> expected(kVariants);
  std::vector<PiecewiseLinearPricing> variants;
  for (size_t k = 0; k < kVariants; ++k) {
    variants.push_back(MakeVariant(k));
    expected[k].resize(kQueryPoints);
    for (size_t i = 0; i < kQueryPoints; ++i) {
      expected[k][i] = variants[k].PriceAtInverseNcp(xs[i]);
    }
  }

  CatalogRegistry registry;
  auto published = registry.Publish("stress", variants[0]);
  ASSERT_TRUE(published.ok());
  const CatalogRegistry::CurveSlot* slot = *published;
  PriceQueryEngine engine(&registry);

  std::atomic<bool> done{false};
  std::atomic<size_t> failures{0};

  std::thread writer([&] {
    for (size_t p = 1; p <= kPublishes; ++p) {
      if (!registry.Publish("stress", variants[p % kVariants]).ok()) {
        failures.fetch_add(1);
      }
      std::this_thread::yield();
    }
    done.store(true, std::memory_order_release);
  });

  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      random::Rng rng(1000 + r);
      std::vector<double> batch_out;
      std::vector<double> batch_xs(xs.begin(), xs.end());
      while (!done.load(std::memory_order_acquire)) {
        // Point query: the served price must be one variant's exact price.
        const size_t i = static_cast<size_t>(rng.NextBounded(kQueryPoints));
        const auto price = engine.Price(slot, xs[i]);
        if (!price.ok()) {
          failures.fetch_add(1);
          continue;
        }
        bool matched = false;
        for (size_t k = 0; k < kVariants; ++k) {
          if (price.value() == expected[k][i]) {
            matched = true;
            break;
          }
        }
        if (!matched) failures.fetch_add(1);

        // Budget query: inverting the answer must stay on some variant.
        const auto affordable = engine.BudgetToInverseNcp(slot, 15.0);
        if (!affordable.ok()) failures.fetch_add(1);

        // Batch query: one consistent snapshot for the whole batch.
        ParallelConfig parallel;
        parallel.num_threads = 2;
        batch_out.resize(batch_xs.size());
        if (!engine
                 .PriceBatch(slot, batch_xs.data(), batch_out.data(),
                             batch_xs.size(), parallel)
                 .ok()) {
          failures.fetch_add(1);
        } else {
          // The batch must come from ONE variant, not a mix.
          size_t matching_variant = kVariants;
          for (size_t k = 0; k < kVariants; ++k) {
            if (batch_out[0] == expected[k][0]) {
              matching_variant = k;
              break;
            }
          }
          if (matching_variant == kVariants) {
            failures.fetch_add(1);
          } else {
            for (size_t j = 0; j < batch_xs.size(); ++j) {
              if (batch_out[j] != expected[matching_variant][j]) {
                failures.fetch_add(1);
                break;
              }
            }
          }
        }
      }
    });
  }

  writer.join();
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(failures.load(), 0u);

  // Quiescent check: the last published variant is now served everywhere.
  const size_t last = kPublishes % kVariants;
  for (size_t i = 0; i < kQueryPoints; ++i) {
    EXPECT_EQ(engine.Price(slot, xs[i]).value(), expected[last][i]);
  }
}

TEST(ServingStressTest, WithdrawRepublishRace) {
  constexpr size_t kCycles = 300;
  CatalogRegistry registry;
  auto published = registry.Publish("flicker", MakeVariant(0));
  ASSERT_TRUE(published.ok());
  const CatalogRegistry::CurveSlot* slot = *published;
  PriceQueryEngine engine(&registry);
  const double expected_price = MakeVariant(0).PriceAtInverseNcp(3.0);

  std::atomic<bool> done{false};
  std::atomic<size_t> failures{0};

  std::thread writer([&] {
    for (size_t c = 0; c < kCycles; ++c) {
      if (!registry.Withdraw("flicker").ok()) failures.fetch_add(1);
      std::this_thread::yield();
      if (!registry.Publish("flicker", MakeVariant(0)).ok()) {
        failures.fetch_add(1);
      }
    }
    done.store(true, std::memory_order_release);
  });

  std::vector<std::thread> readers;
  for (size_t r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        const auto price = engine.Price(slot, 3.0);
        if (price.ok()) {
          // A served price is always the exact published price.
          if (price.value() != expected_price) failures.fetch_add(1);
        } else if (price.status().code() != StatusCode::kNotFound) {
          // Withdrawn windows must surface as NotFound, nothing else.
          failures.fetch_add(1);
        }
      }
    });
  }

  writer.join();
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(failures.load(), 0u);
}

TEST(ServingStressTest, ConcurrentFirstPublishOfDistinctIds) {
  constexpr size_t kThreads = 8;
  constexpr size_t kIdsPerThread = 50;
  CatalogRegistry registry;
  std::atomic<size_t> failures{0};

  std::vector<std::thread> writers;
  for (size_t t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (size_t i = 0; i < kIdsPerThread; ++i) {
        const std::string id =
            "curve-" + std::to_string(t) + "-" + std::to_string(i);
        if (!registry.Publish(id, MakeVariant(t % 4)).ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& writer : writers) writer.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(registry.size(), kThreads * kIdsPerThread);
  PriceQueryEngine engine(&registry);
  for (size_t t = 0; t < kThreads; ++t) {
    for (size_t i = 0; i < kIdsPerThread; ++i) {
      const std::string id =
          "curve-" + std::to_string(t) + "-" + std::to_string(i);
      ASSERT_TRUE(engine.Price(id, 2.0).ok()) << id;
    }
  }
}

}  // namespace
}  // namespace mbp::serving
