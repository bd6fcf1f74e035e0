// Concurrency stress tests for the serving subsystem: sellers republish
// (and withdraw) pricing curves while reader threads resolve the slot's
// snapshot and run point, budget, and batch queries on it, exactly as
// the net server does per request. Run under ThreadSanitizer by
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
#include "serving/pricing_snapshot.h"

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
  std::vector<double> expected_budget_x(kVariants);
  std::vector<PiecewiseLinearPricing> variants;
  for (size_t k = 0; k < kVariants; ++k) {
    variants.push_back(MakeVariant(k));
    expected_budget_x[k] = variants[k].MaxInverseNcpForBudget(15.0);
    expected[k].resize(kQueryPoints);
    for (size_t i = 0; i < kQueryPoints; ++i) {
      expected[k][i] = variants[k].PriceAtInverseNcp(xs[i]);
    }
  }

  CatalogRegistry registry;
  auto published = registry.Publish("stress", variants[0]);
  ASSERT_TRUE(published.ok());
  const CatalogRegistry::CurveSlot* slot = *published;

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
        const auto snapshot = slot->Load();
        if (snapshot == nullptr) {
          failures.fetch_add(1);
          continue;
        }
        bool matched = false;
        for (size_t k = 0; k < kVariants; ++k) {
          if (snapshot->PriceAt(xs[i]) == expected[k][i]) {
            matched = true;
            break;
          }
        }
        if (!matched) failures.fetch_add(1);

        // Budget query: the fixed budget inverts on some variant.
        const double affordable = slot->Load()->BudgetToInverseNcp(15.0);
        bool inverted = false;
        for (size_t k = 0; k < kVariants; ++k) {
          inverted = inverted || affordable == expected_budget_x[k];
        }
        if (!inverted) failures.fetch_add(1);

        // Batch query: one consistent snapshot for the whole batch.
        batch_out.resize(batch_xs.size());
        const auto batch_snapshot = slot->Load();
        if (batch_snapshot == nullptr) {
          failures.fetch_add(1);
        } else {
          batch_snapshot->PriceAtBatch(batch_xs.data(), batch_out.data(),
                                       batch_xs.size());
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
  const auto snapshot = slot->Load();
  ASSERT_NE(snapshot, nullptr);
  for (size_t i = 0; i < kQueryPoints; ++i) {
    EXPECT_EQ(snapshot->PriceAt(xs[i]), expected[last][i]);
  }
}

TEST(ServingStressTest, WithdrawRepublishRace) {
  constexpr size_t kCycles = 300;
  CatalogRegistry registry;
  auto published = registry.Publish("flicker", MakeVariant(0));
  ASSERT_TRUE(published.ok());
  const CatalogRegistry::CurveSlot* slot = *published;
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
        // A withdrawn window loads no snapshot (the server's kNotFound);
        // a loaded one always serves the exact published price.
        const auto snapshot = slot->Load();
        if (snapshot != nullptr && snapshot->PriceAt(3.0) != expected_price) {
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
  for (size_t t = 0; t < kThreads; ++t) {
    for (size_t i = 0; i < kIdsPerThread; ++i) {
      const std::string id =
          "curve-" + std::to_string(t) + "-" + std::to_string(i);
      const CatalogRegistry::CurveSlot* slot = registry.Find(id);
      ASSERT_NE(slot, nullptr) << id;
      const auto snapshot = slot->Load();
      ASSERT_NE(snapshot, nullptr) << id;
      EXPECT_EQ(snapshot->PriceAt(2.0),
                MakeVariant(t % 4).PriceAtInverseNcp(2.0))
          << id;
    }
  }
}

}  // namespace
}  // namespace mbp::serving
