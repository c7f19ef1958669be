#include "wi/sim/phy_curve_cache.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "wi/common/math.hpp"

namespace wi::sim {
namespace {

using core::PhyAbstraction;
using core::PhyReceiver;

TEST(PhyCurveCache, HitMissAccounting) {
  PhyCurveCache cache;
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);

  const auto a = cache.get({PhyReceiver::kUnquantized}, 0);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.size(), 1u);

  const auto b = cache.get({PhyReceiver::kUnquantized}, 0);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  // Cache hit returns the identical curve instance.
  EXPECT_EQ(a.get(), b.get());

  // A different key is its own entry.
  const auto c = cache.get({PhyReceiver::kUnquantized, 25e9, 1}, 0);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_NE(a.get(), c.get());
}

TEST(PhyCurveCache, CachedCurveBitwiseEqualsFreshBuild) {
  PhyCurveCache cache;
  const auto cached = cache.get({PhyReceiver::kUnquantized, 25e9, 2}, 0);
  const PhyAbstraction fresh(PhyReceiver::kUnquantized, 25e9, 2);
  for (const double snr : linspace(-10.0, 40.0, 101)) {
    // Bitwise equality: the cache must not perturb the curve.
    EXPECT_EQ(cached->info_rate_bpcu(snr), fresh.info_rate_bpcu(snr))
        << "snr " << snr;
    EXPECT_EQ(cached->link_rate_gbps(snr), fresh.link_rate_gbps(snr));
  }
  for (const double target : {1.0, 20.0, 60.0, 99.0}) {
    EXPECT_EQ(cached->required_snr_db(target), fresh.required_snr_db(target));
  }
}

TEST(PhyCurveCache, ConcurrentGetsShareOneBuild) {
  PhyCurveCache cache;
  std::vector<PhyCurveCache::CurvePtr> results(8);
  std::vector<std::thread> threads;
  threads.reserve(results.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    threads.emplace_back([&cache, &results, i] {
      results[i] = cache.get({PhyReceiver::kUnquantized}, 0);
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& r : results) {
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r.get(), results[0].get());
  }
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), results.size() - 1);
  EXPECT_EQ(cache.size(), 1u);
}

// --- PhyAbstraction::required_snr_db edge cases (satellite coverage) ---

TEST(PhyAbstractionEdges, TargetAboveCeilingIsInfinite) {
  const PhyAbstraction phy(PhyReceiver::kUnquantized);
  // 2 bpcu * 25 GHz * 2 pol = 100 Gbit/s ceiling; far beyond -> +inf.
  const double snr = phy.required_snr_db(500.0);
  EXPECT_TRUE(std::isinf(snr));
  EXPECT_GT(snr, 0.0);
}

TEST(PhyAbstractionEdges, TinyTargetClampsAtGridStart) {
  const PhyAbstraction phy(PhyReceiver::kUnquantized);
  // Targets at or below the curve floor clamp to the first grid SNR
  // (-5 dB) instead of extrapolating below the tabulated range.
  EXPECT_DOUBLE_EQ(phy.required_snr_db(0.0), -5.0);
  EXPECT_DOUBLE_EQ(phy.required_snr_db(1e-12), -5.0);
}

TEST(PhyAbstractionEdges, CeilingTargetStaysWithinGrid) {
  const PhyAbstraction phy(PhyReceiver::kUnquantized);
  // A target exactly at the achievable ceiling must return a finite SNR
  // no larger than the grid end (35 dB).
  const double ceiling_gbps = phy.link_rate_gbps(35.0);
  const double snr = phy.required_snr_db(ceiling_gbps);
  EXPECT_FALSE(std::isinf(snr));
  EXPECT_LE(snr, 35.0 + 1e-12);
}

TEST(PhyAbstractionEdges, RequiredSnrMonotoneInTarget) {
  const PhyAbstraction phy(PhyReceiver::kUnquantized);
  double prev = -1e9;
  for (const double target : linspace(1.0, 99.0, 25)) {
    const double snr = phy.required_snr_db(target);
    EXPECT_GE(snr, prev - 1e-12) << "target " << target;
    prev = snr;
  }
}

}  // namespace
}  // namespace wi::sim
