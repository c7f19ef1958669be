#pragma once
/// \file phy_curve_cache.hpp
/// \brief Memoized PhyAbstraction curves shared across scenario runs.
///
/// Building a 1-bit receiver curve runs a Monte-Carlo information-rate
/// estimate per SNR grid point (~10^5 symbol simulations), so before
/// this cache every bench paid that cost again for the same receiver
/// configuration. The cache is keyed by (receiver, bandwidth,
/// polarizations), thread-safe, and deduplicates concurrent builds of
/// the same key so a parallel sweep builds each curve exactly once.

#include <cstddef>
#include <future>
#include <memory>
#include <mutex>
#include <vector>

#include "wi/core/phy_abstraction.hpp"

namespace wi::sim {

/// Cache key: the full identity of one PhyAbstraction curve.
struct PhyCurveKey {
  core::PhyReceiver receiver = core::PhyReceiver::kOneBitSequence;
  double bandwidth_hz = 25e9;
  std::size_t polarizations = 2;
  [[nodiscard]] bool operator==(const PhyCurveKey&) const = default;
};

/// Thread-safe build-once cache of PHY rate curves.
class PhyCurveCache {
 public:
  using CurvePtr = std::shared_ptr<const core::PhyAbstraction>;

  /// Curve for a key; builds on first use, returns the shared instance
  /// afterwards. Blocks (without holding the lock) when another thread
  /// is currently building the same key. A build runs its SNR grid on up
  /// to `threads` workers of the shared pool (0 = one per hardware
  /// thread; bit-identical at any value); runners pass env.threads().
  [[nodiscard]] CurvePtr get(const PhyCurveKey& key, std::size_t threads);

  /// Lookup statistics (hits = requests served from the cache).
  [[nodiscard]] std::size_t hits() const;
  [[nodiscard]] std::size_t misses() const;
  [[nodiscard]] std::size_t size() const;

 private:
  struct Entry {
    PhyCurveKey key;
    std::shared_future<CurvePtr> curve;
  };

  mutable std::mutex mutex_;
  std::vector<Entry> entries_;  // few receiver configs: linear scan
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
};

}  // namespace wi::sim
