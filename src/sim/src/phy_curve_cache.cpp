#include "wi/sim/phy_curve_cache.hpp"

namespace wi::sim {

PhyCurveCache::CurvePtr PhyCurveCache::get(const PhyCurveKey& key,
                                            std::size_t threads) {
  std::promise<CurvePtr> promise;
  std::shared_future<CurvePtr> future;
  bool builder = false;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const Entry& entry : entries_) {
      if (entry.key == key) {
        ++hits_;
        future = entry.curve;
        break;
      }
    }
    if (!future.valid()) {
      ++misses_;
      future = promise.get_future().share();
      entries_.push_back({key, future});
      builder = true;
    }
  }
  if (builder) {
    // Build outside the lock: curve construction is the slow part and
    // must not serialise builds of other keys.
    try {
      promise.set_value(std::make_shared<const core::PhyAbstraction>(
          key.receiver, key.bandwidth_hz, key.polarizations, threads));
    } catch (...) {
      // Evict before publishing the failure: current waiters see the
      // exception, but later requests rebuild instead of rethrowing a
      // stale (possibly transient) error forever.
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        for (std::size_t i = 0; i < entries_.size(); ++i) {
          if (entries_[i].key == key) {
            entries_.erase(entries_.begin() +
                           static_cast<std::ptrdiff_t>(i));
            break;
          }
        }
      }
      promise.set_exception(std::current_exception());
    }
  }
  return future.get();
}

std::size_t PhyCurveCache::hits() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

std::size_t PhyCurveCache::misses() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

std::size_t PhyCurveCache::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

}  // namespace wi::sim
