#include "wi/common/parallel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <iterator>
#include <latch>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace wi {
namespace {

std::size_t live_threads() {
  const std::filesystem::directory_iterator tasks("/proc/self/task");
  return static_cast<std::size_t>(
      std::distance(begin(tasks), end(tasks)));
}

/// The pool holds one helper per hardware thread besides the caller.
std::size_t pool_size() {
  return std::max(1u, std::thread::hardware_concurrency()) - 1;
}

// First in this file, so that it runs before any other test has started
// the pool: single-worker calls run inline and start nothing.
TEST(ParallelFor, SingleWorkerCallsStartNoThread) {
  const std::size_t before = live_threads();
  std::size_t sum = 0;
  parallel_for(100, 1, [&](std::size_t i) { sum += i; });
  parallel_for(1, 4, [&](std::size_t i) { sum += i; });
  parallel_for(0, 4, [&](std::size_t i) { sum += i; });
  EXPECT_EQ(sum, 4950u);
  EXPECT_EQ(live_threads(), before);
}

TEST(ParallelFor, RunsEveryIndexExactlyOnce) {
  for (const std::size_t threads : {0, 1, 2, 4, 16}) {
    std::vector<std::atomic<int>> hits(37);
    parallel_for(hits.size(), threads, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << ", threads " << threads;
    }
  }
}

TEST(ParallelFor, EmptyRangeCallsNothing) {
  bool called = false;
  parallel_for(0, 4, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, RethrowsTheLowestFailingIndexOnTheCaller) {
  // Every index from 5 on throws its own message. Whatever the worker
  // interleaving, the caller sees index 5's, as a serial loop would.
  for (const std::size_t threads : {1, 2, 4, 8}) {
    for (int trial = 0; trial < 20; ++trial) {
      try {
        parallel_for(64, threads, [](std::size_t i) {
          if (i >= 5) throw std::runtime_error("task " + std::to_string(i));
        });
        FAIL() << "expected an exception";
      } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "task 5") << "threads " << threads;
      }
    }
  }
}

TEST(ParallelFor, StopsHandingOutWorkAfterAFailure) {
  std::atomic<std::size_t> ran{0};
  EXPECT_THROW(parallel_for(100000, 4,
                            [&](std::size_t i) {
                              ++ran;
                              if (i == 0) throw std::logic_error("first");
                            }),
               std::logic_error);
  EXPECT_LT(ran.load(), 100000u);
}

TEST(ParallelFor, NestedCallsShareOnePool) {
  // Depth 3, every level asking for more workers than the machine has.
  const std::size_t before = live_threads();
  std::mutex ids_mutex;
  std::set<std::thread::id> ids;
  std::vector<std::atomic<int>> hits(6 * 5 * 7);
  std::atomic<std::size_t> peak{0};
  parallel_for(6, 8, [&](std::size_t a) {
    parallel_for(5, 8, [&](std::size_t b) {
      parallel_for(7, 8, [&](std::size_t c) {
        ++hits[(a * 5 + b) * 7 + c];
        const std::size_t live = live_threads();
        std::size_t seen = peak.load();
        while (live > seen && !peak.compare_exchange_weak(seen, live)) {
        }
        const std::lock_guard<std::mutex> lock(ids_mutex);
        ids.insert(std::this_thread::get_id());
      });
    });
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "leaf " << i;
  }
  EXPECT_LE(ids.size(), pool_size() + 1);
  // The pool may have started here, but nothing else did.
  EXPECT_LE(peak.load(), std::max(before, 1 + pool_size()));
  EXPECT_LE(live_threads(), std::max(before, 1 + pool_size()));
}

TEST(ParallelFor, NestedThrowRethrowsTheLowestFailingIndex) {
  // Outer tasks from 3 on run an inner batch whose tasks from 5 on
  // throw; a serial nest would stop at outer 3, inner 5.
  for (int trial = 0; trial < 10; ++trial) {
    try {
      parallel_for(16, 4, [](std::size_t i) {
        parallel_for(32, 4, [i](std::size_t j) {
          if (i >= 3 && j >= 5) {
            throw std::runtime_error(std::to_string(i) + "/" +
                                     std::to_string(j));
          }
        });
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "3/5");
    }
  }
}

TEST(ParallelFor, NestedCallFinishesWhileEveryHelperIsBlocked) {
  // Every helper holds an outer task blocked on a latch that only the
  // caller's nested call releases, once all its tasks have run. The
  // nested call therefore gets no helper and must run every index on
  // its own caller.
  const std::size_t helpers = pool_size();
  const std::thread::id caller = std::this_thread::get_id();
  constexpr std::ptrdiff_t kInner = 64;
  std::latch inner_done(kInner);
  std::atomic<std::size_t> blocked{0};
  std::atomic<std::size_t> inner_ran{0};
  parallel_for(helpers + 1, helpers + 1, [&](std::size_t) {
    if (std::this_thread::get_id() != caller) {
      ++blocked;
      inner_done.wait();
      return;
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (blocked.load() < helpers &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    EXPECT_EQ(blocked.load(), helpers);
    parallel_for(kInner, helpers + 1, [&](std::size_t) {
      ++inner_ran;
      inner_done.count_down();
    });
  });
  EXPECT_EQ(inner_ran.load(), static_cast<std::size_t>(kInner));
}

}  // namespace
}  // namespace wi
