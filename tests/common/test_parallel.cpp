#include "wi/common/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

namespace wi {
namespace {

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

}  // namespace
}  // namespace wi
