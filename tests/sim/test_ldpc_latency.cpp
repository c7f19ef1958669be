/// \file test_ldpc_latency.cpp
/// \brief The "ldpc_latency" workload (Fig. 10): its rows and their
///        codeword batches run on the shared pool, so tables must not
///        depend on where or how many threads ran them; hostile specs
///        must fail with a Status.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "wi/sim/engine.hpp"
#include "wi/sim/registry.hpp"
#include "wi/sim/workloads/ldpc_latency.hpp"

namespace wi::sim {
namespace {

/// Fig. 10 shape on a small Monte-Carlo budget: two LDPC-CC curves of
/// unequal cost and three LDPC-BC points.
ScenarioSpec small_fig10() {
  ScenarioSpec spec = ScenarioRegistry::paper().get("fig10_ldpc_latency");
  spec.name = "fig10_small";
  auto& l = spec.payload<LdpcLatencySpec>();
  l.target_ber = 1e-3;
  l.min_errors = 10;
  l.max_codewords = 12;
  l.termination = 8;
  l.cc_curves = {{25, 3, 5}, {40, 3, 4}};
  l.bc_liftings = {100, 150, 60};
  l.search_lo_db = 2.0;
  l.search_hi_db = 4.0;
  l.search_step_db = 0.5;
  return spec;
}

TEST(LdpcLatency, TablesIdenticalAtEveryThreadCountInSpecOrder) {
  const ScenarioSpec spec = small_fig10();
  SimEngine serial(EngineOptions{1});
  const RunResult want = serial.run(spec);
  ASSERT_TRUE(want.ok()) << want.status.to_string();

  // Rows come out in spec order: CC curves by W, then the BC points.
  const std::vector<std::vector<std::string>> keys = {
      {"LDPC-CC", "25", "3"}, {"LDPC-CC", "25", "4"}, {"LDPC-CC", "25", "5"},
      {"LDPC-CC", "40", "3"}, {"LDPC-CC", "40", "4"}, {"LDPC-BC", "100", "-"},
      {"LDPC-BC", "150", "-"}, {"LDPC-BC", "60", "-"}};
  ASSERT_EQ(want.table.rows(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const auto& row = want.table.row(i);
    EXPECT_EQ(std::vector<std::string>(row.begin(), row.begin() + 3),
              keys[i])
        << "row " << i;
  }

  SimEngine parallel(EngineOptions{4});
  const RunResult got = parallel.run(spec);
  ASSERT_TRUE(got.ok()) << got.status.to_string();
  EXPECT_EQ(got.table, want.table);
  EXPECT_EQ(got.notes, want.notes);

  // Nested in run_all's tasks the rows share the same pool; same cells.
  ScenarioSpec other = spec;
  other.name = "fig10_small_bc";
  other.payload<LdpcLatencySpec>().cc_curves.clear();
  const std::vector<RunResult> all = parallel.run_all({spec, other}, 4);
  ASSERT_EQ(all.size(), 2u);
  ASSERT_TRUE(all[0].ok()) << all[0].status.to_string();
  EXPECT_EQ(all[0].table, want.table);
  ASSERT_TRUE(all[1].ok()) << all[1].status.to_string();
  ASSERT_EQ(all[1].table.rows(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(all[1].table.row(i), want.table.row(5 + i)) << "row " << i;
  }
}

TEST(LdpcLatency, RejectsWindowsOutsideTheDecoderRange) {
  SimEngine engine(EngineOptions{4});
  ScenarioSpec spec = small_fig10();
  // mcc = 2 for the paper's edge spreading: W = 2 cannot see the blocks
  // the target block's checks reach back to.
  spec.payload<LdpcLatencySpec>().cc_curves = {{25, 2, 4}};
  RunResult result = engine.run(spec);
  EXPECT_EQ(result.status.code(), StatusCode::kInvalidSpec)
      << result.status.to_string();
  EXPECT_NE(result.status.message().find("mcc + 1"), std::string::npos);
  EXPECT_EQ(result.table.rows(), 0u);

  // A window past the termination would be the full code reported
  // under a larger latency (and an unbounded window_hi never ends).
  spec.payload<LdpcLatencySpec>().cc_curves = {{25, 3, 9}};
  result = engine.run(spec);
  EXPECT_EQ(result.status.code(), StatusCode::kInvalidSpec);
}

TEST(LdpcLatency, RejectsIterationCountsBeyondInt) {
  SimEngine engine(EngineOptions{4});
  ScenarioSpec spec = small_fig10();
  // 2^32 + 1 used to narrow to one BP iteration and print a censored row.
  spec.payload<LdpcLatencySpec>().max_bp_iterations = 4294967297u;
  const RunResult result = engine.run(spec);
  EXPECT_EQ(result.status.code(), StatusCode::kInvalidSpec)
      << result.status.to_string();
  EXPECT_EQ(result.table.rows(), 0u);
}

TEST(LdpcLatency, RowFailureOnAWorkerBecomesAStatus) {
  // A lifting of 2 cannot hold the base matrix's four distinct circulant
  // shifts; the code build throws inside a row task on the pool.
  SimEngine engine(EngineOptions{4});
  ScenarioSpec spec = small_fig10();
  spec.payload<LdpcLatencySpec>().bc_liftings = {100, 2, 150};
  const RunResult result = engine.run(spec);
  EXPECT_EQ(result.status.code(), StatusCode::kExecutionError);
  EXPECT_NE(result.status.message().find("lifting too small"),
            std::string::npos)
      << result.status.to_string();
  EXPECT_EQ(result.table.rows(), 0u);
}

}  // namespace
}  // namespace wi::sim
