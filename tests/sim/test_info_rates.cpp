/// \file test_info_rates.cpp
/// \brief The "info_rates" workload (Fig. 6): its SNR rows run on the
///        shared pool, so the table must not depend on how many threads
///        ran them or on whether the scenario itself ran nested inside
///        run_all.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "wi/sim/engine.hpp"
#include "wi/sim/registry.hpp"
#include "wi/sim/workload.hpp"
#include "wi/sim/workloads/info_rates.hpp"

namespace wi::sim {
namespace {

/// Fig. 6 on a short Monte-Carlo: nine SNR rows.
ScenarioSpec small_fig06(const std::string& name, std::uint64_t seed) {
  ScenarioSpec spec = ScenarioRegistry::paper().get("fig06_info_rates");
  spec.name = name;
  auto& ir = spec.payload<InfoRateSpec>();
  ir.mc_symbols = 3000;
  ir.mc_seed = seed;
  return spec;
}

Table run_with_threads(const ScenarioSpec& spec, std::size_t threads) {
  PhyCurveCache cache;
  WorkloadEnv env(cache, /*seed=*/0, threads);
  return WorkloadRegistry::global().get(spec.workload).run(spec, env);
}

TEST(InfoRates, RowsIdenticalAtEveryThreadCountInSpecOrder) {
  const ScenarioSpec spec = small_fig06("fig06_small", 17);
  const Table want = run_with_threads(spec, 1);
  ASSERT_EQ(want.rows(), 9u);
  for (std::size_t i = 0; i < want.rows(); ++i) {
    EXPECT_EQ(want.row(i)[0], Table::num(-5.0 + 5.0 * i, 1)) << "row " << i;
  }
  EXPECT_EQ(run_with_threads(spec, 4), want);
  EXPECT_EQ(run_with_threads(spec, 3), want);
}

TEST(InfoRates, NestedInRunAllMatchesASerialRun) {
  const std::vector<ScenarioSpec> specs = {small_fig06("fig06_a", 17),
                                           small_fig06("fig06_b", 99)};
  SimEngine serial(EngineOptions{1});
  SimEngine parallel(EngineOptions{4});
  const std::vector<RunResult> all = parallel.run_all(specs, 4);
  ASSERT_EQ(all.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const RunResult want = serial.run(specs[i]);
    ASSERT_TRUE(want.ok()) << want.status.to_string();
    ASSERT_TRUE(all[i].ok()) << all[i].status.to_string();
    EXPECT_EQ(all[i].table, want.table) << specs[i].name;
    EXPECT_EQ(all[i].notes, want.notes) << specs[i].name;
  }
  // Different Monte-Carlo seeds, different sequence-rate cells.
  EXPECT_NE(all[0].table, all[1].table);
}

}  // namespace
}  // namespace wi::sim
