/// \file test_flit_sim_workload.cpp
/// \brief The "flit_sim" workload: one DES per injection rate on the
///        shared pool, so the table must not depend on how many threads
///        ran the rates or on whether the scenario itself ran nested
///        inside run_all.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "wi/sim/engine.hpp"
#include "wi/sim/registry.hpp"
#include "wi/sim/workload.hpp"
#include "wi/sim/workloads/flit_sim.hpp"

namespace wi::sim {
namespace {

/// The 8x8 campaign mesh on a short window, rates up to saturation.
ScenarioSpec small_flit(const std::string& name, std::uint64_t seed) {
  ScenarioSpec spec =
      ScenarioRegistry::paper().get("campaign_flit_mesh2d_8x8");
  spec.name = name;
  auto& flit = spec.payload<FlitSimSpec>();
  flit.injection_rates = {0.3, 0.05, 0.1, 0.0, 0.2};
  flit.warmup_cycles = 200;
  flit.measure_cycles = 800;
  flit.seed = seed;
  return spec;
}

Table run_with_threads(const ScenarioSpec& spec, std::size_t threads) {
  PhyCurveCache cache;
  WorkloadEnv env(cache, /*seed=*/0, threads);
  return WorkloadRegistry::global().get(spec.workload).run(spec, env);
}

TEST(FlitSimWorkload, RowsIdenticalAtEveryThreadCountInSpecOrder) {
  const ScenarioSpec spec = small_flit("flit_small", 5);
  const Table want = run_with_threads(spec, 1);
  const std::vector<std::string> rates = {"0.300", "0.050", "0.100",
                                          "0.000", "0.200"};
  ASSERT_EQ(want.rows(), rates.size());
  for (std::size_t i = 0; i < rates.size(); ++i) {
    EXPECT_EQ(want.row(i)[0], rates[i]) << "row " << i;
  }
  EXPECT_EQ(run_with_threads(spec, 4), want);
  EXPECT_EQ(run_with_threads(spec, 2), want);
}

TEST(FlitSimWorkload, NestedInRunAllMatchesASerialRun) {
  const std::vector<ScenarioSpec> specs = {small_flit("flit_a", 5),
                                           small_flit("flit_b", 6),
                                           small_flit("flit_c", 7)};
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
}

}  // namespace
}  // namespace wi::sim
