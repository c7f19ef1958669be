/// fault_sweep workload tests: registry scenarios validate, the
/// baseline (zero-rate) row shows no degradation and equals a
/// fault-free DES run, heavier rates kill entities, the payload
/// survives the JSON codec, runs are deterministic, and a campaign over
/// the sweep is bit-identical at 1 and 4 threads — the property the
/// committed statistical golden assumes.

#include "wi/sim/workloads/fault_sweep.hpp"

#include <gtest/gtest.h>

#include <string>

#include "wi/noc/flit_sim.hpp"
#include "wi/sim/campaign.hpp"
#include "wi/sim/engine.hpp"
#include "wi/sim/registry.hpp"
#include "wi/sim/scenario_json.hpp"
#include "wi/sim/workload.hpp"

namespace wi::sim {
namespace {

/// Small, fast sweep: 4x4 mesh, short windows, two rates (clean
/// baseline + heavy failures).
[[nodiscard]] ScenarioSpec small_sweep() {
  ScenarioSpec spec;
  spec.name = "fault_sweep_test";
  spec.workload = "fault_sweep";
  spec.noc.topology.kind = TopologySpec::Kind::kMesh2d;
  spec.noc.topology.kx = 4;
  spec.noc.topology.ky = 4;
  auto& sweep = spec.payload<FaultSweepSpec>();
  sweep.fail_rates = {0.0, 0.3};
  sweep.warmup_cycles = 100;
  sweep.measure_cycles = 400;
  sweep.drain_cycles = 1000;
  return spec;
}

TEST(FaultSweep, RegistryScenariosExistAndValidate) {
  const auto& registry = ScenarioRegistry::paper();
  for (const std::string name :
       {"fault_sweep_mesh2d_8x8", "fault_sweep_star_mesh_4x4c4",
        "campaign_fault_mesh2d_8x8"}) {
    ASSERT_TRUE(registry.contains(name)) << name;
    const ScenarioSpec spec = registry.get(name);
    EXPECT_EQ(spec.workload, "fault_sweep") << name;
    EXPECT_TRUE(spec.validate().is_ok()) << name;
  }
}

TEST(FaultSweep, ValidationCatchesBadRatesAndWindows) {
  ScenarioSpec spec = small_sweep();
  spec.payload<FaultSweepSpec>().fail_rates = {0.5, 1.5};
  EXPECT_EQ(spec.validate().code(), StatusCode::kInvalidSpec);
  spec = small_sweep();
  spec.payload<FaultSweepSpec>().injection_rate = 1.0;
  EXPECT_EQ(spec.validate().code(), StatusCode::kInvalidSpec);
  spec = small_sweep();
  spec.payload<FaultSweepSpec>().fault.window_begin = 0.9;
  spec.payload<FaultSweepSpec>().fault.window_end = 0.1;
  EXPECT_EQ(spec.validate().code(), StatusCode::kInvalidSpec);
}

TEST(FaultSweep, PayloadSurvivesTheJsonCodec) {
  ScenarioSpec spec = small_sweep();
  auto& sweep = spec.payload<FaultSweepSpec>();
  sweep.router_fail_fraction = 0.5;
  sweep.fault.seed = 99;
  sweep.fault.window_begin = 0.1;
  sweep.fault.window_end = 0.4;
  const std::string text = scenario_to_string(spec);
  const ScenarioSpec decoded = scenario_from_string(text);
  const auto& round = decoded.payload<FaultSweepSpec>();
  EXPECT_EQ(round.fail_rates, sweep.fail_rates);
  EXPECT_DOUBLE_EQ(round.router_fail_fraction, 0.5);
  EXPECT_EQ(round.fault.seed, 99u);
  EXPECT_DOUBLE_EQ(round.fault.window_begin, 0.1);
  EXPECT_DOUBLE_EQ(round.fault.window_end, 0.4);
  // Canonical text is a fixed point — the store key is stable.
  EXPECT_EQ(scenario_to_string(decoded), text);
}

TEST(FaultSweep, BaselineRowIsCleanAndHeavyRowDegrades) {
  SimEngine engine;
  const RunResult result = engine.run(small_sweep());
  ASSERT_TRUE(result.ok()) << result.status.to_string();
  const Table& table = result.table;
  ASSERT_EQ(table.headers(), workload_headers("fault_sweep"));
  ASSERT_EQ(table.rows(), 2u);

  // Row 0: zero failure rate — nothing dies, nothing degrades; the
  // sweep's own baseline run and the zero-rate row must agree exactly.
  EXPECT_EQ(table.cell(0, 1), "0");  // dead_links
  EXPECT_EQ(table.cell(0, 2), "0");  // dead_routers
  EXPECT_EQ(std::stod(table.cell(0, 8)), 0.0) << "thr_degraded";
  EXPECT_EQ(table.cell(0, 9), "ok");

  // Row 1: a 30% link rate on a 4x4 mesh kills entities with near
  // certainty and throughput drops (or at minimum cannot improve).
  EXPECT_GT(std::stoll(table.cell(1, 1)) + std::stoll(table.cell(1, 2)),
            0);
  EXPECT_GE(std::stod(table.cell(1, 8)), 0.0);
}

TEST(FaultSweep, ZeroRateRowIsTheFaultFreeRun) {
  // The zero-rate schedule is empty, so its row reuses the baseline run:
  // it must read exactly what a fault-free DES call gives.
  const ScenarioSpec spec = small_sweep();
  const auto& sweep = spec.payload<FaultSweepSpec>();
  const noc::Topology topology = spec.noc.topology.build();
  const auto clean = noc::simulate_network(
      topology, *spec.noc.build_routing(),
      spec.noc.build_traffic(topology.module_count()), sweep.injection_rate,
      spec.noc.des_config({sweep.warmup_cycles, sweep.measure_cycles,
                           sweep.drain_cycles, sweep.buffer_depth,
                           sweep.seed}));
  SimEngine engine;
  const RunResult result = engine.run(spec);
  ASSERT_TRUE(result.ok()) << result.status.to_string();
  const Table& table = result.table;
  EXPECT_EQ(table.cell(0, 3), Table::num(clean.mean_latency_cycles, 4));
  EXPECT_EQ(table.cell(0, 4), Table::num(clean.delivered_per_cycle, 5));
  EXPECT_EQ(table.cell(0, 5),
            Table::num(static_cast<long long>(clean.delivered)));
  EXPECT_EQ(table.cell(0, 8), Table::num(0.0, 4)) << "thr_degraded";
}

TEST(FaultSweep, RunsAreDeterministic) {
  SimEngine engine;
  const RunResult first = engine.run(small_sweep());
  const RunResult second = engine.run(small_sweep());
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.table, second.table);
  EXPECT_EQ(first.notes, second.notes);
}

TEST(FaultSweep, ApplySeedReseedsTrafficAndFaultsTogether) {
  const ScenarioSpec replica = scenario_for_seed(small_sweep(), 31);
  const auto& sweep = replica.payload<FaultSweepSpec>();
  EXPECT_EQ(sweep.seed, 31u);
  EXPECT_EQ(sweep.fault.seed, 31u);
}

TEST(FaultSweep, CampaignIsBitIdenticalAcrossThreadCounts) {
  CampaignSpec campaign;
  campaign.name = "fault_sweep_threads";
  campaign.seeds = 3;
  campaign.base_seed = 5;
  campaign.scenario = small_sweep();

  SimEngine engine;
  const Campaign runner(campaign);
  const CampaignResult serial = runner.run(engine, nullptr, 1);
  const CampaignResult parallel = runner.run(engine, nullptr, 4);
  ASSERT_TRUE(serial.ok()) << serial.status.to_string();
  ASSERT_TRUE(parallel.ok()) << parallel.status.to_string();

  EXPECT_EQ(serial.aggregate, parallel.aggregate)
      << "the aggregate must not depend on the thread count";
  ASSERT_EQ(serial.per_seed.size(), parallel.per_seed.size());
  for (std::size_t i = 0; i < serial.per_seed.size(); ++i) {
    EXPECT_EQ(serial.per_seed[i].table, parallel.per_seed[i].table)
        << "replica " << i;
  }
}

}  // namespace
}  // namespace wi::sim
