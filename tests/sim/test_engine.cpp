#include "wi/sim/engine.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "wi/sim/registry.hpp"
#include "wi/sim/workloads/hybrid_system.hpp"

namespace wi::sim {
namespace {

TEST(Registry, PaperScenariosAreComplete) {
  const auto& registry = ScenarioRegistry::paper();
  EXPECT_GE(registry.size(), 10u);
  for (const std::string name :
       {"table1_link_budget", "fig01_pathloss", "fig04_tx_power",
        "quickstart_link_rate", "board_links_plan", "fig08a_mesh2d_8x8",
        "fig08a_star_mesh_4x4c4", "fig08a_mesh3d_4x4x4",
        "fig08b_mesh2d_32x16", "fig08b_mesh3d_8x8x8",
        "ablation_star_mesh_irl", "ablation_vertical_links",
        "ablation_hybrid_system", "fig10_coding_plan",
        "fig08b_ref_mesh2d_8x8", "fig08b_ref_mesh3d_4x4x4",
        "ablation_star_mesh_irl/irl=1", "ablation_star_mesh_irl/irl=4",
        "ablation_vertical_links/period=4",
        "ablation_vertical_links/tech=TSV",
        "ablation_vertical_links/tech=inductive",
        "ablation_vertical_links/tech=capacitive",
        "ablation_hybrid_system/inter_frac=0.1",
        "ablation_hybrid_system/inter_frac=0.7",
        "ablation_hybrid_system/equipped_frac=0.25",
        "ablation_hybrid_system/equipped_frac=1"}) {
    EXPECT_TRUE(registry.contains(name)) << name;
    EXPECT_TRUE(registry.get(name).validate().is_ok()) << name;
  }
  // The 512-module references keep their Fig. 8(a) topology but share
  // the Fig. 8(b) injection grid; only the 2D one may run the DES.
  const ScenarioSpec& ref3d = registry.get("fig08b_ref_mesh3d_4x4x4");
  EXPECT_EQ(ref3d.noc.topology.kz, 4u);
  EXPECT_EQ(ref3d.noc.injection_rates,
            registry.get("fig08b_mesh3d_8x8x8").noc.injection_rates);
  EXPECT_EQ(ref3d.noc.des_check_rate, 0.0);
}

TEST(Registry, SelectsByPrefixInRegistryOrder) {
  const auto& registry = ScenarioRegistry::paper();
  EXPECT_EQ(registry.select("fig01_pathloss"),
            std::vector<std::string>{"fig01_pathloss"});
  EXPECT_EQ(registry.select("fig08a"),
            (std::vector<std::string>{"fig08a_mesh2d_8x8",
                                      "fig08a_star_mesh_4x4c4",
                                      "fig08a_mesh3d_4x4x4"}));
  EXPECT_EQ(registry.select("ablation_vertical_links"),
            (std::vector<std::string>{
                "ablation_vertical_links",
                "ablation_vertical_links/period=1",
                "ablation_vertical_links/period=2",
                "ablation_vertical_links/period=3",
                "ablation_vertical_links/period=4",
                "ablation_vertical_links/tech=TSV",
                "ablation_vertical_links/tech=inductive",
                "ablation_vertical_links/tech=capacitive"}));
  EXPECT_TRUE(registry.select("no_such_scenario").empty());
  EXPECT_TRUE(registry.select("").empty());
}

TEST(Registry, UnknownNameThrowsWithListing) {
  try {
    (void)ScenarioRegistry::paper().get("no_such_scenario");
    FAIL() << "expected StatusError";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status().code(), StatusCode::kInvalidSpec);
    EXPECT_NE(e.status().message().find("fig04_tx_power"),
              std::string::npos);
  }
}

TEST(Registry, RejectsDuplicatesAndInvalid) {
  ScenarioRegistry registry;
  ScenarioSpec spec;
  spec.name = "a";
  registry.add(spec);
  EXPECT_THROW(registry.add(spec), StatusError);
  ScenarioSpec bad;
  bad.name = "";
  EXPECT_THROW(registry.add(bad), StatusError);
}

TEST(SimEngine, TxPowerSweepSchemaAndAnchors) {
  SimEngine engine;
  const RunResult result =
      engine.run(ScenarioRegistry::paper().get("fig04_tx_power"));
  ASSERT_TRUE(result.ok()) << result.status.to_string();
  EXPECT_EQ(result.table.headers(), workload_headers("tx_power_sweep"));
  ASSERT_EQ(result.table.rows(), 8u);  // SNR 0..35 step 5
  // Longest-link curves differ by the 5 dB Butler penalty.
  const double longest = std::stod(result.table.cell(0, 2));
  const double butler = std::stod(result.table.cell(0, 3));
  EXPECT_NEAR(butler - longest, 5.0, 1e-9);
}

TEST(SimEngine, LinkBudgetTableMatchesTableI) {
  SimEngine engine;
  const RunResult result =
      engine.run(ScenarioRegistry::paper().get("table1_link_budget"));
  ASSERT_TRUE(result.ok());
  // Pathloss anchors PL(0.1 m) = 59.8 dB, PL(0.3 m) = 69.3 dB.
  EXPECT_NEAR(std::stod(result.table.cell(2, 2)), 59.8, 0.1);
  EXPECT_NEAR(std::stod(result.table.cell(3, 2)), 69.3, 0.1);
}

TEST(SimEngine, InvalidSpecIsReportedNotThrown) {
  SimEngine engine;
  ScenarioSpec spec;
  spec.name = "bad";
  spec.phy.polarizations = 0;
  const RunResult result = engine.run(spec);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status.code(), StatusCode::kInvalidSpec);
  EXPECT_EQ(result.table.rows(), 0u);
}

TEST(SimEngine, UnreachableRouteSurfacesAsStatus) {
  // Dimension-order routing cannot serve a 3D mesh whose vertical links
  // exist only on every second column: the route() call throws a
  // structured StatusError which the engine converts into the result.
  SimEngine engine;
  ScenarioSpec spec;
  spec.name = "partial_vertical_dor";
  spec.workload = "noc_latency";
  spec.noc.topology.kind = TopologySpec::Kind::kPartialVertical3d;
  spec.noc.topology.kx = 4;
  spec.noc.topology.ky = 4;
  spec.noc.topology.kz = 4;
  spec.noc.topology.tsv_period = 2;
  spec.noc.routing = RoutingKind::kDimensionOrder;
  const RunResult result = engine.run(spec);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status.code(), StatusCode::kUnreachableRoute);

  // The same topology is routable with BFS shortest-path.
  spec.noc.routing = RoutingKind::kShortestPath;
  const RunResult routed = engine.run(spec);
  EXPECT_TRUE(routed.ok()) << routed.status.to_string();
  EXPECT_GT(routed.table.rows(), 0u);
}

TEST(SimEngine, SweepSurvivesBadGridPoints) {
  // One axis value produces an unroutable topology; the sweep must
  // still complete and surface that point as an error row.
  SimEngine engine;
  ScenarioSpec base;
  base.name = "sweep";
  base.workload = "noc_latency";
  base.noc.topology.kind = TopologySpec::Kind::kPartialVertical3d;
  base.noc.topology.kx = 2;
  base.noc.topology.ky = 2;
  base.noc.topology.kz = 2;
  base.noc.injection_rates = {0.05};
  const SweepAxis axis{"period",
                       {1.0, 2.0},
                       [](ScenarioSpec& spec, double value) {
                         spec.noc.topology.tsv_period =
                             static_cast<std::size_t>(value);
                       }};
  const RunResult merged = engine.run_sweep(base, {axis});
  ASSERT_EQ(merged.table.rows(), 2u);
  // Partial failure marks the aggregate status failed (exit codes), but
  // every point's row is present.
  EXPECT_FALSE(merged.ok());
  EXPECT_NE(merged.status.message().find("1 of 2"), std::string::npos);
  EXPECT_EQ(merged.table.cell(0, 1), "ok");
  EXPECT_NE(merged.table.cell(1, 1).find("unreachable_route"),
            std::string::npos);
  // Failed point fills its data cells with '-'.
  EXPECT_EQ(merged.table.cell(1, 2), "-");
}

TEST(SimEngine, RunAllPreservesInputOrder) {
  const auto& registry = ScenarioRegistry::paper();
  SimEngine engine;
  const auto results = engine.run_all({
      registry.get("fig04_tx_power"),
      registry.get("table1_link_budget"),
  });
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].scenario, "fig04_tx_power");
  EXPECT_EQ(results[1].scenario, "table1_link_budget");
}

TEST(SimEngine, HybridComparisonFavoursWirelessAtHighInterTraffic) {
  SimEngine engine;
  ScenarioSpec spec = ScenarioRegistry::paper().get("ablation_hybrid_system");
  spec.payload<HybridSpec>().config.inter_board_fraction = 0.5;
  const RunResult result = engine.run(spec);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.table.rows(), 1u);
  // capacity_gain column: wireless beats the backplane spine.
  EXPECT_GT(std::stod(result.table.cell(0, 4)), 1.0);
}

}  // namespace
}  // namespace wi::sim
