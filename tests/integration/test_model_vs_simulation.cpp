/// Cross-validation of the analytic queueing model against the
/// independent flit-level simulator — the evidence that Fig. 8's curves
/// are trustworthy. The campaign-level test at the bottom promotes the
/// single-seed spot check to multi-seed aggregates: the *mean over
/// seeds* of the DES latency must agree with the analytic prediction.

#include <gtest/gtest.h>

#include <string>

#include "wi/common/table_io.hpp"
#include "wi/noc/flit_sim.hpp"
#include "wi/noc/queueing_model.hpp"
#include "wi/sim/campaign.hpp"
#include "wi/sim/workloads/flit_sim.hpp"

namespace wi::noc {
namespace {

struct Case {
  const char* name;
  Topology topology;
  double injection;
};

class ModelVsDesTest
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(ModelVsDesTest, LatencyAgreesBelowSaturation) {
  const auto [topo_id, rate] = GetParam();
  const Topology topology = [&] {
    switch (topo_id) {
      case 0:
        return Topology::mesh_2d(8, 8);
      case 1:
        return Topology::mesh_3d(4, 4, 4);
      default:
        return Topology::star_mesh(4, 4, 4);
    }
  }();
  const DimensionOrderRouting routing;
  const TrafficPattern traffic =
      TrafficPattern::uniform(topology.module_count());
  const QueueingModel model(topology, routing, traffic);
  if (rate > 0.7 * model.saturation_rate()) {
    // Near saturation the M/M/1 waits diverge from the deterministic-
    // service DES (an M/D/1-like system with half the queueing delay).
    GTEST_SKIP() << "operating point too close to saturation";
  }
  FlitSimConfig config;
  config.warmup_cycles = 2000;
  config.measure_cycles = 10000;
  config.seed = 17;
  const FlitSimResult des =
      simulate_network(topology, routing, traffic, rate, config);
  const double analytic = model.evaluate(rate).mean_latency_cycles;
  ASSERT_TRUE(des.stable);
  // 20% agreement band: the DES has finite buffers and round-robin
  // arbitration the M/M/1 model idealises away.
  EXPECT_NEAR(des.mean_latency_cycles, analytic, 0.20 * analytic);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ModelVsDesTest,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(0.05, 0.1, 0.15)));

TEST(ModelVsDes, ThroughputSaturatesNearPredictedCapacity) {
  // Push the 2D mesh past its analytic capacity; the DES delivered
  // throughput should plateau near the predicted saturation rate.
  const Topology topology = Topology::mesh_2d(8, 8);
  const DimensionOrderRouting routing;
  const TrafficPattern traffic = TrafficPattern::uniform(64);
  const QueueingModel model(topology, routing, traffic);
  const double capacity = model.saturation_rate();

  FlitSimConfig config;
  config.warmup_cycles = 2000;
  config.measure_cycles = 10000;
  config.drain_cycles = 0;
  const FlitSimResult des =
      simulate_network(topology, routing, traffic, 0.9, config);
  EXPECT_NEAR(des.delivered_per_cycle, capacity, 0.35 * capacity);
}

TEST(ModelVsDes, OrderingPreservedAcrossTopologies) {
  // Independent of calibration, both tools must rank the topologies the
  // same way at a common operating point.
  const DimensionOrderRouting routing;
  auto latency_pair = [&](const Topology& topo) {
    const TrafficPattern traffic =
        TrafficPattern::uniform(topo.module_count());
    const QueueingModel model(topo, routing, traffic);
    FlitSimConfig config;
    config.warmup_cycles = 1500;
    config.measure_cycles = 8000;
    const FlitSimResult des =
        simulate_network(topo, routing, traffic, 0.1, config);
    return std::pair<double, double>(model.evaluate(0.1).mean_latency_cycles,
                                     des.mean_latency_cycles);
  };
  const auto [a2d, d2d] = latency_pair(Topology::mesh_2d(8, 8));
  const auto [a3d, d3d] = latency_pair(Topology::mesh_3d(4, 4, 4));
  const auto [astar, dstar] = latency_pair(Topology::star_mesh(4, 4, 4));
  // Analytic: star < 3D < 2D. DES must agree.
  EXPECT_LT(astar, a3d);
  EXPECT_LT(a3d, a2d);
  EXPECT_LT(dstar, d3d);
  EXPECT_LT(d3d, d2d);
}

/// Satellite: the model-vs-DES check promoted to campaign aggregates.
/// At low injection rates the seed-averaged flit-sim latency of the
/// 8x8 mesh must agree with the queueing-model prediction — per rate,
/// using the campaign's own confidence interval plus a modelling band.
TEST(ModelVsDes, CampaignMeanLatencyTracksQueueingModel) {
  const std::vector<double> rates = {0.05, 0.1};
  sim::CampaignSpec spec;
  spec.seeds = 5;
  spec.base_seed = 7;
  spec.scenario.name = "flit_mesh2d_8x8_lowrate";
  spec.scenario.workload = "flit_sim";
  spec.scenario.noc.topology.kind = sim::TopologySpec::Kind::kMesh2d;
  spec.scenario.noc.topology.kx = 8;
  spec.scenario.noc.topology.ky = 8;
  auto& flit = spec.scenario.payload<sim::FlitSimSpec>();
  flit.warmup_cycles = 1000;
  flit.measure_cycles = 5000;
  flit.injection_rates = rates;

  sim::SimEngine engine(sim::EngineOptions{2});
  const sim::Campaign campaign(spec);
  const sim::CampaignResult result = campaign.run(engine);
  ASSERT_TRUE(result.ok()) << result.status.to_string();

  const Topology topology = Topology::mesh_2d(8, 8);
  const DimensionOrderRouting routing;
  const TrafficPattern traffic = TrafficPattern::uniform(64);
  const QueueingModel model(topology, routing, traffic);

  // Pull the latency_cycles aggregate rows out of the long-format table.
  std::size_t checked = 0;
  for (std::size_t r = 0; r < result.aggregate.rows(); ++r) {
    if (result.aggregate.cell(r, 2) != "latency_cycles") continue;
    const double rate = std::stod(result.aggregate.cell(r, 1));
    const double mean = std::stod(result.aggregate.cell(r, 4));
    const double ci = std::stod(result.aggregate.cell(r, 8));
    const double analytic = model.evaluate(rate).mean_latency_cycles;
    // 20% modelling band (finite buffers, round-robin arbitration)
    // widened by the campaign's own statistical uncertainty.
    EXPECT_NEAR(mean, analytic, 0.20 * analytic + ci)
        << "injection rate " << rate;
    ++checked;
  }
  EXPECT_EQ(checked, rates.size());
}

}  // namespace
}  // namespace wi::noc
