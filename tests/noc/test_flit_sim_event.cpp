/// \file test_flit_sim_event.cpp
/// \brief Event-wheel core specifics: wheel quiescence, degenerate
///        topologies, partition-count bit-identity, fault activations
///        landing on partition window boundaries, and credit wakes
///        under campaign fault schedules.
///
/// The golden tests pin the event core against the committed result
/// files; this file pins it against the cycle-stepped oracle
/// (flit_sim_oracle.hpp) under configurations chosen to stress the
/// event-specific machinery: the calendar wheel, the shard staircase,
/// the fault barriers, and the credit wakes that replace polling for a
/// head blocked on a full ring.

#include "wi/noc/flit_sim.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <stdexcept>
#include <vector>

#include "flit_sim_oracle.hpp"
#include "wi/common/fault.hpp"
#include "wi/sim/campaign.hpp"
#include "wi/sim/registry.hpp"
#include "wi/sim/workloads/fault_sweep.hpp"

namespace wi::noc {
namespace {

FlitSimConfig base_config() {
  FlitSimConfig config;
  config.warmup_cycles = 500;
  config.measure_cycles = 3000;
  config.drain_cycles = 3000;
  return config;
}

/// Full-result equality: every statistic the goldens pin, plus the
/// fault accounting. turns_executed is diagnostics-only and excluded.
void expect_identical(const FlitSimResult& a, const FlitSimResult& b) {
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.injected, b.injected);
  EXPECT_DOUBLE_EQ(a.mean_latency_cycles, b.mean_latency_cycles);
  EXPECT_DOUBLE_EQ(a.delivered_per_cycle, b.delivered_per_cycle);
  EXPECT_EQ(a.stable, b.stable);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.unreachable, b.unreachable);
  EXPECT_EQ(a.dead_links, b.dead_links);
  EXPECT_EQ(a.dead_routers, b.dead_routers);
  ASSERT_EQ(a.route_failures.size(), b.route_failures.size());
  for (std::size_t i = 0; i < a.route_failures.size(); ++i) {
    EXPECT_EQ(a.route_failures[i].message(), b.route_failures[i].message());
  }
}

TEST(FlitSimEvent, ZeroTrafficTerminatesWithoutTurningARouter) {
  const Topology t = Topology::mesh_2d(4, 4);
  const DimensionOrderRouting routing;
  const FlitSimConfig config = base_config();
  const auto result = simulate_network(t, routing,
                                       TrafficPattern::uniform(16), 0.0,
                                       config);
  // No injections -> nothing is ever scheduled on the wheel, so the
  // run completes without executing a single router turn. The oracle
  // would have visited 16 routers x 6500 cycles.
  EXPECT_EQ(result.turns_executed, 0u);
  EXPECT_EQ(result.injected, 0u);
  EXPECT_EQ(result.delivered, 0u);
  EXPECT_TRUE(result.stable);
}

TEST(FlitSimEvent, TurnsExecutedStaysFarBelowCycleSteppedWork) {
  const Topology t = Topology::mesh_2d(8, 8);
  const DimensionOrderRouting routing;
  const FlitSimConfig config = base_config();
  const auto result = simulate_network(t, routing,
                                       TrafficPattern::uniform(64), 0.01,
                                       config);
  EXPECT_GT(result.turns_executed, 0u);
  // The cycle-stepped equivalent is routers * total cycles. At 1%
  // load the wheel should skip the overwhelming majority of them.
  const std::uint64_t cycle_stepped =
      64ull * (config.warmup_cycles + config.measure_cycles +
               config.drain_cycles);
  EXPECT_LT(result.turns_executed, cycle_stepped / 2);
}

TEST(FlitSimEvent, SingleRouterMeshMatchesOracle) {
  // One router carrying four modules, zero links: every flit ejects
  // where it is injected. Exercises the eject-at-source path and the
  // empty ring arrays.
  const Topology t = Topology::star_mesh(1, 1, 4);
  const DimensionOrderRouting routing;
  const TrafficPattern traffic = TrafficPattern::uniform(4);
  const FlitSimConfig config = base_config();
  const auto a = oracle::simulate_network(t, routing, traffic, 0.4, config);
  const auto b = simulate_network(t, routing, traffic, 0.4, config);
  expect_identical(a, b);
  EXPECT_GT(b.delivered, 0u);
}

TEST(FlitSimEvent, PartitionCountSweepIsBitIdentical) {
  // Asymmetric mesh so partitions cut the router range unevenly; a
  // saturating rate so shard boundaries carry real backpressure.
  const Topology t = Topology::mesh_2d(5, 3);
  const DimensionOrderRouting routing;
  const TrafficPattern traffic = TrafficPattern::uniform(15);
  FlitSimConfig config = base_config();
  config.seed = 7;
  const auto expected =
      oracle::simulate_network(t, routing, traffic, 0.25, config);
  for (const std::size_t parts : {1u, 2u, 4u, 8u}) {
    FlitSimConfig event = config;
    event.partitions = parts;
    event.threads = parts > 1 ? 4 : 1;
    SCOPED_TRACE(testing::Message() << "partitions=" << parts);
    const auto got = simulate_network(t, routing, traffic, 0.25, event);
    expect_identical(expected, got);
  }
}

TEST(FlitSimEvent, FaultOnPartitionWindowBoundaryIsBitIdentical) {
  // The parallel mode advances shards in conservative windows of
  // `router_delay_cycles`; fault activations act as global barriers.
  // Place activations exactly on window multiples (and one off-by-one
  // neighbour) to pin the barrier handshake, and compare against the
  // sequential cycle-stepped oracle.
  const Topology t = Topology::mesh_2d(5, 3);
  const DimensionOrderRouting routing;
  const TrafficPattern traffic = TrafficPattern::uniform(15);
  FlitSimConfig config = base_config();
  config.seed = 11;
  const std::uint64_t delay = config.router_delay_cycles;
  ASSERT_GE(delay, 1u);
  fault::FaultSchedule faults;
  // Window-aligned link death, window-aligned router death, and a
  // misaligned one straddling the boundary.
  faults.events.push_back({fault::FaultEvent::Kind::kLink, 3, delay * 300});
  faults.events.push_back(
      {fault::FaultEvent::Kind::kRouter, 7, delay * 700});
  faults.events.push_back(
      {fault::FaultEvent::Kind::kLink, 9, delay * 900 + 1});
  const auto expected =
      oracle::simulate_network(t, routing, traffic, 0.25, config, faults);
  for (const std::size_t parts : {2u, 4u, 8u}) {
    FlitSimConfig event = config;
    event.partitions = parts;
    event.threads = 4;
    SCOPED_TRACE(testing::Message() << "partitions=" << parts);
    const auto got =
        simulate_network(t, routing, traffic, 0.25, event, faults);
    expect_identical(expected, got);
  }
  EXPECT_GT(expected.dead_links, 0u);
  EXPECT_GT(expected.dead_routers, 0u);
}

/// One replica of the registered campaign_fault_mesh2d_8x8 campaign
/// (seed index `index` of base seed 1): its mesh, routing, traffic and
/// DES config, and its fault schedules derived as fault_sweep does.
struct CampaignReplica {
  explicit CampaignReplica(std::size_t index)
      : spec(sim::scenario_for_seed(
            sim::ScenarioRegistry::paper().get("campaign_fault_mesh2d_8x8"),
            sim::campaign_seed(1, index))),
        sweep(spec.payload<sim::FaultSweepSpec>()),
        topology(spec.noc.topology.build()),
        routing(spec.noc.build_routing()),
        traffic(spec.noc.build_traffic(topology.module_count())),
        config(spec.noc.des_config({sweep.warmup_cycles, sweep.measure_cycles,
                                    sweep.drain_cycles, sweep.buffer_depth,
                                    sweep.seed})) {}

  [[nodiscard]] fault::FaultSchedule schedule(double rate) const {
    fault::FaultSpec spec_fault = sweep.fault;
    spec_fault.link_fail_rate = rate;
    spec_fault.router_fail_rate = rate * sweep.router_fail_fraction;
    return fault::FaultSchedule::derive(
        spec_fault, topology.link_count(), topology.router_count(),
        sweep.warmup_cycles + sweep.measure_cycles);
  }

  sim::ScenarioSpec spec;
  sim::FaultSweepSpec sweep;
  Topology topology;
  std::unique_ptr<Routing> routing;
  TrafficPattern traffic;
  FlitSimConfig config;
};

/// Oracle vs the event core at 1, 2 and 4 partitions (one thread per
/// partition), for each schedule. Full rings, reroutes and deadlocks
/// are where a head waits for a credit instead of polling, so a missed
/// wake shows up as a diverging statistic.
void expect_matches_oracle(const Topology& topology, const Routing& routing,
                           const TrafficPattern& traffic, double load,
                           const FlitSimConfig& config,
                           const std::vector<fault::FaultSchedule>& faults) {
  std::vector<FlitSimResult> expected;
  for (const auto& schedule : faults) {
    expected.push_back(oracle::simulate_network(topology, routing, traffic,
                                                load, config, schedule));
  }
  for (const std::size_t parts : {1u, 2u, 4u}) {
    FlitSimConfig event = config;
    event.partitions = parts;
    event.threads = parts;
    for (std::size_t i = 0; i < faults.size(); ++i) {
      SCOPED_TRACE(testing::Message() << "partitions=" << parts
                                      << " schedule=" << i);
      expect_identical(expected[i], simulate_network(topology, routing,
                                                     traffic, load, event,
                                                     faults[i]));
    }
  }
}

TEST(FlitSimEvent, CampaignFaultReplicasMatchOracle) {
  for (const std::size_t index : {0u, 3u, 6u}) {
    const CampaignReplica replica(index);
    std::vector<fault::FaultSchedule> faults;
    for (const double rate : {0.0, 0.05, 0.15, 0.3}) {
      faults.push_back(replica.schedule(rate));
    }
    for (const double load : {0.1, 0.3}) {
      SCOPED_TRACE(testing::Message() << "replica=" << index
                                      << " load=" << load);
      expect_matches_oracle(replica.topology, *replica.routing,
                            replica.traffic, load, replica.config, faults);
    }
  }
}

TEST(FlitSimEvent, BandwidthTwoLinksUnderFaultsMatchOracle) {
  // star_mesh_irl moves up to two flits per channel per cycle: the
  // per-output budget array path rather than the bandwidth-1 bitmask.
  const Topology t = Topology::star_mesh_irl(3, 3, 2, 2);
  const DimensionOrderRouting routing;
  const TrafficPattern traffic = TrafficPattern::uniform(t.module_count());
  FlitSimConfig config = base_config();
  config.seed = 5;
  fault::FaultSpec spec;
  spec.link_fail_rate = 0.15;
  spec.router_fail_rate = 0.05;
  spec.seed = 5;
  const std::vector<fault::FaultSchedule> faults = {
      {}, fault::FaultSchedule::derive(spec, t.link_count(), t.router_count(),
                                       3500)};
  ASSERT_FALSE(faults[1].empty());
  expect_matches_oracle(t, routing, traffic, 0.4, config, faults);
}

TEST(FlitSimEvent, ShortestPathOnIrregularMeshUnderFaultsMatchesOracle) {
  // Vertical links on every other column only: no dimension-order grid,
  // so even the clean run routes through the dense port table.
  const Topology t = Topology::partial_vertical_mesh_3d(4, 4, 2, 2);
  const ShortestPathRouting routing;
  const TrafficPattern traffic = TrafficPattern::uniform(t.module_count());
  FlitSimConfig config = base_config();
  config.seed = 9;
  fault::FaultSpec spec;
  spec.link_fail_rate = 0.15;
  spec.router_fail_rate = 0.05;
  spec.seed = 9;
  const std::vector<fault::FaultSchedule> faults = {
      {}, fault::FaultSchedule::derive(spec, t.link_count(), t.router_count(),
                                       3500)};
  ASSERT_FALSE(faults[1].empty());
  expect_matches_oracle(t, routing, traffic, 0.3, config, faults);
}

TEST(FlitSimEvent, DeadlockedMeshStopsTurningRouters) {
  // At rate 0.15 this replica's rerouted mesh deadlocks: a cycle of full
  // rings that no pop ever frees. Every head in it waits for a credit,
  // so a longer drain window executes no further turns.
  const CampaignReplica replica(3);
  const fault::FaultSchedule faults = replica.schedule(0.15);
  FlitSimConfig config = replica.config;
  const auto a =
      simulate_network(replica.topology, *replica.routing, replica.traffic,
                       replica.sweep.injection_rate, config, faults);
  config.drain_cycles *= 2;
  const auto b =
      simulate_network(replica.topology, *replica.routing, replica.traffic,
                       replica.sweep.injection_rate, config, faults);
  EXPECT_FALSE(a.stable) << "replica 3 no longer deadlocks at rate 0.15";
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.turns_executed, b.turns_executed);
}

TEST(FlitSimEvent, RejectsZeroRouterDelay) {
  // The wheel bounds wake horizons by the pipeline delay: a zero delay
  // would allow same-cycle wakes, so both overloads refuse it up front.
  const Topology t = Topology::mesh_2d(4, 4);
  const DimensionOrderRouting routing;
  const TrafficPattern traffic = TrafficPattern::uniform(16);
  FlitSimConfig config = base_config();
  config.router_delay_cycles = 0;
  EXPECT_THROW((void)simulate_network(t, routing, traffic, 0.1, config),
               std::invalid_argument);
  EXPECT_THROW((void)simulate_network(t, routing, traffic, 0.1, config,
                                      fault::FaultSchedule{}),
               std::invalid_argument);
}

}  // namespace
}  // namespace wi::noc
