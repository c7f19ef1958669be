/// \file test_flit_sim_implicit.cpp
/// \brief Implicit traffic patterns and computed mesh routing in the
///        DES: dense-vs-implicit differentials (event core and
///        cycle-stepped oracle), computed-vs-dense next-hop
///        equivalence, and thread/partition bit-identity on an
///        analytic-pattern mesh.
///
/// The permutation patterns (transpose, bit-complement, tornado) sample
/// through the same one-raw-per-hit scheme dense CDF sampling uses and
/// produce the same destination, so dense and implicit runs must be
/// bit-identical. Uniform maps the 53-bit draw differently (integer
/// multiply-shift vs lower_bound on a cumulative-double row), so the
/// dense/implicit comparison there is statistical.

#include "wi/noc/flit_sim.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>

#include "flit_sim_oracle.hpp"
#include "wi/noc/routing.hpp"

namespace wi::noc {
namespace {

FlitSimConfig base_config() {
  FlitSimConfig config;
  config.warmup_cycles = 500;
  config.measure_cycles = 3000;
  config.drain_cycles = 3000;
  return config;
}

void expect_identical(const FlitSimResult& a, const FlitSimResult& b) {
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.injected, b.injected);
  EXPECT_DOUBLE_EQ(a.mean_latency_cycles, b.mean_latency_cycles);
  EXPECT_DOUBLE_EQ(a.delivered_per_cycle, b.delivered_per_cycle);
  EXPECT_EQ(a.stable, b.stable);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.unreachable, b.unreachable);
}

/// The event core and the oracle, for tests that run both.
using SimulateFn = FlitSimResult (*)(const Topology&, const Routing&,
                                     const TrafficPattern&, double,
                                     const FlitSimConfig&,
                                     const fault::FaultSchedule&);
struct Core {
  const char* name;
  SimulateFn simulate;
};
const Core kCores[] = {{"oracle", &oracle::simulate_network},
                       {"event", &simulate_network}};

/// Delegates to dimension-order routing but is not a
/// DimensionOrderRouting, so the event core's grid-mode detection
/// (a dynamic_cast) fails and it falls back to the dense next-hop
/// table. Comparing runs under the two routings pins the computed
/// next-hop against the dense table port by port.
class DisguisedDimensionOrder final : public Routing {
 public:
  [[nodiscard]] Route route(const Topology& topology, std::size_t src,
                            std::size_t dst) const override {
    return inner_.route(topology, src, dst);
  }
  [[nodiscard]] std::size_t first_hop(const Topology& topology,
                                      std::size_t src,
                                      std::size_t dst) const override {
    return inner_.first_hop(topology, src, dst);
  }

 private:
  DimensionOrderRouting inner_;
};

TEST(FlitSimImplicit, TransposeDenseVsImplicitBitIdentical) {
  const Topology t = Topology::mesh_2d(4, 4);
  const DimensionOrderRouting routing;
  const TrafficPattern dense = TrafficPattern::transpose(16);
  const TrafficPattern implicit = TrafficPattern::implicit_transpose(16);
  for (const Core& core : kCores) {
    const FlitSimConfig config = base_config();
    SCOPED_TRACE(testing::Message() << "core=" << core.name);
    const auto a = core.simulate(t, routing, dense, 0.1, config, {});
    const auto b = core.simulate(t, routing, implicit, 0.1, config, {});
    expect_identical(a, b);
    EXPECT_GT(a.delivered, 0u);
  }
}

TEST(FlitSimImplicit, TornadoDenseVsImplicitBitIdentical) {
  const Topology t = Topology::mesh_2d(5, 3);
  const DimensionOrderRouting routing;
  const TrafficPattern dense = TrafficPattern::tornado(15, 5, 3, 1);
  const TrafficPattern implicit =
      TrafficPattern::implicit_tornado(15, 5, 3, 1);
  for (const Core& core : kCores) {
    const FlitSimConfig config = base_config();
    SCOPED_TRACE(testing::Message() << "core=" << core.name);
    const auto a = core.simulate(t, routing, dense, 0.1, config, {});
    const auto b = core.simulate(t, routing, implicit, 0.1, config, {});
    expect_identical(a, b);
    EXPECT_GT(a.delivered, 0u);
  }
}

TEST(FlitSimImplicit, OracleAndEventCoreAgreeOnImplicitPatterns) {
  // Both share the injection stream contract (one Bernoulli raw plus
  // one sampler draw per hit), so implicit patterns must be
  // bit-identical across them, exactly like dense ones.
  const Topology t = Topology::mesh_2d(4, 4);
  const DimensionOrderRouting routing;
  const TrafficPattern patterns[] = {
      TrafficPattern::implicit_uniform(16),
      TrafficPattern::implicit_transpose(16),
      TrafficPattern::implicit_hotspot(16, 5, 0.3),
  };
  const FlitSimConfig config = base_config();
  for (const TrafficPattern& traffic : patterns) {
    SCOPED_TRACE(testing::Message()
                 << "kind=" << static_cast<int>(traffic.kind()));
    const auto a = oracle::simulate_network(t, routing, traffic, 0.15, config);
    const auto b = simulate_network(t, routing, traffic, 0.15, config);
    expect_identical(a, b);
    EXPECT_GT(a.delivered, 0u);
  }
}

TEST(FlitSimImplicit, UniformDenseVsImplicitStatisticalAgreement) {
  // Same Bernoulli schedule, different destination draw mapping: the
  // injected count matches exactly and the steady-state statistics
  // agree within sampling noise.
  const Topology t = Topology::mesh_2d(8, 8);
  const DimensionOrderRouting routing;
  FlitSimConfig config = base_config();
  config.measure_cycles = 6000;
  const auto a = simulate_network(t, routing, TrafficPattern::uniform(64),
                                  0.05, config);
  const auto b = simulate_network(
      t, routing, TrafficPattern::implicit_uniform(64), 0.05, config);
  EXPECT_EQ(a.injected, b.injected);  // identical Bernoulli stream
  EXPECT_TRUE(a.stable);
  EXPECT_TRUE(b.stable);
  EXPECT_NEAR(static_cast<double>(a.delivered),
              static_cast<double>(b.delivered),
              0.02 * static_cast<double>(a.delivered));
  EXPECT_NEAR(a.mean_latency_cycles, b.mean_latency_cycles,
              0.05 * a.mean_latency_cycles);
}

TEST(FlitSimImplicit, ComputedNextHopMatchesDenseTable) {
  // Grid mode (computed dimension-ordered next hops) against the dense
  // (router, dst) table the disguised routing forces, on a mesh with a
  // saturating load so secondary effects (arbitration order, buffer
  // backpressure) would expose any port mismatch.
  const DimensionOrderRouting dor;
  const DisguisedDimensionOrder disguised;
  const Topology meshes[] = {Topology::mesh_2d(5, 3),
                             Topology::mesh_3d(3, 3, 3)};
  for (const Topology& t : meshes) {
    const TrafficPattern traffic =
        TrafficPattern::implicit_uniform(t.module_count());
    FlitSimConfig config = base_config();
    config.seed = 5;
    SCOPED_TRACE(testing::Message() << "routers=" << t.router_count());
    const auto grid = simulate_network(t, dor, traffic, 0.3, config);
    const auto dense = simulate_network(t, disguised, traffic, 0.3, config);
    expect_identical(grid, dense);
    EXPECT_GT(grid.delivered, 0u);
  }
}

TEST(FlitSimImplicit, ThreadAndPartitionSweepIsBitIdentical) {
  // Implicit hotspot pattern on an asymmetric mesh: every partitioned
  // staircase run must match the cycle-stepped oracle bit for bit, at
  // 1 and 4 worker threads, partitions 1/2/4/8.
  const Topology t = Topology::mesh_2d(5, 3);
  const DimensionOrderRouting routing;
  const TrafficPattern traffic =
      TrafficPattern::implicit_hotspot(15, 7, 0.25);
  FlitSimConfig base = base_config();
  base.seed = 9;
  const auto expected =
      oracle::simulate_network(t, routing, traffic, 0.25, base);
  for (const std::size_t parts : {1u, 2u, 4u, 8u}) {
    for (const std::size_t threads : {1u, 4u}) {
      FlitSimConfig config = base;
      config.partitions = parts;
      config.threads = threads;
      SCOPED_TRACE(testing::Message()
                   << "partitions=" << parts << " threads=" << threads);
      const auto got = simulate_network(t, routing, traffic, 0.25, config);
      expect_identical(expected, got);
    }
  }
  EXPECT_GT(expected.delivered, 0u);
}

TEST(FlitSimImplicit, HotspotImplicitConcentratesTrafficAtHotModule) {
  // End-to-end sanity: under an implicit hotspot pattern the links
  // around the hot router carry visibly more load, so latency exceeds
  // the uniform run at the same injection rate.
  const Topology t = Topology::mesh_2d(8, 8);
  const DimensionOrderRouting routing;
  const FlitSimConfig config = base_config();
  const auto uniform = simulate_network(
      t, routing, TrafficPattern::implicit_uniform(64), 0.05, config);
  const auto hotspot = simulate_network(
      t, routing, TrafficPattern::implicit_hotspot(64, 27, 0.5), 0.05,
      config);
  EXPECT_TRUE(uniform.stable);
  EXPECT_GT(hotspot.mean_latency_cycles, uniform.mean_latency_cycles);
}

}  // namespace
}  // namespace wi::noc
