/// \file test_des_config.cpp
/// \brief The one spec-to-DES path (NocSpec::validate_des/des_config):
///        the spec's router delay reaches the simulator, and every
///        out-of-range DES spec comes back from SimEngine::run as a
///        kInvalidSpec Status instead of a throw, a crash or a hang.

#include <gtest/gtest.h>

#include <cstddef>
#include <functional>
#include <limits>
#include <string>

#include "wi/sim/engine.hpp"
#include "wi/sim/workloads/fault_sweep.hpp"
#include "wi/sim/workloads/flit_sim.hpp"

namespace wi::sim {
namespace {

/// 4x4 mesh, one injection rate, short windows.
ScenarioSpec small_flit_sim() {
  ScenarioSpec spec;
  spec.name = "des_config_flit";
  spec.workload = "flit_sim";
  spec.noc.topology.kx = 4;
  spec.noc.topology.ky = 4;
  auto& flit = spec.payload<FlitSimSpec>();
  flit.injection_rates = {0.1};
  flit.warmup_cycles = 200;
  flit.measure_cycles = 1000;
  flit.drain_cycles = 1000;
  return spec;
}

ScenarioSpec small_fault_sweep() {
  ScenarioSpec spec;
  spec.name = "des_config_fault";
  spec.workload = "fault_sweep";
  spec.noc.topology.kx = 4;
  spec.noc.topology.ky = 4;
  auto& sweep = spec.payload<FaultSweepSpec>();
  sweep.fail_rates = {0.0};
  sweep.warmup_cycles = 100;
  sweep.measure_cycles = 400;
  sweep.drain_cycles = 1000;
  return spec;
}

/// noc_latency with its DES cross-check switched on.
ScenarioSpec small_noc_latency_with_des() {
  ScenarioSpec spec;
  spec.name = "des_config_noc_latency";
  spec.workload = "noc_latency";
  spec.noc.topology.kx = 4;
  spec.noc.topology.ky = 4;
  spec.noc.injection_rates = {0.1};
  spec.noc.des_check_rate = 0.1;
  return spec;
}

double des_latency(const ScenarioSpec& spec) {
  SimEngine engine;
  const RunResult result = engine.run(spec);
  EXPECT_TRUE(result.ok()) << result.status.to_string();
  if (!result.ok()) return 0.0;
  return std::stod(result.table.cell(0, 1));
}

TEST(DesConfig, SpecRouterDelayReachesTheDes) {
  ScenarioSpec spec = small_flit_sim();
  spec.noc.model.router_delay_cycles = 2.0;
  const double two = des_latency(spec);
  spec.noc.model.router_delay_cycles = 3.0;
  const double three = des_latency(spec);
  EXPECT_GT(three, two);
}

TEST(DesConfig, ConfigCarriesTheWorkloadSettingsAndTheModelDelay) {
  NocSpec noc;
  noc.model.router_delay_cycles = 3.0;
  const noc::FlitSimConfig config = noc.des_config({10, 20, 30, 4, 7});
  EXPECT_EQ(config.warmup_cycles, 10u);
  EXPECT_EQ(config.measure_cycles, 20u);
  EXPECT_EQ(config.drain_cycles, 30u);
  EXPECT_EQ(config.buffer_depth, 4u);
  EXPECT_EQ(config.seed, 7u);
  EXPECT_EQ(config.router_delay_cycles, 3u);
}

TEST(DesConfig, AnalyticOnlyNocLatencyKeepsFractionalDelays) {
  ScenarioSpec spec = small_noc_latency_with_des();
  spec.noc.des_check_rate = 0.0;
  spec.noc.model.router_delay_cycles = 2.5;
  SimEngine engine;
  const RunResult result = engine.run(spec);
  EXPECT_TRUE(result.ok()) << result.status.to_string();
}

/// One hostile spec: a DES workload with one field out of range.
struct HostileCase {
  std::string name;
  std::function<ScenarioSpec()> make;
};

std::function<ScenarioSpec()> with_delay(ScenarioSpec (*base)(),
                                         double delay) {
  return [base, delay] {
    ScenarioSpec spec = base();
    spec.noc.model.router_delay_cycles = delay;
    return spec;
  };
}

std::function<ScenarioSpec()> flit_with(void (*edit)(FlitSimSpec&)) {
  return [edit] {
    ScenarioSpec spec = small_flit_sim();
    edit(spec.payload<FlitSimSpec>());
    return spec;
  };
}

const HostileCase kHostileCases[] = {
    {"FlitDelayNaN",
     with_delay(small_flit_sim, std::numeric_limits<double>::quiet_NaN())},
    {"FlitDelayNegative", with_delay(small_flit_sim, -1.0)},
    {"FlitDelayZero", with_delay(small_flit_sim, 0.0)},
    {"FlitDelayFractional", with_delay(small_flit_sim, 2.5)},
    {"FlitDelayInfinite",
     with_delay(small_flit_sim, std::numeric_limits<double>::infinity())},
    {"FlitDelayPastCycleLimit", with_delay(small_flit_sim, 0x1p37)},
    {"FlitBufferDepthZero",
     flit_with([](FlitSimSpec& f) { f.buffer_depth = 0; })},
    {"FlitBufferDepth2To16",
     flit_with([](FlitSimSpec& f) { f.buffer_depth = std::size_t{1} << 16; })},
    {"FlitMeasureCyclesZero",
     flit_with([](FlitSimSpec& f) { f.measure_cycles = 0; })},
    {"FlitCycles2To37",
     flit_with([](FlitSimSpec& f) {
       f.drain_cycles = (std::size_t{1} << 37) - f.warmup_cycles -
                        f.measure_cycles - 2;
     })},
    {"FlitCyclesWrapSizeT",
     flit_with([](FlitSimSpec& f) {
       f.warmup_cycles = std::numeric_limits<std::size_t>::max();
       f.drain_cycles = 2;
     })},
    {"FlitRouters2To26",
     [] {
       ScenarioSpec spec = small_flit_sim();
       spec.noc.topology.kx = std::size_t{1} << 13;
       spec.noc.topology.ky = std::size_t{1} << 13;
       return spec;
     }},
    {"FlitRouters3dOverflow",
     [] {
       ScenarioSpec spec = small_flit_sim();
       spec.noc.topology.kind = TopologySpec::Kind::kMesh3d;
       spec.noc.topology.kx = std::size_t{1} << 32;
       spec.noc.topology.ky = std::size_t{1} << 32;
       spec.noc.topology.kz = 1;
       return spec;
     }},
    {"FaultSweepDelayFractional", with_delay(small_fault_sweep, 2.5)},
    {"FaultSweepDelayNegative", with_delay(small_fault_sweep, -3.0)},
    {"FaultSweepBufferDepthZero",
     [] {
       ScenarioSpec spec = small_fault_sweep();
       spec.payload<FaultSweepSpec>().buffer_depth = 0;
       return spec;
     }},
    {"NocLatencyDesDelayNaN",
     with_delay(small_noc_latency_with_des,
                std::numeric_limits<double>::quiet_NaN())},
    {"NocLatencyDesDelayFractional",
     with_delay(small_noc_latency_with_des, 2.5)},
};

class HostileDesSpec : public testing::TestWithParam<HostileCase> {};

TEST_P(HostileDesSpec, ComesBackAsInvalidSpecStatus) {
  const ScenarioSpec spec = GetParam().make();
  SimEngine engine;
  RunResult result;
  ASSERT_NO_THROW(result = engine.run(spec));
  EXPECT_EQ(result.status.code(), StatusCode::kInvalidSpec)
      << result.status.to_string();
  EXPECT_EQ(result.table.rows(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    DesConfig, HostileDesSpec, testing::ValuesIn(kHostileCases),
    [](const testing::TestParamInfo<HostileCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace wi::sim
