#include "wi/sim/campaign.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <set>

#include "wi/sim/registry.hpp"
#include "wi/sim/result_store.hpp"
#include "wi/sim/scenario_json.hpp"
#include "wi/sim/workloads/flit_sim.hpp"
#include "wi/sim/workloads/info_rates.hpp"

namespace wi::sim {
namespace {

namespace fs = std::filesystem;

/// Small, fully stochastic scenario: flit-level DES on a 4x4 mesh with
/// >= 10 injection rates (10 grid points) and a short window — the
/// campaign workhorse of this suite.
[[nodiscard]] ScenarioSpec flit_scenario(std::size_t rates = 10) {
  ScenarioSpec spec;
  spec.name = "flit_4x4";
  spec.workload = "flit_sim";
  spec.noc.topology.kind = TopologySpec::Kind::kMesh2d;
  spec.noc.topology.kx = 4;
  spec.noc.topology.ky = 4;
  auto& flit = spec.payload<FlitSimSpec>();
  flit.warmup_cycles = 200;
  flit.measure_cycles = 1000;
  flit.injection_rates.clear();
  for (std::size_t i = 0; i < rates; ++i) {
    flit.injection_rates.push_back(0.02 + 0.02 * static_cast<double>(i));
  }
  return spec;
}

[[nodiscard]] CampaignSpec flit_campaign(std::size_t seeds,
                                         std::uint64_t base_seed = 1) {
  CampaignSpec campaign;
  campaign.seeds = seeds;
  campaign.base_seed = base_seed;
  campaign.scenario = flit_scenario();
  return campaign;
}

TEST(CampaignSeed, IsAPureFunctionOfBaseAndIndex) {
  EXPECT_EQ(campaign_seed(1, 0), campaign_seed(1, 0));
  EXPECT_EQ(campaign_seed(42, 7), campaign_seed(42, 7));
  // Extending a campaign keeps the existing replicas: seed k does not
  // depend on how many seeds the campaign runs in total.
  std::set<std::uint64_t> seen;
  for (std::size_t k = 0; k < 100; ++k) seen.insert(campaign_seed(1, k));
  EXPECT_EQ(seen.size(), 100u);
  EXPECT_NE(campaign_seed(1, 0), campaign_seed(2, 0));
}

TEST(CampaignSeed, ScenarioForSeedReseedsTheWorkloadPayload) {
  const ScenarioSpec base = flit_scenario();
  const ScenarioSpec replica = scenario_for_seed(base, 77);
  EXPECT_EQ(replica.name, "flit_4x4@seed=77");
  // The reseeding is dispatched to the workload runner: the flit_sim
  // runner points its DES seed at the replica seed...
  EXPECT_EQ(replica.payload<FlitSimSpec>().seed, 77u);
  // ...and the info_rates runner its Monte-Carlo seed.
  ScenarioSpec info;
  info.name = "info";
  info.workload = "info_rates";
  EXPECT_EQ(scenario_for_seed(info, 78).payload<InfoRateSpec>().mc_seed,
            78u);
  // Distinct replicas get distinct canonical specs => distinct store keys.
  EXPECT_NE(scenario_to_string(replica),
            scenario_to_string(scenario_for_seed(base, 78)));
}

TEST(CampaignAggregate, MatchesHandComputedStatistics) {
  Table a({"x", "value", "label"});
  a.add_row({"1", "10", "const"});
  Table b({"x", "value", "label"});
  b.add_row({"1", "20", "const"});
  Table c({"x", "value", "label"});
  c.add_row({"1", "30", "const"});
  const Table agg = aggregate_tables({a, b, c});
  ASSERT_EQ(agg.headers(), campaign_headers());
  // "label" is non-numeric -> skipped; "x" and "value" aggregate.
  ASSERT_EQ(agg.rows(), 2u);
  EXPECT_EQ(agg.cell(0, 2), "x");
  EXPECT_EQ(agg.cell(0, 1), "1");   // key: shared first cell
  EXPECT_EQ(agg.cell(0, 4), "1");   // mean of the constant column
  EXPECT_EQ(agg.cell(0, 5), "0");   // stddev 0
  EXPECT_EQ(agg.cell(1, 2), "value");
  EXPECT_EQ(agg.cell(1, 3), "3");   // seeds
  EXPECT_EQ(agg.cell(1, 4), "20");  // mean(10, 20, 30)
  EXPECT_EQ(agg.cell(1, 5), "10");  // sample stddev
  EXPECT_EQ(agg.cell(1, 6), "10");  // min
  EXPECT_EQ(agg.cell(1, 7), "30");  // max
  // ci95 = 1.96 * 10 / sqrt(3)
  EXPECT_NEAR(std::stod(agg.cell(1, 8)), 1.96 * 10.0 / std::sqrt(3.0),
              1e-12);
}

TEST(CampaignAggregate, SkipsNonFiniteAndDisagreeingKeys) {
  Table a({"k", "v"});
  a.add_row({"p", "nan"});
  Table b({"k", "v"});
  b.add_row({"q", "2.0"});
  const Table agg = aggregate_tables({a, b});
  // "v" is non-finite in one replica -> skipped entirely; "k" is
  // non-numeric -> skipped; only the disagreeing key remains visible
  // through... nothing: no numeric column survives.
  EXPECT_EQ(agg.rows(), 0u);

  Table c({"k", "v"});
  c.add_row({"p", "1"});
  Table d({"k", "v"});
  d.add_row({"q", "3"});
  const Table agg2 = aggregate_tables({c, d});
  ASSERT_EQ(agg2.rows(), 1u);
  EXPECT_EQ(agg2.cell(0, 1), "-");  // first cells disagree -> no key
  EXPECT_EQ(agg2.cell(0, 4), "2");
}

TEST(CampaignAggregate, ShapeMismatchThrows) {
  Table a({"x"});
  a.add_row({"1"});
  Table b({"y"});
  b.add_row({"1"});
  EXPECT_THROW((void)aggregate_tables({a, b}), StatusError);
  Table c({"x"});
  EXPECT_THROW((void)aggregate_tables({a, c}), StatusError);  // row count
  EXPECT_EQ(aggregate_tables({}).rows(), 0u);
}

TEST(Campaign, RunAggregatesAllSeeds) {
  const Campaign campaign(flit_campaign(3));
  SimEngine engine(EngineOptions{1});
  const CampaignResult result = campaign.run(engine);
  ASSERT_TRUE(result.ok()) << result.status.to_string();
  EXPECT_EQ(result.per_seed.size(), 3u);
  for (const auto& replica : result.per_seed) {
    EXPECT_TRUE(replica.ok());
    EXPECT_EQ(replica.table.rows(), 10u);
  }
  // 10 rows x 5 numeric columns (inj_rate, latency, throughput,
  // delivered, injected; "stable" is yes/no).
  EXPECT_EQ(result.aggregate.rows(), 50u);
  EXPECT_EQ(result.aggregate.headers(), campaign_headers());
}

TEST(Campaign, FailedReplicaFailsTheCampaign) {
  CampaignSpec invalid = flit_campaign(2);
  invalid.scenario.noc.topology.kx = 0;  // caught by validation
  EXPECT_THROW(Campaign{invalid}, StatusError);

  // Passes validation but fails in execution: bit-complement traffic
  // needs a power-of-two module count; a 3x3 mesh has 9 modules.
  CampaignSpec broken = flit_campaign(2);
  broken.scenario.noc.topology.kx = 3;
  broken.scenario.noc.topology.ky = 3;
  broken.scenario.noc.traffic = TrafficKind::kBitComplement;
  const Campaign campaign(broken);
  SimEngine engine(EngineOptions{1});
  const CampaignResult result = campaign.run(engine);
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.status.message().find("seed replicas failed"),
            std::string::npos);
  EXPECT_EQ(result.per_seed.size(), 2u);
  EXPECT_EQ(result.aggregate.rows(), 0u);
}

TEST(Campaign, ZeroSeedsIsInvalid) {
  CampaignSpec spec = flit_campaign(0);
  EXPECT_FALSE(spec.validate().is_ok());
}

/// Satellite: determinism stress — >= 8 seeds x >= 10 grid points must
/// be bit-identical at 1 vs 4 worker threads, per-seed and aggregated.
TEST(Campaign, ThreadCountDoesNotChangeAnyBit) {
  const Campaign campaign(flit_campaign(8));
  SimEngine engine;
  const CampaignResult serial = campaign.run(engine, nullptr, 1);
  const CampaignResult parallel = campaign.run(engine, nullptr, 4);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  ASSERT_EQ(serial.per_seed.size(), parallel.per_seed.size());
  for (std::size_t k = 0; k < serial.per_seed.size(); ++k) {
    EXPECT_EQ(serial.per_seed[k].scenario, parallel.per_seed[k].scenario);
    EXPECT_EQ(serial.per_seed[k].table, parallel.per_seed[k].table)
        << "seed replica " << k << " differs between 1 and 4 threads";
  }
  EXPECT_EQ(serial.aggregate, parallel.aggregate);
}

TEST(Campaign, StoreMakesRepeatRunsFullCacheHits) {
  const fs::path dir =
      fs::temp_directory_path() / "wi_campaign_store_test";
  fs::remove_all(dir);
  const Campaign campaign(flit_campaign(4));
  SimEngine engine(EngineOptions{2});
  {
    ResultStore store({dir, "v1"});
    const CampaignResult first = campaign.run(engine, &store);
    ASSERT_TRUE(first.ok());
    EXPECT_EQ(store.misses(), 4u);
    EXPECT_EQ(store.hits(), 0u);
    const CampaignResult second = campaign.run(engine, &store);
    EXPECT_EQ(store.misses(), 4u);
    EXPECT_EQ(store.hits(), 4u);
    EXPECT_EQ(second.aggregate, first.aggregate);
    for (std::size_t k = 0; k < 4; ++k) {
      EXPECT_EQ(second.per_seed[k].table, first.per_seed[k].table);
    }
  }
  fs::remove_all(dir);
}

TEST(Campaign, InterruptedCampaignResumesPerSeed) {
  const fs::path dir =
      fs::temp_directory_path() / "wi_campaign_resume_test";
  fs::remove_all(dir);
  const CampaignSpec spec = flit_campaign(4);
  SimEngine engine(EngineOptions{1});
  // "Interrupted" campaign: only replicas 0 and 2 were persisted.
  {
    ResultStore store({dir, "v1"});
    for (const std::size_t k : {0u, 2u}) {
      const ScenarioSpec replica = scenario_for_seed(
          spec.scenario, campaign_seed(spec.base_seed, k));
      store.save(replica, engine.run(replica));
    }
  }
  ResultStore store({dir, "v1"});
  const Campaign campaign(spec);
  const CampaignResult resumed = campaign.run(engine, &store);
  ASSERT_TRUE(resumed.ok());
  EXPECT_EQ(store.hits(), 2u);
  EXPECT_EQ(store.misses(), 2u);
  // And the aggregate equals an uncached run's.
  const CampaignResult fresh = campaign.run(engine);
  EXPECT_EQ(resumed.aggregate, fresh.aggregate);
  fs::remove_all(dir);
}

TEST(CampaignCi, GoldenInsideCiPasses) {
  const Campaign campaign(flit_campaign(4));
  SimEngine engine(EngineOptions{1});
  const CampaignResult result = campaign.run(engine);
  ASSERT_TRUE(result.ok());
  // Same aggregate as golden: trivially inside its own CI.
  EXPECT_TRUE(
      check_campaign_ci(result.aggregate, result.aggregate).is_ok());
}

TEST(CampaignCi, ShiftedMeanAndGridMismatchFail) {
  Table a({"x", "v"});
  a.add_row({"1", "10"});
  Table b({"x", "v"});
  b.add_row({"1", "12"});
  const Table actual = aggregate_tables({a, b});

  // Golden with a mean far outside the CI of (10, 12).
  Table c({"x", "v"});
  c.add_row({"1", "100"});
  Table d({"x", "v"});
  d.add_row({"1", "102"});
  const Table golden = aggregate_tables({c, d});
  const Status shifted = check_campaign_ci(actual, golden);
  EXPECT_FALSE(shifted.is_ok());
  EXPECT_NE(shifted.message().find("outside CI"), std::string::npos);

  // Grid mismatch: different column set.
  Table e({"x", "w"});
  e.add_row({"1", "10"});
  Table f({"x", "w"});
  f.add_row({"1", "12"});
  EXPECT_FALSE(check_campaign_ci(actual, aggregate_tables({e, f})).is_ok());

  // Row-count mismatch.
  Table g({"x", "v"});
  g.add_row({"1", "10"});
  g.add_row({"2", "11"});
  Table h({"x", "v"});
  h.add_row({"1", "12"});
  h.add_row({"2", "13"});
  EXPECT_FALSE(check_campaign_ci(actual, aggregate_tables({g, h})).is_ok());

  // Non-aggregate schema is rejected outright.
  EXPECT_FALSE(check_campaign_ci(a, golden).is_ok());
}

TEST(CampaignCi, AbsTolFloorsZeroVarianceCells) {
  Table a({"x", "v"});
  a.add_row({"1", "10"});
  const Table actual = aggregate_tables({a, a});  // stddev 0, CI 0
  Table b({"x", "v"});
  b.add_row({"1", "10.0000000001"});
  const Table golden = aggregate_tables({b, b});
  CiCheckOptions loose;
  loose.abs_tol = 1e-6;
  EXPECT_TRUE(check_campaign_ci(actual, golden, loose).is_ok());
  CiCheckOptions strict;
  strict.abs_tol = 1e-12;
  EXPECT_FALSE(check_campaign_ci(actual, golden, strict).is_ok());
}

TEST(CampaignJson, SpecRoundTripsAndRejectsUnknownKeys) {
  CampaignSpec spec;
  spec.name = "c";
  spec.description = "round trip";
  spec.seeds = 12;
  spec.base_seed = 99;
  spec.scenario = flit_scenario(3);
  const CampaignSpec decoded =
      campaign_from_string(campaign_to_string(spec));
  EXPECT_EQ(decoded.name, spec.name);
  EXPECT_EQ(decoded.description, spec.description);
  EXPECT_EQ(decoded.seeds, spec.seeds);
  EXPECT_EQ(decoded.base_seed, spec.base_seed);
  EXPECT_EQ(scenario_to_string(decoded.scenario),
            scenario_to_string(spec.scenario));

  EXPECT_THROW((void)campaign_from_string(R"({"sceario": {}})"),
               StatusError);
  EXPECT_THROW((void)campaign_from_string(R"({"seeds": 2.5})"),
               StatusError);
  EXPECT_THROW((void)campaign_from_string(R"([1, 2])"), StatusError);
}

TEST(CampaignJson, RegistryCampaignScenariosRoundTripThroughCampaigns) {
  // The four campaign_* registry entries are the golden families; their
  // wrapped campaign documents must survive the codec unchanged.
  for (const char* name :
       {"campaign_info_rates", "campaign_adc_energy",
        "campaign_flit_mesh2d_8x8", "campaign_flit_star_mesh_4x4c4"}) {
    CampaignSpec spec;
    spec.seeds = 8;
    spec.base_seed = 1;
    spec.scenario = ScenarioRegistry::paper().get(name);
    const CampaignSpec decoded =
        campaign_from_string(campaign_to_string(spec));
    EXPECT_EQ(campaign_to_string(decoded), campaign_to_string(spec))
        << name;
  }
}

}  // namespace
}  // namespace wi::sim
