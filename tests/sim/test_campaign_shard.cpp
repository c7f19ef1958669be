/// \file test_campaign_shard.cpp
/// \brief Distributed campaigns: shard workers + incremental merge.
///
/// The contract under test: shards 0..N-1 of a campaign cover the seed
/// schedule exactly once (seed values are shard-invariant), any number
/// of workers persisting through one shared ResultStore directory can
/// be folded back by merge_campaign_results(), and the merged
/// aggregate is BIT-IDENTICAL to the single-process Campaign::run
/// aggregate — cell strings compared with Table::operator==, not
/// tolerances. Degraded inputs (missing shards, corrupt entries,
/// shape-mismatched tables) must produce partial aggregates and a
/// missing-seeds report, never abort the aggregator.

#include "wi/sim/campaign.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "wi/sim/result_store.hpp"
#include "wi/sim/workloads/flit_sim.hpp"

namespace wi::sim {
namespace {

namespace fs = std::filesystem;

class CampaignShardTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("wi_campaign_shard_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
  }

  void TearDown() override { fs::remove_all(dir_); }

  /// Small stochastic campaign: flit DES on a 3x3 mesh, 3 injection
  /// rates, short windows — cheap enough for a 12-seed suite.
  [[nodiscard]] static CampaignSpec small_campaign(std::size_t seeds) {
    ScenarioSpec spec;
    spec.name = "shard_flit_3x3";
    spec.workload = "flit_sim";
    spec.noc.topology.kind = TopologySpec::Kind::kMesh2d;
    spec.noc.topology.kx = 3;
    spec.noc.topology.ky = 3;
    auto& flit = spec.payload<FlitSimSpec>();
    flit.warmup_cycles = 100;
    flit.measure_cycles = 400;
    flit.injection_rates = {0.05, 0.1, 0.15};
    CampaignSpec campaign;
    campaign.seeds = seeds;
    campaign.base_seed = 7;
    campaign.scenario = spec;
    return campaign;
  }

  fs::path dir_;
};

TEST(CampaignShard, ValidatesIndexAgainstCount) {
  EXPECT_TRUE(CampaignShard{}.validate().is_ok());
  EXPECT_TRUE((CampaignShard{0, 1}).validate().is_ok());
  EXPECT_TRUE((CampaignShard{3, 4}).validate().is_ok());
  EXPECT_FALSE((CampaignShard{4, 4}).validate().is_ok());
  EXPECT_FALSE((CampaignShard{0, 0}).validate().is_ok());
}

TEST(CampaignShard, ShardsPartitionTheSeedScheduleExactlyOnce) {
  // Every seed index is owned by exactly one shard, for several shard
  // counts including one that does not divide the seed count.
  constexpr std::size_t kSeeds = 100;
  for (const std::size_t count : {1u, 2u, 3u, 8u}) {
    for (std::size_t k = 0; k < kSeeds; ++k) {
      std::size_t owners = 0;
      for (std::size_t i = 0; i < count; ++i) {
        if (CampaignShard{i, count}.owns(k)) ++owners;
      }
      EXPECT_EQ(owners, 1u) << "seed " << k << " with " << count
                            << " shards";
    }
  }
}

TEST_F(CampaignShardTest, ShardedWorkersMergeBitIdenticalToSingleProcess) {
  const CampaignSpec spec = small_campaign(12);
  SimEngine engine(EngineOptions{2});

  // Reference: the classic single-process campaign (no store).
  const CampaignResult reference =
      Campaign(spec).run(engine, nullptr, 2);
  ASSERT_TRUE(reference.ok());
  ASSERT_TRUE(reference.complete());

  // 3 shard workers, each its own ResultStore instance on the shared
  // directory (process model), run in arbitrary order.
  std::set<std::string> shard_scenarios;
  for (const std::size_t i : {2u, 0u, 1u}) {
    ResultStore store({dir_, "v1"});
    const CampaignResult shard =
        Campaign(spec).run(engine, &store, 2, CampaignShard{i, 3});
    ASSERT_TRUE(shard.ok()) << shard.status.to_string();
    EXPECT_EQ(shard.per_seed.size(), 4u);  // 12 seeds / 3 shards
    for (const RunResult& replica : shard.per_seed) {
      // No replica may be computed by two shards.
      EXPECT_TRUE(shard_scenarios.insert(replica.scenario).second)
          << "replica " << replica.scenario << " ran twice";
    }
  }
  EXPECT_EQ(shard_scenarios.size(), 12u);

  // The aggregator folds the union back together, bit-for-bit.
  ResultStore store({dir_, "v1"});
  const CampaignResult merged = merge_campaign_results(spec, store);
  ASSERT_TRUE(merged.ok()) << merged.status.to_string();
  EXPECT_TRUE(merged.complete());
  EXPECT_EQ(merged.aggregate, reference.aggregate);
}

TEST_F(CampaignShardTest, MergeReportsMissingSeedsAndStaysPartial) {
  const CampaignSpec spec = small_campaign(9);
  SimEngine engine(EngineOptions{2});

  // Only shard 0 of 3 ever ran: seeds 0, 3, 6 are in the store.
  {
    ResultStore store({dir_, "v1"});
    const CampaignResult shard =
        Campaign(spec).run(engine, &store, 2, CampaignShard{0, 3});
    ASSERT_TRUE(shard.ok());
  }

  ResultStore store({dir_, "v1"});
  const CampaignResult merged = merge_campaign_results(spec, store);
  ASSERT_TRUE(merged.ok());
  EXPECT_FALSE(merged.complete());
  EXPECT_EQ(merged.missing_seeds,
            (std::vector<std::size_t>{1, 2, 4, 5, 7, 8}));
  // The partial aggregate covers exactly the 3 present seeds.
  ASSERT_GT(merged.aggregate.rows(), 0u);
  const auto headers = campaign_headers();
  const std::size_t seeds_col = 3;  // "seeds"
  ASSERT_EQ(headers[seeds_col], "seeds");
  for (std::size_t r = 0; r < merged.aggregate.rows(); ++r) {
    EXPECT_EQ(merged.aggregate.cell(r, seeds_col), "3");
  }
}

TEST_F(CampaignShardTest, MergeDegradesCorruptEntriesToMissing) {
  const CampaignSpec spec = small_campaign(6);
  SimEngine engine(EngineOptions{2});
  {
    ResultStore store({dir_, "v1"});
    const CampaignResult all = Campaign(spec).run(engine, &store, 2);
    ASSERT_TRUE(all.ok());
  }

  // Vandalize seed index 2's entry: a crashed worker's torn write
  // that somehow survived under the final name.
  {
    ResultStore store({dir_, "v1"});
    const ScenarioSpec replica = scenario_for_seed(
        spec.scenario, campaign_seed(spec.base_seed, 2));
    std::ofstream out(store.entry_path(store.key(replica)),
                      std::ios::trunc);
    out << "{\"format\": \"wi-result-v1\", \"key";  // truncated JSON
  }

  ResultStore store({dir_, "v1"});
  const CampaignResult merged = merge_campaign_results(spec, store);
  ASSERT_TRUE(merged.ok()) << "corrupt entries must never abort";
  EXPECT_EQ(merged.missing_seeds, (std::vector<std::size_t>{2}));
  EXPECT_EQ(store.stats().corrupt_entries, 1u);
}

TEST_F(CampaignShardTest, MergeDegradesShapeMismatchedEntriesToMissing) {
  const CampaignSpec spec = small_campaign(4);
  SimEngine engine(EngineOptions{2});
  {
    ResultStore store({dir_, "v1"});
    const CampaignResult all = Campaign(spec).run(engine, &store, 2);
    ASSERT_TRUE(all.ok());
  }

  // Replace seed index 1's entry with a decodable result whose table
  // has the wrong shape (as a bad or version-skewed writer would
  // leave): the aggregator must skip it, not throw.
  {
    ResultStore store({dir_, "v1"});
    const ScenarioSpec replica = scenario_for_seed(
        spec.scenario, campaign_seed(spec.base_seed, 1));
    RunResult rogue;
    rogue.scenario = replica.name;
    rogue.table = Table({"unexpected"});
    rogue.table.add_row({"1"});
    store.save(replica, rogue);
  }

  ResultStore store({dir_, "v1"});
  const CampaignResult merged = merge_campaign_results(spec, store);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged.missing_seeds, (std::vector<std::size_t>{1}));
  bool noted = false;
  for (const std::string& note : merged.notes) {
    if (note.find("seed index 1 unusable") != std::string::npos) {
      noted = true;
    }
  }
  EXPECT_TRUE(noted);
}

TEST_F(CampaignShardTest, WorkerRecomputesCorruptEntriesInsteadOfAborting) {
  // The worker half of the degraded path: a corrupt per-seed entry
  // (left by a crashed peer) must be recomputed on the next campaign
  // run — never abort it, never lose the seed.
  const CampaignSpec spec = small_campaign(4);
  SimEngine engine(EngineOptions{2});
  Table reference;
  {
    ResultStore store({dir_, "v1"});
    const CampaignResult all = Campaign(spec).run(engine, &store, 2);
    ASSERT_TRUE(all.ok());
    reference = all.aggregate;
  }
  {
    ResultStore store({dir_, "v1"});
    const ScenarioSpec replica = scenario_for_seed(
        spec.scenario, campaign_seed(spec.base_seed, 3));
    std::ofstream out(store.entry_path(store.key(replica)),
                      std::ios::trunc);
    out << "not json at all";
  }
  ResultStore store({dir_, "v1"});
  const CampaignResult rerun = Campaign(spec).run(engine, &store, 2);
  ASSERT_TRUE(rerun.ok()) << rerun.status.to_string();
  EXPECT_EQ(rerun.aggregate, reference);
  EXPECT_EQ(store.stats().corrupt_entries, 1u);
  EXPECT_EQ(store.hits(), 3u);    // the intact seeds replayed
  EXPECT_EQ(store.misses(), 1u);  // the vandalized one recomputed
}

TEST_F(CampaignShardTest, MergedAggregateMatchesStoreFreeRunAfterResume) {
  // Extending a sharded campaign: workers ran 8 seeds as 2 shards;
  // later the campaign is extended to 12 seeds and two more shard
  // workers fill the gap. The final merge still equals the
  // single-process 12-seed aggregate bit-for-bit.
  const CampaignSpec eight = small_campaign(8);
  CampaignSpec twelve = eight;
  twelve.seeds = 12;
  SimEngine engine(EngineOptions{2});

  for (const std::size_t i : {0u, 1u}) {
    ResultStore store({dir_, "v1"});
    ASSERT_TRUE(Campaign(eight)
                    .run(engine, &store, 2, CampaignShard{i, 2})
                    .ok());
  }
  for (const std::size_t i : {0u, 1u}) {
    ResultStore store({dir_, "v1"});
    // The extension re-hits seeds 0..7 from the store and computes
    // only the new tail.
    ASSERT_TRUE(Campaign(twelve)
                    .run(engine, &store, 2, CampaignShard{i, 2})
                    .ok());
  }

  ResultStore store({dir_, "v1"});
  const CampaignResult merged = merge_campaign_results(twelve, store);
  ASSERT_TRUE(merged.ok());
  EXPECT_TRUE(merged.complete());
  const CampaignResult reference =
      Campaign(twelve).run(engine, nullptr, 2);
  EXPECT_EQ(merged.aggregate, reference.aggregate);
}

}  // namespace
}  // namespace wi::sim
