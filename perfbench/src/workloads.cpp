#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "trace.hpp"
#include "wi/common/rng.hpp"
#include "wi/common/table_io.hpp"
#include "wi/fec/base_matrix.hpp"
#include "wi/fec/ldpc_code.hpp"
#include "wi/serve/client.hpp"
#include "wi/serve/server.hpp"
#include "wi/sim/campaign.hpp"
#include "wi/sim/engine.hpp"
#include "wi/sim/registry.hpp"
#include "wi/sim/result_store.hpp"
#include "wi/sim/workloads/flit_sim.hpp"
#include "wi/sim/workloads/ldpc_latency.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace sim = wi::sim;
namespace serve = wi::serve;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

fs::path fresh_dir(const fs::path& path) {
  fs::remove_all(path);
  fs::create_directories(path);
  return path;
}

double dir_bytes(const fs::path& path) {
  double bytes = 0.0;
  for (const auto& entry : fs::recursive_directory_iterator(path)) {
    if (entry.is_regular_file()) bytes += static_cast<double>(entry.file_size());
  }
  return bytes;
}

/// Per-pass deltas of the counters a ResultStore and an engine keep;
/// fill() adds them, so several stores can report into one pass.
class CounterDelta {
 public:
  CounterDelta(const sim::ResultStore& store, const sim::SimEngine* engine)
      : store_(store),
        engine_(engine),
        hits_(store.hits()),
        misses_(store.misses()),
        inserts_(store.inserts()),
        phy_hits_(engine != nullptr ? engine->phy_cache().hits() : 0),
        phy_misses_(engine != nullptr ? engine->phy_cache().misses() : 0) {}

  void fill(std::map<std::string, double>& layer) const {
    const auto delta = [](std::size_t now, std::size_t before) {
      return static_cast<double>(now - before);
    };
    layer["sim.store_hits"] += delta(store_.hits(), hits_);
    layer["sim.store_misses"] += delta(store_.misses(), misses_);
    layer["sim.store_inserts"] += delta(store_.inserts(), inserts_);
    if (engine_ == nullptr) return;
    layer["sim.phy_cache_hits"] += delta(engine_->phy_cache().hits(), phy_hits_);
    layer["sim.phy_cache_misses"] +=
        delta(engine_->phy_cache().misses(), phy_misses_);
  }

 private:
  const sim::ResultStore& store_;
  const sim::SimEngine* engine_;
  std::size_t hits_, misses_, inserts_, phy_hits_, phy_misses_;
};

/// Times repeated store loads of one entry and returns the median; the
/// loaded table must equal `expected`.
double timed_reload(const sim::ResultStore& store, const sim::ScenarioSpec& spec,
                    const wi::Table& expected, Checks& checks) {
  constexpr int kReads = 25;
  std::vector<double> seconds;
  std::optional<sim::RunResult> loaded;
  for (int i = 0; i < kReads; ++i) {
    const auto t0 = Clock::now();
    loaded = store.load(spec);
    seconds.push_back(seconds_since(t0));
  }
  checks.expect(loaded.has_value() && loaded->table == expected,
                spec.name + ": store read-back differs from the run");
  return median(seconds);
}

// --- ldpc_fig10 ---------------------------------------------------------------

class LdpcWorkload final : public Workload {
 public:
  LdpcWorkload(const Options& options, std::vector<LdpcRow> rows)
      : options_(options),
        golden_(read_csv_table(options.root / "results/golden/fig10_ldpc_latency.csv")) {
    // The rows' Monte-Carlo seeds are fixed by the scenario, so every
    // benchmark seed must reproduce the golden rows; the seed only
    // shuffles the order the rows are run in.
    wi::Rng rng(options.seed);
    for (std::size_t i = rows.size(); i > 1; --i) {
      std::swap(rows[i - 1], rows[rng.uniform_int(i)]);
    }
    spec_ = sim::ScenarioRegistry::paper().get("fig10_ldpc_latency");
    spec_.name = "perfbench_ldpc_fig10";
    auto& ldpc = spec_.payload<sim::LdpcLatencySpec>();
    ldpc.cc_curves.clear();
    ldpc.bc_liftings.clear();
    for (const LdpcRow& row : rows) {
      if (row.convolutional) {
        ldpc.cc_curves.push_back({row.lifting, row.window, row.window});
      } else {
        ldpc.bc_liftings.push_back(row.lifting);
      }
    }
    rows_ = std::move(rows);
    golden_ = golden_subset(golden_);
  }

  double setup() override {
    engine_.reset();
    store_.reset();
    const fs::path dir = fresh_dir(options_.work_dir / "ldpc_store");
    const auto t0 = Clock::now();
    engine_ = std::make_unique<sim::SimEngine>();
    store_ = std::make_unique<sim::ResultStore>(
        sim::ResultStoreOptions{dir, "perfbench"});
    const auto& ldpc = spec_.payload<sim::LdpcLatencySpec>();
    const auto c0 = Clock::now();
    for (const LdpcRow& row : rows_) {
      if (row.convolutional) {
        const wi::fec::LdpcConvolutionalCode code(
            wi::fec::EdgeSpreading::paper_example(), row.lifting,
            ldpc.termination, row.lifting);
      } else {
        const wi::fec::QcLdpcBlockCode code(wi::fec::BaseMatrix({{4, 4}}),
                                            row.lifting, row.lifting);
      }
    }
    code_build_s_.push_back(seconds_since(c0));
    return seconds_since(t0);
  }

  PassResult pass(std::size_t, Checks& checks) override {
    PassResult out;
    const CounterDelta delta(*store_, engine_.get());
    const auto t0 = Clock::now();
    const sim::RunResult result = engine_->run(spec_);
    out.wall_s = seconds_since(t0);
    out.request_ms.push_back(out.wall_s * 1e3);
    checks.expect(result.ok(), "ldpc run: " + result.status.to_string());
    check_rows(result.table, golden_, 3, "fig10_ldpc_latency", checks);
    store_->save(spec_, result);
    out.merge_s = timed_reload(*store_, spec_, result.table, checks);
    delta.fill(out.layer);
    out.layer["sim.store_bytes"] = dir_bytes(store_->options().directory);
    out.layer["fec.code_build_s"] = median(code_build_s_);
    return out;
  }

  std::vector<std::string> expected_spans() const override {
    return {"fec.simulate_ber_window", "fec.simulate_ber_block", "fec.row",
            "sim.engine_run"};
  }

 private:
  // The golden rows of the benchmark's row subset.
  wi::Table golden_subset(const wi::Table& golden) const {
    wi::Table subset(golden.headers());
    for (std::size_t i = 0; i < golden.rows(); ++i) {
      const auto& row = golden.row(i);
      for (const LdpcRow& want : rows_) {
        const bool cc = row[0] == "LDPC-CC";
        if (cc == want.convolutional && row[1] == std::to_string(want.lifting) &&
            (!cc || row[2] == std::to_string(want.window))) {
          subset.add_row(row);
        }
      }
    }
    return subset;
  }

  Options options_;
  wi::Table golden_;
  std::vector<LdpcRow> rows_;
  sim::ScenarioSpec spec_;
  std::unique_ptr<sim::SimEngine> engine_;
  std::unique_ptr<sim::ResultStore> store_;
  std::vector<double> code_build_s_;
};

// --- des_bigmesh ----------------------------------------------------------------

class DesWorkload final : public Workload {
 public:
  explicit DesWorkload(const Options& options)
      : options_(options),
        golden_(read_csv_table(options.root / "results/golden/flit_mesh3d_32x32x32.csv")) {
    // The golden was run with injection seed 1 = kDefaultSeed.
    spec_ = sim::scenario_for_seed(
        sim::ScenarioRegistry::paper().get("flit_mesh3d_32x32x32"), options.seed);
    golden_seed_ = options.seed == kDefaultSeed;
  }

  double setup() override {
    engine_.reset();
    store_.reset();
    const fs::path dir = fresh_dir(options_.work_dir / "des_store");
    const auto t0 = Clock::now();
    engine_ = std::make_unique<sim::SimEngine>();
    store_ = std::make_unique<sim::ResultStore>(
        sim::ResultStoreOptions{dir, "perfbench"});
    const wi::noc::Topology topology = spec_.noc.topology.build();
    const wi::noc::TrafficPattern traffic =
        spec_.noc.build_traffic(topology.module_count());
    const auto routing = spec_.noc.build_routing();
    return seconds_since(t0);
  }

  PassResult pass(std::size_t, Checks& checks) override {
    PassResult out;
    const CounterDelta delta(*store_, engine_.get());
    const auto t0 = Clock::now();
    const sim::RunResult result = engine_->run(spec_);
    out.wall_s = seconds_since(t0);
    out.request_ms.push_back(out.wall_s * 1e3);
    checks.expect(result.ok(), "des run: " + result.status.to_string());
    if (golden_seed_) {
      check_rows(result.table, golden_, 1, "flit_mesh3d_32x32x32", checks);
    } else {
      check_invariants(result.table, checks);
    }
    store_->save(spec_, result);
    out.merge_s = timed_reload(*store_, spec_, result.table, checks);
    delta.fill(out.layer);
    out.layer["sim.store_bytes"] = dir_bytes(store_->options().directory);
    return out;
  }

  std::vector<std::string> expected_spans() const override {
    return {"noc.simulate_network", "noc.topology_build", "noc.traffic_build",
            "sim.engine_run"};
  }

 private:
  // Another seed changes which packets are injected, not the physics:
  // the run stays stable with every packet delivered, offered load
  // within 6 sigma of the Poisson mean, and latency within 3% of the
  // golden seed's.
  void check_invariants(const wi::Table& table, Checks& checks) const {
    const auto& flit = spec_.payload<sim::FlitSimSpec>();
    checks.expect(table.rows() == golden_.rows(), "des: row count");
    for (std::size_t i = 0; i < std::min(table.rows(), golden_.rows()); ++i) {
      const auto& row = table.row(i);
      const auto& want = golden_.row(i);
      const double rate = std::stod(row[0]);
      const double latency = std::stod(row[1]);
      const double delivered = std::stod(row[3]);
      const double injected = std::stod(row[4]);
      const double expected =
          rate * static_cast<double>(spec_.noc.topology.module_count() *
                                     flit.measure_cycles);
      const std::string at = "des rate " + row[0] + ": ";
      checks.expect(row[0] == want[0], at + "rate grid");
      checks.expect(row[5] == "yes", at + "unstable");
      checks.expect(delivered == injected, at + "lost packets");
      checks.expect(std::abs(injected - expected) < 6.0 * std::sqrt(expected),
                    at + "offered load off the Poisson mean");
      checks.expect(std::abs(latency / std::stod(want[1]) - 1.0) < 0.03,
                    at + "latency far from the golden seed's");
    }
  }

  Options options_;
  wi::Table golden_;
  bool golden_seed_ = true;
  sim::ScenarioSpec spec_;
  std::unique_ptr<sim::SimEngine> engine_;
  std::unique_ptr<sim::ResultStore> store_;
};

// --- campaign_fault -----------------------------------------------------------

class CampaignWorkload final : public Workload {
 public:
  CampaignWorkload(const Options& options, CampaignSizing sizing)
      : options_(options),
        sizing_(sizing),
        golden_s64_(read_csv_table(
            options.root / "results/golden/campaign/campaign_fault_mesh2d_8x8_s64.csv")) {}

  // What `wi_run --campaign FILE --store DIR` does before its first
  // replica: read and validate the spec, start the engine, open the store.
  double setup() override {
    engine_.reset();
    campaign_.reset();
    const fs::path dir = fresh_dir(options_.work_dir / "campaign_setup");
    const auto t0 = Clock::now();
    spec_ = sim::campaign_from_string(read_file(
        options_.root / "results/campaigns/campaign_fault_mesh2d_8x8_s64.json"));
    spec_.seeds = sizing_.seeds;
    spec_.base_seed = options_.seed;
    engine_ = std::make_unique<sim::SimEngine>(
        sim::EngineOptions{sizing_.threads, false});
    const sim::ResultStore store(sim::ResultStoreOptions{dir, "perfbench"});
    campaign_ = std::make_unique<sim::Campaign>(spec_);
    return seconds_since(t0);
  }

  PassResult pass(std::size_t index, Checks& checks) override {
    PassResult out;
    // A fresh store per pass keeps every pass a cold run (all writes).
    const fs::path dir =
        fresh_dir(options_.work_dir / ("campaign_pass" + std::to_string(index)));
    sim::ResultStore store(sim::ResultStoreOptions{dir, "perfbench"});
    const CounterDelta delta(store, engine_.get());

    const auto t0 = Clock::now();
    const sim::CampaignResult result =
        campaign_->run(*engine_, &store, sizing_.threads);
    out.wall_s = seconds_since(t0);
    out.request_ms.push_back(out.wall_s * 1e3);

    const auto t1 = Clock::now();
    const sim::CampaignResult merged = sim::merge_campaign_results(spec_, store);
    out.merge_s = seconds_since(t1);

    for (const sim::RunResult& replica : result.per_seed) {
      checks.expect(replica.ok(), "campaign replica " + replica.scenario + ": " +
                                      replica.status.to_string());
    }
    checks.expect(result.ok() && result.complete(),
                  "campaign: " + result.status.to_string());
    checks.expect(merged.ok() && merged.complete() &&
                      merged.aggregate == result.aggregate,
                  "campaign: store merge is not bit-identical to the run");
    if (options_.seed == kDefaultSeed && result.per_seed.size() >= 64) {
      std::vector<wi::Table> first;
      for (std::size_t k = 0; k < 64; ++k) first.push_back(result.per_seed[k].table);
      checks.expect(sim::aggregate_tables(first) == golden_s64_,
                    "campaign: first 64 seeds differ from the s64 golden");
    }
    // Any seed: the 256-seed means agree with the golden's within the CI
    // of their difference.
    const wi::Status ci = sim::check_campaign_ci(result.aggregate, golden_s64_);
    checks.expect(ci.is_ok(), "campaign vs s64 golden: " + ci.to_string());

    delta.fill(out.layer);
    out.layer["sim.store_bytes"] = dir_bytes(dir);
    if (Recorder::global().enabled()) replay_saves(result, index);
    fs::remove_all(dir);
    return out;
  }

  std::vector<std::string> expected_spans() const override {
    return {"sim.campaign_run", "sim.store_run_all", "sim.engine_run",
            "sim.merge", "sim.store_load", "noc.simulate_network"};
  }

 private:
  // The cold run saves each replica from an engine pool thread, inside
  // a callback of ResultStore::run_all that no probe reaches. A traced
  // pass therefore writes the same results again, with the same probed
  // call, into a scratch store, outside the timed unit.
  void replay_saves(const sim::CampaignResult& result, std::size_t index) const {
    const fs::path dir =
        fresh_dir(options_.work_dir / ("campaign_replay" + std::to_string(index)));
    {
      sim::ResultStore store(sim::ResultStoreOptions{dir, "perfbench"});
      for (std::size_t k = 0; k < result.per_seed.size(); ++k) {
        store.save(sim::scenario_for_seed(spec_.scenario,
                                          sim::campaign_seed(spec_.base_seed, k)),
                   result.per_seed[k]);
      }
    }
    fs::remove_all(dir);
  }

  Options options_;
  CampaignSizing sizing_;
  wi::Table golden_s64_;
  sim::CampaignSpec spec_;
  std::unique_ptr<sim::SimEngine> engine_;
  std::unique_ptr<sim::Campaign> campaign_;
};

// --- serve_mix ------------------------------------------------------------------

/// By-name scenarios with committed goldens; repeated every round, so
/// after the first round they are served from the hot tier.
const std::vector<std::string>& duplicate_scenarios() {
  static const std::vector<std::string> names = {
      "table1_link_budget", "fig01_pathloss",    "fig04_tx_power",
      "board_links_plan",   "fig05_isi_filters", "fig08a_mesh2d_8x8"};
  return names;
}

struct MixItem {
  enum class Kind { kDuplicate, kSalted, kCampaign, kMalformed };
  Kind kind = Kind::kDuplicate;
  serve::Request request;
  std::string frame;  ///< raw line, malformed items only
  std::size_t pair = 0;  ///< salted/campaign: id of the twin pair
};

struct MixReply {
  serve::Response response;
  double latency_ms = 0.0;
  bool transport_ok = true;
};

class ServeWorkload final : public Workload {
 public:
  static constexpr std::size_t kClients = 4;
  static constexpr std::size_t kWorkers = 2;
  static constexpr std::size_t kDuplicatesPerRound = 16;
  static constexpr std::size_t kDesPerRound = 3;
  static constexpr std::size_t kInfoPerRound = 2;
  static constexpr std::size_t kCampaignSeeds = 2;
  static constexpr std::size_t kRoundsPerPass = 8;
  static constexpr std::size_t kHotCapacity = 32;

  explicit ServeWorkload(const Options& options) : options_(options) {
    for (const std::string& name : duplicate_scenarios()) {
      goldens_[name] =
          read_csv_table(options.root / "results/golden" / (name + ".csv"));
    }
  }

  double setup() override {
    stop_server();
    const fs::path dir = fresh_dir(options_.work_dir / "serve_store");
    serve::ServerOptions opts;
    opts.workers = kWorkers;
    opts.campaign_threads = 1;
    opts.hot_capacity = kHotCapacity;
    opts.store_dir = dir;
    opts.version = "perfbench";
    server_ = std::make_unique<serve::Server>(opts);
    const auto t0 = Clock::now();
    const wi::Status started = server_->start();
    if (!started.is_ok()) {
      throw std::runtime_error("server start: " + started.to_string());
    }
    serve::Request health;
    health.type = serve::RequestType::kHealth;
    double seconds = 0.0;
    // The clients keep their connections for the whole run, so a
    // malformed frame must leave its connection usable for later rounds.
    for (std::size_t c = 0; c < kClients; ++c) {
      auto client = std::make_unique<serve::Client>();
      const bool healthy = client->connect("127.0.0.1", server_->port()).is_ok() &&
                           client->set_timeout(60000.0).is_ok() &&
                           client->call(health).ok();
      if (!healthy) throw std::runtime_error("server did not answer its health check");
      if (c == 0) seconds = seconds_since(t0);
      clients_.push_back(std::move(client));
    }
    reader_ = std::make_unique<sim::ResultStore>(
        sim::ResultStoreOptions{dir, "perfbench"});
    return seconds;
  }

  // A pass is kRoundsPerPass rounds: each client sends its share of
  // every round in order, without waiting for the other clients.
  PassResult pass(std::size_t index, Checks& checks) override {
    PassResult out;
    std::vector<std::vector<MixItem>> lists(kClients);
    for (std::size_t r = 0; r < kRoundsPerPass; ++r) {
      std::vector<std::vector<MixItem>> round = build_round(index * kRoundsPerPass + r);
      for (std::size_t c = 0; c < kClients; ++c) {
        for (MixItem& item : round[c]) lists[c].push_back(std::move(item));
      }
    }
    std::vector<std::vector<MixReply>> replies(lists.size());
    const bool traced = Recorder::global().enabled();
    const CounterDelta delta(*server_->store(), &server_->engine());
    const CounterDelta reads(*reader_, nullptr);
    const double bytes_before = dir_bytes(server_->store()->options().directory);

    const auto t0 = Clock::now();
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < lists.size(); ++c) {
      clients.emplace_back([&, c] { replies[c] = drive(*clients_[c], lists[c]); });
    }
    for (auto& thread : clients) thread.join();
    out.wall_s = seconds_since(t0);

    std::map<std::size_t, const serve::Response*> first_of_pair;
    std::vector<std::pair<sim::ScenarioSpec, std::uint64_t>> stored;
    std::vector<std::pair<sim::CampaignSpec, const serve::Response*>> campaigns;
    for (std::size_t c = 0; c < lists.size(); ++c) {
      for (std::size_t i = 0; i < lists[c].size(); ++i) {
        const MixItem& item = lists[c][i];
        const MixReply& reply = replies[c][i];
        out.request_ms.push_back(reply.latency_ms);
        check_reply(item, reply, checks, out.layer);
        if (traced && reply.transport_ok &&
            item.kind != MixItem::Kind::kMalformed) {
          const serve::Response& r = reply.response;
          queue_ms_.push_back(r.queue_us / 1e3);
          run_ms_.push_back(r.run_us / 1e3);
          transport_ms_.push_back(reply.latency_ms - (r.queue_us + r.run_us) / 1e3);
        }
        if (item.kind != MixItem::Kind::kSalted &&
            item.kind != MixItem::Kind::kCampaign) {
          continue;
        }
        // Determinism: both copies of a seed-salted request must carry
        // identical tables, whichever tier answered them.
        const auto [it, first] = first_of_pair.emplace(item.pair, &reply.response);
        if (first) {
          if (item.kind == MixItem::Kind::kSalted) {
            stored.emplace_back(salted_spec(item.request), item.request.seed);
          } else {
            campaigns.emplace_back(campaign_spec(item.request), &reply.response);
          }
          continue;
        }
        const serve::Response& twin = *it->second;
        checks.expect(reply.response.result.has_value() &&
                          twin.result.has_value() &&
                          reply.response.result->table == twin.result->table,
                      "serve: salted request " + item.request.id +
                          " answered with two different tables");
      }
    }

    // Read the pass's results back through a second ResultStore on the
    // server's directory: per-seed scenario entries, and each campaign
    // re-aggregated from its per-seed entries.
    const auto t1 = Clock::now();
    std::vector<std::optional<sim::RunResult>> loaded;
    for (const auto& [spec, seed] : stored) loaded.push_back(reader_->load(spec, seed));
    std::vector<sim::CampaignResult> merged;
    for (const auto& [spec, response] : campaigns) {
      merged.push_back(sim::merge_campaign_results(spec, *reader_));
    }
    out.merge_s = seconds_since(t1);
    for (const auto& entry : loaded) {
      checks.expect(entry.has_value() && entry->ok(),
                    "serve: a salted result is missing from the store");
    }
    for (std::size_t i = 0; i < merged.size(); ++i) {
      const serve::Response& response = *campaigns[i].second;
      checks.expect(merged[i].complete() && response.result.has_value() &&
                        merged[i].aggregate == response.result->table,
                    "serve: campaign store merge differs from its reply");
    }

    delta.fill(out.layer);
    reads.fill(out.layer);
    out.layer["sim.store_bytes"] =
        dir_bytes(server_->store()->options().directory) - bytes_before;
    const double answered = out.layer["serve.tier_hot"] +
                            out.layer["serve.tier_inflight"] +
                            out.layer["serve.tier_cold"] + out.layer["serve.tier_run"];
    out.layer["serve.hit_rate"] =
        answered > 0.0 ? (answered - out.layer["serve.tier_run"]) / answered : 0.0;
    return out;
  }

  std::map<std::string, double> pooled_layer() override {
    const auto p50 = [](const std::vector<double>& v) { return percentile(v, 50.0); };
    const auto tail = [](const std::vector<double>& v) {
      return tail_percentile(v).value;
    };
    return {{"serve.queue_ms_p50", p50(queue_ms_)},
            {"serve.queue_ms_p99", tail(queue_ms_)},
            {"serve.run_ms_p50", p50(run_ms_)},
            {"serve.run_ms_p99", tail(run_ms_)},
            {"serve.transport_ms_p50", p50(transport_ms_)}};
  }

  void finish() override { stop_server(); }

  // Each round salts new requests, and which tier answers depends on
  // timing.
  bool repeatable_passes() const override { return false; }

  ~ServeWorkload() override { stop_server(); }

  std::vector<std::string> expected_spans() const override {
    return {"sim.engine_run", "sim.store_load", "sim.store_save",
            "sim.campaign_run", "noc.simulate_network"};
  }

 private:
  void stop_server() {
    clients_.clear();
    reader_.reset();
    if (server_ != nullptr) server_->stop();
    server_.reset();
  }

  std::uint64_t salt(std::size_t round, std::size_t i) const {
    // Reproducible from (seed, round, i), nonzero, and below 2^53 so the
    // JSON protocol carries it exactly.
    wi::Rng rng(options_.seed * 0x9E3779B97F4A7C15ull + round * 1000003ull + i);
    return rng.uniform_int(std::uint64_t{1} << 52) + 1;
  }

  static sim::ScenarioSpec salted_spec(const serve::Request& request) {
    return sim::scenario_for_seed(
        sim::ScenarioRegistry::paper().get(request.scenario), request.seed);
  }

  static sim::CampaignSpec campaign_spec(const serve::Request& request) {
    sim::CampaignSpec spec;
    spec.scenario = sim::ScenarioRegistry::paper().get(request.scenario);
    spec.seeds = request.seeds;
    spec.base_seed = request.base_seed;
    return spec;
  }

  // One round: duplicates, salted twin pairs (each twin on another
  // client), one salted campaign twin pair and malformed frames, shuffled
  // per client.
  std::vector<std::vector<MixItem>> build_round(std::size_t round) const {
    std::vector<std::vector<MixItem>> lists(kClients);
    const std::string tag = "r" + std::to_string(round) + "-";
    std::size_t next = 0;
    for (std::size_t i = 0; i < kDuplicatesPerRound; ++i) {
      MixItem item;
      item.request.type = serve::RequestType::kRunScenario;
      item.request.id = tag + "dup" + std::to_string(i);
      item.request.scenario = duplicate_scenarios()[i % duplicate_scenarios().size()];
      lists[next++ % kClients].push_back(std::move(item));
    }
    std::size_t pair = 0;
    const auto add_pair = [&](MixItem item) {
      item.pair = round * 1000 + pair;
      item.request.id = tag + "pair" + std::to_string(pair) + "a";
      lists[pair % kClients].push_back(item);
      item.request.id.back() = 'b';
      lists[(pair + 1) % kClients].push_back(std::move(item));
      ++pair;
    };
    for (std::size_t i = 0; i < kDesPerRound + kInfoPerRound; ++i) {
      MixItem item;
      item.kind = MixItem::Kind::kSalted;
      item.request.type = serve::RequestType::kRunScenario;
      item.request.scenario =
          i < kDesPerRound ? "flit_hotspot_mesh2d_16x16" : "fig06_info_rates";
      item.request.seed = salt(round, i);
      add_pair(std::move(item));
    }
    {
      MixItem item;
      item.kind = MixItem::Kind::kCampaign;
      item.request.type = serve::RequestType::kRunCampaign;
      item.request.scenario = "campaign_flit_mesh2d_8x8";
      item.request.seeds = kCampaignSeeds;
      item.request.base_seed = salt(round, 100);
      add_pair(std::move(item));
    }
    const std::vector<std::string> malformed = {
        "{\"type\":\"run_scenario\",\"id\":\"" + tag +
            "bad0\",\"scenario\":\"no_such_scenario\"}",
        "this is not a json frame " + tag,
        "{\"type\":\"launch\",\"id\":\"" + tag + "bad2\"}",
        "{\"type\":\"run_campaign\",\"id\":\"" + tag +
            "bad3\",\"scenario\":\"campaign_flit_mesh2d_8x8\",\"seeds\":0}"};
    for (std::size_t i = 0; i < malformed.size(); ++i) {
      MixItem item;
      item.kind = MixItem::Kind::kMalformed;
      item.frame = malformed[i];
      lists[i % kClients].push_back(std::move(item));
    }
    wi::Rng rng(salt(round, 200));
    for (auto& list : lists) {
      for (std::size_t i = list.size(); i > 1; --i) {
        std::swap(list[i - 1], list[rng.uniform_int(i)]);
      }
    }
    return lists;
  }

  // One closed-loop client: each request waits for its reply.
  static std::vector<MixReply> drive(serve::Client& client,
                                     const std::vector<MixItem>& items) {
    std::vector<MixReply> replies(items.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
      MixReply& reply = replies[i];
      const auto t0 = Clock::now();
      try {
        reply.response = items[i].kind == MixItem::Kind::kMalformed
                             ? client.call_raw(items[i].frame)
                             : client.call(items[i].request);
      } catch (const std::exception& error) {
        reply.transport_ok = false;
        reply.response.status =
            wi::Status(wi::StatusCode::kUnavailable, error.what());
      }
      reply.latency_ms = seconds_since(t0) * 1e3;
    }
    return replies;
  }

  void check_reply(const MixItem& item, const MixReply& reply, Checks& checks,
                   std::map<std::string, double>& layer) const {
    const serve::Response& r = reply.response;
    const std::string id =
        item.kind == MixItem::Kind::kMalformed ? item.frame : item.request.id;
    checks.expect(reply.transport_ok, "serve transport error on " + id + ": " +
                                          r.status.to_string());
    if (!reply.transport_ok) return;
    if (item.kind == MixItem::Kind::kMalformed) {
      check_malformed_reply(r, item.frame, checks);
      if (!r.ok()) layer["serve.malformed_answered"] += 1.0;
      return;
    }
    layer["serve.tier_" + (r.tier.empty() ? std::string("none") : r.tier)] += 1.0;
    if (!r.ok()) layer["serve.rejected"] += 1.0;
    checks.expect(r.ok() && r.result.has_value() && r.result->table.rows() > 0,
                  "serve: " + id + " answered " + r.status.to_string());
    if (item.kind == MixItem::Kind::kDuplicate && r.result.has_value()) {
      checks.expect(r.result->table == goldens_.at(item.request.scenario),
                    "serve: " + id + " differs from the " +
                        item.request.scenario + " golden");
    }
  }

  Options options_;
  std::map<std::string, wi::Table> goldens_;
  std::unique_ptr<serve::Server> server_;
  std::vector<std::unique_ptr<serve::Client>> clients_;
  std::unique_ptr<sim::ResultStore> reader_;
  std::vector<double> queue_ms_, run_ms_, transport_ms_;
};

}  // namespace

// --- shared -----------------------------------------------------------------------

void Checks::expect(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (messages_.size() < 10) messages_.push_back(what);
}

wi::Table read_csv_table(const fs::path& path) {
  return wi::table_from_csv(read_file(path));
}

void check_rows(const wi::Table& actual, const wi::Table& golden,
                std::size_t key_columns, const std::string& what,
                Checks& checks) {
  const auto key = [key_columns](const std::vector<std::string>& row) {
    return std::vector<std::string>(row.begin(),
                                    row.begin() + std::min(key_columns, row.size()));
  };
  std::map<std::vector<std::string>, const std::vector<std::string>*> want;
  for (std::size_t i = 0; i < golden.rows(); ++i) {
    want[key(golden.row(i))] = &golden.row(i);
  }
  checks.expect(actual.headers() == golden.headers(), what + ": headers differ");
  std::size_t matched = 0;
  for (std::size_t i = 0; i < actual.rows(); ++i) {
    const auto& row = actual.row(i);
    const auto it = want.find(key(row));
    const bool same = it != want.end() && *it->second == row;
    matched += same ? 1 : 0;
    checks.expect(same, what + ": row " + std::to_string(i) +
                            " differs from the golden");
  }
  checks.expect(matched == golden.rows(), what + ": golden rows missing");
}

void check_malformed_reply(const serve::Response& reply, const std::string& frame,
                           Checks& checks) {
  checks.expect(!reply.ok(), "serve: malformed frame answered ok: " + frame);
}

std::vector<LdpcRow> default_ldpc_rows() {
  return {{true, 25, 3}, {true, 40, 3}, {false, 100, 0}, {false, 150, 0},
          {false, 200, 0}};
}

std::unique_ptr<Workload> make_ldpc_workload(const Options& options,
                                             std::vector<LdpcRow> rows) {
  return std::make_unique<LdpcWorkload>(options, std::move(rows));
}

std::unique_ptr<Workload> make_campaign_workload(const Options& options,
                                                 CampaignSizing sizing) {
  return std::make_unique<CampaignWorkload>(options, sizing);
}

std::vector<std::string> workload_names() {
  return {"ldpc_fig10", "des_bigmesh", "campaign_fault", "serve_mix"};
}

std::unique_ptr<Workload> make_workload(const Options& options) {
  if (options.workload == "ldpc_fig10") {
    return make_ldpc_workload(options, default_ldpc_rows());
  }
  if (options.workload == "des_bigmesh") return std::make_unique<DesWorkload>(options);
  if (options.workload == "campaign_fault") {
    return make_campaign_workload(options, CampaignSizing{});
  }
  if (options.workload == "serve_mix") return std::make_unique<ServeWorkload>(options);
  throw std::invalid_argument("unknown workload '" + options.workload + "'");
}

}  // namespace perfbench
