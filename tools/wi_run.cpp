/// \file wi_run.cpp
/// \brief Data-driven scenario runner: run any registered paper
///        scenario by name, serialize the results, cache them in the
///        persistent ResultStore and diff them against golden
///        references — the one driver behind `results/golden/` and the
///        reproduce-paper CI gate.
///
///   wi_run --list                         # registry + workload kinds
///   wi_run fig08a_mesh2d_8x8              # run one scenario, print it
///   wi_run fig08a                         # every scenario named fig08a*
///   wi_run --all --out results/current    # regenerate every artifact
///   wi_run fig01_pathloss --check results/golden   # tolerance diff
///   wi_run --spec my_scenario.json        # run a JSON spec file
///   wi_run --spec results/specs/fig10_keypoint.json   # heavy variant
///
/// A positional name selects every registered scenario whose name
/// starts with it, in registry order: a full name selects itself plus
/// its sweep grid points ("ablation_vertical_links/period=1", ...).
///
/// Campaign mode (--seeds N): each selected scenario becomes a
/// multi-seed Monte-Carlo campaign — N seed replicas derived
/// SplitMix64-style from --base-seed, cached per seed in the result
/// store (default results/store, so re-running is a full cache hit and
/// interrupted campaigns resume per seed), reduced to a statistical
/// aggregate table:
///
///   wi_run campaign_info_rates --seeds 8              # run + print
///   wi_run campaign_info_rates --seeds 8 --campaign-out DIR   # goldens
///   wi_run campaign_info_rates --seeds 8 --check-ci DIR  # golden gate
///   wi_run --campaign my_campaign.json    # run a CampaignSpec file
///
/// Distributed campaigns: N worker processes (or machines sharing a
/// store directory) each run one shard of the seed schedule, and an
/// aggregator merges whatever per-seed results exist — incrementally,
/// while seeds are still streaming in — into the same aggregate the
/// single-process run produces, bit-for-bit once all seeds landed:
///
///   wi_run campaign_info_rates --seeds 64 --shard 0/4 --store DIR  # worker
///   wi_run campaign_info_rates --seeds 64 --merge DIR              # merge
///   wi_run campaign_info_rates --seeds 64 --merge DIR --allow-partial
///
/// All workers and the aggregator must run the same build: store keys
/// include the code version, so a mixed fleet simply misses.
///
/// Exit codes: 0 ok, 1 scenario failure, golden mismatch or an
/// incomplete --merge without --allow-partial, 2 usage (including
/// unknown scenario/workload names, which print a nearest-match
/// suggestion plus the full known-name list).

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "wi/common/table_io.hpp"
#include "wi/sim/sim.hpp"

// Build-time generated (cmake/GenerateVersionHeader.cmake): refreshed
// on every build so result-store keys track the exact code state.
#if __has_include("wi_version.h")
#include "wi_version.h"
#else
#define WI_GIT_DESCRIBE "unversioned"
#endif

namespace {

using namespace wi;
using namespace wi::sim;

struct CliOptions {
  std::vector<std::string> scenarios;
  std::vector<std::filesystem::path> spec_files;
  std::vector<std::filesystem::path> campaign_files;
  bool list = false;
  bool all = false;
  bool dump_spec = false;
  bool quiet = false;
  bool no_store = false;
  std::size_t threads = 0;
  std::size_t seeds = 0;  ///< > 0 switches to campaign mode
  std::uint64_t base_seed = 1;
  std::optional<std::filesystem::path> out_dir;
  std::optional<std::filesystem::path> store_dir;
  std::optional<std::filesystem::path> check_path;
  std::optional<std::filesystem::path> campaign_out_dir;
  std::optional<std::filesystem::path> check_ci_path;
  std::optional<CampaignShard> shard;
  std::optional<std::filesystem::path> merge_dir;
  bool allow_partial = false;
  CompareOptions compare;
  CiCheckOptions ci;
};

void print_usage(std::ostream& os) {
  os << "usage: wi_run [<scenario>...] [options]\n"
        "\n"
        "A <scenario> argument selects every registered scenario whose\n"
        "name starts with it (e.g. fig08a), in registry order.\n"
        "\n"
        "options:\n"
        "  --list             list scenarios + workload kinds and exit\n"
        "  --all              run every registered scenario\n"
        "  --spec FILE        run a ScenarioSpec JSON file (repeatable)\n"
        "  --dump-spec        print scenario JSON specs instead of running\n"
        "  --threads N        worker threads (0 = hardware concurrency)\n"
        "  --out DIR          write <scenario>.csv + <scenario>.json there\n"
        "  --store DIR        persistent result cache (content-keyed by\n"
        "                     spec hash + version '" WI_GIT_DESCRIBE "')\n"
        "  --check PATH       diff each result against golden CSV: PATH\n"
        "                     is a directory with <scenario>.csv files,\n"
        "                     or one CSV file for a single scenario\n"
        "  --rel-tol X        cell tolerance, relative (default 1e-9)\n"
        "  --abs-tol X        cell tolerance, absolute (default 1e-12)\n"
        "  --quiet            suppress result tables (status lines only)\n"
        "\n"
        "campaign mode:\n"
        "  --seeds N          run each scenario as an N-seed campaign\n"
        "  --base-seed S      root of the SplitMix64 seed derivation\n"
        "                     (default 1; replica k gets a seed that\n"
        "                     depends only on S and k)\n"
        "  --campaign FILE    run a CampaignSpec JSON file (repeatable)\n"
        "  --campaign-out DIR write <name>.csv (aggregate) + <name>.json\n"
        "  --check-ci PATH    statistical golden check: PATH is a\n"
        "                     directory with <name>.csv aggregates, or\n"
        "                     one CSV file; fails when a golden mean\n"
        "                     falls outside the regenerated 95% CI\n"
        "  --ci-slack X       CI half-width multiplier (default 1)\n"
        "  --no-store         disable the default campaign result store\n"
        "                     (campaigns otherwise cache per-seed\n"
        "                     results in results/store)\n"
        "\n"
        "distributed campaigns (shard workers + aggregator):\n"
        "  --shard I/N        run only the seed indices congruent to I\n"
        "                     mod N (I in 0..N-1); seed values are\n"
        "                     shard-invariant, so N workers sharing one\n"
        "                     --store directory cover the seed set\n"
        "                     exactly once\n"
        "  --merge DIR        do not run anything: fold the per-seed\n"
        "                     results present in store DIR into the\n"
        "                     campaign aggregate (bit-identical to the\n"
        "                     single-process run once complete) and\n"
        "                     flag missing seed indices\n"
        "  --allow-partial    exit 0 from --merge even when seeds are\n"
        "                     still missing (partial CI95 reporting\n"
        "                     while workers stream seeds in)\n";
}

[[nodiscard]] bool parse_count(const std::string& text,
                               const std::string& flag, std::size_t& out) {
  try {
    std::size_t consumed = 0;
    const unsigned long parsed = std::stoul(text, &consumed);
    if (consumed != text.size()) throw std::invalid_argument(text);
    out = static_cast<std::size_t>(parsed);
    return true;
  } catch (const std::exception&) {
    std::cerr << "wi_run: " << flag << " expects a non-negative integer, "
              << "got '" << text << "'\n";
    return false;
  }
}

[[nodiscard]] bool parse_tolerance(const std::string& text,
                                   const std::string& flag, double& out) {
  try {
    std::size_t consumed = 0;
    const double parsed = std::stod(text, &consumed);
    if (consumed != text.size()) throw std::invalid_argument(text);
    out = parsed;
    return true;
  } catch (const std::exception&) {
    std::cerr << "wi_run: " << flag << " expects a number, got '" << text
              << "'\n";
    return false;
  }
}

/// "I/N" with I in [0, N): the shard syntax of --shard.
[[nodiscard]] bool parse_shard(const std::string& text,
                               CampaignShard& out) {
  const std::size_t slash = text.find('/');
  if (slash == std::string::npos || slash == 0 ||
      slash + 1 >= text.size()) {
    std::cerr << "wi_run: --shard expects I/N (e.g. 0/4), got '" << text
              << "'\n";
    return false;
  }
  CampaignShard shard;
  if (!parse_count(text.substr(0, slash), "--shard index", shard.index) ||
      !parse_count(text.substr(slash + 1), "--shard count", shard.count)) {
    return false;
  }
  const wi::Status status = shard.validate();
  if (!status.is_ok()) {
    std::cerr << "wi_run: --shard " << text << ": " << status.message()
              << "\n";
    return false;
  }
  out = shard;
  return true;
}

[[nodiscard]] std::optional<CliOptions> parse_cli(int argc, char** argv) {
  CliOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::optional<std::string> {
      if (i + 1 >= argc) {
        std::cerr << "wi_run: " << arg << " needs a value\n";
        return std::nullopt;
      }
      return std::string(argv[++i]);
    };
    if (arg == "--list") {
      options.list = true;
    } else if (arg == "--all") {
      options.all = true;
    } else if (arg == "--dump-spec") {
      options.dump_spec = true;
    } else if (arg == "--quiet") {
      options.quiet = true;
    } else if (arg == "--spec") {
      const auto v = value();
      if (!v) return std::nullopt;
      options.spec_files.emplace_back(*v);
    } else if (arg == "--threads") {
      const auto v = value();
      if (!v) return std::nullopt;
      if (!parse_count(*v, arg, options.threads)) return std::nullopt;
    } else if (arg == "--seeds") {
      const auto v = value();
      if (!v) return std::nullopt;
      if (!parse_count(*v, arg, options.seeds)) return std::nullopt;
    } else if (arg == "--base-seed") {
      const auto v = value();
      if (!v) return std::nullopt;
      std::size_t parsed = 0;
      if (!parse_count(*v, arg, parsed)) return std::nullopt;
      options.base_seed = parsed;
    } else if (arg == "--campaign") {
      const auto v = value();
      if (!v) return std::nullopt;
      options.campaign_files.emplace_back(*v);
    } else if (arg == "--campaign-out") {
      const auto v = value();
      if (!v) return std::nullopt;
      options.campaign_out_dir = *v;
    } else if (arg == "--check-ci") {
      const auto v = value();
      if (!v) return std::nullopt;
      options.check_ci_path = *v;
    } else if (arg == "--ci-slack") {
      const auto v = value();
      if (!v) return std::nullopt;
      if (!parse_tolerance(*v, arg, options.ci.slack)) return std::nullopt;
    } else if (arg == "--no-store") {
      options.no_store = true;
    } else if (arg == "--shard") {
      const auto v = value();
      if (!v) return std::nullopt;
      CampaignShard shard;
      if (!parse_shard(*v, shard)) return std::nullopt;
      options.shard = shard;
    } else if (arg == "--merge") {
      const auto v = value();
      if (!v) return std::nullopt;
      options.merge_dir = *v;
    } else if (arg == "--allow-partial") {
      options.allow_partial = true;
    } else if (arg == "--out") {
      const auto v = value();
      if (!v) return std::nullopt;
      options.out_dir = *v;
    } else if (arg == "--store") {
      const auto v = value();
      if (!v) return std::nullopt;
      options.store_dir = *v;
    } else if (arg == "--check") {
      const auto v = value();
      if (!v) return std::nullopt;
      options.check_path = *v;
    } else if (arg == "--rel-tol") {
      const auto v = value();
      if (!v) return std::nullopt;
      if (!parse_tolerance(*v, arg, options.compare.rel_tol)) {
        return std::nullopt;
      }
    } else if (arg == "--abs-tol") {
      const auto v = value();
      if (!v) return std::nullopt;
      if (!parse_tolerance(*v, arg, options.compare.abs_tol)) {
        return std::nullopt;
      }
    } else if (arg == "--help" || arg == "-h") {
      print_usage(std::cout);
      std::exit(0);
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "wi_run: unknown option '" << arg << "'\n";
      return std::nullopt;
    } else {
      options.scenarios.push_back(arg);
    }
  }
  return options;
}

/// Scenario names are filesystem-safe except for sweep-expanded grid
/// points ("base/axis=value"); flatten separators for artifact names.
[[nodiscard]] std::string artifact_stem(const std::string& scenario) {
  std::string stem = scenario;
  for (char& c : stem) {
    if (c == '/' || c == ';' || c == '=' || c == ' ') c = '_';
  }
  return stem;
}

void write_artifacts(const std::filesystem::path& dir,
                     const RunResult& result) {
  std::filesystem::create_directories(dir);
  const std::string stem = artifact_stem(result.scenario);
  {
    std::ofstream csv(dir / (stem + ".csv"), std::ios::trunc);
    write_csv(csv, result.table);
  }
  {
    std::ofstream json(dir / (stem + ".json"), std::ios::trunc);
    json << run_result_to_json(result).dump(2) << "\n";
  }
}

/// Returns true when the result matches its golden reference.
[[nodiscard]] bool check_result(const std::filesystem::path& check_path,
                                const RunResult& result,
                                const CompareOptions& compare) {
  std::filesystem::path golden_file = check_path;
  if (std::filesystem::is_directory(check_path)) {
    golden_file = check_path / (artifact_stem(result.scenario) + ".csv");
  }
  std::ifstream in(golden_file);
  if (!in) {
    std::cerr << "wi_run: no golden file '" << golden_file.string()
              << "' for scenario '" << result.scenario << "'\n";
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const Table golden = table_from_csv(buffer.str());
  const TableDiff diff = compare_tables(result.table, golden, compare);
  if (diff.match) {
    std::cout << "check " << result.scenario << ": OK ("
              << golden.rows() << " rows vs '" << golden_file.string()
              << "')\n";
    return true;
  }
  std::cerr << "check " << result.scenario << ": MISMATCH vs '"
            << golden_file.string() << "'\n"
            << format_diff(diff, golden) << "\n";
  return false;
}

[[nodiscard]] std::string slurp(const std::filesystem::path& path,
                                const char* what) {
  std::ifstream in(path);
  if (!in) {
    throw StatusError(Status(StatusCode::kNotFound,
                             std::string("cannot open ") + what + " '" +
                                 path.string() + "'"));
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

[[nodiscard]] ScenarioSpec load_spec_file(const std::filesystem::path& path) {
  return scenario_from_string(slurp(path, "spec file"));
}

void write_campaign_artifacts(const std::filesystem::path& dir,
                              const CampaignResult& result) {
  std::filesystem::create_directories(dir);
  const std::string stem = artifact_stem(result.campaign);
  {
    std::ofstream csv(dir / (stem + ".csv"), std::ios::trunc);
    write_csv(csv, result.aggregate);
  }
  {
    std::ofstream json(dir / (stem + ".json"), std::ios::trunc);
    json << campaign_result_to_json(result).dump(2) << "\n";
  }
}

/// Returns true when the regenerated aggregate statistically matches
/// its golden reference (every golden mean inside the regenerated CI).
[[nodiscard]] bool check_campaign(const std::filesystem::path& check_path,
                                  const CampaignResult& result,
                                  const CiCheckOptions& options) {
  std::filesystem::path golden_file = check_path;
  if (std::filesystem::is_directory(check_path)) {
    golden_file = check_path / (artifact_stem(result.campaign) + ".csv");
  }
  std::ifstream in(golden_file);
  if (!in) {
    std::cerr << "wi_run: no campaign golden '" << golden_file.string()
              << "' for campaign '" << result.campaign << "'\n";
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const Table golden = table_from_csv(buffer.str());
  const Status status =
      check_campaign_ci(result.aggregate, golden, options);
  if (status.is_ok()) {
    std::cout << "check-ci " << result.campaign << ": OK ("
              << golden.rows() << " aggregate cells vs '"
              << golden_file.string() << "')\n";
    return true;
  }
  std::cerr << "check-ci " << result.campaign << ": MISMATCH vs '"
            << golden_file.string() << "'\n"
            << status.to_string() << "\n";
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  const auto parsed = parse_cli(argc, argv);
  if (!parsed) {
    print_usage(std::cerr);
    return 2;
  }
  const CliOptions& options = *parsed;
  const ScenarioRegistry& registry = ScenarioRegistry::paper();

  if (options.list) {
    // Sorted, with the workload kind next to each scenario; the open
    // workload registry is listed below the scenarios.
    std::vector<std::string> names = registry.names();
    std::sort(names.begin(), names.end());
    std::size_t width = 0;
    for (const auto& name : names) width = std::max(width, name.size());
    std::cout << "registered scenarios (" << registry.size() << "):\n";
    for (const auto& name : names) {
      const ScenarioSpec& spec = registry.get(name);
      std::cout << "  " << name
                << std::string(width - name.size() + 2, ' ') << "["
                << spec.workload << "]\n      " << spec.description << "\n";
    }
    const WorkloadRegistry& workloads = WorkloadRegistry::global();
    std::cout << "\nregistered workload kinds (" << workloads.size()
              << "):\n";
    for (const auto& name : workloads.names()) {
      std::cout << "  " << name;
      const std::string description = workloads.get(name).description();
      if (!description.empty()) std::cout << "\n      " << description;
      std::cout << "\n";
    }
    return 0;
  }

  std::vector<ScenarioSpec> specs;
  std::vector<CampaignSpec> campaigns;
  try {
    if (options.all) {
      for (const auto& name : registry.names()) {
        specs.push_back(registry.get(name));
      }
    }
    for (const auto& name : options.scenarios) {
      const std::vector<std::string> selected = registry.select(name);
      if (selected.empty()) {
        // Unknown names are usage errors (exit 2), kept distinct from
        // run failures / golden drift (exit 1): print the nearest
        // match and the full known-name list.
        std::cerr << "wi_run: unknown scenario '" << name << "'";
        const std::string suggestion = closest_name(name, registry.names());
        if (!suggestion.empty()) {
          std::cerr << " (did you mean '" << suggestion << "'?)";
        }
        std::cerr << "\nknown scenarios:\n";
        std::vector<std::string> names = registry.names();
        std::sort(names.begin(), names.end());
        for (const auto& known : names) std::cerr << "  " << known << "\n";
        return 2;
      }
      for (const auto& match : selected) specs.push_back(registry.get(match));
    }
    for (const auto& path : options.spec_files) {
      specs.push_back(load_spec_file(path));
    }
    for (const auto& path : options.campaign_files) {
      campaigns.push_back(
          campaign_from_string(slurp(path, "campaign file")));
    }
    if (options.seeds > 0) {
      // Campaign mode: every selected scenario becomes one campaign, so
      // the single-run golden flags would be silently dead — reject
      // them instead of letting a --check gate pass vacuously.
      if (options.out_dir || options.check_path) {
        std::cerr << "wi_run: --seeds runs campaigns; use --campaign-out"
                     " / --check-ci instead of --out / --check\n";
        return 2;
      }
      for (auto& spec : specs) {
        CampaignSpec campaign;
        campaign.seeds = options.seeds;
        campaign.base_seed = options.base_seed;
        campaign.scenario = std::move(spec);
        campaigns.push_back(std::move(campaign));
      }
      specs.clear();
    }
  } catch (const StatusError& e) {
    std::cerr << "wi_run: " << e.status().to_string() << "\n";
    return 2;
  }
  if (specs.empty() && campaigns.empty()) {
    std::cerr << "wi_run: nothing to run (name scenarios, --all, --spec "
                 "or --campaign; --list shows the registry)\n";
    print_usage(std::cerr);
    return 2;
  }
  if (options.shard || options.merge_dir) {
    // Worker/aggregator modes are campaign-only, and their flag
    // combinations are checked up front so a misconfigured fleet
    // fails at launch (exit 2), not after hours of simulation.
    if (options.shard && options.merge_dir) {
      std::cerr << "wi_run: --shard runs a worker, --merge runs the "
                   "aggregator; pick one\n";
      return 2;
    }
    if (campaigns.empty() || !specs.empty()) {
      std::cerr << "wi_run: --shard/--merge apply to campaigns only "
                   "(--seeds N or --campaign FILE)\n";
      return 2;
    }
    if (options.shard && options.no_store) {
      std::cerr << "wi_run: a shard worker's output *is* the store; "
                   "--shard cannot be combined with --no-store\n";
      return 2;
    }
    if (options.shard && (options.campaign_out_dir || options.check_ci_path)) {
      std::cerr << "wi_run: a shard aggregate covers only its own seeds; "
                   "write artifacts / check goldens from --merge instead\n";
      return 2;
    }
    if (options.merge_dir && (options.store_dir || options.no_store)) {
      std::cerr << "wi_run: --merge reads the store given as its "
                   "argument; --store/--no-store do not apply\n";
      return 2;
    }
  }
  if (options.allow_partial && !options.merge_dir) {
    std::cerr << "wi_run: --allow-partial only applies to --merge\n";
    return 2;
  }

  if (options.dump_spec) {
    for (const auto& spec : specs) {
      std::cout << scenario_to_json(spec).dump(2) << "\n";
    }
    for (const auto& campaign : campaigns) {
      std::cout << campaign_to_json(campaign).dump(2) << "\n";
    }
    return 0;
  }

  // Per-scenario failures are reported as statuses; this guard is for
  // environment failures (unwritable --out/--store, disk full, ...).
  try {
    SimEngine engine(EngineOptions{options.threads});
    std::optional<ResultStore> store;
    if (options.merge_dir) {
      // The aggregator's store is the shared worker directory; keys
      // carry the same version string the workers wrote with.
      store.emplace(ResultStoreOptions{*options.merge_dir, WI_GIT_DESCRIBE});
    } else if (options.store_dir) {
      store.emplace(ResultStoreOptions{*options.store_dir, WI_GIT_DESCRIBE});
    } else if (!campaigns.empty() && !options.no_store) {
      // Per-seed persistence is the campaign layer's core contract:
      // interrupted campaigns resume per seed and a repeated campaign
      // is a full cache hit. --no-store opts out.
      store.emplace(
          ResultStoreOptions{"results/store", WI_GIT_DESCRIBE});
    }

    const std::vector<RunResult> results =
        store ? store->run_all(engine, specs, options.threads)
              : engine.run_all(specs, options.threads);

    int failures = 0;
    for (const RunResult& result : results) {
      if (options.quiet) {
        std::cout << result.scenario << ": " << result.status.to_string()
                  << " (" << result.table.rows() << " rows)\n";
      } else {
        print_result(std::cout, result);
        std::cout << "\n";
      }
      if (!result.ok()) {
        ++failures;
        continue;  // no artifacts/checks for failed runs
      }
      if (options.out_dir) write_artifacts(*options.out_dir, result);
      if (options.check_path &&
          !check_result(*options.check_path, result, options.compare)) {
        ++failures;
      }
    }

    std::size_t total = results.size();
    for (const CampaignSpec& spec : campaigns) {
      const Campaign campaign(spec);
      const CampaignResult result =
          options.merge_dir
              ? merge_campaign_results(spec, *store)
              : campaign.run(engine, store ? &*store : nullptr,
                             options.threads,
                             options.shard.value_or(CampaignShard{}));
      ++total;
      if (options.quiet) {
        std::cout << result.campaign << ": " << result.status.to_string()
                  << " (" << result.seeds << " seeds, "
                  << result.aggregate.rows() << " aggregate cells)\n";
      } else {
        print_campaign(std::cout, result);
        std::cout << "\n";
      }
      if (!result.ok()) {
        ++failures;
        continue;  // no artifacts/checks for failed campaigns
      }
      if (!result.complete() && !options.allow_partial) {
        // A merge with holes is a worker-fleet problem, not a golden
        // drift: report it loudly (exit 1) unless the caller asked to
        // peek at partial statistics. The partial aggregate was still
        // printed above.
        std::cerr << "wi_run: campaign '" << result.campaign << "': "
                  << result.missing_seeds.size() << " of " << result.seeds
                  << " seeds missing from the store (workers still "
                     "running? pass --allow-partial to accept)\n";
        ++failures;
        continue;
      }
      if (options.campaign_out_dir) {
        write_campaign_artifacts(*options.campaign_out_dir, result);
      }
      if (options.check_ci_path &&
          !check_campaign(*options.check_ci_path, result, options.ci)) {
        ++failures;
      }
    }

    std::cout << "phy curve cache: " << engine.phy_cache().hits()
              << " hits / " << engine.phy_cache().misses() << " misses\n";
    if (store) {
      std::cout << "result store: " << store->hits() << " hits / "
                << store->misses() << " misses (version " << WI_GIT_DESCRIBE
                << ")\n";
    }
    if (failures > 0) {
      std::cerr << "wi_run: " << failures << " of " << total
                << " runs failed\n";
      return 1;
    }
    return 0;
  } catch (const StatusError& e) {
    std::cerr << "wi_run: " << e.status().to_string() << "\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "wi_run: " << e.what() << "\n";
    return 1;
  }
}
