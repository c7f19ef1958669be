#include "wi/sim/engine.hpp"

#include <algorithm>
#include <ostream>
#include <thread>
#include <utility>

#include "wi/common/parallel.hpp"
#include "wi/sim/workload.hpp"

namespace wi::sim {

SimEngine::SimEngine(EngineOptions options) : options_(options) {}

std::size_t SimEngine::resolve_threads(std::size_t requested) const {
  std::size_t threads = requested != 0 ? requested : options_.threads;
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  return threads;
}

RunResult SimEngine::run(const ScenarioSpec& spec) {
  RunResult result;
  result.scenario = spec.name;
  try {
    result.table = Table(workload_headers(spec.workload));
    result.status = spec.validate();
    if (result.status.is_ok()) {
      const WorkloadRunner& runner =
          WorkloadRegistry::global().get(spec.workload);
      WorkloadEnv env(phy_cache_, /*seed=*/0, resolve_threads(0));
      result.table = runner.run(spec, env);
      result.notes = std::move(env.notes());
    }
  } catch (const StatusError& e) {
    result.status = e.status();
  } catch (const std::exception& e) {
    result.status = Status(StatusCode::kExecutionError, e.what());
  } catch (...) {
    // Catch-all barrier: a stray exception must fail this scenario,
    // never terminate a parallel worker thread.
    result.status =
        Status(StatusCode::kExecutionError, "unknown exception");
  }
  if (!result.status.is_ok()) {
    // Failed runs report an empty table under the workload's schema.
    result.table = Table(workload_headers(spec.workload));
  }
  return result;
}

std::vector<RunResult> SimEngine::run_all(
    const std::vector<ScenarioSpec>& specs, std::size_t threads,
    const ResultCallback& on_result) {
  std::vector<RunResult> results(specs.size());
  if (specs.empty()) return results;
  const std::size_t workers =
      std::min(resolve_threads(threads), specs.size());
  // Nested parallelism (PHY curve builds on a cache miss, a runner's
  // own rows and batches) joins the same pool, so it fills the workers
  // that scenario-level tasks leave idle without oversubscribing.
  parallel_for(specs.size(), workers, [&](std::size_t i) {
    results[i] = run(specs[i]);
    if (on_result) on_result(i, results[i]);
  });
  return results;
}

RunResult SimEngine::run_sweep(const ScenarioSpec& base,
                               const std::vector<SweepAxis>& axes,
                               std::size_t threads) {
  const std::vector<ScenarioSpec> specs = expand_grid(base, axes);
  const std::size_t hits_before = phy_cache_.hits();
  const std::size_t misses_before = phy_cache_.misses();
  const std::vector<RunResult> runs = run_all(specs, threads);

  RunResult merged = merge_sweep_results(base.name, base.workload, runs);
  // Deltas, not lifetime counters: a bench may run several sweeps on
  // one engine and each note must describe its own sweep.
  merged.notes.push_back(
      Table::num(static_cast<long long>(runs.size())) + " grid points; " +
      "phy curve cache: " +
      Table::num(static_cast<long long>(phy_cache_.hits() - hits_before)) +
      " hits / " +
      Table::num(
          static_cast<long long>(phy_cache_.misses() - misses_before)) +
      " misses");
  return merged;
}

RunResult merge_sweep_results(const std::string& sweep_name,
                              const std::string& workload,
                              const std::vector<RunResult>& runs) {
  RunResult merged;
  merged.scenario = sweep_name;
  std::size_t failed = 0;
  std::vector<std::string> headers = {"scenario", "status"};
  const std::vector<std::string> schema = workload_headers(workload);
  headers.insert(headers.end(), schema.begin(), schema.end());
  merged.table = Table(headers);
  for (const RunResult& r : runs) {
    if (r.ok()) {
      for (std::size_t i = 0; i < r.table.rows(); ++i) {
        std::vector<std::string> cells = {r.scenario, "ok"};
        const auto& row = r.table.row(i);
        cells.insert(cells.end(), row.begin(), row.end());
        merged.table.add_row(std::move(cells));
      }
    } else {
      // Surface the failure as a row so the sweep itself survives.
      ++failed;
      std::vector<std::string> cells = {r.scenario, r.status.to_string()};
      cells.insert(cells.end(), schema.size(), "-");
      merged.table.add_row(std::move(cells));
    }
    for (const auto& note : r.notes) {
      merged.notes.push_back(r.scenario + ": " + note);
    }
  }
  if (failed > 0) {
    // Aggregate failure so callers' exit-code checks see it; the
    // per-point rows above carry the individual diagnoses.
    merged.status = Status(
        StatusCode::kExecutionError,
        std::to_string(failed) + " of " + std::to_string(runs.size()) +
            " grid points failed (see status column)");
  }
  return merged;
}

void print_result(std::ostream& os, const RunResult& result) {
  os << "# scenario: " << result.scenario << "\n";
  if (!result.ok()) os << "# status: " << result.status.to_string() << "\n";
  for (const auto& note : result.notes) os << "# " << note << "\n";
  result.table.print(os);
}

}  // namespace wi::sim
