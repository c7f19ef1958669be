#pragma once
/// \file engine.hpp
/// \brief Scenario execution facade: one entry point from link budget
///        to NoC evaluation.
///
/// SimEngine turns a declarative ScenarioSpec into a structured
/// ResultTable by dispatching to the workload's registered runner (see
/// wi/sim/workload.hpp) — the engine itself is pure orchestration:
/// grid expansion, the work-stealing pool, the shared PhyCurveCache
/// and result plumbing, with no knowledge of any concrete workload.
/// Per-scenario failures (invalid specs, unreachable routes, ...) are
/// captured as a Status in the result — one bad grid point never aborts
/// a sweep — and results are deterministic: the same spec list produces
/// cell-identical tables at any thread count.

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "wi/common/table.hpp"
#include "wi/sim/phy_curve_cache.hpp"
#include "wi/sim/scenario.hpp"
#include "wi/sim/status.hpp"
#include "wi/sim/workload.hpp"

namespace wi::sim {

/// Result of one scenario run. `table` uses the workload's schema (see
/// workload_headers); `notes` carry derived scalars (fits, anchors,
/// cross-checks) that do not fit the row schema.
struct RunResult {
  std::string scenario;
  Status status;
  Table table;
  std::vector<std::string> notes;

  [[nodiscard]] bool ok() const { return status.is_ok(); }
};

/// Engine options.
struct EngineOptions {
  EngineOptions() = default;
  /// Also accepts the two-field brace form `EngineOptions{threads, false}`
  /// of older callers; the flag it carried is gone and the value is
  /// ignored.
  constexpr explicit EngineOptions(std::size_t threads,
                                   bool /*ignored*/ = false)
      : threads(threads) {}

  /// Worker threads for run_all/run_sweep, and for a runner's own
  /// parallelism (WorkloadEnv::threads()); 0 = hardware concurrency.
  /// Every engine, the wi_serve one included, runs on the one
  /// process-wide pool (wi::parallel_for): nested calls (PHY curve
  /// builds, a runner's rows, codeword batches) fill the workers that
  /// outer callers leave idle and never start a thread beyond the pool.
  /// With 1, run() keeps a runner's work on the calling thread.
  std::size_t threads = 0;
};

/// Executes scenarios; owns the PHY curve cache shared across runs.
class SimEngine {
 public:
  explicit SimEngine(EngineOptions options = {});

  /// Run one scenario. Never throws for per-scenario failures: the
  /// returned status records them and the table stays empty.
  [[nodiscard]] RunResult run(const ScenarioSpec& spec);

  /// Completion hook for run_all: called once per scenario with its
  /// input index, as soon as that result exists. With multiple worker
  /// threads the callback runs concurrently from the workers — it must
  /// be thread-safe (the ResultStore uses it to persist each grid point
  /// immediately, which is what makes interrupted sweeps resumable).
  using ResultCallback =
      std::function<void(std::size_t index, const RunResult& result)>;

  /// Run many scenarios on a work-stealing thread pool. Results are in
  /// input order and cell-identical for every thread count.
  /// \param threads  0 = engine option (0 there = hardware concurrency)
  [[nodiscard]] std::vector<RunResult> run_all(
      const std::vector<ScenarioSpec>& specs, std::size_t threads = 0,
      const ResultCallback& on_result = {});

  /// Expand a sweep grid, run it in parallel, and merge everything into
  /// one long-format table: scenario + status columns, then the
  /// workload's row schema. Failed points contribute one row with '-'
  /// data cells and their status message; the sweep always completes,
  /// but any failed point marks the merged result's status failed so
  /// exit-code checks notice.
  [[nodiscard]] RunResult run_sweep(const ScenarioSpec& base,
                                    const std::vector<SweepAxis>& axes,
                                    std::size_t threads = 0);

  [[nodiscard]] PhyCurveCache& phy_cache() { return phy_cache_; }
  [[nodiscard]] const PhyCurveCache& phy_cache() const { return phy_cache_; }

  [[nodiscard]] const EngineOptions& options() const { return options_; }

 private:
  [[nodiscard]] std::size_t resolve_threads(std::size_t requested) const;

  EngineOptions options_;
  PhyCurveCache phy_cache_;
};

/// Merge per-point sweep results into one long-format table (scenario +
/// status columns before the workload's row schema). Failed points
/// contribute one '-' row and mark the merged status failed. Shared by
/// SimEngine::run_sweep and the ResultStore's resumable sweep.
[[nodiscard]] RunResult merge_sweep_results(const std::string& sweep_name,
                                            const std::string& workload,
                                            const std::vector<RunResult>& runs);

/// Print a run result (notes, then the table) — the shared output path
/// of the ported benches.
void print_result(std::ostream& os, const RunResult& result);

}  // namespace wi::sim
