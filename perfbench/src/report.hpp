#pragma once
/// \file report.hpp
/// \brief Folds a run's passes and spans into the metrics BENCHMARK.json
///        names, and formats the result line.

#include <map>
#include <string>
#include <vector>

#include "trace.hpp"
#include "workloads.hpp"
#include "wi/common/json.hpp"

namespace perfbench {

struct MetricDef {
  std::string name;
  std::string unit;
};

/// Metrics a user of the system sees; reported with tracing off.
[[nodiscard]] const std::vector<MetricDef>& end_to_end_metrics();
/// Metrics of single layers; reported by the traced run. Every workload
/// reports all of them; a layer the workload bypasses reads 0.
[[nodiscard]] const std::vector<MetricDef>& per_layer_metrics();

/// Counts that must repeat exactly between traced passes of a workload
/// with fixed inputs per pass.
[[nodiscard]] const std::vector<std::string>& deterministic_counts();

/// Everything one run collected.
struct RunRecord {
  std::vector<double> setup_s;
  std::vector<PassResult> passes;
  std::vector<bool> traced;  ///< per pass: recorder on
  std::map<std::string, double> pooled;  ///< Workload::pooled_layer()
  std::vector<std::string> expected_spans;  ///< Workload::expected_spans()
  bool repeatable = true;                   ///< Workload::repeatable_passes()
  double peak_rss_mb = 0.0;
};

/// Runs one workload as the benchmark does: set-up repeated (at least
/// kMinSetups times, more while they total under kSetupBudgetS), then
/// passes until `seconds` have elapsed and at least kMinPasses ran. With
/// `trace` the recorder is on for every other pass, starting with the
/// first; `traced_layers` gets one layer_values() map per traced pass.
/// The workload's finish() runs before it returns.
inline constexpr std::size_t kMinSetups = 5;
inline constexpr std::size_t kMaxSetups = 20;
inline constexpr double kSetupBudgetS = 0.25;
inline constexpr std::size_t kMinPasses = 3;
inline constexpr double kPassBudgetS = 150.0;  ///< no pass starts that would end later
RunRecord run_workload(Workload& workload, double seconds, bool trace,
                       Checks& checks,
                       std::vector<std::map<std::string, double>>& traced_layers);

/// Span-derived per-layer values of pass `run` (its id in the
/// recorder), merged over the workload's own values in `pass.layer`.
[[nodiscard]] std::map<std::string, double> layer_values(
    const std::vector<Span>& spans, const std::map<std::string, double>& counters,
    std::uint64_t run, const PassResult& pass);

[[nodiscard]] std::map<std::string, double> end_to_end_values(
    const RunRecord& record);

/// Median of each per-layer metric over the traced passes (`per_pass`
/// holds one map per traced pass), then the pooled values and the
/// tracing overhead (traced minus untraced median wall time).
[[nodiscard]] std::map<std::string, double> per_layer_values(
    const RunRecord& record,
    const std::vector<std::map<std::string, double>>& per_pass);

/// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
[[nodiscard]] wi::Json result_json(const Checks& checks,
                                   const std::vector<MetricDef>& defs,
                                   const std::map<std::string, double>& values);

/// Chrome trace-event JSON of the spans (chrome://tracing), with the
/// machine context beside them.
[[nodiscard]] wi::Json trace_json(const std::vector<Span>& spans,
                                  const wi::Json& context);

/// 0 when every check passed, 1 otherwise.
[[nodiscard]] int exit_code(const Checks& checks);

}  // namespace perfbench
