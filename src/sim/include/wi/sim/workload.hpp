#pragma once
/// \file workload.hpp
/// \brief The open workload-plugin layer: WorkloadRunner interface +
///        process-wide WorkloadRegistry.
///
/// A *workload* is what a scenario computes (one ResultTable schema).
/// Each workload lives in exactly one file under src/sim/workloads/:
/// a WorkloadRunner subclass bundling the name, the table schema, the
/// payload defaults + JSON codec, validation, the campaign reseeding
/// hook and the run() implementation — registered into the global
/// WorkloadRegistry via WI_SIM_REGISTER_WORKLOAD. SimEngine, the
/// scenario JSON codec, ScenarioRegistry and wi_run all dispatch
/// through the registry, so adding a workload is one new file (plus a
/// registry scenario + golden), never an engine edit.
///
/// Linker note: the build generates wi_workload_link.cpp from the
/// directory glob of src/sim/workloads/*.cpp; it references every
/// plugin's registration hook, so static-archive linking can never drop
/// a plugin object silently.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "wi/common/json.hpp"
#include "wi/common/table.hpp"
#include "wi/sim/phy_curve_cache.hpp"
#include "wi/sim/scenario.hpp"
#include "wi/sim/status.hpp"

namespace wi::sim {

/// Execution environment a runner sees: the engine's shared PHY curve
/// cache, an engine-level seed salt, the thread budget for the runner's
/// own pool, and the result hooks (notes that end up on the RunResult
/// next to the table).
class WorkloadEnv {
 public:
  explicit WorkloadEnv(PhyCurveCache& phy_cache, std::uint64_t seed = 0,
                       std::size_t threads = 1)
      : phy_cache_(phy_cache), seed_(seed), threads_(threads) {}

  [[nodiscard]] PhyCurveCache& phy_cache() { return phy_cache_; }

  /// Engine-level seed salt (0 for direct runs; campaigns reseed the
  /// payload via WorkloadRunner::apply_seed instead).
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  /// Workers a runner may use for independent parts of one scenario
  /// (>= 1). The engine passes 1 where scenarios already run in
  /// parallel, so results must not depend on this value.
  [[nodiscard]] std::size_t threads() const { return threads_; }

  /// Result hook: appends one line to the RunResult's notes.
  void note(std::string line) { notes_.push_back(std::move(line)); }

  [[nodiscard]] std::vector<std::string>& notes() { return notes_; }

 private:
  PhyCurveCache& phy_cache_;
  std::uint64_t seed_ = 0;
  std::size_t threads_ = 1;
  std::vector<std::string> notes_;
};

/// One pluggable workload: everything the sim layer needs to know about
/// it, behind one interface.
class WorkloadRunner {
 public:
  virtual ~WorkloadRunner() = default;

  /// Stable workload key ("info_rates", ...). This string is what
  /// ScenarioSpec::workload holds and what the JSON codec round-trips —
  /// renaming it invalidates spec files and store keys.
  [[nodiscard]] virtual std::string name() const = 0;

  /// JSON key of the payload section in a serialized spec. Defaults to
  /// name(); override to keep a legacy key (e.g. "info_rate").
  [[nodiscard]] virtual std::string payload_key() const { return name(); }

  /// One-line human description (wi_run --list).
  [[nodiscard]] virtual std::string description() const { return {}; }

  /// ResultTable column schema (stable independent of success/failure,
  /// so merged sweep tables always line up).
  [[nodiscard]] virtual std::vector<std::string> headers() const = 0;

  /// Fresh default payload; nullptr when the workload has none.
  [[nodiscard]] virtual std::unique_ptr<WorkloadPayload> default_payload()
      const {
    return nullptr;
  }

  /// Payload section of the canonical spec JSON; a null Json means "no
  /// payload section" (the default for payload-free workloads).
  [[nodiscard]] virtual Json payload_to_json(const ScenarioSpec&) const {
    return Json();
  }

  /// Decode the payload section into `spec`; throws
  /// StatusError(kParseError) on unknown keys or type mismatches.
  virtual void payload_from_json(const Json&, ScenarioSpec& spec) const;

  /// Workload-specific validation on top of the shared-section checks.
  [[nodiscard]] virtual Status validate(const ScenarioSpec&) const {
    return Status::ok();
  }

  /// Campaign hook: point every stochastic field this workload consumes
  /// at `seed` (multi-seed campaigns derive one seed per replica).
  virtual void apply_seed(ScenarioSpec&, std::uint64_t) const {}

  /// Execute the workload. The returned table must use headers();
  /// derived scalars that do not fit the row schema go through
  /// env.note(). Called only after validate() passed.
  [[nodiscard]] virtual Table run(const ScenarioSpec& spec,
                                  WorkloadEnv& env) const = 0;
};

/// Name-keyed runner collection. Use global() for the process-wide
/// instance every dispatch path consults; separate instances exist only
/// for tests.
class WorkloadRegistry {
 public:
  WorkloadRegistry() = default;
  WorkloadRegistry(const WorkloadRegistry&) = delete;
  WorkloadRegistry& operator=(const WorkloadRegistry&) = delete;

  /// Registers a runner; throws StatusError(kInvalidSpec) on an empty
  /// name or a duplicate name/payload key.
  void register_runner(std::unique_ptr<WorkloadRunner> runner);

  [[nodiscard]] bool contains(const std::string& name) const;
  [[nodiscard]] const WorkloadRunner* find(const std::string& name) const;

  /// Runner by name; throws StatusError(kInvalidSpec) for unknown names
  /// (the message carries a nearest-match suggestion + the known list).
  [[nodiscard]] const WorkloadRunner& get(const std::string& name) const;

  /// Runner whose payload_key() is `key`, or nullptr.
  [[nodiscard]] const WorkloadRunner* find_by_payload_key(
      const std::string& key) const;

  /// Registered workload names, sorted.
  [[nodiscard]] std::vector<std::string> names() const;

  [[nodiscard]] std::size_t size() const { return runners_.size(); }

  /// The process-wide registry, populated with every workload under
  /// src/sim/workloads/ on first use.
  [[nodiscard]] static WorkloadRegistry& global();

 private:
  std::vector<std::unique_ptr<WorkloadRunner>> runners_;
};

/// Column schema of a workload by name; {"-"} for unregistered names
/// (failed results still need a printable table).
[[nodiscard]] std::vector<std::string> workload_headers(
    const std::string& workload);

/// Nearest candidate by edit distance, or "" when nothing is close
/// enough to be a plausible typo. Shared by the registry error messages
/// and wi_run's unknown-name diagnostics.
[[nodiscard]] std::string closest_name(const std::string& name,
                                       const std::vector<std::string>& known);

/// The shared unknown-name diagnostic: "unknown <kind> '<name>' (did
/// you mean 'X'?); known <kind>s: a, b, ...". Used by both registries
/// and the scenario codec so the wording cannot drift.
[[nodiscard]] std::string unknown_name_message(
    const std::string& kind, const std::string& name,
    const std::vector<std::string>& known);

namespace detail {
/// Defined in the generated wi_workload_link.cpp: registers every
/// plugin under src/sim/workloads/ (deterministic, sorted file order).
void register_builtin_workloads(WorkloadRegistry& registry);
}  // namespace detail

}  // namespace wi::sim

/// Registration hook of one workload plugin file. `stem` must equal the
/// file's basename (src/sim/workloads/<stem>.cpp): the generated
/// wi_workload_link.cpp declares and calls wi::sim::workloads::
/// register_<stem>. Use inside namespace wi::sim.
#define WI_SIM_REGISTER_WORKLOAD(stem, Runner)                         \
  namespace workloads {                                                \
  void register_##stem(::wi::sim::WorkloadRegistry& registry) {        \
    registry.register_runner(std::make_unique<Runner>());              \
  }                                                                    \
  }
