/// \file probes.cpp
/// \brief Link-time probes: spans and counts around calls into the
///        library's layers, without changing the library.
///
/// The traced build links with `--wrap=<symbol>` for every SYM_ define
/// below (CMakeLists.txt reads them from this file). The linker then
/// sends each call to <symbol> from another object file to
/// `__wrap_<symbol>` (defined here) and lets the wrapper reach the
/// original as `__real_<symbol>`. Member functions are
/// declared as free functions taking the object pointer first, which is
/// how the Itanium C++ ABI passes `this`. The `__real_` declarations are
/// weak so the benchmark still links if a probed function is renamed;
/// that probe then reads zero and the traced run warns about it. The linker
/// only sees calls that cross object files: a call from inside the
/// source file that defines the function is not probed.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "trace.hpp"
#include "wi/fec/ber.hpp"
#include "wi/noc/flit_sim.hpp"
#include "wi/sim/campaign.hpp"
#include "wi/sim/engine.hpp"
#include "wi/sim/result_store.hpp"
#include "wi/sim/scenario.hpp"

#define PERFBENCH_REAL(symbol) asm("__real_" symbol) __attribute__((weak))
#define PERFBENCH_WRAP(symbol) asm("__wrap_" symbol)

#define SYM_BER_WINDOW "_ZN2wi3fec19simulate_ber_windowERKNS0_21LdpcConvolutionalCodeEmRKNS0_9BerConfigE"
#define SYM_BER_BLOCK "_ZN2wi3fec18simulate_ber_blockERKNS0_15QcLdpcBlockCodeERKNS0_9BerConfigE"
#define SYM_REQUIRED_EBN0 "_ZN2wi3fec16required_ebn0_dbERKSt8functionIFNS0_9BerResultEdEEdddd"
#define SYM_NETWORK "_ZN2wi3noc16simulate_networkERKNS0_8TopologyERKNS0_7RoutingERKNS0_14TrafficPatternEdRKNS0_13FlitSimConfigE"
#define SYM_NETWORK_FAULTS "_ZN2wi3noc16simulate_networkERKNS0_8TopologyERKNS0_7RoutingERKNS0_14TrafficPatternEdRKNS0_13FlitSimConfigERKNS_5fault13FaultScheduleE"
#define SYM_TOPOLOGY_BUILD "_ZNK2wi3sim12TopologySpec5buildEv"
#define SYM_TRAFFIC_BUILD "_ZNK2wi3sim7NocSpec13build_trafficEm"
#define SYM_ENGINE_RUN "_ZN2wi3sim9SimEngine3runERKNS0_12ScenarioSpecE"
#define SYM_ENGINE_RUN_ALL "_ZN2wi3sim9SimEngine7run_allERKSt6vectorINS0_12ScenarioSpecESaIS3_EEmRKSt8functionIFvmRKNS0_9RunResultEEE"
#define SYM_STORE_LOAD "_ZNK2wi3sim11ResultStore4loadERKNS0_12ScenarioSpecEm"
#define SYM_STORE_SAVE "_ZN2wi3sim11ResultStore4saveERKNS0_12ScenarioSpecERKNS0_9RunResultEm"
#define SYM_STORE_RUN_ALL "_ZN2wi3sim11ResultStore7run_allERNS0_9SimEngineERKSt6vectorINS0_12ScenarioSpecESaIS5_EEm"
#define SYM_CAMPAIGN_RUN "_ZNK2wi3sim8Campaign3runERNS0_9SimEngineEPNS0_11ResultStoreEmRKNS0_13CampaignShardE"
#define SYM_MERGE "_ZN2wi3sim22merge_campaign_resultsERKNS0_12CampaignSpecERKNS0_11ResultStoreE"

namespace perfbench::probes {

namespace fec = wi::fec;
namespace noc = wi::noc;
namespace sim = wi::sim;

using BerFunction = std::function<fec::BerResult(double)>;

// --- declarations: the original (real) and the probe (wrap) ---------------

fec::BerResult real_ber_window(const fec::LdpcConvolutionalCode&, std::size_t,
                               const fec::BerConfig&)
    PERFBENCH_REAL(SYM_BER_WINDOW);
fec::BerResult ber_window(const fec::LdpcConvolutionalCode&, std::size_t,
                          const fec::BerConfig&) PERFBENCH_WRAP(SYM_BER_WINDOW);

fec::BerResult real_ber_block(const fec::QcLdpcBlockCode&,
                              const fec::BerConfig&)
    PERFBENCH_REAL(SYM_BER_BLOCK);
fec::BerResult ber_block(const fec::QcLdpcBlockCode&, const fec::BerConfig&)
    PERFBENCH_WRAP(SYM_BER_BLOCK);

double real_required_ebn0(const BerFunction&, double, double, double, double)
    PERFBENCH_REAL(SYM_REQUIRED_EBN0);
double required_ebn0(const BerFunction&, double, double, double, double)
    PERFBENCH_WRAP(SYM_REQUIRED_EBN0);

noc::FlitSimResult real_network(const noc::Topology&, const noc::Routing&,
                                const noc::TrafficPattern&, double,
                                const noc::FlitSimConfig&)
    PERFBENCH_REAL(SYM_NETWORK);
noc::FlitSimResult network(const noc::Topology&, const noc::Routing&,
                           const noc::TrafficPattern&, double,
                           const noc::FlitSimConfig&)
    PERFBENCH_WRAP(SYM_NETWORK);

noc::FlitSimResult real_network_faults(const noc::Topology&,
                                       const noc::Routing&,
                                       const noc::TrafficPattern&, double,
                                       const noc::FlitSimConfig&,
                                       const wi::fault::FaultSchedule&)
    PERFBENCH_REAL(SYM_NETWORK_FAULTS);
noc::FlitSimResult network_faults(const noc::Topology&, const noc::Routing&,
                                  const noc::TrafficPattern&, double,
                                  const noc::FlitSimConfig&,
                                  const wi::fault::FaultSchedule&)
    PERFBENCH_WRAP(SYM_NETWORK_FAULTS);

noc::Topology real_topology_build(const sim::TopologySpec*)
    PERFBENCH_REAL(SYM_TOPOLOGY_BUILD);
noc::Topology topology_build(const sim::TopologySpec*)
    PERFBENCH_WRAP(SYM_TOPOLOGY_BUILD);

noc::TrafficPattern real_traffic_build(const sim::NocSpec*, std::size_t)
    PERFBENCH_REAL(SYM_TRAFFIC_BUILD);
noc::TrafficPattern traffic_build(const sim::NocSpec*, std::size_t)
    PERFBENCH_WRAP(SYM_TRAFFIC_BUILD);

sim::RunResult real_engine_run(sim::SimEngine*, const sim::ScenarioSpec&)
    PERFBENCH_REAL(SYM_ENGINE_RUN);
sim::RunResult engine_run(sim::SimEngine*, const sim::ScenarioSpec&)
    PERFBENCH_WRAP(SYM_ENGINE_RUN);

std::vector<sim::RunResult> real_engine_run_all(
    sim::SimEngine*, const std::vector<sim::ScenarioSpec>&, std::size_t,
    const sim::SimEngine::ResultCallback&) PERFBENCH_REAL(SYM_ENGINE_RUN_ALL);
std::vector<sim::RunResult> engine_run_all(
    sim::SimEngine*, const std::vector<sim::ScenarioSpec>&, std::size_t,
    const sim::SimEngine::ResultCallback&) PERFBENCH_WRAP(SYM_ENGINE_RUN_ALL);

std::optional<sim::RunResult> real_store_load(const sim::ResultStore*,
                                              const sim::ScenarioSpec&,
                                              std::uint64_t)
    PERFBENCH_REAL(SYM_STORE_LOAD);
std::optional<sim::RunResult> store_load(const sim::ResultStore*,
                                         const sim::ScenarioSpec&,
                                         std::uint64_t)
    PERFBENCH_WRAP(SYM_STORE_LOAD);

void real_store_save(sim::ResultStore*, const sim::ScenarioSpec&,
                     const sim::RunResult&, std::uint64_t)
    PERFBENCH_REAL(SYM_STORE_SAVE);
void store_save(sim::ResultStore*, const sim::ScenarioSpec&,
                const sim::RunResult&, std::uint64_t)
    PERFBENCH_WRAP(SYM_STORE_SAVE);

std::vector<sim::RunResult> real_store_run_all(
    sim::ResultStore*, sim::SimEngine&, const std::vector<sim::ScenarioSpec>&,
    std::size_t) PERFBENCH_REAL(SYM_STORE_RUN_ALL);
std::vector<sim::RunResult> store_run_all(
    sim::ResultStore*, sim::SimEngine&, const std::vector<sim::ScenarioSpec>&,
    std::size_t) PERFBENCH_WRAP(SYM_STORE_RUN_ALL);

sim::CampaignResult real_campaign_run(const sim::Campaign*, sim::SimEngine&,
                                      sim::ResultStore*, std::size_t,
                                      const sim::CampaignShard&)
    PERFBENCH_REAL(SYM_CAMPAIGN_RUN);
sim::CampaignResult campaign_run(const sim::Campaign*, sim::SimEngine&,
                                 sim::ResultStore*, std::size_t,
                                 const sim::CampaignShard&)
    PERFBENCH_WRAP(SYM_CAMPAIGN_RUN);

sim::CampaignResult real_merge(const sim::CampaignSpec&,
                               const sim::ResultStore&)
    PERFBENCH_REAL(SYM_MERGE);
sim::CampaignResult merge(const sim::CampaignSpec&, const sim::ResultStore&)
    PERFBENCH_WRAP(SYM_MERGE);

// --- definitions ---------------------------------------------------------

namespace {

void count(const char* name, double value) {
  Recorder::global().count(name, value);
}

// The five-argument simulate_network may forward to the six-argument
// one; only the outermost call on a thread is recorded.
thread_local int network_depth = 0;

template <typename Call>
noc::FlitSimResult probe_network(const noc::Topology& topology,
                                 const noc::FlitSimConfig& config,
                                 Call&& call) {
  if (network_depth > 0) return call();
  ++network_depth;
  struct Leave {
    ~Leave() { --network_depth; }
  } leave;
  ScopedSpan span("noc.simulate_network");
  noc::FlitSimResult result = call();
  count("noc.turns_executed", static_cast<double>(result.turns_executed));
  count("noc.delivered", static_cast<double>(result.delivered));
  count("noc.dropped", static_cast<double>(result.dropped));
  count("noc.unreachable", static_cast<double>(result.unreachable));
  count("noc.router_cycles",
        static_cast<double>(topology.router_count()) *
            static_cast<double>(config.warmup_cycles + config.measure_cycles));
  return result;
}

}  // namespace

fec::BerResult ber_window(const fec::LdpcConvolutionalCode& code,
                          std::size_t window, const fec::BerConfig& config) {
  ScopedSpan span("fec.simulate_ber_window");
  fec::BerResult result = real_ber_window(code, window, config);
  count("fec.codewords_cc", static_cast<double>(result.codewords));
  return result;
}

fec::BerResult ber_block(const fec::QcLdpcBlockCode& code,
                         const fec::BerConfig& config) {
  ScopedSpan span("fec.simulate_ber_block");
  fec::BerResult result = real_ber_block(code, config);
  count("fec.codewords_bc", static_cast<double>(result.codewords));
  return result;
}

double required_ebn0(const BerFunction& simulate, double target_ber,
                     double lo_db, double hi_db, double step_db) {
  ScopedSpan span("fec.row");
  return real_required_ebn0(simulate, target_ber, lo_db, hi_db, step_db);
}

noc::FlitSimResult network(const noc::Topology& topology,
                           const noc::Routing& routing,
                           const noc::TrafficPattern& traffic, double rate,
                           const noc::FlitSimConfig& config) {
  return probe_network(topology, config, [&] {
    return real_network(topology, routing, traffic, rate, config);
  });
}

noc::FlitSimResult network_faults(const noc::Topology& topology,
                                  const noc::Routing& routing,
                                  const noc::TrafficPattern& traffic,
                                  double rate,
                                  const noc::FlitSimConfig& config,
                                  const wi::fault::FaultSchedule& faults) {
  return probe_network(topology, config, [&] {
    return real_network_faults(topology, routing, traffic, rate, config,
                               faults);
  });
}

noc::Topology topology_build(const sim::TopologySpec* spec) {
  ScopedSpan span("noc.topology_build");
  return real_topology_build(spec);
}

noc::TrafficPattern traffic_build(const sim::NocSpec* spec,
                                  std::size_t modules) {
  ScopedSpan span("noc.traffic_build");
  return real_traffic_build(spec, modules);
}

sim::RunResult engine_run(sim::SimEngine* engine,
                          const sim::ScenarioSpec& spec) {
  ScopedSpan span("sim.engine_run");
  count("sim.engine_runs", 1.0);
  return real_engine_run(engine, spec);
}

std::vector<sim::RunResult> engine_run_all(
    sim::SimEngine* engine, const std::vector<sim::ScenarioSpec>& specs,
    std::size_t threads, const sim::SimEngine::ResultCallback& on_result) {
  ScopedSpan span("sim.engine_run");
  count("sim.engine_runs", static_cast<double>(specs.size()));
  return real_engine_run_all(engine, specs, threads, on_result);
}

std::optional<sim::RunResult> store_load(const sim::ResultStore* store,
                                         const sim::ScenarioSpec& spec,
                                         std::uint64_t seed) {
  ScopedSpan span("sim.store_load");
  return real_store_load(store, spec, seed);
}

void store_save(sim::ResultStore* store, const sim::ScenarioSpec& spec,
                const sim::RunResult& result, std::uint64_t seed) {
  ScopedSpan span("sim.store_save");
  real_store_save(store, spec, result, seed);
}

std::vector<sim::RunResult> store_run_all(
    sim::ResultStore* store, sim::SimEngine& engine,
    const std::vector<sim::ScenarioSpec>& specs, std::size_t threads) {
  ScopedSpan span("sim.store_run_all");
  return real_store_run_all(store, engine, specs, threads);
}

sim::CampaignResult campaign_run(const sim::Campaign* campaign,
                                 sim::SimEngine& engine,
                                 sim::ResultStore* store, std::size_t threads,
                                 const sim::CampaignShard& shard) {
  ScopedSpan span("sim.campaign_run");
  sim::CampaignResult result =
      real_campaign_run(campaign, engine, store, threads, shard);
  count("sim.seeds", static_cast<double>(result.per_seed.size()));
  return result;
}

sim::CampaignResult merge(const sim::CampaignSpec& spec,
                          const sim::ResultStore& store) {
  ScopedSpan span("sim.merge");
  return real_merge(spec, store);
}

}  // namespace perfbench::probes
