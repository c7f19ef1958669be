/// \file noc_latency.cpp
/// \brief "noc_latency" workload plugin: Fig. 8 analytic latency vs
///        injection rate for one topology (payload-free: everything
///        lives in the shared noc section).

#include "wi/sim/workload.hpp"

#include "wi/common/math.hpp"
#include "wi/noc/flit_sim.hpp"
#include "wi/noc/metrics.hpp"
#include "wi/noc/queueing_model.hpp"

namespace wi::sim {
namespace {

/// The DES cross-check's own settings; the router delay comes from the
/// analytic model it is checked against.
NocSpec::DesRun des_check_run(const NocSpec& noc) {
  return {2000, 8000, 20000, 8, noc.des_seed};
}

class NocLatencyRunner final : public WorkloadRunner {
 public:
  std::string name() const override { return "noc_latency"; }
  std::string description() const override {
    return "Fig. 8: analytic latency vs injection for one topology";
  }
  std::vector<std::string> headers() const override {
    return {"inj_rate", "latency_cycles", "max_channel_load", "saturated"};
  }

  Status validate(const ScenarioSpec& spec) const override {
    const Status noc = spec.noc.validate(spec.name);
    // Analytic-only runs keep accepting fractional router delays.
    if (!noc.is_ok() || !(spec.noc.des_check_rate > 0.0)) return noc;
    return spec.noc.validate_des(spec.name, des_check_run(spec.noc));
  }

  void apply_seed(ScenarioSpec& spec, std::uint64_t seed) const override {
    spec.noc.des_seed = seed;
  }

  Table run(const ScenarioSpec& spec, WorkloadEnv& env) const override {
    Table table(headers());
    const noc::Topology topology = spec.noc.topology.build();
    const auto routing = spec.noc.build_routing();
    const noc::TrafficPattern traffic =
        spec.noc.build_traffic(topology.module_count());
    const noc::QueueingModel model(topology, *routing, traffic,
                                   spec.noc.model);
    std::vector<double> rates = spec.noc.injection_rates;
    if (rates.empty()) rates = linspace(0.01, 0.8, 21);
    for (const double rate : rates) {
      const auto perf = model.evaluate(rate);
      table.add_row({Table::num(rate, 3),
                     perf.saturated
                         ? std::string("sat")
                         : Table::num(perf.mean_latency_cycles, 2),
                     Table::num(perf.max_channel_load, 3),
                     perf.saturated ? "yes" : "no"});
    }
    env.note("topology: " + topology.name());
    env.note("zero-load latency: " +
             Table::num(model.zero_load_latency_cycles(), 2) +
             " cycles; saturation: " + Table::num(model.saturation_rate(), 3) +
             " flits/cycle/module");
    const double area = noc::total_router_crossbar_area(topology);
    env.note("crossbar area proxy: " + Table::num(area, 0) + " (" +
             Table::num(area / static_cast<double>(topology.router_count()),
                        1) +
             " per router)");
    if (spec.noc.des_check_rate > 0.0) {
      const auto des = simulate_network(
          topology, *routing, traffic, spec.noc.des_check_rate,
          spec.noc.des_config(des_check_run(spec.noc)));
      env.note("DES cross-check @ " + Table::num(spec.noc.des_check_rate, 2) +
               ": " + Table::num(des.mean_latency_cycles, 2) +
               " cycles vs analytic " +
               Table::num(model.evaluate(spec.noc.des_check_rate)
                              .mean_latency_cycles,
                          2));
    }
    return table;
  }
};

}  // namespace

WI_SIM_REGISTER_WORKLOAD(noc_latency, NocLatencyRunner)

}  // namespace wi::sim
