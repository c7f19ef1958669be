/// \file fault_sweep.cpp
/// \brief "fault_sweep" workload plugin: link/router failure-rate sweep
///        over the flit-level DES with fault-tolerant rerouting —
///        latency and throughput degradation vs failure probability.
///
/// Each row reruns the same traffic (identical seed and RNG draw
/// sequence) under a heavier FaultSchedule, so the degradation columns
/// isolate the effect of the failures. Unreachable destinations arrive
/// as wi::Status values in the result, never as throws: one bad row
/// cannot abort the sweep.

#include "wi/sim/workloads/fault_sweep.hpp"

#include "wi/noc/flit_sim.hpp"
#include "wi/sim/fault_codec.hpp"
#include "wi/sim/spec_codec.hpp"
#include "wi/sim/workload.hpp"

namespace wi::sim {
namespace {

NocSpec::DesRun des_run(const FaultSweepSpec& s) {
  return {s.warmup_cycles, s.measure_cycles, s.drain_cycles, s.buffer_depth,
          s.seed};
}

class FaultSweepRunner final : public WorkloadRunner {
 public:
  std::string name() const override { return "fault_sweep"; }
  std::string description() const override {
    return "link/router failure sweep: DES degradation under rerouting";
  }
  std::vector<std::string> headers() const override {
    return {"fail_rate",   "dead_links", "dead_routers", "latency_cycles",
            "throughput",  "delivered",  "dropped",      "unreachable",
            "thr_degraded", "status"};
  }

  std::unique_ptr<WorkloadPayload> default_payload() const override {
    return std::make_unique<FaultSweepSpec>();
  }

  Json payload_to_json(const ScenarioSpec& spec) const override {
    const auto& s = spec.payload<FaultSweepSpec>();
    Json json = Json::object();
    json.set("fail_rates", number_list_json(s.fail_rates));
    json.set("router_fail_fraction", Json(s.router_fail_fraction));
    json.set("injection_rate", Json(s.injection_rate));
    json.set("fault", fault_to_json(s.fault));
    json.set("warmup_cycles", Json(static_cast<double>(s.warmup_cycles)));
    json.set("measure_cycles", Json(static_cast<double>(s.measure_cycles)));
    json.set("drain_cycles", Json(static_cast<double>(s.drain_cycles)));
    json.set("buffer_depth", Json(static_cast<double>(s.buffer_depth)));
    json.set("seed", Json(static_cast<double>(s.seed)));
    return json;
  }

  void payload_from_json(const Json& json,
                         ScenarioSpec& spec) const override {
    auto& s = spec.payload<FaultSweepSpec>();
    ObjectReader reader(json, "fault_sweep");
    reader.number_list("fail_rates", s.fail_rates);
    reader.number("router_fail_fraction", s.router_fail_fraction);
    reader.number("injection_rate", s.injection_rate);
    reader.field("fault", [&](const Json& v) {
      fault_from_json(v, "fault_sweep.fault", s.fault);
    });
    reader.size("warmup_cycles", s.warmup_cycles);
    reader.size("measure_cycles", s.measure_cycles);
    reader.size("drain_cycles", s.drain_cycles);
    reader.size("buffer_depth", s.buffer_depth);
    reader.u64("seed", s.seed);
    reader.finish();
  }

  Status validate(const ScenarioSpec& spec) const override {
    const Status noc = spec.noc.validate(spec.name);
    if (!noc.is_ok()) return noc;
    const auto& s = spec.payload<FaultSweepSpec>();
    for (const double rate : s.fail_rates) {
      if (rate < 0.0 || rate > 1.0) {
        return {StatusCode::kInvalidSpec,
                spec.name + ": fault_sweep fail_rates must be in [0, 1]"};
      }
    }
    if (s.router_fail_fraction < 0.0 || s.router_fail_fraction > 1.0) {
      return {StatusCode::kInvalidSpec,
              spec.name +
                  ": fault_sweep router_fail_fraction must be in [0, 1]"};
    }
    if (s.injection_rate < 0.0 || s.injection_rate >= 1.0) {
      return {StatusCode::kInvalidSpec,
              spec.name + ": fault_sweep injection_rate must be in [0, 1)"};
    }
    const Status des = spec.noc.validate_des(spec.name, des_run(s));
    if (!des.is_ok()) return des;
    return s.fault.validate(spec.name);
  }

  void apply_seed(ScenarioSpec& spec, std::uint64_t seed) const override {
    // Campaigns vary the failure pattern and the traffic together: both
    // streams derive from the replica seed (the fault layer separates
    // them by Stream, the traffic RNG by its own generator).
    auto& s = spec.payload<FaultSweepSpec>();
    s.seed = seed;
    s.fault.seed = seed;
  }

  Table run(const ScenarioSpec& spec, WorkloadEnv& env) const override {
    Table table(headers());
    const FaultSweepSpec& s = spec.payload<FaultSweepSpec>();
    const noc::Topology topology = spec.noc.topology.build();
    const auto routing = spec.noc.build_routing();
    const noc::TrafficPattern traffic =
        spec.noc.build_traffic(topology.module_count());
    const noc::FlitSimConfig config = spec.noc.des_config(des_run(s));
    // Faults strike while traffic flows; the drain tail only empties
    // queues, so the activation horizon is warmup + measure.
    const std::uint64_t horizon =
        static_cast<std::uint64_t>(s.warmup_cycles + s.measure_cycles);

    const auto baseline = simulate_network(topology, *routing, traffic,
                                           s.injection_rate, config);
    std::vector<double> rates = s.fail_rates;
    if (rates.empty()) rates = {0.0, 0.02, 0.05, 0.1, 0.2};
    std::size_t noted_failures = 0;
    for (const double rate : rates) {
      fault::FaultSpec row_fault = s.fault;
      row_fault.link_fail_rate = rate;
      row_fault.router_fail_rate = rate * s.router_fail_fraction;
      const auto schedule = fault::FaultSchedule::derive(
          row_fault, topology.link_count(), topology.router_count(), horizon);
      // An empty schedule (rate 0) is bit-identical to the baseline.
      const auto des =
          schedule.empty()
              ? baseline
              : simulate_network(topology, *routing, traffic,
                                 s.injection_rate, config, schedule);
      const double degraded =
          baseline.delivered_per_cycle > 0.0
              ? 1.0 - des.delivered_per_cycle / baseline.delivered_per_cycle
              : 0.0;
      table.add_row(
          {Table::num(rate, 3),
           Table::num(static_cast<long long>(des.dead_links)),
           Table::num(static_cast<long long>(des.dead_routers)),
           Table::num(des.mean_latency_cycles, 4),
           Table::num(des.delivered_per_cycle, 5),
           Table::num(static_cast<long long>(des.delivered)),
           Table::num(static_cast<long long>(des.dropped)),
           Table::num(static_cast<long long>(des.unreachable)),
           Table::num(degraded, 4),
           des.route_failures.empty()
               ? std::string("ok")
               : std::string(status_code_name(
                     des.route_failures.front().code()))});
      for (const Status& failure : des.route_failures) {
        if (noted_failures >= 4) break;
        ++noted_failures;
        env.note("fail_rate " + Table::num(rate, 3) + ": " +
                 failure.to_string());
      }
    }
    env.note("topology: " + topology.name());
    env.note("baseline (no faults): latency " +
             Table::num(baseline.mean_latency_cycles, 2) + " cycles, " +
             Table::num(baseline.delivered_per_cycle, 4) +
             " flits/cycle/module at load " +
             Table::num(s.injection_rate, 3));
    env.note("fault window: [" + Table::num(s.fault.window_begin, 2) + ", " +
             Table::num(s.fault.window_end, 2) + "] of " +
             Table::num(static_cast<long long>(horizon)) +
             " cycles, fault seed " +
             Table::num(static_cast<long long>(s.fault.seed)));
    return table;
  }
};

}  // namespace

WI_SIM_REGISTER_WORKLOAD(fault_sweep, FaultSweepRunner)

}  // namespace wi::sim
