#include "report.hpp"

#include <algorithm>
#include <chrono>

namespace perfbench {

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"wall_s", "s"},          {"setup_s", "s"},
      {"peak_rss_mb", "MB"},    {"merge_s", "s"},
      {"requests_per_s", "1/s"}, {"latency_p50_ms", "ms"},
      {"latency_tail_ms", "ms"}};
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"fec.code_build_s", "s"},
      {"fec.simulate_ber_window_s", "s"},
      {"fec.simulate_ber_window_calls", "count"},
      {"fec.simulate_ber_block_s", "s"},
      {"fec.simulate_ber_block_calls", "count"},
      {"fec.us_per_codeword_cc", "us"},
      {"fec.us_per_codeword_bc", "us"},
      {"fec.codewords", "count"},
      {"fec.ber_points", "count"},
      {"fec.row_s_max", "s"},
      {"fec.row_s_sum", "s"},
      {"noc.topology_build_s", "s"},
      {"noc.traffic_build_s", "s"},
      {"noc.simulate_network_s", "s"},
      {"noc.turns_executed", "count"},
      {"noc.delivered", "count"},
      {"noc.ns_per_turn", "ns"},
      {"noc.flits_per_s", "1/s"},
      {"noc.turn_frac", "ratio"},
      {"noc.dropped", "count"},
      {"noc.unreachable", "count"},
      {"sim.engine_run_s", "s"},
      {"sim.seeds_per_s", "1/s"},
      {"sim.store_save_s", "s"},
      {"sim.store_load_s", "s"},
      {"sim.store_bytes", "bytes"},
      {"sim.store_hits", "count"},
      {"sim.store_misses", "count"},
      {"sim.store_inserts", "count"},
      {"sim.aggregate_s", "s"},
      {"sim.phy_cache_hits", "count"},
      {"sim.phy_cache_misses", "count"},
      {"serve.queue_ms_p50", "ms"},
      {"serve.queue_ms_p99", "ms"},
      {"serve.run_ms_p50", "ms"},
      {"serve.run_ms_p99", "ms"},
      {"serve.transport_ms_p50", "ms"},
      {"serve.tier_hot", "count"},
      {"serve.tier_inflight", "count"},
      {"serve.tier_cold", "count"},
      {"serve.tier_run", "count"},
      {"serve.hit_rate", "ratio"},
      {"serve.rejected", "count"},
      {"serve.malformed_answered", "count"},
      {"trace.overhead_s", "s"},
      {"trace.spans", "count"}};
  return defs;
}

const std::vector<std::string>& deterministic_counts() {
  static const std::vector<std::string> names = {
      "fec.codewords",   "fec.ber_points",     "noc.turns_executed",
      "noc.delivered",   "sim.store_hits",     "sim.store_misses",
      "sim.store_inserts", "sim.store_bytes"};
  return names;
}

RunRecord run_workload(Workload& workload, double seconds, bool trace,
                       Checks& checks,
                       std::vector<std::map<std::string, double>>& traced_layers) {
  using Clock = std::chrono::steady_clock;
  const auto since = [](Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  Recorder& recorder = Recorder::global();
  recorder.clear();
  RunRecord record;

  recorder.set_run(0);
  recorder.set_enabled(trace);
  double setup_total = 0.0;
  while (record.setup_s.size() < kMinSetups ||
         (record.setup_s.size() < kMaxSetups && setup_total < kSetupBudgetS)) {
    record.setup_s.push_back(workload.setup());
    setup_total += record.setup_s.back();
  }

  const auto start = Clock::now();
  double last_pass_s = 0.0;
  for (std::size_t i = 0;; ++i) {
    const double elapsed = since(start);
    if (i >= kMinPasses && elapsed >= seconds) break;
    if (i > 0 && elapsed + last_pass_s > kPassBudgetS) break;
    const bool traced = trace && i % 2 == 0;
    recorder.set_run(i + 1);
    recorder.set_enabled(traced);
    PassResult pass;
    {
      ScopedSpan root("bench.pass");
      recorder.set_ambient(root.id());
      pass = workload.pass(i, checks);
      recorder.set_ambient(0);
    }
    recorder.set_enabled(false);
    last_pass_s = since(start) - elapsed;
    if (traced) {
      traced_layers.push_back(
          layer_values(recorder.spans(), recorder.counters(i + 1), i + 1, pass));
    }
    record.passes.push_back(std::move(pass));
    record.traced.push_back(traced);
  }
  record.pooled = workload.pooled_layer();
  record.expected_spans = workload.expected_spans();
  record.repeatable = workload.repeatable_passes();
  workload.finish();
  return record;
}

std::map<std::string, double> layer_values(
    const std::vector<Span>& spans, const std::map<std::string, double>& counters,
    std::uint64_t run, const PassResult& pass) {
  std::vector<Span> mine;
  for (const Span& s : spans) {
    if (s.run == run) mine.push_back(s);
  }
  const std::vector<double> self_us = self_times_us(mine);
  std::map<std::string, double> total_s, self_s, max_s, calls;
  for (std::size_t i = 0; i < mine.size(); ++i) {
    const double seconds = mine[i].duration_us() / 1e6;
    total_s[mine[i].name] += seconds;
    self_s[mine[i].name] += self_us[i] / 1e6;
    max_s[mine[i].name] = std::max(max_s[mine[i].name], seconds);
    calls[mine[i].name] += 1.0;
  }
  const auto counter = [&counters](const std::string& name) {
    const auto it = counters.find(name);
    return it == counters.end() ? 0.0 : it->second;
  };
  const auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };

  std::map<std::string, double> v = pass.layer;
  v["fec.simulate_ber_window_s"] = total_s["fec.simulate_ber_window"];
  v["fec.simulate_ber_window_calls"] = calls["fec.simulate_ber_window"];
  v["fec.simulate_ber_block_s"] = total_s["fec.simulate_ber_block"];
  v["fec.simulate_ber_block_calls"] = calls["fec.simulate_ber_block"];
  const double cc = counter("fec.codewords_cc");
  const double bc = counter("fec.codewords_bc");
  v["fec.us_per_codeword_cc"] = ratio(total_s["fec.simulate_ber_window"] * 1e6, cc);
  v["fec.us_per_codeword_bc"] = ratio(total_s["fec.simulate_ber_block"] * 1e6, bc);
  v["fec.codewords"] = cc + bc;
  v["fec.ber_points"] = calls["fec.simulate_ber_window"] + calls["fec.simulate_ber_block"];
  v["fec.row_s_max"] = max_s["fec.row"];
  v["fec.row_s_sum"] = total_s["fec.row"];

  const double network_s = total_s["noc.simulate_network"];
  const double turns = counter("noc.turns_executed");
  v["noc.topology_build_s"] = total_s["noc.topology_build"];
  v["noc.traffic_build_s"] = total_s["noc.traffic_build"];
  v["noc.simulate_network_s"] = network_s;
  v["noc.turns_executed"] = turns;
  v["noc.delivered"] = counter("noc.delivered");
  v["noc.ns_per_turn"] = ratio(network_s * 1e9, turns);
  v["noc.flits_per_s"] = ratio(counter("noc.delivered"), network_s);
  v["noc.turn_frac"] = ratio(turns, counter("noc.router_cycles"));
  v["noc.dropped"] = counter("noc.dropped");
  v["noc.unreachable"] = counter("noc.unreachable");

  v["sim.engine_run_s"] = total_s["sim.engine_run"];
  v["sim.seeds_per_s"] = ratio(counter("sim.engine_runs"), pass.wall_s);
  // ResultStore::run_all loads and saves from inside its own source
  // file, where no probe sees them. Its self time (its duration minus
  // the engine run it wraps) holds the loads of the misses; the saves
  // run inside the engine span, so the campaign workload replays them
  // through the probed save() in traced passes.
  v["sim.store_save_s"] = total_s["sim.store_save"] + self_s["sim.store_run_all"];
  v["sim.store_load_s"] = total_s["sim.store_load"];
  v["sim.aggregate_s"] = self_s["sim.merge"];
  v["trace.spans"] = static_cast<double>(mine.size());
  return v;
}

std::map<std::string, double> end_to_end_values(const RunRecord& record) {
  std::vector<double> wall, merge, requests;
  double busy_s = 0.0;
  for (const PassResult& p : record.passes) {
    wall.push_back(p.wall_s);
    merge.push_back(p.merge_s);
    busy_s += p.wall_s;
    requests.insert(requests.end(), p.request_ms.begin(), p.request_ms.end());
  }
  return {{"wall_s", median(wall)},
          {"setup_s", median(record.setup_s)},
          {"peak_rss_mb", record.peak_rss_mb},
          {"merge_s", median(merge)},
          {"requests_per_s",
           busy_s > 0.0 ? static_cast<double>(requests.size()) / busy_s : 0.0},
          {"latency_p50_ms", percentile(requests, 50.0)},
          {"latency_tail_ms", tail_percentile(requests).value}};
}

std::map<std::string, double> per_layer_values(
    const RunRecord& record,
    const std::vector<std::map<std::string, double>>& per_pass) {
  std::map<std::string, double> out;
  for (const MetricDef& def : per_layer_metrics()) {
    std::vector<double> values;
    for (const auto& pass : per_pass) {
      const auto it = pass.find(def.name);
      values.push_back(it == pass.end() ? 0.0 : it->second);
    }
    out[def.name] = median(values);
  }
  for (const auto& [name, value] : record.pooled) out[name] = value;
  std::vector<double> on, off;
  for (std::size_t i = 0; i < record.passes.size(); ++i) {
    (record.traced[i] ? on : off).push_back(record.passes[i].wall_s);
  }
  out["trace.overhead_s"] = on.empty() || off.empty() ? 0.0 : median(on) - median(off);
  return out;
}

wi::Json result_json(const Checks& checks, const std::vector<MetricDef>& defs,
                     const std::map<std::string, double>& values) {
  wi::Json metrics = wi::Json::object();
  for (const MetricDef& def : defs) {
    wi::Json metric = wi::Json::object();
    const auto it = values.find(def.name);
    metric.set("value", wi::Json(it == values.end() ? 0.0 : it->second));
    metric.set("unit", wi::Json(def.unit));
    metrics.set(def.name, std::move(metric));
  }
  wi::Json out = wi::Json::object();
  out.set("correct", wi::Json(checks.failed() == 0));
  out.set("attempted", wi::Json(static_cast<long long>(checks.attempted())));
  out.set("failed", wi::Json(static_cast<long long>(checks.failed())));
  out.set("metrics", std::move(metrics));
  return out;
}

wi::Json trace_json(const std::vector<Span>& spans, const wi::Json& context) {
  wi::Json events = wi::Json::array();
  for (const Span& s : spans) {
    wi::Json args = wi::Json::object();
    args.set("id", wi::Json(static_cast<long long>(s.id)));
    args.set("parent", wi::Json(static_cast<long long>(s.parent)));
    wi::Json event = wi::Json::object();
    event.set("name", wi::Json(s.name));
    event.set("ph", wi::Json("X"));
    event.set("ts", wi::Json(s.start_us));
    event.set("dur", wi::Json(s.duration_us()));
    event.set("pid", wi::Json(1));
    event.set("tid", wi::Json(static_cast<long long>(s.run)));
    event.set("args", std::move(args));
    events.push_back(std::move(event));
  }
  wi::Json out = wi::Json::object();
  out.set("traceEvents", std::move(events));
  out.set("otherData", context);
  return out;
}

int exit_code(const Checks& checks) { return checks.failed() == 0 ? 0 : 1; }

}  // namespace perfbench
