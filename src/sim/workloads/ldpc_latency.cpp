/// \file ldpc_latency.cpp
/// \brief "ldpc_latency" workload plugin: Fig. 10 required Eb/N0 vs
///        decoding latency via Monte-Carlo BER simulation.

#include "wi/sim/workloads/ldpc_latency.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <numeric>
#include <string>

#include "wi/common/parallel.hpp"
#include "wi/fec/ber.hpp"
#include "wi/sim/spec_codec.hpp"
#include "wi/sim/workload.hpp"

namespace wi::sim {
namespace {

class LdpcLatencyRunner final : public WorkloadRunner {
 public:
  std::string name() const override { return "ldpc_latency"; }
  std::string payload_key() const override { return "ldpc"; }
  std::string description() const override {
    return "Fig. 10: required Eb/N0 vs decoding latency";
  }
  std::vector<std::string> headers() const override {
    return {"family", "N", "W", "latency_bits", "reqd_EbN0_dB"};
  }

  std::unique_ptr<WorkloadPayload> default_payload() const override {
    return std::make_unique<LdpcLatencySpec>();
  }

  Json payload_to_json(const ScenarioSpec& spec) const override {
    const auto& l = spec.payload<LdpcLatencySpec>();
    Json json = Json::object();
    json.set("target_ber", Json(l.target_ber));
    json.set("min_errors", Json(static_cast<double>(l.min_errors)));
    json.set("max_codewords", Json(static_cast<double>(l.max_codewords)));
    json.set("max_bp_iterations",
             Json(static_cast<double>(l.max_bp_iterations)));
    json.set("termination", Json(static_cast<double>(l.termination)));
    Json curves = Json::array();
    for (const auto& curve : l.cc_curves) {
      Json c = Json::object();
      c.set("lifting", Json(static_cast<double>(curve.lifting)));
      c.set("window_lo", Json(static_cast<double>(curve.window_lo)));
      c.set("window_hi", Json(static_cast<double>(curve.window_hi)));
      curves.push_back(std::move(c));
    }
    json.set("cc_curves", std::move(curves));
    json.set("bc_liftings", size_list_json(l.bc_liftings));
    json.set("search_lo_db", Json(l.search_lo_db));
    json.set("search_hi_db", Json(l.search_hi_db));
    json.set("search_step_db", Json(l.search_step_db));
    return json;
  }

  void payload_from_json(const Json& json,
                         ScenarioSpec& spec) const override {
    auto& l = spec.payload<LdpcLatencySpec>();
    ObjectReader reader(json, "ldpc");
    reader.number("target_ber", l.target_ber);
    reader.size("min_errors", l.min_errors);
    reader.size("max_codewords", l.max_codewords);
    reader.size("max_bp_iterations", l.max_bp_iterations);
    reader.size("termination", l.termination);
    reader.field("cc_curves", [&](const Json& curves) {
      l.cc_curves.clear();
      for (const auto& item : curves.as_array()) {
        LdpcCurveSpec curve;
        ObjectReader cr(item, "ldpc.cc_curves[]");
        cr.size("lifting", curve.lifting);
        cr.size("window_lo", curve.window_lo);
        cr.size("window_hi", curve.window_hi);
        cr.finish();
        l.cc_curves.push_back(curve);
      }
    });
    reader.size_list("bc_liftings", l.bc_liftings);
    reader.number("search_lo_db", l.search_lo_db);
    reader.number("search_hi_db", l.search_hi_db);
    reader.number("search_step_db", l.search_step_db);
    reader.finish();
  }

  Status validate(const ScenarioSpec& spec) const override {
    const auto& l = spec.payload<LdpcLatencySpec>();
    if (!(l.target_ber > 0.0 && l.target_ber < 1.0)) {
      return {StatusCode::kInvalidSpec,
              spec.name + ": target_ber must be in (0, 1)"};
    }
    if (l.min_errors < 1 || l.max_codewords < 1 ||
        l.max_bp_iterations < 1 || l.termination < 1) {
      return {StatusCode::kInvalidSpec,
              spec.name + ": ldpc Monte-Carlo settings must be >= 1"};
    }
    if (l.cc_curves.empty() && l.bc_liftings.empty()) {
      return {StatusCode::kInvalidSpec,
              spec.name + ": ldpc needs at least one CC curve or BC point"};
    }
    if (l.max_bp_iterations >
        static_cast<std::size_t>(std::numeric_limits<int>::max())) {
      return {StatusCode::kInvalidSpec,
              spec.name + ": max_bp_iterations must fit in an int"};
    }
    // The window decoder reads the mcc blocks before its target, so a
    // window holds at least mcc + 1 blocks; one of more than L blocks
    // would be the full code under a wrong latency.
    const std::size_t min_window =
        fec::EdgeSpreading::paper_example().mcc() + 1;
    for (const auto& curve : l.cc_curves) {
      if (curve.lifting < 1 || curve.window_lo < min_window ||
          curve.window_hi < curve.window_lo ||
          curve.window_hi > l.termination) {
        return {StatusCode::kInvalidSpec,
                spec.name + ": ldpc cc_curves need lifting >= 1 and mcc + 1 "
                            "= " +
                    std::to_string(min_window) +
                    " <= window_lo <= window_hi <= termination"};
      }
    }
    for (const std::size_t lifting : l.bc_liftings) {
      if (lifting < 1) {
        return {StatusCode::kInvalidSpec,
                spec.name + ": bc_liftings must be >= 1"};
      }
    }
    if (l.search_step_db <= 0.0 || l.search_hi_db < l.search_lo_db) {
      return {StatusCode::kInvalidSpec,
              spec.name + ": ldpc Eb/N0 search bracket is inverted"};
    }
    return Status::ok();
  }

  Table run(const ScenarioSpec& spec, WorkloadEnv& env) const override {
    using namespace wi::fec;
    const LdpcLatencySpec& l = spec.payload<LdpcLatencySpec>();
    BpOptions bp;
    bp.max_iterations = static_cast<int>(l.max_bp_iterations);
    const auto required_ebn0 =
        [&](const std::function<BerResult(const BerConfig&)>& simulate,
            std::uint64_t seed) {
          return required_ebn0_db(
              [&](double ebn0) {
                BerConfig config;
                config.ebn0_db = ebn0;
                config.min_errors = l.min_errors;
                config.max_codewords = l.max_codewords;
                config.seed = seed;
                config.bp = bp;
                config.threads = env.threads();
                return simulate(config);
              },
              l.target_ber, l.search_lo_db, l.search_hi_db,
              l.search_step_db);
        };

    // One task per table row: every row builds its own code and seeds
    // its own Monte-Carlo, so rows run on any thread in any order and
    // the table is identical at every thread count. Inside a row, each
    // BER point decodes its codewords in batches on the same pool, so
    // the last, longest rows still use every worker. `cost`,
    // proportional to the bits BP decodes per codeword, estimates a
    // row's run time.
    struct Task {
      std::size_t cost;
      std::function<std::vector<std::string>()> row;
    };
    std::vector<Task> tasks;
    for (const LdpcCurveSpec& curve : l.cc_curves) {
      for (std::size_t w = curve.window_lo; w <= curve.window_hi; ++w) {
        const std::size_t n = curve.lifting;
        tasks.push_back({l.termination * w * n, [&, n, w] {
          const LdpcConvolutionalCode code(EdgeSpreading::paper_example(), n,
                                           l.termination, /*seed=*/n);
          const double ebn0 = required_ebn0(
              [&](const BerConfig& c) {
                return simulate_ber_window(code, w, c);
              },
              1000 + n + w);
          return std::vector<std::string>{
              "LDPC-CC", Table::num(static_cast<long long>(n)),
              Table::num(static_cast<long long>(w)),
              Table::num(window_decoder_latency_bits(w, n, code.nv(),
                                                     code.rate_asymptotic()),
                         0),
              Table::num(ebn0, 2)};
        }});
      }
    }
    for (const std::size_t n : l.bc_liftings) {
      tasks.push_back({n, [&, n] {
        const QcLdpcBlockCode code(BaseMatrix({{4, 4}}), n, /*seed=*/n);
        const double ebn0 = required_ebn0(
            [&](const BerConfig& c) { return simulate_ber_block(code, c); },
            2000 + n);
        return std::vector<std::string>{
            "LDPC-BC", Table::num(static_cast<long long>(n)), "-",
            Table::num(block_code_latency_bits(n, 2, 0.5), 0),
            Table::num(ebn0, 2)};
      }});
    }
    // Costliest rows first, so no long row starts when the pool is
    // nearly drained; the table keeps spec order.
    std::vector<std::size_t> order(tasks.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return tasks[a].cost > tasks[b].cost;
                     });
    std::vector<std::vector<std::string>> rows(tasks.size());
    parallel_for(order.size(), env.threads(), [&](std::size_t k) {
      rows[order[k]] = tasks[order[k]].row();
    });
    Table table(headers());
    for (auto& row : rows) table.add_row(std::move(row));
    env.note("target BER " + Table::num(l.target_ber, 6) + ", min_errors " +
             Table::num(static_cast<long long>(l.min_errors)) +
             ", max_codewords " +
             Table::num(static_cast<long long>(l.max_codewords)) +
             "; required Eb/N0 falls with W and N, and at equal latency the "
             "LDPC-CC needs less Eb/N0 than the LDPC-BC it is derived from");
    return table;
  }
};

}  // namespace

WI_SIM_REGISTER_WORKLOAD(ldpc_latency, LdpcLatencyRunner)

}  // namespace wi::sim
