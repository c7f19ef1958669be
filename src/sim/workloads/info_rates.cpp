/// \file info_rates.cpp
/// \brief "info_rates" workload plugin: Fig. 6 information rates of the
///        1-bit receiver across SNR.

#include "wi/sim/workloads/info_rates.hpp"

#include "wi/comm/filter_design.hpp"
#include "wi/comm/info_rate.hpp"
#include "wi/common/parallel.hpp"
#include "wi/sim/spec_codec.hpp"
#include "wi/sim/workload.hpp"

namespace wi::sim {
namespace {

class InfoRatesRunner final : public WorkloadRunner {
 public:
  std::string name() const override { return "info_rates"; }
  std::string payload_key() const override { return "info_rate"; }
  std::string description() const override {
    return "Fig. 6: information rates of the 1-bit receiver";
  }
  std::vector<std::string> headers() const override {
    return {"SNR_dB", "MaxIR_seq", "MaxIR_symbolwise", "Rect_1bit_OS",
            "1bit_no_OS", "no_quantization", "suboptimal_seq"};
  }

  std::unique_ptr<WorkloadPayload> default_payload() const override {
    return std::make_unique<InfoRateSpec>();
  }

  Json payload_to_json(const ScenarioSpec& spec) const override {
    const auto& ir = spec.payload<InfoRateSpec>();
    Json json = Json::object();
    json.set("snr_lo_db", Json(ir.snr_lo_db));
    json.set("snr_hi_db", Json(ir.snr_hi_db));
    json.set("snr_step_db", Json(ir.snr_step_db));
    json.set("mc_symbols", Json(static_cast<double>(ir.mc_symbols)));
    json.set("mc_seed", Json(static_cast<double>(ir.mc_seed)));
    return json;
  }

  void payload_from_json(const Json& json,
                         ScenarioSpec& spec) const override {
    auto& ir = spec.payload<InfoRateSpec>();
    ObjectReader reader(json, "info_rate");
    reader.number("snr_lo_db", ir.snr_lo_db);
    reader.number("snr_hi_db", ir.snr_hi_db);
    reader.number("snr_step_db", ir.snr_step_db);
    reader.size("mc_symbols", ir.mc_symbols);
    reader.u64("mc_seed", ir.mc_seed);
    reader.finish();
  }

  Status validate(const ScenarioSpec& spec) const override {
    const auto& ir = spec.payload<InfoRateSpec>();
    if (ir.snr_step_db <= 0.0) {
      return {StatusCode::kInvalidSpec,
              spec.name + ": info_rate snr_step_db must be > 0"};
    }
    if (ir.snr_hi_db < ir.snr_lo_db) {
      return {StatusCode::kInvalidSpec,
              spec.name + ": info_rate snr_hi_db must be >= snr_lo_db"};
    }
    if (ir.mc_symbols < 1) {
      return {StatusCode::kInvalidSpec,
              spec.name + ": info_rate mc_symbols must be >= 1"};
    }
    return Status::ok();
  }

  void apply_seed(ScenarioSpec& spec, std::uint64_t seed) const override {
    spec.payload<InfoRateSpec>().mc_seed = seed;
  }

  Table run(const ScenarioSpec& spec, WorkloadEnv& env) const override {
    using namespace wi::comm;
    Table table(headers());
    const InfoRateSpec& ir = spec.payload<InfoRateSpec>();
    const Constellation c4 = Constellation::ask(4);
    const IsiFilter rect = IsiFilter::rectangular(5);
    const IsiFilter f_seq = paper_filter_sequence();
    const IsiFilter f_sym = paper_filter_symbolwise();
    const IsiFilter f_sub = paper_filter_suboptimal();
    const SequenceRateOptions mc{ir.mc_symbols, ir.mc_seed};
    std::vector<double> snrs;
    for (double snr = ir.snr_lo_db; snr <= ir.snr_hi_db + 1e-9;
         snr += ir.snr_step_db) {
      snrs.push_back(snr);
    }
    // One task per SNR row on the shared pool: a row reads only the
    // filters and its own seeded Monte-Carlo, so the table (spec order)
    // is identical at every thread count.
    std::vector<std::vector<std::string>> rows(snrs.size());
    parallel_for(snrs.size(), env.threads(), [&](std::size_t i) {
      const double snr = snrs[i];
      const OneBitOsChannel ch_seq(f_seq, c4, snr);
      const OneBitOsChannel ch_sym(f_sym, c4, snr);
      const OneBitOsChannel ch_rect(rect, c4, snr);
      const OneBitOsChannel ch_sub(f_sub, c4, snr);
      rows[i] = {Table::num(snr, 1),
                 Table::num(info_rate_one_bit_sequence(ch_seq, mc), 3),
                 Table::num(mi_one_bit_symbolwise(ch_sym), 3),
                 Table::num(info_rate_one_bit_sequence(ch_rect, mc), 3),
                 Table::num(mi_one_bit_no_oversampling(c4, snr), 3),
                 Table::num(mi_unquantized_matched_filter(c4, snr, 5), 3),
                 Table::num(info_rate_one_bit_sequence(ch_sub, mc), 3)};
    });
    for (auto& row : rows) table.add_row(std::move(row));
    env.note(
        "expected: no-quantization -> 2 bpcu; 1bit no-OS -> 1 bpcu; "
        "optimised ISI + sequence detection recovers most of the gap");
    return table;
  }
};

}  // namespace

WI_SIM_REGISTER_WORKLOAD(info_rates, InfoRatesRunner)

}  // namespace wi::sim
