/// \file link_margin_map.cpp
/// \brief "link_margin_map" workload plugin: SNR-margin table over
///        every adjacent-board link of the chip geometry.
///
/// Added purely through the plugin layer — no SimEngine or scenario
/// codec edits — as the open-path proof for the workload registry.

#include "wi/sim/workloads/link_margin_map.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "wi/core/geometry.hpp"
#include "wi/core/link_planner.hpp"
#include "wi/sim/spec_codec.hpp"
#include "wi/sim/workload.hpp"

namespace wi::sim {
namespace {

class LinkMarginMapRunner final : public WorkloadRunner {
 public:
  std::string name() const override { return "link_margin_map"; }
  std::string description() const override {
    return "per-link SNR-margin table over the chip geometry";
  }
  std::vector<std::string> headers() const override {
    return {"src", "dst", "distance_mm", "snr_db", "target_margin_db",
            "rate_margin_db", "meets_target"};
  }

  std::unique_ptr<WorkloadPayload> default_payload() const override {
    return std::make_unique<LinkMarginSpec>();
  }

  Json payload_to_json(const ScenarioSpec& spec) const override {
    const auto& m = spec.payload<LinkMarginSpec>();
    Json json = Json::object();
    json.set("min_rate_gbps", Json(m.min_rate_gbps));
    return json;
  }

  void payload_from_json(const Json& json,
                         ScenarioSpec& spec) const override {
    auto& m = spec.payload<LinkMarginSpec>();
    ObjectReader reader(json, "link_margin_map");
    reader.number("min_rate_gbps", m.min_rate_gbps);
    reader.finish();
  }

  Status validate(const ScenarioSpec& spec) const override {
    if (spec.geometry.boards < 2) {
      return {StatusCode::kInvalidSpec,
              spec.name + ": link workloads need >= 2 boards"};
    }
    if (spec.payload<LinkMarginSpec>().min_rate_gbps <= 0.0) {
      return {StatusCode::kInvalidSpec,
              spec.name + ": min_rate_gbps must be > 0"};
    }
    return Status::ok();
  }

  Table run(const ScenarioSpec& spec, WorkloadEnv& env) const override {
    Table table(headers());
    const LinkMarginSpec& m = spec.payload<LinkMarginSpec>();
    const core::WirelessLinkPlanner planner(spec.link.budget,
                                            spec.link.beamforming);
    const auto curve = env.phy_cache().get(
        {spec.phy.receiver, spec.phy.bandwidth_hz, spec.phy.polarizations},
        env.threads());
    const core::BoardGeometry geometry(
        spec.geometry.boards, spec.geometry.board_size_mm,
        spec.geometry.separation_mm, spec.geometry.nodes_per_edge);
    const auto links = planner.plan(geometry, spec.link.ptx_dbm,
                                    spec.link.target_snr_db);
    // SNR the PHY receiver needs for the requested rate; +inf when the
    // receiver cannot reach it at any SNR (rate margin becomes -inf).
    const double snr_for_rate = curve->required_snr_db(m.min_rate_gbps);
    double worst_margin = std::numeric_limits<double>::infinity();
    std::size_t failing = 0;
    for (const auto& link : links) {
      const double target_margin = link.snr_db - spec.link.target_snr_db;
      const double rate_margin = link.snr_db - snr_for_rate;
      worst_margin = std::min(worst_margin, target_margin);
      const bool ok = target_margin >= 0.0;
      if (!ok) ++failing;
      table.add_row({Table::num(static_cast<long long>(link.src_node)),
                     Table::num(static_cast<long long>(link.dst_node)),
                     Table::num(link.distance_mm, 1),
                     Table::num(link.snr_db, 2),
                     Table::num(target_margin, 2),
                     std::isfinite(rate_margin) ? Table::num(rate_margin, 2)
                                                : std::string("-inf"),
                     ok ? "yes" : "no"});
    }
    env.note(links.empty()
                 ? std::string("no adjacent-board links in this geometry")
                 : Table::num(static_cast<long long>(links.size())) +
                       " links at PTX " + Table::num(spec.link.ptx_dbm, 1) +
                       " dBm; worst margin vs " +
                       Table::num(spec.link.target_snr_db, 1) +
                       " dB target: " + Table::num(worst_margin, 2) +
                       " dB (" +
                       Table::num(static_cast<long long>(failing)) +
                       " below target)");
    env.note(std::isfinite(snr_for_rate)
                 ? "SNR needed for " + Table::num(m.min_rate_gbps, 1) +
                       " Gbit/s: " + Table::num(snr_for_rate, 2) + " dB"
                 : Table::num(m.min_rate_gbps, 1) +
                       " Gbit/s unreachable with this receiver");
    return table;
  }
};

}  // namespace

WI_SIM_REGISTER_WORKLOAD(link_margin_map, LinkMarginMapRunner)

}  // namespace wi::sim
