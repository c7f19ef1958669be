/// \file link_plan.cpp
/// \brief "link_plan" workload plugin: plan all board-to-board links of
///        a geometry (no payload).

#include "wi/sim/workload.hpp"

#include <algorithm>
#include <limits>

#include "wi/core/geometry.hpp"
#include "wi/core/link_planner.hpp"

namespace wi::sim {
namespace {

class LinkPlanRunner final : public WorkloadRunner {
 public:
  std::string name() const override { return "link_plan"; }
  std::string description() const override {
    return "plan all board-to-board links of a geometry";
  }
  std::vector<std::string> headers() const override {
    return {"src", "dst", "distance_mm", "angle_deg", "reqd_ptx_dbm",
            "snr_db", "phy_rate_gbps"};
  }

  Status validate(const ScenarioSpec& spec) const override {
    if (spec.geometry.boards < 2) {
      return {StatusCode::kInvalidSpec,
              spec.name + ": link workloads need >= 2 boards"};
    }
    return Status::ok();
  }

  Table run(const ScenarioSpec& spec, WorkloadEnv& env) const override {
    Table table(headers());
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
    double min_rate = std::numeric_limits<double>::infinity();
    double max_rate = 0.0;
    for (const auto& link : links) {
      const double phy_rate = curve->link_rate_gbps(link.snr_db);
      min_rate = std::min(min_rate, phy_rate);
      max_rate = std::max(max_rate, phy_rate);
      table.add_row({Table::num(static_cast<long long>(link.src_node)),
                     Table::num(static_cast<long long>(link.dst_node)),
                     Table::num(link.distance_mm, 1),
                     Table::num(link.steering_angle_deg, 1),
                     Table::num(link.required_ptx_dbm, 2),
                     Table::num(link.snr_db, 2), Table::num(phy_rate, 2)});
    }
    env.note(links.empty()
                 ? std::string("no adjacent-board links in this geometry")
                 : Table::num(static_cast<long long>(links.size())) +
                       " adjacent-board links planned; PHY rate " +
                       Table::num(min_rate, 1) + " - " +
                       Table::num(max_rate, 1) + " Gbit/s");
    return table;
  }
};

}  // namespace

WI_SIM_REGISTER_WORKLOAD(link_plan, LinkPlanRunner)

}  // namespace wi::sim
