/// \file link_rate.cpp
/// \brief "link_rate" workload plugin: link SNR -> PHY data rate for
///        the extreme board-to-board links (quickstart; no payload).

#include "wi/sim/workload.hpp"

#include <cmath>

#include "wi/core/geometry.hpp"
#include "wi/rf/link_budget.hpp"

namespace wi::sim {
namespace {

class LinkRateRunner final : public WorkloadRunner {
 public:
  std::string name() const override { return "link_rate"; }
  std::string description() const override {
    return "link SNR -> PHY data rate on the extreme links (quickstart)";
  }
  std::vector<std::string> headers() const override {
    return {"link", "distance_m", "ptx_dbm", "snr_db", "phy_rate_gbps",
            "shannon_gbps"};
  }

  Status validate(const ScenarioSpec& spec) const override {
    if (spec.geometry.boards < 2) {
      // Board-to-board links need at least two boards.
      return {StatusCode::kInvalidSpec,
              spec.name + ": link workloads need >= 2 boards"};
    }
    return Status::ok();
  }

  Table run(const ScenarioSpec& spec, WorkloadEnv& env) const override {
    Table table(headers());
    const rf::LinkBudget budget(spec.link.budget);
    const auto curve = env.phy_cache().get(
        {spec.phy.receiver, spec.phy.bandwidth_hz, spec.phy.polarizations},
        env.threads());
    const core::BoardGeometry geometry(
        spec.geometry.boards, spec.geometry.board_size_mm,
        spec.geometry.separation_mm, spec.geometry.nodes_per_edge);
    const bool butler =
        spec.link.beamforming == core::Beamforming::kButlerMatrix;
    const bool dual_pol = spec.phy.polarizations >= 2;
    struct Case {
      const char* name;
      double distance_m;
      bool mismatch;
    };
    const Case cases[] = {
        {"ahead", geometry.shortest_link_mm() / 1e3, false},
        {"diagonal", geometry.longest_link_mm() / 1e3, butler},
        // Table I's 300 mm worst-case link (larger rack scenario).
        {"table1_worst", rf::kLongestLink_m, butler},
    };
    for (const Case& c : cases) {
      const double snr =
          budget.snr_db(spec.link.ptx_dbm, c.distance_m, c.mismatch);
      table.add_row(
          {c.name, Table::num(c.distance_m, 3),
           Table::num(spec.link.ptx_dbm, 1), Table::num(snr, 2),
           Table::num(curve->link_rate_gbps(snr), 2),
           Table::num(budget.shannon_rate_bps(snr, dual_pol) / 1e9, 2)});
    }
    env.note("PTX for " + Table::num(spec.link.target_snr_db, 1) +
             " dB SNR on the 300 mm worst-case link: " +
             Table::num(budget.required_tx_power_dbm(spec.link.target_snr_db,
                                                     rf::kLongestLink_m,
                                                     butler),
                        2) +
             " dBm");
    const double snr_100g = curve->required_snr_db(100.0);
    env.note(std::isinf(snr_100g)
                 ? std::string("100 Gbit/s unreachable with this receiver")
                 : "SNR for 100 Gbit/s: " + Table::num(snr_100g, 2) + " dB");
    return table;
  }
};

}  // namespace

WI_SIM_REGISTER_WORKLOAD(link_rate, LinkRateRunner)

}  // namespace wi::sim
