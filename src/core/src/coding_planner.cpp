#include "wi/core/coding_planner.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace wi::core {

CodingPlanner::CodingPlanner(std::vector<CodingPoint> points)
    : points_(std::move(points)) {
  if (points_.empty()) {
    throw std::invalid_argument("CodingPlanner: empty operating table");
  }
}

CodingPlanner CodingPlanner::paper_table() {
  // Shape-faithful operating points of the (4,8)-regular ensemble:
  // LDPC-CC with N in {25, 40, 60} and W in {3..8}, LDPC-BC references.
  // Latencies from Eq. 4/5 (R = 1/2, nv = 2 => T = W*N resp. N).
  // Required Eb/N0 values follow the paper's Fig. 10 curves (anchored
  // at its worked example: CC reaches 3 dB at T_WD = 200, the BC at
  // T_B = 400). Our own Monte-Carlo reproduction confirms the ordering
  // and the W/N trends but sits ~1.5 dB higher in absolute terms due
  // to short termination and QC-circulant liftings — see the
  // fig10_ldpc_latency scenario and its BER 1e-5 variants
  // results/specs/fig10_ldpc_latency_full.json and fig10_keypoint.json.
  std::vector<CodingPoint> points;
  const auto add_cc = [&](std::size_t n, std::size_t w, double ebn0) {
    points.push_back({n, w, static_cast<double>(n * w), ebn0, false});
  };
  const auto add_bc = [&](std::size_t n, double ebn0) {
    points.push_back({n, 0, static_cast<double>(n), ebn0, true});
  };
  add_cc(25, 3, 4.8);  add_cc(25, 4, 4.2);  add_cc(25, 5, 3.9);
  add_cc(25, 6, 3.7);  add_cc(25, 7, 3.6);  add_cc(25, 8, 3.55);
  add_cc(40, 3, 4.0);  add_cc(40, 4, 3.4);  add_cc(40, 5, 3.0);
  add_cc(40, 6, 2.9);  add_cc(40, 7, 2.85); add_cc(40, 8, 2.8);
  add_cc(60, 4, 3.1);  add_cc(60, 5, 2.9);  add_cc(60, 6, 2.75);
  add_bc(100, 4.6);    add_bc(200, 3.8);    add_bc(300, 3.3);
  add_bc(400, 3.0);
  return CodingPlanner(std::move(points));
}

const CodingPoint* CodingPlanner::best_within_latency(
    double max_latency_info_bits) const {
  const CodingPoint* best = nullptr;
  for (const auto& p : points_) {
    if (p.latency_info_bits > max_latency_info_bits) continue;
    if (best == nullptr || p.required_ebn0_db < best->required_ebn0_db) {
      best = &p;
    }
  }
  return best;
}

const CodingPoint* CodingPlanner::best_window_for_lifting(
    std::size_t lifting, double max_latency_info_bits) const {
  const CodingPoint* best = nullptr;
  for (const auto& p : points_) {
    if (p.block_code || p.lifting != lifting) continue;
    if (p.latency_info_bits > max_latency_info_bits) continue;
    if (best == nullptr || p.required_ebn0_db < best->required_ebn0_db) {
      best = &p;
    }
  }
  return best;
}

double CodingPlanner::latency_gain_vs_block_bits(double ebn0_db) const {
  // Smallest latency reaching the target Eb/N0 for each family.
  double best_cc = std::numeric_limits<double>::infinity();
  double best_bc = std::numeric_limits<double>::infinity();
  for (const auto& p : points_) {
    if (p.required_ebn0_db > ebn0_db) continue;
    auto& slot = p.block_code ? best_bc : best_cc;
    slot = std::min(slot, p.latency_info_bits);
  }
  if (!std::isfinite(best_cc) || !std::isfinite(best_bc)) return 0.0;
  return best_bc - best_cc;
}

}  // namespace wi::core
