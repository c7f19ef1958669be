#include "wi/core/phy_abstraction.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "wi/common/math.hpp"
#include "wi/common/parallel.hpp"
#include "wi/comm/info_rate.hpp"

namespace wi::core {

namespace {

comm::IsiFilter filter_for(PhyReceiver receiver) {
  switch (receiver) {
    case PhyReceiver::kOneBitSequence:
      return comm::paper_filter_sequence();
    case PhyReceiver::kOneBitSymbolwise:
      return comm::paper_filter_symbolwise();
    default:
      return comm::IsiFilter::rectangular(5);
  }
}

}  // namespace

PhyAbstraction::PhyAbstraction(PhyReceiver receiver, double bandwidth_hz,
                               std::size_t polarizations,
                               std::size_t threads)
    : receiver_(receiver), bandwidth_hz_(bandwidth_hz),
      polarizations_(polarizations) {
  snr_grid_db_ = linspace(-5.0, 35.0, 17);
  rate_bpcu_.assign(snr_grid_db_.size(), 0.0);
  const comm::Constellation constellation = comm::Constellation::ask(4);
  // One grid point: a self-contained, deterministically seeded
  // computation (the sequence receivers run their Monte-Carlo with the
  // options' fixed seed), so points can execute in any order and on any
  // thread with bit-identical results.
  auto compute_point = [&](std::size_t i) {
    const double snr = snr_grid_db_[i];
    double rate = 0.0;
    switch (receiver_) {
      case PhyReceiver::kUnquantized:
        rate = comm::mi_unquantized_awgn(constellation, snr);
        break;
      case PhyReceiver::kOneBitSymbolwise: {
        const comm::OneBitOsChannel channel(filter_for(receiver_),
                                            constellation, snr);
        rate = comm::mi_one_bit_symbolwise(channel);
        break;
      }
      case PhyReceiver::kOneBitSequence:
      case PhyReceiver::kOneBitRect: {
        const comm::OneBitOsChannel channel(filter_for(receiver_),
                                            constellation, snr);
        comm::SequenceRateOptions options;
        options.symbols = 20000;  // fast, ±0.03 bpcu is plenty here
        rate = comm::info_rate_one_bit_sequence(channel, options);
        break;
      }
    }
    rate_bpcu_[i] = rate;
  };

  // Each point writes only its own slot.
  parallel_for(snr_grid_db_.size(), threads, compute_point);
  // Enforce monotonicity (Monte-Carlo jitter) so required_snr_db is
  // well defined.
  for (std::size_t i = 1; i < rate_bpcu_.size(); ++i) {
    rate_bpcu_[i] = std::max(rate_bpcu_[i], rate_bpcu_[i - 1]);
  }
}

double PhyAbstraction::info_rate_bpcu(double snr_db) const {
  return interp_linear(snr_grid_db_, rate_bpcu_, snr_db);
}

double PhyAbstraction::link_rate_gbps(double snr_db) const {
  return info_rate_bpcu(snr_db) * bandwidth_hz_ *
         static_cast<double>(polarizations_) / 1e9;
}

double PhyAbstraction::required_snr_db(double target_gbps) const {
  const double target_bpcu =
      target_gbps * 1e9 /
      (bandwidth_hz_ * static_cast<double>(polarizations_));
  if (target_bpcu > rate_bpcu_.back()) {
    return std::numeric_limits<double>::infinity();
  }
  // Clamp at the grid start (mirrors info_rate_bpcu's clamping).
  if (target_bpcu <= rate_bpcu_.front()) {
    return snr_grid_db_.front();
  }
  // Invert the monotone piecewise-linear curve.
  for (std::size_t i = 1; i < snr_grid_db_.size(); ++i) {
    if (rate_bpcu_[i] >= target_bpcu) {
      const double r0 = rate_bpcu_[i - 1];
      const double r1 = rate_bpcu_[i];
      if (r1 == r0) return snr_grid_db_[i];
      const double t = (target_bpcu - r0) / (r1 - r0);
      return snr_grid_db_[i - 1] +
             t * (snr_grid_db_[i] - snr_grid_db_[i - 1]);
    }
  }
  return snr_grid_db_.back();
}

}  // namespace wi::core
