#pragma once
/// \file isi_filters.hpp
/// \brief Payload of the "isi_filters" workload (Fig. 5).

#include <cstddef>
#include <cstdint>

#include "wi/sim/scenario.hpp"

namespace wi::sim {

/// Fig. 5 ISI filter-design settings.
struct IsiSpec : PayloadBase<IsiSpec> {
  double design_snr_db = 25.0;      ///< paper optimises/evaluates at 25 dB
  std::size_t mc_symbols = 40000;   ///< sequence-rate Monte-Carlo length
  std::uint64_t mc_seed = 9;
  /// Re-run the Nelder-Mead optimisation instead of using the
  /// pre-optimised paper filters (minutes instead of milliseconds).
  bool reoptimize = false;
  /// Optimiser budget overrides for reoptimize runs
  /// (results/specs/tune_*.json);
  /// 0 keeps the library default.
  std::size_t opt_max_evals = 0;
  std::size_t opt_restarts = 0;
  std::size_t opt_mc_symbols = 0;
};

}  // namespace wi::sim
