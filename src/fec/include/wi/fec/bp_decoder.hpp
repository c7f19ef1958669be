#pragma once
/// \file bp_decoder.hpp
/// \brief Belief-propagation decoding (sum-product and normalised
///        min-sum) on a Tanner graph, with optional per-check parity
///        targets so a window decoder can freeze already-decoded symbols.

#include <cstdint>
#include <span>
#include <vector>

#include "wi/fec/sparse_matrix.hpp"

namespace wi::fec {

/// Decoder settings.
struct BpOptions {
  int max_iterations = 50;
  bool min_sum = false;          ///< normalised min-sum instead of tanh
  double min_sum_scale = 0.75;   ///< normalisation factor
  bool early_stop = true;        ///< stop when the syndrome matches
  double llr_clip = 30.0;        ///< message clipping for stability
};

/// Decoding outcome.
struct BpResult {
  std::vector<std::uint8_t> hard;  ///< hard decisions per variable
  std::vector<double> llr_out;     ///< posterior LLRs
  int iterations = 0;              ///< iterations actually run
  bool converged = false;          ///< syndrome satisfied
};

/// Flooding-schedule BP decoder bound to a parity-check matrix.
///
/// The LLR convention is positive = bit 0 more likely. decode() is
/// const and safe to call concurrently: its message buffers are a
/// per-thread workspace reused across calls.
class BpDecoder {
 public:
  explicit BpDecoder(const SparseBinaryMatrix& h);

  /// Decode channel LLRs. `check_parity` (optional) gives a target
  /// parity per check (default all zero); used to absorb the known
  /// contribution of frozen variables outside a decoding window.
  [[nodiscard]] BpResult decode(
      const std::vector<double>& channel_llr, const BpOptions& options = {},
      const std::vector<std::uint8_t>* check_parity = nullptr) const;

  /// Same decode into `out`, reusing its buffers: the allocation-free
  /// path for callers that decode many words (Monte-Carlo loops, the
  /// window decoder's positions).
  void decode(std::span<const double> channel_llr, const BpOptions& options,
              const std::vector<std::uint8_t>* check_parity,
              BpResult& out) const;

  [[nodiscard]] std::size_t variable_count() const { return n_vars_; }
  [[nodiscard]] std::size_t check_count() const { return n_checks_; }

 private:
  std::size_t n_vars_;
  std::size_t n_checks_;
  // Edge arrays in CSR form: edges are grouped by check, and per edge
  // the variable it touches; per variable the ids of its edges, in
  // increasing order.
  std::vector<std::uint32_t> check_edge_begin_;  ///< size n_checks+1
  std::vector<std::uint32_t> edge_var_;          ///< size n_edges
  std::vector<std::uint32_t> var_edge_begin_;    ///< size n_vars+1
  std::vector<std::uint32_t> var_edge_ids_;      ///< size n_edges
};

}  // namespace wi::fec
