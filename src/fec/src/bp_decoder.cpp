#include "wi/fec/bp_decoder.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace wi::fec {

namespace {

/// Per-thread message buffers, grown to the largest graph decoded on
/// the thread and reused by every later call.
struct Workspace {
  std::vector<double> v2c;        ///< variable-to-check messages per edge
  std::vector<double> c2v;        ///< check-to-variable messages per edge
  std::vector<double> tanh_half;  ///< tanh(v2c / 2) per edge (sum-product)
  std::vector<double> tanh_llr;   ///< tanh(llr / 2) per variable (iteration 1)
};

thread_local Workspace workspace;

}  // namespace

BpDecoder::BpDecoder(const SparseBinaryMatrix& h)
    : n_vars_(h.cols()), n_checks_(h.rows()) {
  check_edge_begin_.resize(n_checks_ + 1, 0);
  for (std::size_t c = 0; c < n_checks_; ++c) {
    check_edge_begin_[c + 1] =
        check_edge_begin_[c] + static_cast<std::uint32_t>(h.row(c).size());
  }
  const std::uint32_t n_edges = check_edge_begin_[n_checks_];
  edge_var_.resize(n_edges);
  var_edge_begin_.resize(n_vars_ + 1, 0);
  for (std::size_t v = 0; v < n_vars_; ++v) {
    var_edge_begin_[v + 1] =
        var_edge_begin_[v] + static_cast<std::uint32_t>(h.col(v).size());
  }
  // Walking the edges in id order keeps each variable's list ascending.
  var_edge_ids_.resize(n_edges);
  std::vector<std::uint32_t> fill(var_edge_begin_.begin(),
                                  var_edge_begin_.end() - 1);
  for (std::size_t c = 0; c < n_checks_; ++c) {
    std::uint32_t e = check_edge_begin_[c];
    for (const std::uint32_t v : h.row(c)) {
      edge_var_[e] = v;
      var_edge_ids_[fill[v]++] = e;
      ++e;
    }
  }
}

BpResult BpDecoder::decode(const std::vector<double>& channel_llr,
                           const BpOptions& options,
                           const std::vector<std::uint8_t>* check_parity) const {
  BpResult result;
  decode(channel_llr, options, check_parity, result);
  return result;
}

void BpDecoder::decode(std::span<const double> channel_llr,
                       const BpOptions& options,
                       const std::vector<std::uint8_t>* check_parity,
                       BpResult& result) const {
  if (channel_llr.size() != n_vars_) {
    throw std::invalid_argument("BpDecoder::decode: LLR length mismatch");
  }
  if (check_parity != nullptr && check_parity->size() != n_checks_) {
    throw std::invalid_argument("BpDecoder::decode: parity length mismatch");
  }
  const std::size_t n_edges = edge_var_.size();
  std::vector<double>& v2c = workspace.v2c;
  std::vector<double>& c2v = workspace.c2v;
  std::vector<double>& tanh_half = workspace.tanh_half;
  v2c.resize(n_edges);
  c2v.resize(n_edges);
  tanh_half.resize(n_edges);

  result.hard.assign(n_vars_, 0);
  result.llr_out.assign(channel_llr.begin(), channel_llr.end());
  result.iterations = 0;
  result.converged = false;

  // Initial variable-to-check messages are the channel LLRs.
  for (std::size_t e = 0; e < n_edges; ++e) {
    v2c[e] = channel_llr[edge_var_[e]];
  }

  const double clip = options.llr_clip;
  auto clipped = [clip](double x) { return std::clamp(x, -clip, clip); };
  // Saturated messages are common: about a fifth of the tanh and atanh
  // inputs sit on the clip or the clamp at Fig. 10's operating points.
  // Their results are computed once here by the loop's own expressions,
  // so the shortcut changes no bit. (A zero clip keeps the general path:
  // -0.0 == 0.0 would lose the sign of a zero message.)
  const double sat =
      clip > 0.0 ? clip : std::numeric_limits<double>::quiet_NaN();
  const double tanh_sat_hi = std::tanh(0.5 * clip);
  const double tanh_sat_lo = std::tanh(0.5 * -clip);
  constexpr double kTanhClamp = 0.9999999999;
  const double atanh_clamp_hi = clipped(2.0 * std::atanh(kTanhClamp));
  const double atanh_clamp_lo = clipped(2.0 * std::atanh(-kTanhClamp));
  auto half_tanh = [&](double clipped_message) {
    return clipped_message == sat    ? tanh_sat_hi
           : clipped_message == -sat ? tanh_sat_lo
                                     : std::tanh(0.5 * clipped_message);
  };
  // Iteration 1's messages are the channel LLRs, so their tanh is taken
  // once per variable rather than once per edge.
  std::vector<double>& tanh_llr = workspace.tanh_llr;
  if (!options.min_sum) {
    tanh_llr.resize(n_vars_);
    for (std::size_t v = 0; v < n_vars_; ++v) {
      tanh_llr[v] = half_tanh(clipped(channel_llr[v]));
    }
  }
  auto syndrome_matches = [&]() {
    for (std::size_t c = 0; c < n_checks_; ++c) {
      std::uint8_t parity = 0;
      for (std::uint32_t e = check_edge_begin_[c];
           e < check_edge_begin_[c + 1]; ++e) {
        parity ^= result.hard[edge_var_[e]];
      }
      const std::uint8_t target =
          (check_parity != nullptr) ? (*check_parity)[c] : 0;
      if (parity != target) return false;
    }
    return true;
  };

  for (int iter = 1; iter <= options.max_iterations; ++iter) {
    result.iterations = iter;

    // Check node update.
    for (std::size_t c = 0; c < n_checks_; ++c) {
      const std::uint32_t begin = check_edge_begin_[c];
      const std::uint32_t end = check_edge_begin_[c + 1];
      const double target_sign =
          (check_parity != nullptr && (*check_parity)[c]) ? -1.0 : 1.0;
      if (options.min_sum) {
        // Track the two smallest magnitudes and the total sign.
        double min1 = 1e300;
        double min2 = 1e300;
        std::uint32_t min1_edge = begin;
        double sign_product = target_sign;
        for (std::uint32_t e = begin; e < end; ++e) {
          const double m = v2c[e];
          const double mag = std::abs(m);
          if (m < 0.0) sign_product = -sign_product;
          if (mag < min1) {
            min2 = min1;
            min1 = mag;
            min1_edge = e;
          } else if (mag < min2) {
            min2 = mag;
          }
        }
        for (std::uint32_t e = begin; e < end; ++e) {
          const double mag = (e == min1_edge) ? min2 : min1;
          double sign = sign_product;
          if (v2c[e] < 0.0) sign = -sign;
          c2v[e] = clipped(options.min_sum_scale * sign * mag);
        }
      } else {
        // Sum-product via the tanh rule, leave-one-out by division with
        // a guarded fallback when a message saturates. Each edge's tanh
        // is evaluated once and reused by both paths.
        double prod = target_sign;
        bool saturated = false;
        for (std::uint32_t e = begin; e < end; ++e) {
          const double t = iter == 1 ? tanh_llr[edge_var_[e]]
                                     : half_tanh(clipped(v2c[e]));
          tanh_half[e] = t;
          if (std::abs(t) < 1e-12) saturated = true;
          prod *= t;
        }
        for (std::uint32_t e = begin; e < end; ++e) {
          double t_out;
          const double t_e = tanh_half[e];
          if (!saturated && std::abs(t_e) > 1e-12) {
            t_out = prod / t_e;
          } else {
            // Recompute leave-one-out explicitly.
            t_out = target_sign;
            for (std::uint32_t e2 = begin; e2 < end; ++e2) {
              if (e2 == e) continue;
              t_out *= tanh_half[e2];
            }
          }
          t_out = std::clamp(t_out, -kTanhClamp, kTanhClamp);
          c2v[e] = t_out == kTanhClamp    ? atanh_clamp_hi
                   : t_out == -kTanhClamp ? atanh_clamp_lo
                                          : clipped(2.0 * std::atanh(t_out));
        }
      }
    }

    // Variable node update and posterior.
    for (std::size_t v = 0; v < n_vars_; ++v) {
      const std::uint32_t begin = var_edge_begin_[v];
      const std::uint32_t end = var_edge_begin_[v + 1];
      double total = channel_llr[v];
      for (std::uint32_t k = begin; k < end; ++k) total += c2v[var_edge_ids_[k]];
      result.llr_out[v] = total;
      result.hard[v] = total < 0.0 ? 1 : 0;
      for (std::uint32_t k = begin; k < end; ++k) {
        const std::uint32_t e = var_edge_ids_[k];
        v2c[e] = clipped(total - c2v[e]);
      }
    }

    if (options.early_stop && syndrome_matches()) {
      result.converged = true;
      return;
    }
  }
  // Final syndrome check when early_stop was off or never hit.
  result.converged = syndrome_matches();
}

}  // namespace wi::fec
