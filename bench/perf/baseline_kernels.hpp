#pragma once
/// \file baseline_kernels.hpp
/// \brief Pre-optimization reference implementations of the hot
///        simulation kernels (and their symbolwise/entropy siblings),
///        each frozen as of the PR that optimized it.
///
/// They exist for two reasons: tools/perf_report measures the
/// optimized kernels against them in the same process (so
/// reported speedups are immune to machine drift), and
/// tests/perf/test_kernel_identity.cpp asserts the optimized kernels
/// produce bit-identical outputs at fixed seeds. Do not "fix" or speed
/// these up — they are the measurement yardstick.

#include <cstdint>
#include <vector>

#include "wi/comm/info_rate.hpp"
#include "wi/fec/bp_decoder.hpp"
#include "wi/noc/flit_sim.hpp"

namespace wi::perf_baseline {

/// Old info_rate_one_bit_sequence: per-branch sample probabilities in
/// nested vectors, m multiplications per branch per symbol, fresh
/// Monte-Carlo simulation on every call.
[[nodiscard]] double info_rate_one_bit_sequence(
    const comm::OneBitOsChannel& channel,
    const comm::SequenceRateOptions& options = {});

/// Old mi_one_bit_symbolwise: per-window 2^m * m product loop.
[[nodiscard]] double mi_one_bit_symbolwise(
    const comm::OneBitOsChannel& channel);

/// Old conditional_entropy_rate: re-enumerates every window.
[[nodiscard]] double conditional_entropy_rate(
    const comm::OneBitOsChannel& channel);

/// Old simulate_network: std::deque queues, per-router per-cycle budget
/// allocation, lazy next-hop cache with an unbounded output-port scan.
[[nodiscard]] noc::FlitSimResult simulate_network(
    const noc::Topology& topology, const noc::Routing& routing,
    const noc::TrafficPattern& traffic, double injection_rate,
    const noc::FlitSimConfig& config = {});

/// Old fec::BpDecoder: per-variable edge lists in nested vectors, fresh
/// message buffers on every call, and tanh evaluated twice per edge per
/// iteration (deg + 1 times per edge on a check with a zero message).
class BpDecoder {
 public:
  explicit BpDecoder(const fec::SparseBinaryMatrix& h);

  [[nodiscard]] fec::BpResult decode(
      const std::vector<double>& channel_llr,
      const fec::BpOptions& options = {},
      const std::vector<std::uint8_t>* check_parity = nullptr) const;

 private:
  std::size_t n_vars_;
  std::size_t n_checks_;
  std::vector<std::uint32_t> check_edge_begin_;
  std::vector<std::uint32_t> edge_var_;
  std::vector<std::vector<std::uint32_t>> var_edges_;
};

}  // namespace wi::perf_baseline
