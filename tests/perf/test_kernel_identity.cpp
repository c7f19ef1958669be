/// \file test_kernel_identity.cpp
/// \brief The optimized hot kernels must be output-identical — same
///        seeds, bitwise-equal results — to the frozen pre-optimization
///        implementations in wi_perf_baseline.
///
/// This is the contract the perf PR was built on: every sweep
/// ResultTable cell stays byte-identical because the kernels underneath
/// reproduce the baseline bit for bit (same RNG draw order, same
/// floating-point operation order). Both sides are compiled in this
/// binary, so EXPECT_DOUBLE_EQ is exact and portable.

#include <gtest/gtest.h>

#include "baseline_kernels.hpp"
#include "wi/comm/filter_design.hpp"
#include "wi/comm/info_rate.hpp"
#include "wi/common/rng.hpp"
#include "wi/fec/bp_decoder.hpp"
#include "wi/fec/ldpc_code.hpp"
#include "wi/noc/flit_sim.hpp"

namespace {

const wi::comm::Constellation& ask4() {
  static const wi::comm::Constellation c = wi::comm::Constellation::ask(4);
  return c;
}

TEST(KernelIdentity, SequenceInfoRate) {
  struct Case {
    const char* name;
    wi::comm::IsiFilter filter;
    double snr_db;
    wi::comm::SequenceRateOptions options;
  };
  const Case cases[] = {
      {"paper_25db", wi::comm::paper_filter_sequence(), 25.0, {20000, 7}},
      {"paper_5db", wi::comm::paper_filter_sequence(), 5.0, {20000, 7}},
      {"paper_seed11", wi::comm::paper_filter_sequence(), 15.0, {12000, 11}},
      {"suboptimal", wi::comm::paper_filter_suboptimal(), 18.0, {8000, 3}},
      {"rect_span1", wi::comm::IsiFilter::rectangular(5), 10.0, {9000, 42}},
      {"extreme_low_snr", wi::comm::paper_filter_sequence(), -35.0,
       {5000, 2}},
  };
  for (const Case& c : cases) {
    const wi::comm::OneBitOsChannel channel(c.filter, ask4(), c.snr_db);
    EXPECT_DOUBLE_EQ(
        wi::comm::info_rate_one_bit_sequence(channel, c.options),
        wi::perf_baseline::info_rate_one_bit_sequence(channel, c.options))
        << c.name;
  }
}

TEST(KernelIdentity, SymbolwiseMiAndConditionalEntropy) {
  for (const double snr : {-5.0, 5.0, 15.0, 25.0, 35.0}) {
    const wi::comm::OneBitOsChannel sym(wi::comm::paper_filter_symbolwise(),
                                        ask4(), snr);
    EXPECT_DOUBLE_EQ(wi::comm::mi_one_bit_symbolwise(sym),
                     wi::perf_baseline::mi_one_bit_symbolwise(sym))
        << "snr " << snr;
    const wi::comm::OneBitOsChannel seq(wi::comm::paper_filter_sequence(),
                                        ask4(), snr);
    EXPECT_DOUBLE_EQ(wi::comm::conditional_entropy_rate(seq),
                     wi::perf_baseline::conditional_entropy_rate(seq))
        << "snr " << snr;
  }
}

void expect_same_result(const wi::noc::FlitSimResult& a,
                        const wi::noc::FlitSimResult& b,
                        const char* label) {
  EXPECT_EQ(a.delivered, b.delivered) << label;
  EXPECT_EQ(a.injected, b.injected) << label;
  EXPECT_EQ(a.stable, b.stable) << label;
  EXPECT_DOUBLE_EQ(a.mean_latency_cycles, b.mean_latency_cycles) << label;
  EXPECT_DOUBLE_EQ(a.delivered_per_cycle, b.delivered_per_cycle) << label;
}

TEST(KernelIdentity, FlitSimulator) {
  wi::noc::FlitSimConfig config;
  config.warmup_cycles = 500;
  config.measure_cycles = 3000;
  config.drain_cycles = 3000;
  struct Case {
    const char* name;
    wi::noc::Topology topo;
    wi::noc::TrafficPattern traffic;
    double rate;
    std::uint64_t seed;
  };
  const Case cases[] = {
      {"mesh2d_uniform", wi::noc::Topology::mesh_2d(8, 8),
       wi::noc::TrafficPattern::uniform(64), 0.25, 1},
      {"mesh3d_transpose", wi::noc::Topology::mesh_3d(4, 4, 4),
       wi::noc::TrafficPattern::transpose(64), 0.15, 5},
      {"star_mesh_hotspot", wi::noc::Topology::star_mesh(4, 4, 4),
       wi::noc::TrafficPattern::hotspot(64, 0, 0.3), 0.1, 9},
      {"saturated", wi::noc::Topology::mesh_2d(4, 4),
       wi::noc::TrafficPattern::uniform(16), 0.9, 3},
  };
  const wi::noc::DimensionOrderRouting dor;
  const wi::noc::ShortestPathRouting sp;
  for (const Case& c : cases) {
    config.seed = c.seed;
    expect_same_result(
        wi::noc::simulate_network(c.topo, dor, c.traffic, c.rate, config),
        wi::perf_baseline::simulate_network(c.topo, dor, c.traffic, c.rate,
                                            config),
        c.name);
    expect_same_result(
        wi::noc::simulate_network(c.topo, sp, c.traffic, c.rate, config),
        wi::perf_baseline::simulate_network(c.topo, sp, c.traffic, c.rate,
                                            config),
        c.name);
  }
}

/// Noisy BPSK LLRs of a random word at noise level `sigma`, with about
/// one in `zero_every` LLRs set to exactly 0 (a check that sees one
/// takes the saturated leave-one-out path).
std::vector<double> noisy_llr(const std::vector<std::uint8_t>& word,
                              double sigma, std::size_t zero_every,
                              wi::Rng& rng) {
  std::vector<double> llr(word.size());
  for (std::size_t i = 0; i < word.size(); ++i) {
    const double x = word[i] ? -1.0 : 1.0;
    llr[i] = 2.0 / (sigma * sigma) * (x + sigma * rng.gaussian());
    if (zero_every != 0 && rng.uniform_int(zero_every) == 0) llr[i] = 0.0;
  }
  return llr;
}

TEST(KernelIdentity, BpDecoder) {
  const wi::fec::QcLdpcBlockCode block(wi::fec::BaseMatrix({{4, 4}}), 100,
                                       7);
  const wi::fec::LdpcConvolutionalCode cc(
      wi::fec::EdgeSpreading::paper_example(), 25, 8, 25);
  wi::fec::BpOptions sum_product;
  wi::fec::BpOptions min_sum;
  min_sum.min_sum = true;
  wi::fec::BpOptions no_early_stop;
  no_early_stop.early_stop = false;
  no_early_stop.max_iterations = 7;
  wi::fec::BpOptions tight_clip;
  tight_clip.llr_clip = 4.0;
  const wi::fec::BpOptions options[] = {sum_product, min_sum, no_early_stop,
                                        tight_clip};

  wi::Rng rng(2024);
  // One result reused across both graphs and every frame: the buffer
  // path must not leak state from a previous (larger or smaller) decode.
  wi::fec::BpResult reused;
  std::size_t decodes = 0;
  for (const wi::fec::SparseBinaryMatrix* h :
       {&block.parity_check(), &cc.parity_check()}) {
    const wi::fec::BpDecoder decoder(*h);
    const wi::perf_baseline::BpDecoder baseline(*h);
    for (const double sigma : {0.6, 0.8, 1.0}) {
      for (const std::size_t zero_every : {0, 10, 1}) {  // 1 = all zero
        std::vector<std::uint8_t> word(h->cols());
        for (auto& bit : word) bit = rng.bernoulli(0.5) ? 1 : 0;
        const std::vector<double> llr = noisy_llr(word, sigma, zero_every, rng);
        // Targets of the random word (a window decoder's frozen blocks)
        // and unrelated random targets (BP cannot satisfy them).
        const std::vector<std::uint8_t> word_parity = h->syndrome(word);
        std::vector<std::uint8_t> random_parity(h->rows());
        for (auto& bit : random_parity) bit = rng.bernoulli(0.5) ? 1 : 0;
        using Parity = const std::vector<std::uint8_t>*;
        for (const Parity parity :
             {Parity{nullptr}, Parity{&word_parity}, Parity{&random_parity}}) {
          for (const wi::fec::BpOptions& o : options) {
            const wi::fec::BpResult want = baseline.decode(llr, o, parity);
            const wi::fec::BpResult got = decoder.decode(llr, o, parity);
            decoder.decode(llr, o, parity, reused);
            const std::string label =
                "sigma " + std::to_string(sigma) + ", zero_every " +
                std::to_string(zero_every) + ", min_sum " +
                std::to_string(o.min_sum) + ", parity " +
                std::to_string(parity != nullptr);
            for (const wi::fec::BpResult& r : {got, reused}) {
              EXPECT_EQ(r.hard, want.hard) << label;
              EXPECT_EQ(r.llr_out, want.llr_out) << label;  // bitwise
              EXPECT_EQ(r.iterations, want.iterations) << label;
              EXPECT_EQ(r.converged, want.converged) << label;
            }
            ++decodes;
          }
        }
      }
    }
  }
  EXPECT_EQ(decodes, 2u * 3u * 3u * 3u * 4u);
}

}  // namespace
