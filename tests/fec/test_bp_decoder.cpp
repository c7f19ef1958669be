#include "wi/fec/bp_decoder.hpp"

#include <gtest/gtest.h>

#include <thread>

#include "wi/common/rng.hpp"
#include "wi/fec/ldpc_code.hpp"
#include "wi/fec/window_decoder.hpp"

namespace wi::fec {
namespace {

/// Tiny Hamming-like H = [1 1 0 1; 0 1 1 1] used for hand-checkable cases.
SparseBinaryMatrix tiny_h() {
  SparseBinaryMatrix h(2, 4);
  h.insert(0, 0);
  h.insert(0, 1);
  h.insert(0, 3);
  h.insert(1, 1);
  h.insert(1, 2);
  h.insert(1, 3);
  return h;
}

TEST(BpDecoder, CleanLlrConvergesImmediately) {
  const SparseBinaryMatrix h = tiny_h();
  const BpDecoder decoder(h);
  // Codeword 0000 with strong LLRs.
  const BpResult result = decoder.decode({9.0, 9.0, 9.0, 9.0});
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.iterations, 1);
  EXPECT_EQ(result.hard, (std::vector<std::uint8_t>{0, 0, 0, 0}));
}

TEST(BpDecoder, CorrectsSingleWeakBit) {
  const SparseBinaryMatrix h = tiny_h();
  const BpDecoder decoder(h);
  // Bit 0 slightly favours 1 but the checks pull it back to 0.
  const BpResult result = decoder.decode({-0.5, 6.0, 6.0, 6.0});
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.hard[0], 0);
}

TEST(BpDecoder, RespectsCheckParityTargets) {
  const SparseBinaryMatrix h = tiny_h();
  const BpDecoder decoder(h);
  // Target parity {1, 0}: check 0 must be odd. With bits 1..3 pinned to
  // zero, bit 0 must come out 1 even though its channel LLR is weak.
  const std::vector<std::uint8_t> parity = {1, 0};
  const BpResult result =
      decoder.decode({0.2, 9.0, 9.0, 9.0}, BpOptions{}, &parity);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.hard[0], 1);
  EXPECT_EQ(result.hard[1], 0);
}

TEST(BpDecoder, MinSumAlsoDecodes) {
  const QcLdpcBlockCode code(BaseMatrix({{4, 4}}), 60, 2);
  const BpDecoder decoder(code.parity_check());
  Rng rng(31);
  const double sigma = 0.6;
  std::vector<double> llr(code.block_length());
  for (auto& v : llr) {
    v = 2.0 / (sigma * sigma) * (1.0 + sigma * rng.gaussian());
  }
  BpOptions options;
  options.min_sum = true;
  const BpResult result = decoder.decode(llr, options);
  EXPECT_TRUE(result.converged);
  for (const auto bit : result.hard) EXPECT_EQ(bit, 0);
}

TEST(BpDecoder, SumProductCorrectsModerateNoise) {
  const QcLdpcBlockCode code(BaseMatrix({{4, 4}}), 100, 7);
  const BpDecoder decoder(code.parity_check());
  Rng rng(32);
  const double sigma = 0.75;  // ~2.5 dB Eb/N0 at rate 1/2
  std::vector<double> llr(code.block_length());
  int channel_errors = 0;
  for (auto& v : llr) {
    const double y = 1.0 + sigma * rng.gaussian();
    if (y < 0.0) ++channel_errors;
    v = 2.0 / (sigma * sigma) * y;
  }
  ASSERT_GT(channel_errors, 0);  // the channel actually flipped bits
  const BpResult result = decoder.decode(llr);
  int residual = 0;
  for (const auto bit : result.hard) residual += bit;
  EXPECT_LT(residual, channel_errors);
}

TEST(BpDecoder, IterationCapRespected) {
  const SparseBinaryMatrix h = tiny_h();
  const BpDecoder decoder(h);
  BpOptions options;
  options.max_iterations = 3;
  options.early_stop = false;
  const BpResult result = decoder.decode({1.0, -1.0, 1.0, -1.0}, options);
  EXPECT_EQ(result.iterations, 3);
}

TEST(BpDecoder, PosteriorsSharpenChannelLlrs) {
  const SparseBinaryMatrix h = tiny_h();
  const BpDecoder decoder(h);
  const BpResult result = decoder.decode({2.0, 2.0, 2.0, 2.0});
  for (std::size_t v = 0; v < 4; ++v) {
    EXPECT_GT(result.llr_out[v], 2.0);  // checks add confidence
  }
}

TEST(BpDecoder, RejectsBadInputSizes) {
  const BpDecoder decoder(tiny_h());
  EXPECT_THROW(decoder.decode({1.0, 2.0}), std::invalid_argument);
  const std::vector<std::uint8_t> bad_parity = {0};
  EXPECT_THROW(decoder.decode({1, 1, 1, 1}, BpOptions{}, &bad_parity),
               std::invalid_argument);
}

TEST(BpDecoder, MinSumScaleAffectsMagnitudesOnly) {
  const SparseBinaryMatrix h = tiny_h();
  const BpDecoder decoder(h);
  BpOptions full;
  full.min_sum = true;
  full.min_sum_scale = 1.0;
  BpOptions scaled;
  scaled.min_sum = true;
  scaled.min_sum_scale = 0.5;
  const BpResult a = decoder.decode({3.0, 3.0, 3.0, 3.0}, full);
  const BpResult b = decoder.decode({3.0, 3.0, 3.0, 3.0}, scaled);
  EXPECT_EQ(a.hard, b.hard);
  EXPECT_GT(a.llr_out[0], b.llr_out[0]);
}

TEST(BpDecoder, ReusedResultMatchesFreshDecode) {
  // The buffer-reusing overload decodes a small graph after a large one
  // (and back) with the same result as a fresh decode.
  const QcLdpcBlockCode big(BaseMatrix({{4, 4}}), 100, 7);
  const BpDecoder big_decoder(big.parity_check());
  const BpDecoder small_decoder(tiny_h());
  Rng rng(5);
  std::vector<double> big_llr(big.block_length());
  for (auto& v : big_llr) v = 3.0 * (1.0 + 0.8 * rng.gaussian());
  const std::vector<double> small_llr = {-0.5, 6.0, 6.0, 6.0};
  const std::vector<std::uint8_t> parity = {1, 0};
  BpResult reused;
  for (int round = 0; round < 2; ++round) {
    big_decoder.decode(big_llr, BpOptions{}, nullptr, reused);
    const BpResult fresh_big = big_decoder.decode(big_llr);
    EXPECT_EQ(reused.hard, fresh_big.hard);
    EXPECT_EQ(reused.llr_out, fresh_big.llr_out);
    EXPECT_EQ(reused.iterations, fresh_big.iterations);
    small_decoder.decode(small_llr, BpOptions{}, &parity, reused);
    const BpResult fresh_small =
        small_decoder.decode(small_llr, BpOptions{}, &parity);
    EXPECT_EQ(reused.hard, fresh_small.hard);
    EXPECT_EQ(reused.llr_out, fresh_small.llr_out);
    EXPECT_EQ(reused.converged, fresh_small.converged);
  }
}

TEST(BpDecoder, ConcurrentDecodesMatchSerial) {
  // decode() is const with per-thread scratch: threads sharing one
  // block decoder and one window decoder get the serial answers.
  const QcLdpcBlockCode block(BaseMatrix({{4, 4}}), 60, 3);
  const BpDecoder block_decoder(block.parity_check());
  const LdpcConvolutionalCode cc(EdgeSpreading::paper_example(), 25, 6, 25);
  const WindowDecoder window_decoder(cc, 3);
  constexpr int kFrames = 8;
  Rng rng(77);
  std::vector<std::vector<double>> block_llr(kFrames);
  std::vector<std::vector<double>> cc_llr(kFrames);
  for (int f = 0; f < kFrames; ++f) {
    block_llr[f].resize(block.block_length());
    for (auto& v : block_llr[f]) v = 2.5 * (1.0 + 0.9 * rng.gaussian());
    cc_llr[f].resize(cc.codeword_length());
    for (auto& v : cc_llr[f]) v = 2.5 * (1.0 + 0.9 * rng.gaussian());
  }
  std::vector<BpResult> block_want(kFrames);
  std::vector<WindowDecodeResult> cc_want(kFrames);
  for (int f = 0; f < kFrames; ++f) {
    block_want[f] = block_decoder.decode(block_llr[f]);
    cc_want[f] = window_decoder.decode(cc_llr[f]);
  }
  std::vector<BpResult> block_got(kFrames);
  std::vector<WindowDecodeResult> cc_got(kFrames);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int f = t; f < kFrames; f += 4) {
        block_got[f] = block_decoder.decode(block_llr[f]);
        cc_got[f] = window_decoder.decode(cc_llr[f]);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int f = 0; f < kFrames; ++f) {
    EXPECT_EQ(block_got[f].llr_out, block_want[f].llr_out) << "frame " << f;
    EXPECT_EQ(block_got[f].iterations, block_want[f].iterations);
    EXPECT_EQ(cc_got[f].hard, cc_want[f].hard) << "frame " << f;
    EXPECT_EQ(cc_got[f].bp_iterations, cc_want[f].bp_iterations);
  }
}

}  // namespace
}  // namespace wi::fec
