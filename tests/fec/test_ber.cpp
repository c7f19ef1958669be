#include "wi/fec/ber.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>

namespace wi::fec {
namespace {

TEST(BerBlock, HighSnrIsClean) {
  const QcLdpcBlockCode code(BaseMatrix({{4, 4}}), 50, 3);
  BerConfig config;
  config.ebn0_db = 8.0;
  config.max_codewords = 30;
  config.min_errors = 1000000;  // run all codewords
  const BerResult result = simulate_ber_block(code, config);
  EXPECT_EQ(result.bit_errors, 0u);
  EXPECT_EQ(result.codewords, 30u);
  EXPECT_EQ(result.bits, 30u * code.block_length());
}

TEST(BerBlock, LowSnrHasErrors) {
  const QcLdpcBlockCode code(BaseMatrix({{4, 4}}), 50, 3);
  BerConfig config;
  config.ebn0_db = -2.0;
  config.max_codewords = 20;
  config.min_errors = 50;
  const BerResult result = simulate_ber_block(code, config);
  EXPECT_GT(result.bit_errors, 0u);
  EXPECT_GT(result.ber, 0.01);
}

TEST(BerBlock, MonotoneNonIncreasingInSnr) {
  const QcLdpcBlockCode code(BaseMatrix({{4, 4}}), 60, 4);
  auto ber_at = [&](double ebn0) {
    BerConfig config;
    config.ebn0_db = ebn0;
    config.max_codewords = 60;
    config.min_errors = 80;
    config.seed = 7;
    return simulate_ber_block(code, config).ber;
  };
  const double low = ber_at(0.0);
  const double mid = ber_at(2.0);
  const double high = ber_at(4.0);
  EXPECT_GE(low, mid);
  EXPECT_GE(mid + 1e-6, high);
}

TEST(BerBlock, StopsAtErrorTarget) {
  const QcLdpcBlockCode code(BaseMatrix({{4, 4}}), 50, 3);
  BerConfig config;
  config.ebn0_db = -2.0;
  config.min_errors = 10;
  config.max_codewords = 100000;
  const BerResult result = simulate_ber_block(code, config);
  EXPECT_GE(result.bit_errors, 10u);
  EXPECT_LT(result.codewords, 10u);  // low SNR: errors come fast
}

TEST(BerBlock, DeterministicBySeed) {
  const QcLdpcBlockCode code(BaseMatrix({{4, 4}}), 40, 3);
  BerConfig config;
  config.ebn0_db = 1.5;
  config.max_codewords = 10;
  config.min_errors = 1000000;
  config.seed = 77;
  const BerResult a = simulate_ber_block(code, config);
  const BerResult b = simulate_ber_block(code, config);
  EXPECT_EQ(a.bit_errors, b.bit_errors);
}

TEST(BerWindow, HighSnrIsClean) {
  const LdpcConvolutionalCode code(EdgeSpreading::paper_example(), 20, 8,
                                   5);
  BerConfig config;
  config.ebn0_db = 8.0;
  config.max_codewords = 5;
  config.min_errors = 1000000;
  const BerResult result = simulate_ber_window(code, 4, config);
  EXPECT_EQ(result.bit_errors, 0u);
}

TEST(BerWindow, WindowSizeImprovesBer) {
  // Fig. 10's driving effect: larger W lowers BER at fixed Eb/N0.
  const LdpcConvolutionalCode code(EdgeSpreading::paper_example(), 25, 16,
                                   5);
  auto ber_at = [&](std::size_t w) {
    BerConfig config;
    config.ebn0_db = 2.2;
    config.max_codewords = 40;
    config.min_errors = 60;
    config.seed = 11;
    return simulate_ber_window(code, w, config).ber;
  };
  EXPECT_GT(ber_at(3), ber_at(8) * 0.999);
}

// The batched Monte-Carlo against the serial loop (threads = 1), field
// for field. Each case names its stop: min_errors reached after 5 or 7
// codewords, which is inside a batch at every thread count tried (the
// first batches hold one codeword per worker); min_errors after ~110
// codewords, after batches have grown past the thread count; and the
// max_codewords cap, which trims the last batch.
struct BatchCase {
  double ebn0_db;
  std::size_t min_errors;
  std::size_t max_codewords;
};

void expect_same_at_every_thread_count(
    const std::function<BerResult(const BerConfig&)>& simulate,
    const BatchCase& c, bool expect_min_errors_stop) {
  BerConfig config;
  config.ebn0_db = c.ebn0_db;
  config.min_errors = c.min_errors;
  config.max_codewords = c.max_codewords;
  config.seed = 5;
  const BerResult serial = simulate(config);
  if (expect_min_errors_stop) {
    EXPECT_GE(serial.bit_errors, c.min_errors);
    EXPECT_LT(serial.codewords, c.max_codewords);
  } else {
    EXPECT_LT(serial.bit_errors, c.min_errors);
    EXPECT_EQ(serial.codewords, c.max_codewords);
  }
  for (const std::size_t threads : {2, 3, 4, 8}) {
    config.threads = threads;
    const BerResult batched = simulate(config);
    EXPECT_EQ(batched.codewords, serial.codewords) << "threads " << threads;
    EXPECT_EQ(batched.bits, serial.bits) << "threads " << threads;
    EXPECT_EQ(batched.bit_errors, serial.bit_errors) << "threads " << threads;
    EXPECT_EQ(batched.ber, serial.ber) << "threads " << threads;
  }
}

TEST(BerBatches, BlockCodeEqualsTheSerialLoop) {
  const QcLdpcBlockCode code(BaseMatrix({{4, 4}}), 50, 3);
  const auto simulate = [&](const BerConfig& config) {
    return simulate_ber_block(code, config);
  };
  expect_same_at_every_thread_count(simulate, {1.5, 20, 400}, true);
  expect_same_at_every_thread_count(simulate, {3.0, 60, 400}, true);
  expect_same_at_every_thread_count(simulate, {3.0, 1000, 21}, false);
}

TEST(BerBatches, WindowDecodingEqualsTheSerialLoop) {
  const LdpcConvolutionalCode code(EdgeSpreading::paper_example(), 20, 8,
                                   5);
  const auto simulate = [&](const BerConfig& config) {
    return simulate_ber_window(code, 4, config);
  };
  expect_same_at_every_thread_count(simulate, {1.0, 20, 400}, true);
  expect_same_at_every_thread_count(simulate, {3.0, 60, 400}, true);
  expect_same_at_every_thread_count(simulate, {3.0, 1000, 21}, false);
}

TEST(RequiredEbn0, FindsThresholdOfSyntheticCurve) {
  // Synthetic BER(ebn0) = 10^(-ebn0/2): target 1e-3 at exactly 6 dB.
  const auto simulate = [](double ebn0) {
    BerResult r;
    r.ber = std::pow(10.0, -ebn0 / 2.0);
    r.bit_errors = 100;
    r.bits = static_cast<std::size_t>(100.0 / r.ber);
    return r;
  };
  const double found = required_ebn0_db(simulate, 1e-3, 0.0, 10.0, 0.5);
  EXPECT_NEAR(found, 6.0, 0.05);
}

TEST(RequiredEbn0, ReturnsLoWhenAlreadyBelowTarget) {
  const auto simulate = [](double) {
    BerResult r;
    r.ber = 1e-9;
    r.bit_errors = 1;
    r.bits = 1000000000;
    return r;
  };
  EXPECT_DOUBLE_EQ(required_ebn0_db(simulate, 1e-3, 2.0, 10.0), 2.0);
}

TEST(RequiredEbn0, CensoredAtHiWhenUnreachable) {
  const auto simulate = [](double) {
    BerResult r;
    r.ber = 0.4;
    r.bit_errors = 400;
    r.bits = 1000;
    return r;
  };
  EXPECT_DOUBLE_EQ(required_ebn0_db(simulate, 1e-5, 0.0, 4.0), 4.0);
}

}  // namespace
}  // namespace wi::fec
