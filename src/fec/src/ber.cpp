#include "wi/fec/ber.hpp"

#include <cmath>

#include "wi/common/rng.hpp"

namespace wi::fec {

namespace {

double noise_sigma(double ebn0_db, double rate) {
  const double ebn0 = std::pow(10.0, ebn0_db / 10.0);
  return std::sqrt(1.0 / (2.0 * rate * ebn0));
}

}  // namespace

BerResult simulate_ber_block(const QcLdpcBlockCode& code,
                             const BerConfig& config) {
  const std::size_t n = code.block_length();
  const double sigma = noise_sigma(config.ebn0_db, code.design_rate());
  const double llr_scale = 2.0 / (sigma * sigma);
  const BpDecoder decoder(code.parity_check());
  Rng rng(config.seed);

  BerResult result;
  std::vector<double> llr(n);
  BpResult bp;
  while (result.codewords < config.max_codewords &&
         result.bit_errors < config.min_errors) {
    for (std::size_t i = 0; i < n; ++i) {
      llr[i] = llr_scale * (1.0 + sigma * rng.gaussian());
    }
    decoder.decode(llr, config.bp, nullptr, bp);
    for (std::size_t i = 0; i < n; ++i) {
      result.bit_errors += bp.hard[i];
    }
    result.bits += n;
    ++result.codewords;
  }
  result.ber = result.bits == 0 ? 0.0
                                : static_cast<double>(result.bit_errors) /
                                      static_cast<double>(result.bits);
  return result;
}

BerResult simulate_ber_window(const LdpcConvolutionalCode& code,
                              std::size_t window, const BerConfig& config) {
  const std::size_t n = code.codeword_length();
  const double sigma = noise_sigma(config.ebn0_db, code.rate_asymptotic());
  const double llr_scale = 2.0 / (sigma * sigma);
  const WindowDecoder decoder(code, window, config.bp);
  Rng rng(config.seed);

  BerResult result;
  std::vector<double> llr(n);
  while (result.codewords < config.max_codewords &&
         result.bit_errors < config.min_errors) {
    for (std::size_t i = 0; i < n; ++i) {
      llr[i] = llr_scale * (1.0 + sigma * rng.gaussian());
    }
    const WindowDecodeResult wd = decoder.decode(llr);
    for (std::size_t i = 0; i < n; ++i) {
      result.bit_errors += wd.hard[i];
    }
    result.bits += n;
    ++result.codewords;
  }
  result.ber = result.bits == 0 ? 0.0
                                : static_cast<double>(result.bit_errors) /
                                      static_cast<double>(result.bits);
  return result;
}

double required_ebn0_db(const std::function<BerResult(double)>& simulate,
                        double target_ber, double lo_db, double hi_db,
                        double step_db) {
  double prev_db = lo_db;
  double prev_log_ber = 0.0;
  bool have_prev = false;
  for (double ebn0 = lo_db; ebn0 <= hi_db + 1e-9; ebn0 += step_db) {
    const BerResult r = simulate(ebn0);
    // A zero-error run is read as "below target" at this point.
    const double ber = (r.bit_errors == 0)
                           ? target_ber / 10.0
                           : r.ber;
    if (ber <= target_ber) {
      if (!have_prev) return ebn0;  // already below target at the start
      // Linear interpolation in log10(BER).
      const double log_target = std::log10(target_ber);
      const double log_cur = std::log10(ber);
      const double frac =
          (prev_log_ber - log_target) / (prev_log_ber - log_cur);
      return prev_db + frac * (ebn0 - prev_db);
    }
    prev_db = ebn0;
    prev_log_ber = std::log10(ber);
    have_prev = true;
  }
  return hi_db;  // censored: target not reached in range
}

}  // namespace wi::fec
