#include "wi/fec/ber.hpp"

#include <algorithm>
#include <cmath>

#include "wi/common/parallel.hpp"
#include "wi/common/rng.hpp"

namespace wi::fec {

namespace {

double noise_sigma(double ebn0_db, double rate) {
  const double ebn0 = std::pow(10.0, ebn0_db / 10.0);
  return std::sqrt(1.0 / (2.0 * rate * ebn0));
}

/// Codewords in the next batch: one per worker at first, then at most
/// an eighth of those already done and half of what the error rate so
/// far predicts up to the min_errors stop, so a burst of errors early in
/// a batch wastes few decodes (2.7% of all decodes in full Fig. 10).
/// Never past max_codewords, and one at a time on one worker (the plain
/// serial loop).
std::size_t next_batch(const BerResult& done, const BerConfig& config) {
  const std::size_t left = config.max_codewords - done.codewords;
  if (config.threads <= 1) return 1;
  double want = static_cast<double>(done.codewords) / 8.0;
  if (done.bit_errors > 0) {
    const double to_stop =
        static_cast<double>(config.min_errors - done.bit_errors) *
        static_cast<double>(done.codewords) /
        static_cast<double>(done.bit_errors);
    want = std::min(want, std::ceil(to_stop / 2.0));
  }
  const double batch =
      std::max(want, static_cast<double>(config.threads));
  return batch >= static_cast<double>(left) ? left
                                            : static_cast<std::size_t>(batch);
}

/// The Monte-Carlo loop of both code families. `errors_of(llr)` decodes
/// one received word and returns its bit errors; it runs concurrently.
template <typename ErrorsOf>
BerResult simulate_ber(std::size_t n, double sigma, const BerConfig& config,
                       const ErrorsOf& errors_of) {
  const double llr_scale = 2.0 / (sigma * sigma);
  Rng rng(config.seed);
  BerResult result;
  const auto stopped = [&] {
    return result.codewords >= config.max_codewords ||
           result.bit_errors >= config.min_errors;
  };
  std::vector<std::vector<double>> llr;
  std::vector<std::size_t> errors;
  while (!stopped()) {
    const std::size_t batch = next_batch(result, config);
    llr.resize(batch);
    for (std::vector<double>& word : llr) {
      word.resize(n);
      for (double& x : word) x = llr_scale * (1.0 + sigma * rng.gaussian());
    }
    errors.assign(batch, 0);
    parallel_for(batch, config.threads,
                 [&](std::size_t k) { errors[k] = errors_of(llr[k]); });
    for (std::size_t k = 0; k < batch && !stopped(); ++k) {
      result.bit_errors += errors[k];
      result.bits += n;
      ++result.codewords;
    }
  }
  result.ber = result.bits == 0 ? 0.0
                                : static_cast<double>(result.bit_errors) /
                                      static_cast<double>(result.bits);
  return result;
}

std::size_t ones(const std::vector<std::uint8_t>& bits) {
  return static_cast<std::size_t>(std::count(bits.begin(), bits.end(), 1));
}

}  // namespace

BerResult simulate_ber_block(const QcLdpcBlockCode& code,
                             const BerConfig& config) {
  const BpDecoder decoder(code.parity_check());
  return simulate_ber(
      code.block_length(), noise_sigma(config.ebn0_db, code.design_rate()),
      config, [&](const std::vector<double>& llr) {
        thread_local BpResult bp;
        decoder.decode(llr, config.bp, nullptr, bp);
        return ones(bp.hard);
      });
}

BerResult simulate_ber_window(const LdpcConvolutionalCode& code,
                              std::size_t window, const BerConfig& config) {
  const WindowDecoder decoder(code, window, config.bp);
  return simulate_ber(
      code.codeword_length(),
      noise_sigma(config.ebn0_db, code.rate_asymptotic()), config,
      [&](const std::vector<double>& llr) {
        return ones(decoder.decode(llr).hard);
      });
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
