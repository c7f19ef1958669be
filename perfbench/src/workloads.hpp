#pragma once
/// \file workloads.hpp
/// \brief The four benchmark workloads and the output checks they share.
///
/// Each workload loads one layer heavily and the others lightly:
///
///   ldpc_fig10      fec   (BP / sliding-window Monte-Carlo of Fig. 10 rows)
///   des_bigmesh     noc   (event-wheel DES on 32,768 routers, low load)
///   campaign_fault  sim   (seed pool, fault DES, ResultStore write + merge)
///   serve_mix       serve (closed-loop clients against an in-process Server)
///
/// A workload is built from the benchmark seed alone. With the default
/// seed its outputs must equal the committed goldens; with any other
/// seed they must pass the workload's statistical or invariant check.
/// Every check goes through Checks, so a wrong result raises `failed`
/// and the exit code, and a faster wrong program never passes.

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "wi/common/table.hpp"
#include "wi/serve/protocol.hpp"

namespace perfbench {

/// The seed whose outputs are compared with the goldens cell for cell.
inline constexpr std::uint64_t kDefaultSeed = 1;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  /// Repository checkout holding results/golden and results/campaigns.
  std::filesystem::path root = ".";
  /// Scratch directory for result stores; removed when the run ends.
  std::filesystem::path work_dir = ".bench_build/work";
};

/// Tally of checked operations.
class Checks {
 public:
  /// Counts one attempted operation; a false `ok` counts it failed.
  void expect(bool ok, const std::string& what);

  [[nodiscard]] std::size_t attempted() const { return attempted_; }
  [[nodiscard]] std::size_t failed() const { return failed_; }
  [[nodiscard]] const std::vector<std::string>& messages() const {
    return messages_;
  }

 private:
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::vector<std::string> messages_;  ///< the first few failures
};

/// What one pass (one unit of the workload's timed work) measured.
struct PassResult {
  double wall_s = 0.0;   ///< the unit's timed work
  double merge_s = 0.0;  ///< reading the unit's results back from the store
  std::vector<double> request_ms;  ///< latency of each request in the unit
  /// Per-layer values only the workload can see (store counters, cache
  /// counters, serve tiers); span-derived ones are added by the report.
  std::map<std::string, double> layer;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// One set-up; the run repeats it and keeps the last. Returns the
  /// seconds it timed (the part a user waits for before the first unit).
  virtual double setup() = 0;
  /// One unit of timed work, with its output checks.
  virtual PassResult pass(std::size_t index, Checks& checks) = 0;
  /// Per-layer values pooled over the traced passes (serve percentiles).
  virtual std::map<std::string, double> pooled_layer() { return {}; }
  /// Releases what set-up acquired (stops the server).
  virtual void finish() {}
  /// True when every pass runs the same inputs, so its deterministic
  /// counts (report.hpp) must repeat exactly from pass to pass.
  [[nodiscard]] virtual bool repeatable_passes() const { return true; }
  /// Span names this workload's traced run must record.
  [[nodiscard]] virtual std::vector<std::string> expected_spans() const = 0;
};

[[nodiscard]] std::vector<std::string> workload_names();
/// Throws std::invalid_argument for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const Options& options);

// --- sizing (the tests shrink these) ---------------------------------------

struct LdpcRow {
  bool convolutional = true;  ///< LDPC-CC window row, else LDPC-BC row
  std::size_t lifting = 0;
  std::size_t window = 0;     ///< CC only
};
/// Fig. 10 rows of unequal cost: two LDPC-CC window rows (~2.5 s and
/// ~3.0 s on one core) and three LDPC-BC rows (~0.4-0.8 s).
[[nodiscard]] std::vector<LdpcRow> default_ldpc_rows();
[[nodiscard]] std::unique_ptr<Workload> make_ldpc_workload(
    const Options& options, std::vector<LdpcRow> rows);

struct CampaignSizing {
  std::size_t seeds = 256;
  std::size_t threads = 4;
};
[[nodiscard]] std::unique_ptr<Workload> make_campaign_workload(
    const Options& options, CampaignSizing sizing);

// --- checks shared with the tests --------------------------------------------

/// Every actual row must equal the golden row with the same key (the
/// first `key_columns` cells), and every golden row must be present.
void check_rows(const wi::Table& actual, const wi::Table& golden,
                std::size_t key_columns, const std::string& what,
                Checks& checks);

/// A deliberately malformed frame must be answered with a non-ok status.
void check_malformed_reply(const wi::serve::Response& reply,
                           const std::string& frame, Checks& checks);

[[nodiscard]] wi::Table read_csv_table(const std::filesystem::path& path);

}  // namespace perfbench
