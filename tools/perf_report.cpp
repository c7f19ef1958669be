/// \file perf_report.cpp
/// \brief Measures the hot simulation kernels against their frozen
///        pre-optimization baselines and emits BENCH_perf.json.
///
/// Usage:
///   tool_perf_report [--smoke] [output.json]
///
/// Each kernel with a frozen baseline is timed in this process in
/// interleaved rounds, one baseline sample then one optimized sample per
/// round; its speedup is the median of the per-round ratios, so a host
/// stall that hits one round moves nothing. --smoke runs one round of
/// everything (the CI sanity gate); the default counts are sized for a
/// stable committed baseline. The JSON schema ("wi-bench-perf-v1") is
/// described in docs/PERFORMANCE.md.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "baseline_kernels.hpp"
#include "wi/comm/filter_design.hpp"
#include "wi/comm/info_rate.hpp"
#include "wi/common/rng.hpp"
#include "wi/core/phy_abstraction.hpp"
#include "wi/fec/ber.hpp"
#include "wi/fec/bp_decoder.hpp"
#include "wi/fec/ldpc_code.hpp"
#include "wi/noc/flit_sim.hpp"
#include "wi/noc/mesh_grid.hpp"
#include "wi/noc/queueing_model.hpp"
#include "wi/sim/sim.hpp"

namespace {

double now_ns() {
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Process-lifetime peak resident set in kB (Linux ru_maxrss unit).
/// The counter never decreases, so each entry's value is the peak up to
/// the moment its timed runs finished — ordering memory-light kernels
/// before their memory-hungry dense twins makes the contrast visible.
double max_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss);
}

/// Best-of-reps wall time of one call, in nanoseconds.
double time_ns(const std::function<void()>& fn, int reps) {
  double best = 0.0;
  for (int i = 0; i < reps; ++i) {
    const double t0 = now_ns();
    fn();
    const double dt = now_ns() - t0;
    if (i == 0 || dt < best) best = dt;
  }
  return best;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Baseline vs optimized timing of one kernel: medians over rounds.
struct Paired {
  double base_ns = 0.0;
  double opt_ns = 0.0;
  double speedup = 0.0;  ///< median of the per-round base/opt ratios
};

/// `rounds` interleaved rounds, each timing the baseline then the
/// optimized call, best of `reps` calls each.
Paired time_paired(const std::function<void()>& base,
                   const std::function<void()>& opt, int reps, int rounds) {
  std::vector<double> base_ns, opt_ns, ratio;
  for (int r = 0; r < rounds; ++r) {
    base_ns.push_back(time_ns(base, reps));
    opt_ns.push_back(time_ns(opt, reps));
    ratio.push_back(base_ns.back() / opt_ns.back());
  }
  return {median(base_ns), median(opt_ns), median(ratio)};
}

struct Entry {
  std::string name;
  double ns_per_op = 0.0;
  double baseline_ns_per_op = 0.0;  ///< 0 = no baseline twin
  double throughput = 0.0;          ///< 0 = not meaningful
  std::string throughput_unit;
  double speedup = 0.0;  ///< median ratio; set with baseline_ns_per_op
  double rss_kb = 0.0;   ///< peak RSS when the entry finished timing
};

/// An entry timed against its baseline twin.
Entry paired_entry(std::string name, const Paired& p, double work = 0.0,
                   std::string unit = "") {
  Entry e{std::move(name), p.opt_ns, p.base_ns, 0.0, std::move(unit),
          p.speedup};
  if (work > 0.0) e.throughput = work / p.opt_ns * 1e3;
  return e;
}

/// push_back + max-RSS stamp: every entry records the process peak RSS
/// observed once its timed runs completed.
void push_entry(std::vector<Entry>& entries, Entry entry) {
  entry.rss_kb = max_rss_kb();
  entries.push_back(std::move(entry));
}

std::string json_escape_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1f", v);
  return buf;
}

void write_json(const std::vector<Entry>& entries, const std::string& path) {
  std::ofstream out(path);
  out << "{\n"
      << "  \"schema\": \"wi-bench-perf-v1\",\n"
      << "  \"note\": \"median wall times; speedup = median of interleaved "
         "baseline/optimized ratios, baseline = frozen pre-optimization "
         "kernel measured in the same process\",\n"
      << "  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    out << "    {\n"
        << "      \"name\": \"" << e.name << "\",\n"
        << "      \"ns_per_op\": " << json_escape_number(e.ns_per_op);
    if (e.baseline_ns_per_op > 0.0) {
      char speedup[32];
      std::snprintf(speedup, sizeof(speedup), "%.2f", e.speedup);
      out << ",\n      \"baseline_ns_per_op\": "
          << json_escape_number(e.baseline_ns_per_op)
          << ",\n      \"speedup\": " << speedup;
    }
    if (e.throughput > 0.0) {
      char thr[32];
      std::snprintf(thr, sizeof(thr), "%.2f", e.throughput);
      out << ",\n      \"throughput\": " << thr
          << ",\n      \"throughput_unit\": \"" << e.throughput_unit << "\"";
    }
    if (e.rss_kb > 0.0) {
      out << ",\n      \"max_rss_kb\": " << json_escape_number(e.rss_kb);
    }
    out << "\n    }" << (i + 1 < entries.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_perf.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      out_path = argv[i];
    }
  }
  const int reps_fast = smoke ? 1 : 7;    // sub-ms kernels
  // Interleaved baseline/optimized rounds per gated entry: one ratio
  // sample each, the speedup is their median.
  const int rounds = smoke ? 1 : 5;
  const int round_reps_fast = smoke ? 1 : 3;  // best-of inside a round
  std::vector<Entry> entries;

  const wi::comm::Constellation ask4 = wi::comm::Constellation::ask(4);

  // --- info_rate_one_bit_sequence (paper settings: 4-ASK, M=5, 20000) ---
  {
    const wi::comm::OneBitOsChannel channel(wi::comm::paper_filter_sequence(),
                                            ask4, 25.0);
    wi::comm::SequenceRateOptions options;
    options.symbols = 20000;
    options.seed = 7;
    volatile double sink = 0.0;
    const auto base = [&] {
      sink = wi::perf_baseline::info_rate_one_bit_sequence(channel, options);
    };
    // Warm the noise tape before timing the steady-state path (the cold
    // first call is reported separately below).
    sink = wi::comm::info_rate_one_bit_sequence(channel, options);
    push_entry(entries,
               paired_entry("info_rate_one_bit_sequence/4ask_m5_20000sym",
                            time_paired(
                                base,
                                [&] {
                                  sink = wi::comm::info_rate_one_bit_sequence(
                                      channel, options);
                                },
                                round_reps_fast, rounds),
                            20000.0, "Msymbols/s"));
    // Cold-tape cost: fresh seed defeats the memoization.
    std::uint64_t seed = 90000;
    push_entry(entries,
               paired_entry("info_rate_one_bit_sequence/cold_noise_tape",
                            time_paired(
                                base,
                                [&] {
                                  wi::comm::SequenceRateOptions cold = options;
                                  cold.seed = ++seed;
                                  sink = wi::comm::info_rate_one_bit_sequence(
                                      channel, cold);
                                },
                                round_reps_fast, rounds),
                            20000.0, "Msymbols/s"));
    (void)sink;
  }

  // --- mi_one_bit_symbolwise ---
  {
    const wi::comm::OneBitOsChannel channel(
        wi::comm::paper_filter_symbolwise(), ask4, 25.0);
    volatile double sink = 0.0;
    push_entry(entries,
               paired_entry(
                   "mi_one_bit_symbolwise/4ask_m5",
                   time_paired(
                       [&] {
                         sink =
                             wi::perf_baseline::mi_one_bit_symbolwise(channel);
                       },
                       [&] { sink = wi::comm::mi_one_bit_symbolwise(channel); },
                       smoke ? 1 : 10, smoke ? 1 : 7)));
    (void)sink;
  }

  // --- simulate_network (Fig. 8a: 64-module meshes) ---
  {
    wi::noc::FlitSimConfig config;  // fig08a DES cross-check settings
    config.warmup_cycles = 2000;
    config.measure_cycles = 8000;
    config.seed = 1;
    const wi::noc::DimensionOrderRouting routing;
    struct Case {
      const char* name;
      wi::noc::Topology topo;
      double rate;
    };
    Case cases[] = {
        {"simulate_network/fig08a_mesh3d_4x4x4_rate0.3",
         wi::noc::Topology::mesh_3d(4, 4, 4), 0.3},
        {"simulate_network/fig08a_mesh2d_8x8_rate0.2",
         wi::noc::Topology::mesh_2d(8, 8), 0.2},
        // Low-load point: the event wheel only turns routers with
        // pending work, while the cycle-stepped baseline still visits
        // all 64 routers every cycle — this is where the event-driven
        // rearchitecture pays off by an order of magnitude.
        {"simulate_network/fig08a_mesh2d_8x8_rate0.02_lowload",
         wi::noc::Topology::mesh_2d(8, 8), 0.02},
    };
    for (const Case& c : cases) {
      const wi::noc::TrafficPattern traffic =
          wi::noc::TrafficPattern::uniform(64);
      volatile std::size_t sink = 0;
      const Paired p = time_paired(
          [&] {
            sink = wi::perf_baseline::simulate_network(c.topo, routing,
                                                       traffic, c.rate,
                                                       config)
                       .delivered;
          },
          [&] {
            sink = wi::noc::simulate_network(c.topo, routing, traffic,
                                             c.rate, config)
                       .delivered;
          },
          1, rounds);
      const double cycles = static_cast<double>(config.warmup_cycles +
                                                config.measure_cycles +
                                                config.drain_cycles);
      push_entry(entries, paired_entry(c.name, p, cycles, "Mcycles/s"));
      (void)sink;
    }
  }

  // --- PhyAbstraction SNR-curve build (17 sequence-rate grid points) ---
  {
    volatile double sink = 0.0;
    // Warm the shared noise tape first: both variants would otherwise
    // pay the one-off recording on their first build and the ratio
    // would measure the cache, not the grid parallelism.
    {
      const wi::core::PhyAbstraction warm(
          wi::core::PhyReceiver::kOneBitSequence, 25e9, 2, 1);
      sink = warm.info_rate_bpcu(25.0);
    }
    // Explicit 4 workers: threads=0 resolves to hardware_concurrency(),
    // which is 1 on some CI boxes and silently degenerates to the
    // serial loop — the bug this entry exists to catch. The serial
    // build is this entry's in-process baseline, so the JSON carries a
    // speedup field and the perf-trend gate pins the parallel path.
    const auto build = [&](std::size_t threads) {
      const wi::core::PhyAbstraction phy(
          wi::core::PhyReceiver::kOneBitSequence, 25e9, 2, threads);
      sink = phy.info_rate_bpcu(25.0);
    };
    const Paired p =
        time_paired([&] { build(1); }, [&] { build(4); }, 1, rounds);
    push_entry(entries,
        {"phy_abstraction_build/one_bit_sequence/serial", p.base_ns, 0.0, 0.0,
         ""});
    push_entry(entries,
               paired_entry("phy_abstraction_build/one_bit_sequence/parallel_4t",
                            p));
    (void)sink;
  }

  // --- implicit vs dense setup structures (16x16x16 mesh, 4096 nodes) ---
  // The implicit kernels run first so their entries record the process
  // peak RSS *before* the dense twins allocate the modules^2 matrix and
  // the routers^2 next-hop table — the max_rss_kb contrast between the
  // /implicit entries and their dense-baselined twins is the memory
  // story the 32x32x32 scenario depends on.
  {
    const wi::noc::Topology topo = wi::noc::Topology::mesh_3d(16, 16, 16);
    const std::size_t modules = topo.module_count();
    const std::size_t routers = topo.router_count();
    const wi::noc::DimensionOrderRouting routing;

    // Traffic pattern construction + one probability row read (the row
    // read keeps both sides' op big enough to time stably).
    // Each /implicit entry is timed alone first, so its max_rss_kb is
    // read before the dense twin has ever allocated; the gated entry
    // then interleaves the two.
    volatile double dsink = 0.0;
    const auto traffic = [&](bool implicit) {
      const wi::noc::TrafficPattern p =
          implicit ? wi::noc::TrafficPattern::implicit_uniform(modules)
                   : wi::noc::TrafficPattern::uniform(modules);
      double sum = 0.0;
      for (std::size_t d = 0; d < modules; ++d) {
        sum += p.probability(0, d);
      }
      dsink = sum;
    };
    push_entry(entries, {"traffic_build/mesh3d_16x16x16/implicit",
                         time_ns([&] { traffic(true); }, reps_fast), 0.0,
                         0.0, ""});

    // Routing structure build: MeshGrid coordinate analysis vs the
    // dense (router, dst) first-hop port table the simulator needs
    // when the mesh shape is not recognised.
    volatile std::size_t sink = 0;
    const auto routing_implicit = [&] {
      const auto grid = wi::noc::MeshGrid::analyze(topo);
      sink = grid ? grid->next_port(0, routers - 1) : 0;
    };
    push_entry(entries, {"routing_build/mesh3d_16x16x16/implicit",
                         time_ns(routing_implicit, reps_fast), 0.0, 0.0,
                         ""});
    push_entry(entries,
               paired_entry("traffic_build/mesh3d_16x16x16",
                            time_paired([&] { traffic(false); },
                                        [&] { traffic(true); },
                                        round_reps_fast, rounds)));
    const auto routing_dense = [&] {
          std::vector<std::uint8_t> table(routers * routers, 0xFF);
          for (std::size_t r = 0; r < routers; ++r) {
            const auto& out = topo.out_links(r);
            for (std::size_t dst = 0; dst < routers; ++dst) {
              if (dst == r) continue;
              const std::size_t link = routing.first_hop(topo, r, dst);
              for (std::size_t p = 0; p < out.size(); ++p) {
                if (out[p] == link) {
                  table[r * routers + dst] = static_cast<std::uint8_t>(p);
                  break;
                }
              }
            }
          }
          sink = table[routers];
    };
    push_entry(entries,
               paired_entry("routing_build/mesh3d_16x16x16",
                            time_paired(routing_dense, routing_implicit,
                                        round_reps_fast, rounds)));

    // Queueing-model setup: closed-form channel loads vs the dense
    // all-pairs route walk (8x8x8 keeps the dense twin affordable).
    const wi::noc::Topology q_topo = wi::noc::Topology::mesh_3d(8, 8, 8);
    const std::size_t q_modules = q_topo.module_count();
    const auto queueing = [&](bool implicit) {
      const wi::noc::QueueingModel model(
          q_topo, routing,
          implicit ? wi::noc::TrafficPattern::implicit_uniform(q_modules)
                   : wi::noc::TrafficPattern::uniform(q_modules));
      dsink = model.saturation_rate();
    };
    push_entry(entries,
               paired_entry("queueing_build/mesh3d_8x8x8",
                            time_paired([&] { queueing(false); },
                                        [&] { queueing(true); },
                                        round_reps_fast, rounds)));
    (void)sink;
    (void)dsink;
  }

  // --- BP decoding (Fig. 10 LDPC-CC, sum-product, parity targets on) ---
  // Random words x with parity targets H x: the window decoder's frozen
  // blocks reach the checks the same way. One op decodes 16 noisy
  // frames at 4 dB, the Fig. 10 operating range (KernelIdentity.BpDecoder
  // pins the two decoders' outputs to each other).
  {
    const wi::fec::LdpcConvolutionalCode code(
        wi::fec::EdgeSpreading::paper_example(), 40, 24, /*seed=*/40);
    const wi::fec::SparseBinaryMatrix& h = code.parity_check();
    const std::size_t n = h.cols();
    const double sigma = std::sqrt(1.0 / (2.0 * 0.5 * std::pow(10.0, 0.4)));
    wi::Rng rng(11);
    struct Frame {
      std::vector<double> llr;
      std::vector<std::uint8_t> parity;
    };
    std::vector<Frame> frames(16);
    for (Frame& f : frames) {
      std::vector<std::uint8_t> word(n);
      for (auto& bit : word) bit = rng.bernoulli(0.5) ? 1 : 0;
      f.parity = h.syndrome(word);
      f.llr.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        const double x = word[i] ? -1.0 : 1.0;
        f.llr[i] = 2.0 / (sigma * sigma) * (x + sigma * rng.gaussian());
      }
    }
    const wi::perf_baseline::BpDecoder baseline(h);
    const wi::fec::BpDecoder decoder(h);
    volatile int sink = 0;
    wi::fec::BpResult out;
    const Paired p = time_paired(
        [&] {
          for (const Frame& f : frames) {
            sink = baseline.decode(f.llr, {}, &f.parity).iterations;
          }
        },
        [&] {
          for (const Frame& f : frames) {
            decoder.decode(f.llr, {}, &f.parity, out);
            sink = out.iterations;
          }
        },
        1, rounds);
    push_entry(entries,
               paired_entry("ldpc_decode/cc_n40_l24_sum_product_parity", p,
                            static_cast<double>(frames.size() * n),
                            "Mbit/s"));
    (void)sink;
  }

  // --- one Fig. 10 BER point: codeword batches on 4 workers ---
  // The N = 40, W = 3 window row near its required Eb/N0, with Fig. 10's
  // min_errors and a 96-codeword cap (which ends this point). The
  // baseline is the same call on one worker (the serial loop) in this
  // process; both return the same BerResult.
  {
    const wi::fec::LdpcConvolutionalCode code(
        wi::fec::EdgeSpreading::paper_example(), 40, 24, /*seed=*/40);
    wi::fec::BerConfig config;
    config.ebn0_db = 4.0;
    config.min_errors = 80;
    config.max_codewords = 96;
    config.seed = 1043;
    std::size_t codewords = 0;
    const auto point = [&](std::size_t threads) {
      config.threads = threads;
      codewords = wi::fec::simulate_ber_window(code, 3, config).codewords;
    };
    const Paired p =
        time_paired([&] { point(1); }, [&] { point(4); }, 1, rounds);
    Entry entry = paired_entry("ber_point/cc_n40_w3", p);
    entry.throughput = static_cast<double>(codewords) / p.opt_ns * 1e9;
    entry.throughput_unit = "codewords/s";
    push_entry(entries, std::move(entry));
  }

  // --- end-to-end SimEngine scenario (Fig. 8a queueing-model table) ---
  {
    const wi::sim::ScenarioRegistry registry =
        wi::sim::ScenarioRegistry::paper();
    const wi::sim::ScenarioSpec spec = registry.get("fig08a_mesh2d_8x8");
    volatile std::size_t sink = 0;
    const double t = time_ns(
        [&] {
          wi::sim::SimEngine engine;
          sink = engine.run(spec).table.rows();
        },
        reps_fast);
    push_entry(entries, {"sim_engine/fig08a_mesh2d_8x8_noc_latency", t, 0.0,
                       0.0, ""});
    (void)sink;
  }

  write_json(entries, out_path);
  std::cout << "wrote " << out_path << "\n";
  for (const Entry& e : entries) {
    std::printf("  %-50s %12.0f ns/op", e.name.c_str(), e.ns_per_op);
    if (e.baseline_ns_per_op > 0.0) {
      std::printf("  (baseline %12.0f, speedup %.2fx)", e.baseline_ns_per_op,
                  e.speedup);
    }
    std::printf("\n");
  }
  return 0;
}
