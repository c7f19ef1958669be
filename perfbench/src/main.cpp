/// \file main.cpp
/// \brief Benchmark entry point: one workload, one seed, a fixed measuring
///        time; prints every metric by name and unit, then the result
///        line, and exits nonzero when any output check failed.
///
///   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
///             [--root DIR] [--work-dir DIR] [--trace-out FILE]
///             [--describe STRING]
///
/// With --trace 0 the last line carries the end-to-end metrics; with
/// --trace 1 (perfbench_traced only) the per-layer metrics, folded from
/// the spans of every other pass. The passes in between run with the
/// recorder off, and the difference of the two medians is reported as
/// trace.overhead_s.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "report.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Args {
  Options options;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  std::string describe = "unversioned";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--root DIR] [--work-dir DIR] [--trace-out FILE] "
               "[--describe STRING]\nworkloads:";
  for (const auto& name : workload_names()) std::cerr << " " << name;
  std::cerr << "\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.options.workload = value;
      } else if (flag == "--seed") {
        args.options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--root") {
        args.options.root = value;
      } else if (flag == "--work-dir") {
        args.options.work_dir = value;
      } else if (flag == "--trace-out") {
        args.trace_out = value;
      } else if (flag == "--describe") {
        args.describe = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  bool known = false;
  for (const auto& name : workload_names()) known |= name == args.options.workload;
  if (!known) usage("unknown workload '" + args.options.workload + "'");
  return args;
}

wi::Json machine_context(const Args& args) {
  wi::Json context = wi::Json::object();
  context.set("hardware_concurrency",
              wi::Json(static_cast<long long>(std::thread::hardware_concurrency())));
  context.set("compiler", wi::Json(PERFBENCH_COMPILER));
  context.set("build_type", wi::Json(PERFBENCH_BUILD_TYPE));
  context.set("git_describe", wi::Json(args.describe));
  context.set("workload", wi::Json(args.options.workload));
  context.set("seed", wi::Json(static_cast<long long>(args.options.seed)));
  return context;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void print_line(const std::string& name, double value, const std::string& unit,
                const std::string& note = "") {
  std::cout << "# " << name << " = " << value << " " << unit;
  if (!note.empty()) std::cout << "  (" << note << ")";
  std::cout << "\n";
}

int run(const Args& args) {
  const wi::Json context = machine_context(args);
  std::cout << "# context: " << context.dump() << "\n";
  std::filesystem::create_directories(args.options.work_dir);
  Checks checks;
  std::vector<std::map<std::string, double>> traced_layers;
  RunRecord record;
  {
    const std::unique_ptr<Workload> workload = make_workload(args.options);
    record = run_workload(*workload, args.seconds, args.trace, checks, traced_layers);
  }
  record.peak_rss_mb = peak_rss_mb();

  std::map<std::string, double> values;
  const std::vector<MetricDef>* defs = nullptr;
  if (args.trace) {
    defs = &per_layer_metrics();
    values = per_layer_values(record, traced_layers);
    const std::vector<Span> spans = Recorder::global().spans();
    for (const std::string& name : deterministic_counts()) {
      bool same = true;
      for (const auto& layer : traced_layers) {
        same &= layer.at(name) == traced_layers[0].at(name);
      }
      if (record.repeatable) checks.expect(same, name + " differs between traced passes");
    }
    for (const std::string& name : record.expected_spans) {
      const bool seen = std::any_of(spans.begin(), spans.end(),
                                    [&](const Span& s) { return s.name == name; });
      if (!seen) std::cout << "# warning: probe " << name << " recorded nothing\n";
    }
    if (!args.trace_out.empty()) {
      std::ofstream(args.trace_out) << trace_json(spans, context).dump() << "\n";
      std::cout << "# spans written to " << args.trace_out << "\n";
    }
  } else {
    defs = &end_to_end_metrics();
    values = end_to_end_values(record);
  }
  std::cout << "# pass wall_s:";
  for (const PassResult& p : record.passes) std::cout << " " << p.wall_s;
  std::cout << "\n";
  std::vector<double> requests;
  for (const PassResult& p : record.passes) {
    requests.insert(requests.end(), p.request_ms.begin(), p.request_ms.end());
  }
  const Tail tail = tail_percentile(requests);
  for (const MetricDef& def : *defs) {
    std::string note;
    if (def.name == "latency_tail_ms") {
      std::ostringstream text;
      if (tail.q > 0.0) {
        text << "p" << tail.q;
      } else {
        text << "median";
      }
      text << " of " << tail.samples << " requests";
      note = text.str();
    } else if (def.name == "wall_s" || def.name == "merge_s") {
      note = "median of " + std::to_string(record.passes.size()) + " passes";
    } else if (def.name == "setup_s") {
      note = "median of " + std::to_string(record.setup_s.size()) + " set-ups";
    }
    print_line(def.name, values[def.name], def.unit, note);
  }
  const double failed_frac = checks.attempted() == 0
                                 ? 0.0
                                 : static_cast<double>(checks.failed()) /
                                       static_cast<double>(checks.attempted());
  print_line("failed_frac", failed_frac, "",
             std::to_string(checks.failed()) + " of " +
                 std::to_string(checks.attempted()) + " checked operations");
  for (const std::string& message : checks.messages()) {
    std::cout << "# FAILED: " << message << "\n";
  }
  std::cout << result_json(checks, *defs, values).dump() << std::endl;
  return exit_code(checks);
}

}  // namespace

int main(int argc, char** argv) {
  // A fixed mmap threshold returns every large block to the system when
  // it is freed. glibc's default adapts the threshold to past frees, so
  // with several threads peak_rss_mb swung by +-7% from run to run with
  // thread timing alone (serve_mix); fixed, it tracks live memory.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  const Args args = parse(argc, argv);
  int code = 1;
  try {
    code = run(args);
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << "\n";
    code = 1;
  }
  std::error_code ignored;
  std::filesystem::remove_all(args.options.work_dir, ignored);
  return code;
}
