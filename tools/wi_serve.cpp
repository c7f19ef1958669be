/// \file wi_serve.cpp
/// \brief Long-running scenario service daemon.
///
/// Accepts newline-delimited JSON requests over TCP (see
/// wi/serve/protocol.hpp): run registered or inline scenarios and
/// campaigns through a shared SimEngine worker pool, front the
/// persistent ResultStore with an in-memory LRU hot tier, coalesce
/// identical in-flight requests onto one engine run, and expose
/// aggregate metrics as a wi::Table via the stats request.
///
///   wi_serve                             # serve on 127.0.0.1:7341
///   wi_serve --port 0 --port-file p.txt  # ephemeral port, written out
///   wi_serve --workers 4 --queue-capacity 64 --lru-capacity 128
///   wi_serve --store results/store       # persistent cold tier
///   wi_serve --no-store                  # memory tiers only
///   wi_serve --metrics-out metrics.csv   # dump the final table on exit
///
/// The daemon runs until a client sends {"type":"shutdown"} or the
/// process receives SIGTERM/SIGINT: admission closes, accepted jobs
/// drain, the shutdown response is written (request path), the final
/// metrics table is printed (and saved with --metrics-out), and the
/// process exits 0. Signals use the self-pipe pattern: the handler
/// only writes one byte, a watcher thread does the actual drain — no
/// async-signal-unsafe work in handler context. Exit 1 = startup
/// failure, 2 = usage.
///
/// Chaos mode (--chaos or the --chaos-* rates) arms the deterministic
/// FaultInjector: store I/O failures/delays/corruption and connection
/// drops/stalls at the given rates, replayable via --chaos-seed. Pair
/// with wi_loadgen --chaos to prove every request still terminates.

#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <thread>

#include "wi/serve/server.hpp"

#if __has_include("wi_version.h")
#include "wi_version.h"
#else
#define WI_GIT_DESCRIBE "unversioned"
#endif

namespace {

using namespace wi;
using namespace wi::serve;

// Self-pipe shared between the signal handler and the watcher thread.
int g_signal_pipe[2] = {-1, -1};
std::atomic<int> g_signal_received{0};

extern "C" void on_terminate_signal(int sig) {
  g_signal_received.store(sig);
  const char byte = 1;
  // write(2) is async-signal-safe; the result only matters insofar as
  // a full pipe means a byte is already in flight.
  (void)!::write(g_signal_pipe[1], &byte, 1);
}

struct CliOptions {
  ServerOptions server;
  bool no_store = false;
  bool quiet = false;
  std::optional<std::filesystem::path> port_file;
  std::optional<std::filesystem::path> metrics_out;
};

void print_usage(std::ostream& os) {
  os << "usage: wi_serve [options]\n"
        "\n"
        "options:\n"
        "  --host HOST          bind address (default 127.0.0.1)\n"
        "  --port N             TCP port; 0 = ephemeral (default 7341)\n"
        "  --port-file PATH     write the bound port to PATH\n"
        "  --workers N          simulation workers (default: cores)\n"
        "  --queue-capacity N   admission queue bound (default 256)\n"
        "  --client-quota N     per-client queue quota (default cap/4)\n"
        "  --lru-capacity N     hot-tier entries (default 256)\n"
        "  --store DIR          cold-tier result store directory\n"
        "                       (default results/store, keyed with\n"
        "                       version '" WI_GIT_DESCRIBE "')\n"
        "  --no-store           memory tiers only, nothing persisted\n"
        "  --campaign-threads N seed replicas of one campaign job run\n"
        "                       at once (default 2)\n"
        "  --metrics-out PATH   also write the final metrics table as\n"
        "                       CSV on shutdown\n"
        "  --shed-watermark N   shed new work at queue depth N with a\n"
        "                       retry-after hint (default 0 = off)\n"
        "  --shed-retry-after MS retry_after_ms hint on shed responses\n"
        "                       (default 50)\n"
        "  --chaos RATE         arm every fault stream at RATE\n"
        "  --chaos-store-fail R    injected store I/O failure rate\n"
        "  --chaos-store-delay R   injected store I/O delay rate\n"
        "  --chaos-store-corrupt R injected corrupt-entry rate\n"
        "  --chaos-conn-drop R     injected connection-drop rate\n"
        "  --chaos-conn-stall R    injected response-stall rate\n"
        "  --chaos-delay-ms MS     stall duration (default 5)\n"
        "  --chaos-seed N          fault derivation seed (default 1)\n"
        "  --verbose            per-request trace lines on stderr\n"
        "  --quiet              suppress the shutdown metrics dump\n"
        "  --help               this text\n";
}

[[nodiscard]] bool parse_size(const std::string& text, std::size_t& out) {
  try {
    out = static_cast<std::size_t>(std::stoull(text));
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

[[nodiscard]] bool parse_double(const std::string& text, double& out) {
  try {
    std::size_t used = 0;
    out = std::stod(text, &used);
    return used == text.size();
  } catch (const std::exception&) {
    return false;
  }
}

[[nodiscard]] int parse_cli(int argc, char** argv, CliOptions& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--help" || arg == "-h") {
      print_usage(std::cout);
      return -1;
    }
    if (arg == "--no-store") {
      options.no_store = true;
      continue;
    }
    if (arg == "--verbose") {
      options.server.verbose = true;
      continue;
    }
    if (arg == "--quiet") {
      options.quiet = true;
      continue;
    }
    const char* value = nullptr;
    if (arg == "--host" && (value = next())) {
      options.server.host = value;
    } else if (arg == "--port" && (value = next())) {
      std::size_t port = 0;
      if (!parse_size(value, port) || port > 65535) {
        std::cerr << "wi_serve: bad --port '" << value << "'\n";
        return 2;
      }
      options.server.port = static_cast<std::uint16_t>(port);
    } else if (arg == "--port-file" && (value = next())) {
      options.port_file = value;
    } else if (arg == "--workers" && (value = next())) {
      if (!parse_size(value, options.server.workers)) return 2;
    } else if (arg == "--queue-capacity" && (value = next())) {
      if (!parse_size(value, options.server.queue_capacity)) return 2;
    } else if (arg == "--client-quota" && (value = next())) {
      if (!parse_size(value, options.server.per_client_quota)) return 2;
    } else if (arg == "--lru-capacity" && (value = next())) {
      if (!parse_size(value, options.server.hot_capacity)) return 2;
    } else if (arg == "--store" && (value = next())) {
      options.server.store_dir = std::filesystem::path(value);
    } else if (arg == "--campaign-threads" && (value = next())) {
      if (!parse_size(value, options.server.campaign_threads)) return 2;
    } else if (arg == "--metrics-out" && (value = next())) {
      options.metrics_out = value;
    } else if (arg == "--shed-watermark" && (value = next())) {
      if (!parse_size(value, options.server.shed_watermark)) return 2;
    } else if (arg == "--shed-retry-after" && (value = next())) {
      if (!parse_double(value, options.server.shed_retry_after_ms)) {
        return 2;
      }
    } else if (arg == "--chaos" && (value = next())) {
      double rate = 0.0;
      if (!parse_double(value, rate)) return 2;
      FaultInjectorOptions& chaos = options.server.chaos;
      chaos.store_fail_rate = rate;
      chaos.store_delay_rate = rate;
      chaos.store_corrupt_rate = rate;
      chaos.conn_drop_rate = rate;
      chaos.conn_stall_rate = rate;
    } else if (arg == "--chaos-store-fail" && (value = next())) {
      if (!parse_double(value, options.server.chaos.store_fail_rate)) {
        return 2;
      }
    } else if (arg == "--chaos-store-delay" && (value = next())) {
      if (!parse_double(value, options.server.chaos.store_delay_rate)) {
        return 2;
      }
    } else if (arg == "--chaos-store-corrupt" && (value = next())) {
      if (!parse_double(value,
                        options.server.chaos.store_corrupt_rate)) {
        return 2;
      }
    } else if (arg == "--chaos-conn-drop" && (value = next())) {
      if (!parse_double(value, options.server.chaos.conn_drop_rate)) {
        return 2;
      }
    } else if (arg == "--chaos-conn-stall" && (value = next())) {
      if (!parse_double(value, options.server.chaos.conn_stall_rate)) {
        return 2;
      }
    } else if (arg == "--chaos-delay-ms" && (value = next())) {
      if (!parse_double(value, options.server.chaos.delay_ms)) return 2;
    } else if (arg == "--chaos-seed" && (value = next())) {
      std::size_t seed = 0;
      if (!parse_size(value, seed)) return 2;
      options.server.chaos.seed = seed;
    } else {
      std::cerr << "wi_serve: unknown or incomplete option '" << arg
                << "'\n";
      print_usage(std::cerr);
      return 2;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  options.server.port = 7341;
  options.server.version = WI_GIT_DESCRIBE;
  options.server.store_dir = std::filesystem::path("results/store");
  if (const int rc = parse_cli(argc, argv, options); rc != 0) {
    return rc < 0 ? 0 : rc;
  }
  if (options.no_store) options.server.store_dir.reset();

  try {
    Server server(options.server);
    if (const Status status = server.start(); !status.is_ok()) {
      std::cerr << "wi_serve: " << status.to_string() << "\n";
      return 1;
    }
    std::cout << "wi_serve listening on port " << server.port()
              << std::endl;
    if (options.server.chaos.enabled()) {
      std::cerr << "[wi_serve] CHAOS MODE: deterministic fault "
                   "injection armed (seed "
                << options.server.chaos.seed << ")\n";
    }
    if (options.port_file) {
      std::ofstream out(*options.port_file, std::ios::trunc);
      out << server.port() << "\n";
      if (!out) {
        std::cerr << "wi_serve: cannot write port file "
                  << *options.port_file << "\n";
        return 1;
      }
    }
    // SIGTERM/SIGINT -> drain-before-shutdown, via self-pipe: the
    // handler writes one byte, this watcher does the real work from a
    // normal thread. One byte also flows on the plain shutdown path
    // (below) so the watcher always terminates.
    if (::pipe(g_signal_pipe) != 0) {
      std::cerr << "wi_serve: cannot create the signal pipe\n";
      return 1;
    }
    std::signal(SIGTERM, on_terminate_signal);
    std::signal(SIGINT, on_terminate_signal);
    std::thread signal_watcher([&server] {
      char byte = 0;
      ssize_t n;
      do {
        n = ::read(g_signal_pipe[0], &byte, 1);
      } while (n < 0 && errno == EINTR);
      const int sig = g_signal_received.load();
      if (n > 0 && sig != 0) {
        std::cerr << "[wi_serve] caught "
                  << (sig == SIGTERM ? "SIGTERM" : "SIGINT")
                  << " — draining before shutdown\n";
        server.begin_shutdown();
      }
    });
    server.wait();
    // Unblock the watcher if shutdown came from a request, not a
    // signal (redundant-but-harmless extra byte otherwise).
    {
      const char byte = 0;
      (void)!::write(g_signal_pipe[1], &byte, 1);
    }
    signal_watcher.join();
    std::signal(SIGTERM, SIG_DFL);
    std::signal(SIGINT, SIG_DFL);
    ::close(g_signal_pipe[0]);
    ::close(g_signal_pipe[1]);
    const Table metrics = server.stats_table();
    server.stop();
    if (!options.quiet) {
      std::cout << "\nfinal server metrics:\n";
      metrics.print(std::cout);
    }
    if (options.metrics_out) {
      std::ofstream out(*options.metrics_out, std::ios::trunc);
      metrics.print_csv(out);
      if (!out) {
        std::cerr << "wi_serve: cannot write metrics to "
                  << *options.metrics_out << "\n";
        return 1;
      }
    }
  } catch (const StatusError& error) {
    std::cerr << "wi_serve: " << error.status().to_string() << "\n";
    return 1;
  } catch (const std::exception& error) {
    std::cerr << "wi_serve: " << error.what() << "\n";
    return 1;
  }
  return 0;
}
