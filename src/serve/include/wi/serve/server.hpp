#pragma once
/// \file server.hpp
/// \brief The wi_serve daemon core: accept loop, connection handling,
///        worker pool and the tiered result cache, as a library class
///        so tests can run a real server on an ephemeral port
///        in-process.
///
/// Request path of a run_scenario frame:
///
///   connection thread: parse -> validate -> content key
///     -> HotTier::acquire
///          hot       -> respond from memory (no queueing, no disk)
///          inflight  -> wait on the single-flight future
///          lead      -> FairJobQueue::try_push
///                         full -> kUnavailable backpressure response
///                                 (and the joined waiters get it too)
///                         ok   -> wait for the worker's outcome
///   worker thread: ResultStore::load (cold tier)
///          hit  -> tier "cold"
///          miss -> SimEngine::run -> ResultStore::save -> tier "run"
///        -> HotTier::fulfill (inserts + releases waiters)
///
/// The accept loop never executes simulations and never blocks on the
/// queue; admission decisions happen in per-connection threads and are
/// always answered (accept, result, or explicit backpressure).
/// Shutdown (request or stop()) drains: admission closes, accepted
/// jobs finish, workers join, then the shutdown response is written.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "wi/serve/fault_injector.hpp"
#include "wi/serve/hot_tier.hpp"
#include "wi/serve/metrics.hpp"
#include "wi/serve/net.hpp"
#include "wi/serve/protocol.hpp"
#include "wi/sim/engine.hpp"
#include "wi/sim/result_store.hpp"

namespace wi::serve {

struct ServerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral (read back via port())
  /// Simulation worker threads (jobs run at once); 0 = hardware
  /// concurrency. The engine itself resolves its threads like any other
  /// SimEngine: each job's rows, PHY curve builds and campaign replicas
  /// nest on the one process-wide pool (wi::parallel_for), so cores the
  /// other workers leave idle go to the jobs that are running.
  std::size_t workers = 0;
  /// Bounded admission queue shared by all clients.
  std::size_t queue_capacity = 256;
  /// Per-client admission quota; 0 = capacity / 4 (min 1).
  std::size_t per_client_quota = 0;
  /// Completed results kept in the in-memory hot tier.
  std::size_t hot_capacity = 256;
  /// Cold tier: on-disk content-keyed ResultStore. nullopt = memory
  /// tiers only (results are not persisted).
  std::optional<std::filesystem::path> store_dir;
  /// Code-version component of every content key (wire git-describe
  /// through, as wi_run does).
  std::string version = "unversioned";
  /// Seed replicas of one run_campaign job that run at once (the thread
  /// count Campaign::run passes to SimEngine::run_all). Each replica's
  /// own work still nests on the shared pool.
  std::size_t campaign_threads = 2;
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Load-shedding watermark: queue depth at or above which new run
  /// requests are rejected with kUnavailable + a retry_after_ms hint,
  /// before the queue wedges at capacity. 0 = disabled.
  std::size_t shed_watermark = 0;
  /// The retry_after_ms hint attached to shed rejections.
  double shed_retry_after_ms = 50.0;
  /// Chaos mode: deterministic fault injection on the store and
  /// connection paths. All-zero rates (the default) = no injector.
  FaultInjectorOptions chaos;
  /// Log one line per connection/shutdown event to stderr.
  bool verbose = false;
};

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind, listen and spawn the accept loop + worker pool.
  [[nodiscard]] Status start();

  /// Port actually bound (after start()).
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Block until a shutdown request arrived and the queue drained (or
  /// stop() was called from another thread).
  void wait();

  /// Graceful external stop: drain accepted work, then tear down
  /// connections and join every thread. Idempotent.
  void stop();

  /// Signal-safe-adjacent shutdown entry: close admission, drain
  /// accepted work and release wait(). For the daemon's SIGTERM /
  /// SIGINT watcher thread (NOT the handler itself — call from a
  /// normal thread). Idempotent; does not join connection threads,
  /// the caller follows up with stop().
  void begin_shutdown();

  /// True once draining began (no new work is admitted).
  [[nodiscard]] bool draining() const { return draining_.load(); }

  /// The canonical metrics table (same one the stats request returns).
  [[nodiscard]] Table stats_table();

  [[nodiscard]] ServerMetrics& metrics() { return metrics_; }
  [[nodiscard]] HotTier& hot_tier() { return hot_tier_; }
  [[nodiscard]] sim::SimEngine& engine() { return engine_; }
  [[nodiscard]] sim::ResultStore* store() { return store_.get(); }
  /// Non-null iff chaos rates were configured.
  [[nodiscard]] FaultInjector* injector() { return injector_.get(); }
  [[nodiscard]] const ServerOptions& options() const { return options_; }

 private:
  struct Job;
  struct JobOutcome;
  struct Connection;

  void accept_loop();
  void worker_loop();
  void connection_loop(Connection& connection);
  // client_key is the connection's fair-admission identity (peer
  // address, not connection serial — see accept_loop).
  [[nodiscard]] Response handle_request(const Request& request,
                                        std::uint64_t client_key);
  [[nodiscard]] Response run_scenario(const Request& request,
                                      std::uint64_t client_key);
  [[nodiscard]] Response run_campaign(const Request& request,
                                      std::uint64_t client_key);
  [[nodiscard]] Response execute_keyed(
      const std::string& key, std::uint64_t client_key, Job job,
      Response response);
  /// Stamp the job's absolute expiry from request.deadline_ms (if set).
  static void apply_deadline(Job& job, const Request& request);

  /// Close admission, drain the queue, join workers. Safe from any
  /// thread (including a connection thread handling shutdown);
  /// idempotent — later callers wait for the first drain to finish.
  void drain();
  /// Release wait(). Called after the shutdown response has been
  /// written (so stop() cannot cut the response off) or by stop().
  void signal_shutdown();
  void reap_finished_connections();

  ServerOptions options_;
  sim::SimEngine engine_;
  std::unique_ptr<sim::ResultStore> store_;
  HotTier hot_tier_;
  ServerMetrics metrics_;
  std::unique_ptr<FaultInjector> injector_;

  // Defined in server.cpp (holds the queue of move-only jobs).
  struct QueueHolder;
  std::unique_ptr<QueueHolder> queue_;

  Socket listener_;
  std::uint16_t port_ = 0;
  std::size_t worker_count_ = 0;
  std::thread accept_thread_;
  std::vector<std::thread> workers_;

  std::mutex connections_mutex_;
  std::vector<std::unique_ptr<Connection>> connections_;
  std::atomic<std::uint64_t> next_client_id_{1};

  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> stopped_{false};
  std::mutex lifecycle_mutex_;
  std::condition_variable lifecycle_cv_;
  bool drain_complete_ = false;      ///< under lifecycle_mutex_
  bool shutdown_signaled_ = false;   ///< under lifecycle_mutex_
};

}  // namespace wi::serve
