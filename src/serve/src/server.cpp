#include "wi/serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <future>
#include <iostream>
#include <string_view>
#include <utility>

#include "wi/serve/job_queue.hpp"
#include "wi/sim/campaign.hpp"
#include "wi/sim/registry.hpp"

namespace wi::serve {

namespace {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double us_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0)
      .count();
}

// Same FNV-1a64/hex scheme as result_content_key; campaign keys get a
// distinct prefix so they can never collide with scenario keys in the
// shared hot tier namespace.
[[nodiscard]] std::uint64_t fnv1a64(std::string_view data,
                                    std::uint64_t hash = 0xcbf29ce484222325ULL) {
  for (const char c : data) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

[[nodiscard]] std::string campaign_content_key(
    const sim::CampaignSpec& spec, const std::string& version) {
  std::uint64_t hash = fnv1a64(sim::campaign_to_string(spec));
  hash = fnv1a64("\x1f", hash);
  hash = fnv1a64(version, hash);
  std::string key = "campaign-";
  for (int i = 15; i >= 0; --i) {
    key += "0123456789abcdef"[(hash >> (4 * i)) & 0xF];
  }
  return key;
}

}  // namespace

struct Server::JobOutcome {
  HotTier::ResultPtr result;
  std::string tier;  ///< "cold" | "run"
  double queue_us = 0.0;
  double run_us = 0.0;
};

struct Server::Job {
  enum class Kind { kScenario, kCampaign };
  Kind kind = Kind::kScenario;
  std::string key;
  sim::ScenarioSpec spec;  ///< scenario jobs (seed already applied)
  std::uint64_t seed = 0;
  std::optional<sim::CampaignSpec> campaign;
  Clock::time_point enqueued;
  /// Absolute expiry (receipt + deadline_ms); meaningful iff
  /// has_deadline. A job popped past it is answered kDeadlineExceeded
  /// without running.
  Clock::time_point deadline;
  bool has_deadline = false;
  std::shared_ptr<std::promise<JobOutcome>> outcome;

  [[nodiscard]] std::string display_name() const {
    return kind == Kind::kScenario ? spec.name
                                   : campaign->display_name();
  }
};

struct Server::QueueHolder {
  explicit QueueHolder(FairJobQueue<Job>::Options options)
      : queue(options) {}
  FairJobQueue<Job> queue;
};

struct Server::Connection {
  Socket socket;
  std::uint64_t client_id = 0;  ///< connection serial, for log lines
  std::uint64_t fair_key = 0;   ///< peer address, for queue admission
  std::thread thread;
  std::atomic<bool> done{false};
};

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      hot_tier_(HotTier::Options{options_.hot_capacity == 0
                                     ? std::size_t{1}
                                     : options_.hot_capacity}) {
  if (options_.store_dir) {
    sim::ResultStoreOptions store_options;
    store_options.directory = *options_.store_dir;
    store_options.version = options_.version;
    store_ = std::make_unique<sim::ResultStore>(store_options);
  }
  worker_count_ = options_.workers != 0
                      ? options_.workers
                      : std::max<std::size_t>(
                            1, std::thread::hardware_concurrency());
  FairJobQueue<Job>::Options queue_options;
  queue_options.capacity =
      options_.queue_capacity == 0 ? 1 : options_.queue_capacity;
  queue_options.per_client_quota =
      options_.per_client_quota != 0
          ? options_.per_client_quota
          : std::max<std::size_t>(1, queue_options.capacity / 4);
  queue_options.shed_watermark = options_.shed_watermark;
  queue_ = std::make_unique<QueueHolder>(queue_options);
  if (options_.chaos.enabled()) {
    injector_ = std::make_unique<FaultInjector>(options_.chaos);
  }
}

Server::~Server() { stop(); }

Status Server::start() {
  if (Status valid = options_.chaos.validate(); !valid.is_ok()) {
    return valid;
  }
  if (started_.exchange(true)) {
    return Status(StatusCode::kExecutionError, "server already started");
  }
  std::uint16_t port = options_.port;
  if (Status status = tcp_listen(options_.host, port, listener_);
      !status.is_ok()) {
    return status;
  }
  port_ = port;
  workers_.reserve(worker_count_);
  for (std::size_t i = 0; i < worker_count_; ++i) {
    workers_.emplace_back(&Server::worker_loop, this);
  }
  accept_thread_ = std::thread(&Server::accept_loop, this);
  if (options_.verbose) {
    std::cerr << "[wi_serve] listening on " << options_.host << ":"
              << port_ << " (" << worker_count_ << " workers, queue "
              << queue_->queue.options().capacity << ", quota "
              << queue_->queue.options().per_client_quota << ", hot "
              << hot_tier_.options().capacity << ", store "
              << (store_ ? store_->options().directory.string() : "off")
              << ")\n";
  }
  return Status::ok();
}

void Server::wait() {
  std::unique_lock<std::mutex> lock(lifecycle_mutex_);
  lifecycle_cv_.wait(lock, [&] { return shutdown_signaled_; });
}

void Server::stop() {
  if (!started_.load()) return;
  if (stopped_.exchange(true)) return;
  drain();
  signal_shutdown();
  if (accept_thread_.joinable()) accept_thread_.join();
  // Unblock every connection reader, then join.
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    for (auto& connection : connections_) {
      connection->socket.shutdown_both();
    }
  }
  std::vector<std::unique_ptr<Connection>> connections;
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    connections.swap(connections_);
  }
  for (auto& connection : connections) {
    if (connection->thread.joinable()) connection->thread.join();
  }
  listener_.close();
  if (options_.verbose) std::cerr << "[wi_serve] stopped\n";
}

void Server::drain() {
  bool expected = false;
  if (draining_.compare_exchange_strong(expected, true)) {
    if (options_.verbose) {
      std::cerr << "[wi_serve] draining (" << queue_->queue.size()
                << " queued jobs)\n";
    }
    // Unblock accept(2) so no new connections arrive, stop admission,
    // and let the workers finish everything that was accepted.
    listener_.shutdown_both();
    queue_->queue.close();
    for (auto& worker : workers_) {
      if (worker.joinable()) worker.join();
    }
    {
      std::lock_guard<std::mutex> lock(lifecycle_mutex_);
      drain_complete_ = true;
    }
    lifecycle_cv_.notify_all();
  } else {
    std::unique_lock<std::mutex> lock(lifecycle_mutex_);
    lifecycle_cv_.wait(lock, [&] { return drain_complete_; });
  }
}

void Server::signal_shutdown() {
  {
    std::lock_guard<std::mutex> lock(lifecycle_mutex_);
    shutdown_signaled_ = true;
  }
  lifecycle_cv_.notify_all();
}

void Server::begin_shutdown() {
  if (!started_.load()) return;
  drain();
  signal_shutdown();
}

void Server::accept_loop() {
  for (;;) {
    sockaddr_in address{};
    socklen_t length = sizeof(address);
    const int fd =
        ::accept(listener_.fd(),
                 reinterpret_cast<sockaddr*>(&address), &length);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener closed / shut down: server is going away
    }
    if (draining_.load()) {
      ::close(fd);
      continue;
    }
    auto connection = std::make_unique<Connection>();
    connection->socket = Socket(fd);
    connection->client_id = next_client_id_.fetch_add(1);
    // Fair admission is keyed by peer address, not connection serial:
    // a client that opens a connection per request (as Client/call_once
    // does) keeps one lane and cannot evade its quota by reconnecting.
    connection->fair_key =
        (static_cast<std::uint64_t>(address.sin_family) << 32) |
        static_cast<std::uint64_t>(ntohl(address.sin_addr.s_addr));
    Connection& ref = *connection;
    {
      std::lock_guard<std::mutex> lock(connections_mutex_);
      connections_.push_back(std::move(connection));
    }
    ref.thread =
        std::thread(&Server::connection_loop, this, std::ref(ref));
    reap_finished_connections();
  }
}

void Server::reap_finished_connections() {
  std::vector<std::unique_ptr<Connection>> finished;
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    for (auto it = connections_.begin(); it != connections_.end();) {
      if ((*it)->done.load()) {
        finished.push_back(std::move(*it));
        it = connections_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& connection : finished) {
    if (connection->thread.joinable()) connection->thread.join();
  }
}

void Server::connection_loop(Connection& connection) {
  LineReader reader(connection.socket, options_.max_frame_bytes);
  std::string line;
  for (;;) {
    const LineReader::ReadResult read = reader.read_line(line);
    if (read == LineReader::ReadResult::kEof ||
        read == LineReader::ReadResult::kError ||
        read == LineReader::ReadResult::kTimeout) {
      // kTimeout cannot happen (the server never arms SO_RCVTIMEO) but
      // if it ever did, dropping the connection beats parsing a stale
      // frame.
      break;
    }
    const auto t0 = Clock::now();
    metrics_.count(Counter::kRequests);
    Response response;
    bool shutdown_handled = false;
    if (read == LineReader::ReadResult::kOversized) {
      metrics_.count(Counter::kOversizedFrames);
      response.status = Status(
          StatusCode::kParseError,
          "frame exceeds the " +
              std::to_string(options_.max_frame_bytes) +
              "-byte limit and was discarded");
    } else {
      try {
        const Request request = request_from_line(line);
        response = handle_request(request, connection.fair_key);
        shutdown_handled =
            request.type == RequestType::kShutdown && response.ok();
      } catch (const StatusError& error) {
        metrics_.count(Counter::kParseErrors);
        response.status = error.status();
      } catch (const std::exception& error) {
        // A handler exception must never unwind a connection thread
        // (std::terminate); answer it like any other failed request.
        response.status =
            Status(StatusCode::kExecutionError, error.what());
      }
    }
    if (response.result.has_value()) {
      metrics_.count(Counter::kRowsStreamed,
                     response.result->table.rows());
    }
    if (options_.verbose) {
      std::cerr << "[wi_serve] client " << connection.client_id
                << " id=" << (response.id.empty() ? "-" : response.id)
                << " type=" << request_type_name(response.type)
                << " status=" << status_code_name(response.status.code())
                << " tier=" << (response.tier.empty() ? "-" : response.tier)
                << " queue_us=" << response.queue_us
                << " run_us=" << response.run_us
                << " total_us=" << us_since(t0) << "\n";
    }
    // Chaos hooks on the response path. Shutdown responses are exempt:
    // dropping one would strand wait() and hang the daemon — the very
    // failure mode the chaos gate exists to rule out.
    if (injector_ != nullptr && !shutdown_handled) {
      if (injector_->conn_drop()) {
        metrics_.count(Counter::kInjectedFaults);
        metrics_.count(Counter::kDroppedConnections);
        if (options_.verbose) {
          std::cerr << "[wi_serve] chaos: dropping client "
                    << connection.client_id << " before its response\n";
        }
        break;  // client sees EOF and classifies/retries
      }
      if (injector_->conn_stall()) {
        metrics_.count(Counter::kInjectedFaults);
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(
                injector_->delay_ms()));
      }
    }
    if (!write_all(connection.socket, response_to_line(response) + "\n")
             .is_ok()) {
      break;
    }
    // The shutdown response is on the wire; only now may wait()
    // return and stop() tear connections down.
    if (shutdown_handled) signal_shutdown();
  }
  // Reap peers that finished before us, so a daemon that serves a
  // burst and then sits idle does not retain every past Connection
  // until the next accept. Our own entry (done is still false here) is
  // reaped by a later connection, the accept loop, or stop().
  reap_finished_connections();
  connection.done.store(true);
}

Response Server::handle_request(const Request& request,
                                std::uint64_t client_key) {
  switch (request.type) {
    case RequestType::kRunScenario:
      return run_scenario(request, client_key);
    case RequestType::kRunCampaign:
      return run_campaign(request, client_key);
    case RequestType::kStats: {
      metrics_.count(Counter::kStats);
      Response response;
      response.id = request.id;
      response.type = request.type;
      sim::RunResult stats;
      stats.scenario = "server_stats";
      stats.table = stats_table();
      response.result = std::move(stats);
      return response;
    }
    case RequestType::kHealth: {
      metrics_.count(Counter::kHealth);
      Response response;
      response.id = request.id;
      response.type = request.type;
      if (draining_.load()) {
        response.status = Status(StatusCode::kOk, "draining");
      }
      return response;
    }
    case RequestType::kShutdown: {
      metrics_.count(Counter::kShutdown);
      drain();
      Response response;
      response.id = request.id;
      response.type = request.type;
      response.status = Status(StatusCode::kOk, "drained");
      return response;
    }
  }
  Response response;
  response.id = request.id;
  response.status =
      Status(StatusCode::kParseError, "unknown request type");
  return response;
}

Response Server::run_scenario(const Request& request,
                              std::uint64_t client_key) {
  metrics_.count(Counter::kRunScenario);
  Response response;
  response.id = request.id;
  response.type = request.type;
  if (draining_.load()) {
    metrics_.count(Counter::kBackpressure);
    response.status = Status(StatusCode::kUnavailable,
                             "server is draining for shutdown — retry "
                             "against a live instance");
    return response;
  }
  sim::ScenarioSpec spec;
  try {
    spec = request.spec.has_value()
               ? *request.spec
               : sim::ScenarioRegistry::paper().get(request.scenario);
  } catch (const StatusError& error) {
    response.status = error.status();
    return response;
  }
  if (Status valid = spec.validate(); !valid.is_ok()) {
    response.status = valid;
    return response;
  }
  if (request.seed != 0) spec = sim::scenario_for_seed(spec, request.seed);
  const std::string key =
      sim::result_content_key(spec, options_.version, request.seed);
  Job job;
  job.kind = Job::Kind::kScenario;
  job.key = key;
  job.spec = std::move(spec);
  job.seed = request.seed;
  apply_deadline(job, request);
  return execute_keyed(key, client_key, std::move(job),
                       std::move(response));
}

Response Server::run_campaign(const Request& request,
                              std::uint64_t client_key) {
  metrics_.count(Counter::kRunCampaign);
  Response response;
  response.id = request.id;
  response.type = request.type;
  if (draining_.load()) {
    metrics_.count(Counter::kBackpressure);
    response.status = Status(StatusCode::kUnavailable,
                             "server is draining for shutdown — retry "
                             "against a live instance");
    return response;
  }
  sim::CampaignSpec campaign;
  if (request.campaign.has_value()) {
    campaign = *request.campaign;
  } else {
    try {
      campaign.scenario =
          sim::ScenarioRegistry::paper().get(request.scenario);
    } catch (const StatusError& error) {
      response.status = error.status();
      return response;
    }
    campaign.seeds = request.seeds;
    campaign.base_seed = request.base_seed;
  }
  if (Status valid = campaign.validate(); !valid.is_ok()) {
    response.status = valid;
    return response;
  }
  const std::string key =
      campaign_content_key(campaign, options_.version);
  Job job;
  job.kind = Job::Kind::kCampaign;
  job.key = key;
  job.campaign = std::move(campaign);
  apply_deadline(job, request);
  return execute_keyed(key, client_key, std::move(job),
                       std::move(response));
}

void Server::apply_deadline(Job& job, const Request& request) {
  if (request.deadline_ms <= 0.0) return;
  job.has_deadline = true;
  job.deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double, std::milli>(
                             request.deadline_ms));
}

Response Server::execute_keyed(const std::string& key,
                               std::uint64_t client_key, Job job,
                               Response response) {
  const auto t0 = Clock::now();
  HotTier::Ticket ticket = hot_tier_.acquire(key);
  if (ticket.tier == HotTier::Tier::kHot) {
    metrics_.count(Counter::kHotHits);
    response.tier = "hot";
    response.status = ticket.cached->status;
    response.result = *ticket.cached;
    metrics_.observe_request(0.0, 0.0, us_since(t0), false);
    return response;
  }
  if (ticket.tier == HotTier::Tier::kInflight) {
    const HotTier::ResultPtr result = ticket.future.get();
    const double wait_us = us_since(t0);
    response.tier = "inflight";
    response.queue_us = wait_us;
    if (result == nullptr ||
        result->status.code() == StatusCode::kUnavailable) {
      // The leader could not enqueue: its rejection propagates to
      // every coalesced waiter as the same explicit backpressure.
      metrics_.count(Counter::kBackpressure);
      response.status =
          result != nullptr
              ? result->status
              : Status(StatusCode::kUnavailable,
                       "in-flight request was abandoned — retry");
      return response;
    }
    metrics_.count(Counter::kInflightJoins);
    response.status = result->status;
    response.result = *result;
    metrics_.observe_request(wait_us, 0.0, us_since(t0), false);
    return response;
  }
  // Leadership: this request must enqueue the job (or tell everyone
  // why it could not).
  const std::string scenario_name = job.kind == Job::Kind::kScenario
                                        ? job.spec.name
                                        : job.campaign->display_name();
  job.enqueued = Clock::now();
  auto promise = std::make_shared<std::promise<JobOutcome>>();
  std::future<JobOutcome> outcome_future = promise->get_future();
  job.outcome = promise;
  const PushOutcome admitted =
      queue_->queue.try_push(client_key, std::move(job));
  if (!push_accepted(admitted)) {
    auto rejected = std::make_shared<sim::RunResult>();
    rejected->scenario = scenario_name;
    std::string reason;
    switch (admitted) {
      case PushOutcome::kClosed:
        reason =
            "server is draining for shutdown — retry against a live "
            "instance";
        break;
      case PushOutcome::kShed:
        metrics_.count(Counter::kLoadShed);
        response.retry_after_ms = options_.shed_retry_after_ms;
        reason = "server is shedding load (queue depth at the " +
                 std::to_string(
                     queue_->queue.options().shed_watermark) +
                 "-job watermark) — retry after " +
                 std::to_string(options_.shed_retry_after_ms) + " ms";
        break;
      case PushOutcome::kOverQuota:
        reason = "client is at its per-client quota (" +
                 std::to_string(
                     queue_->queue.options().per_client_quota) +
                 " queued jobs) — wait for queued work to finish";
        break;
      case PushOutcome::kFull:
      default:
        reason = "job queue is full (capacity " +
                 std::to_string(queue_->queue.options().capacity) +
                 ") — back off and retry";
        break;
    }
    rejected->status = Status(StatusCode::kUnavailable, reason);
    metrics_.count(Counter::kBackpressure);
    response.status = rejected->status;
    // Release any waiter that coalesced onto this key while we tried.
    hot_tier_.fulfill(key, std::move(rejected));
    return response;
  }
  JobOutcome outcome = outcome_future.get();
  response.tier = outcome.tier;
  response.queue_us = outcome.queue_us;
  response.run_us = outcome.run_us;
  response.status = outcome.result->status;
  // An expired job never ran: the answer is the status alone, with no
  // result payload to mistake for workload output.
  if (outcome.tier != "expired") {
    response.result = *outcome.result;
  }
  metrics_.observe_request(outcome.queue_us, outcome.run_us,
                           us_since(t0), outcome.tier == "run");
  return response;
}

void Server::worker_loop() {
  while (std::optional<Job> job = queue_->queue.pop()) {
    JobOutcome outcome;
    outcome.queue_us = us_since(job->enqueued);
    auto result = std::make_shared<sim::RunResult>();
    // Deadline gate: a job whose deadline passed while it queued is
    // answered without running — the client asked for "by then or not
    // at all", and skipping the run is what keeps an overloaded queue
    // from doing work nobody is waiting for. HotTier never caches
    // failed results, so the expired answer cannot poison the key.
    if (job->has_deadline && Clock::now() >= job->deadline) {
      result->scenario = job->display_name();
      result->status = Status(
          StatusCode::kDeadlineExceeded,
          "deadline expired after " +
              std::to_string(outcome.queue_us / 1000.0) +
              " ms in queue — job not run; retry with a larger "
              "deadline");
      metrics_.count(Counter::kDeadlineExpired);
      outcome.tier = "expired";
      hot_tier_.fulfill(job->key, result);
      outcome.result = std::move(result);
      job->outcome->set_value(std::move(outcome));
      continue;
    }
    if (job->kind == Job::Kind::kScenario) {
      std::optional<sim::RunResult> cached;
      if (store_ != nullptr) {
        if (injector_ != nullptr && injector_->store_delay()) {
          metrics_.count(Counter::kInjectedFaults);
          std::this_thread::sleep_for(
              std::chrono::duration<double, std::milli>(
                  injector_->delay_ms()));
        }
        if (injector_ != nullptr && injector_->store_fail()) {
          // Injected transient I/O failure: the load degrades to a
          // miss, exactly like the real errno paths in ResultStore.
          metrics_.count(Counter::kInjectedFaults);
          std::cerr << "[wi_serve] chaos: injected store load failure "
                       "for "
                    << job->key << "\n";
        } else {
          try {
            cached = store_->load(job->spec, job->seed);
          } catch (const std::exception& error) {
            // A failing cold tier degrades to a miss; the run below
            // recomputes.
            std::cerr << "[wi_serve] store load failed for " << job->key
                      << ": " << error.what() << "\n";
          }
          if (cached.has_value() && injector_ != nullptr &&
              injector_->store_corrupt()) {
            // Injected corruption: discard the loaded entry, as the
            // store's own checksum path does for real bit rot.
            metrics_.count(Counter::kInjectedFaults);
            std::cerr << "[wi_serve] chaos: injected corrupt store "
                         "entry for "
                      << job->key << "\n";
            cached.reset();
          }
        }
      }
      if (cached.has_value()) {
        *result = std::move(*cached);
        outcome.tier = "cold";
        metrics_.count(Counter::kColdHits);
      } else {
        const auto r0 = Clock::now();
        try {
          *result = engine_.run(job->spec);
        } catch (const StatusError& error) {
          result->scenario = job->spec.name;
          result->status = error.status();
        } catch (const std::exception& error) {
          result->scenario = job->spec.name;
          result->status =
              Status(StatusCode::kExecutionError, error.what());
        }
        outcome.run_us = us_since(r0);
        outcome.tier = "run";
        metrics_.count(Counter::kEngineRuns);
        if (!result->ok()) metrics_.count(Counter::kFailedRuns);
        if (store_ != nullptr) {
          if (injector_ != nullptr && injector_->store_fail()) {
            // Injected write failure: drop the save, serve the result
            // unpersisted — the same degradation as a real ENOSPC.
            metrics_.count(Counter::kInjectedFaults);
            std::cerr << "[wi_serve] chaos: injected store save "
                         "failure for "
                      << job->key << "\n";
          } else {
            // ResultStore::save throws on write/rename failure (full
            // or read-only store directory). Uncaught it would
            // std::terminate the daemon from this worker thread and
            // strand every coalesced waiter; the computed result is
            // still good, so log and serve it unpersisted.
            try {
              store_->save(job->spec, *result, job->seed);
            } catch (const StatusError& error) {
              std::cerr << "[wi_serve] store save failed for "
                        << job->key << ": "
                        << error.status().to_string() << "\n";
            } catch (const std::exception& error) {
              std::cerr << "[wi_serve] store save failed for "
                        << job->key << ": " << error.what() << "\n";
            }
          }
        }
      }
    } else {
      const auto r0 = Clock::now();
      try {
        const sim::Campaign campaign(*job->campaign);
        sim::CampaignResult campaign_result = campaign.run(
            engine_, store_.get(), options_.campaign_threads);
        result->scenario = campaign_result.campaign;
        result->status = campaign_result.status;
        result->table = std::move(campaign_result.aggregate);
        result->notes = std::move(campaign_result.notes);
        result->notes.push_back(
            "campaign: " + std::to_string(campaign_result.seeds) +
            " seeds, base_seed=" +
            std::to_string(campaign_result.base_seed));
      } catch (const StatusError& error) {
        result->scenario = job->campaign->display_name();
        result->status = error.status();
      } catch (const std::exception& error) {
        result->scenario = job->campaign->display_name();
        result->status =
            Status(StatusCode::kExecutionError, error.what());
      }
      outcome.run_us = us_since(r0);
      outcome.tier = "run";
      metrics_.count(Counter::kEngineRuns);
      if (!result->ok()) metrics_.count(Counter::kFailedRuns);
    }
    hot_tier_.fulfill(job->key, result);
    outcome.result = std::move(result);
    job->outcome->set_value(std::move(outcome));
  }
}

Table Server::stats_table() {
  MetricsGauges gauges;
  gauges.queue_depth = queue_->queue.size();
  gauges.queue_peak = queue_->queue.peak_depth();
  gauges.hot_size = hot_tier_.size();
  gauges.hot_capacity = hot_tier_.options().capacity;
  gauges.hot_evictions = hot_tier_.evictions();
  gauges.workers = worker_count_;
  if (store_ != nullptr) {
    const sim::ResultStoreStats stats = store_->stats();
    gauges.store_hits = stats.hits;
    gauges.store_misses = stats.misses;
    gauges.store_inserts = stats.inserts;
    gauges.store_corrupt = stats.corrupt_entries;
    gauges.store_orphans_removed = stats.orphans_removed;
    gauges.store_orphans_skipped = stats.orphans_skipped;
    gauges.store_transient_failures = stats.transient_write_failures;
    gauges.has_store = true;
  }
  return metrics_to_table(metrics_.snapshot(), gauges);
}

}  // namespace wi::serve
