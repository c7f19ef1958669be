/// End-to-end socket tests: a real Server on an ephemeral port, real
/// Clients over TCP. Covers the full ISSUE-6 service contract: health /
/// stats round trips, single-flight dedup under concurrent duplicate
/// requests (exactly one engine run, bit-identical tables),
/// backpressure when the queue saturates, malformed + oversized frames
/// leaving the connection usable, the cold tier surviving a server
/// restart, and graceful shutdown draining accepted work.

#include "wi/serve/server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "wi/common/table_io.hpp"
#include "wi/serve/client.hpp"
#include "wi/sim/campaign.hpp"
#include "wi/sim/registry.hpp"
#include "wi/sim/workload.hpp"

namespace wi::serve {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

std::atomic<int> g_sleepy_started{0};
std::atomic<int> g_sleepy_completed{0};
std::atomic<int> g_sleepy_ms{150};

/// Payload-free test workload that sleeps, so tests can hold the worker
/// pool busy for a deterministic window and observe queue backpressure
/// and drain-before-shutdown behaviour.
class SleepyRunner : public sim::WorkloadRunner {
 public:
  [[nodiscard]] std::string name() const override { return "test_sleepy"; }
  [[nodiscard]] std::string description() const override {
    return "e2e test workload: sleeps g_sleepy_ms then returns one row";
  }
  [[nodiscard]] std::vector<std::string> headers() const override {
    return {"metric", "value"};
  }
  [[nodiscard]] Table run(const sim::ScenarioSpec& spec,
                          sim::WorkloadEnv&) const override {
    g_sleepy_started.fetch_add(1);
    std::this_thread::sleep_for(
        std::chrono::milliseconds(g_sleepy_ms.load()));
    Table table(headers());
    table.add_row({"slept_for", spec.name});
    g_sleepy_completed.fetch_add(1);
    return table;
  }
};

void ensure_sleepy_registered() {
  static std::once_flag once;
  std::call_once(once, [] {
    sim::WorkloadRegistry::global().register_runner(
        std::make_unique<SleepyRunner>());
  });
}

[[nodiscard]] sim::ScenarioSpec sleepy_spec(const std::string& name) {
  ensure_sleepy_registered();
  sim::ScenarioSpec spec;
  spec.name = name;
  spec.workload = "test_sleepy";
  return spec;
}

[[nodiscard]] Request run_by_name(const std::string& scenario,
                                  const std::string& id) {
  Request request;
  request.type = RequestType::kRunScenario;
  request.id = id;
  request.scenario = scenario;
  return request;
}

[[nodiscard]] Request aux_request(RequestType type,
                                  const std::string& id = "aux") {
  Request request;
  request.type = type;
  request.id = id;
  return request;
}

/// Starts a server on an ephemeral loopback port and guarantees
/// teardown even when an assertion fires mid-test.
class ServerFixture {
 public:
  explicit ServerFixture(ServerOptions options)
      : server_(std::move(options)) {
    const Status status = server_.start();
    if (!status.is_ok()) {
      ADD_FAILURE() << "server failed to start: " << status.to_string();
    }
  }
  ~ServerFixture() { server_.stop(); }

  [[nodiscard]] Server& server() { return server_; }
  [[nodiscard]] std::uint16_t port() const { return server_.port(); }
  [[nodiscard]] Response call(const Request& request) {
    return call_once("127.0.0.1", server_.port(), request);
  }

 private:
  Server server_;
};

[[nodiscard]] ServerOptions fast_options() {
  ServerOptions options;
  options.workers = 2;
  options.hot_capacity = 64;
  return options;  // ephemeral port, no store
}

TEST(ServerE2e, HealthAndStatsRoundTrip) {
  ServerFixture fixture(fast_options());
  const Response health = fixture.call(aux_request(RequestType::kHealth,
                                                   "h1"));
  EXPECT_TRUE(health.ok()) << health.status.to_string();
  EXPECT_EQ(health.id, "h1");
  EXPECT_EQ(health.type, RequestType::kHealth);

  const Response stats = fixture.call(aux_request(RequestType::kStats));
  ASSERT_TRUE(stats.ok()) << stats.status.to_string();
  ASSERT_TRUE(stats.result.has_value());
  const Table& table = stats.result->table;
  ASSERT_EQ(table.headers(),
            (std::vector<std::string>{"metric", "value"}));
  // The health frame above is already folded into the snapshot.
  EXPECT_GE(metrics_table_value(table, "requests_total"), 1.0);
  EXPECT_DOUBLE_EQ(metrics_table_value(table, "workers"), 2.0);
  EXPECT_DOUBLE_EQ(metrics_table_value(table, "store_enabled"), 0.0);
  // The library-level table is the same one the wire returns.
  EXPECT_NO_THROW(
      (void)metrics_table_value(fixture.server().stats_table(),
                                "hit_rate"));
}

TEST(ServerE2e, ConcurrentDuplicatesRunTheEngineExactlyOnce) {
  ServerFixture fixture(fast_options());
  constexpr int kClients = 8;
  std::vector<Response> responses(kClients);
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      try {
        responses[i] = fixture.call(
            run_by_name("fig01_pathloss", "dup-" + std::to_string(i)));
      } catch (const StatusError& error) {
        ADD_FAILURE() << "client " << i << ": "
                      << error.status().to_string();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  int run_tier = 0;
  for (int i = 0; i < kClients; ++i) {
    ASSERT_TRUE(responses[i].ok()) << responses[i].status.to_string();
    EXPECT_EQ(responses[i].id, "dup-" + std::to_string(i));
    ASSERT_TRUE(responses[i].result.has_value());
    if (responses[i].tier == "run") ++run_tier;
    // Bit-identical tables: every client sees the one result.
    EXPECT_EQ(responses[i].result->table, responses[0].result->table);
    EXPECT_EQ(responses[i].result->notes, responses[0].result->notes);
  }
  EXPECT_EQ(run_tier, 1) << "exactly one response pays the engine run";

  const MetricsSnapshot snapshot = fixture.server().metrics().snapshot();
  EXPECT_EQ(snapshot.counter(Counter::kEngineRuns), 1u);
  EXPECT_EQ(snapshot.counter(Counter::kRunScenario),
            static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(snapshot.counter(Counter::kHotHits) +
                snapshot.counter(Counter::kInflightJoins),
            static_cast<std::uint64_t>(kClients - 1));
  EXPECT_EQ(fixture.server().hot_tier().leads(), 1u);
}

TEST(ServerE2e, SeedSaltProducesDistinctKeys) {
  ServerFixture fixture(fast_options());
  Request seeded = run_by_name("fig01_pathloss", "s1");
  seeded.seed = 17;
  const Response first = fixture.call(seeded);
  ASSERT_TRUE(first.ok()) << first.status.to_string();
  EXPECT_EQ(first.tier, "run");

  Request other_seed = seeded;
  other_seed.id = "s2";
  other_seed.seed = 18;
  const Response second = fixture.call(other_seed);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.tier, "run") << "different seed must not coalesce";

  Request repeat = seeded;
  repeat.id = "s3";
  const Response third = fixture.call(repeat);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third.tier, "hot");
  EXPECT_EQ(fixture.server().metrics().snapshot().counter(
                Counter::kEngineRuns),
            2u);
}

TEST(ServerE2e, QueueSaturationAnswersWithBackpressure) {
  ensure_sleepy_registered();
  ServerOptions options;
  options.workers = 1;
  options.queue_capacity = 1;
  options.per_client_quota = 1;
  ServerFixture fixture(std::move(options));
  g_sleepy_ms.store(400);

  // Distinct specs so nothing coalesces: 1 runs, 1 queues, the rest
  // must get an explicit kUnavailable — never a hang, never a drop.
  constexpr int kClients = 5;
  std::atomic<int> ok_count{0};
  std::atomic<int> backpressure{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      Request request;
      request.type = RequestType::kRunScenario;
      request.id = "bp-" + std::to_string(i);
      request.spec = sleepy_spec("sleepy_bp_" + std::to_string(i));
      try {
        const Response response = fixture.call(request);
        if (response.ok()) {
          ok_count.fetch_add(1);
        } else if (response.status.code() == StatusCode::kUnavailable) {
          backpressure.fetch_add(1);
        } else {
          ADD_FAILURE() << "unexpected status: "
                        << response.status.to_string();
        }
      } catch (const StatusError& error) {
        ADD_FAILURE() << error.status().to_string();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  g_sleepy_ms.store(150);

  EXPECT_EQ(ok_count.load() + backpressure.load(), kClients);
  EXPECT_GE(ok_count.load(), 1);
  EXPECT_GE(backpressure.load(), 1) << "the 400ms run window admits at "
                                       "most ~2 of 5 concurrent jobs";
  EXPECT_GE(fixture.server().metrics().snapshot().counter(
                Counter::kBackpressure),
            static_cast<std::uint64_t>(backpressure.load()));

  // The server is still healthy after rejecting work.
  const Response health = fixture.call(aux_request(RequestType::kHealth));
  EXPECT_TRUE(health.ok());
}

TEST(ServerE2e, ReconnectingCannotEvadeThePerClientQuota) {
  // Admission fairness is keyed by peer address, not connection
  // serial: a client that opens a fresh connection per request still
  // lands in the same lane, so the quota holds across reconnects.
  ensure_sleepy_registered();
  ServerOptions options;
  options.workers = 1;
  options.queue_capacity = 8;  // room in the queue — quota must bind
  options.per_client_quota = 1;
  ServerFixture fixture(std::move(options));
  g_sleepy_ms.store(600);
  const int started_before = g_sleepy_started.load();

  const auto sleepy_request = [](const std::string& name,
                                 const std::string& id) {
    Request request;
    request.type = RequestType::kRunScenario;
    request.id = id;
    request.spec = sleepy_spec(name);
    return request;
  };

  Client first;
  Client second;
  ASSERT_TRUE(first.connect("127.0.0.1", fixture.port()).is_ok());
  ASSERT_TRUE(second.connect("127.0.0.1", fixture.port()).is_ok());
  // Job A (connection 1) occupies the single worker...
  ASSERT_TRUE(
      first.send_raw(request_to_line(sleepy_request("quota_a", "qa")))
          .is_ok());
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (g_sleepy_started.load() == started_before &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(2ms);
  }
  ASSERT_GT(g_sleepy_started.load(), started_before);
  // ...job B (connection 2, same peer) fills the peer's one-deep
  // lane...
  ASSERT_TRUE(
      second.send_raw(request_to_line(sleepy_request("quota_b", "qb")))
          .is_ok());
  while (metrics_table_value(fixture.server().stats_table(),
                             "queue_depth") < 1.0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(2ms);
  }
  ASSERT_DOUBLE_EQ(metrics_table_value(fixture.server().stats_table(),
                                       "queue_depth"),
                   1.0);

  // ...so job C on a third, brand-new connection from the same peer
  // must be rejected at quota even though the queue has 7 free slots.
  const Response evading =
      fixture.call(sleepy_request("quota_c", "qc"));
  EXPECT_EQ(evading.status.code(), StatusCode::kUnavailable)
      << evading.status.to_string();

  // The in-quota work is unaffected.
  const Response response_a = first.receive();
  const Response response_b = second.receive();
  EXPECT_TRUE(response_a.ok()) << response_a.status.to_string();
  EXPECT_TRUE(response_b.ok()) << response_b.status.to_string();
  first.close();
  second.close();
  g_sleepy_ms.store(150);
}

TEST(ServerE2e, MalformedAndOversizedFramesKeepTheConnectionUsable) {
  ServerOptions options = fast_options();
  options.max_frame_bytes = 4096;
  ServerFixture fixture(std::move(options));

  Client client;
  ASSERT_TRUE(client.connect("127.0.0.1", fixture.port()).is_ok());

  const Response bad_json = client.call_raw("this is not json");
  EXPECT_EQ(bad_json.status.code(), StatusCode::kParseError);

  const Response bad_shape =
      client.call_raw("{\"type\":\"run_scenario\"}");
  EXPECT_EQ(bad_shape.status.code(), StatusCode::kParseError);

  // One frame over the server's 4 KiB bound: discarded, answered, and
  // the stream stays framed.
  const std::string oversized(8192, 'x');
  const Response too_big = client.call_raw(oversized);
  EXPECT_EQ(too_big.status.code(), StatusCode::kParseError);

  // Same connection, valid frame: still works.
  const Response health = client.call(aux_request(RequestType::kHealth));
  EXPECT_TRUE(health.ok()) << health.status.to_string();

  const MetricsSnapshot snapshot = fixture.server().metrics().snapshot();
  // Oversized frames have their own counter; the two bad-shape frames
  // land in parse_errors.
  EXPECT_EQ(snapshot.counter(Counter::kParseErrors), 2u);
  EXPECT_EQ(snapshot.counter(Counter::kOversizedFrames), 1u);
  client.close();
}

TEST(ServerE2e, ColdTierServesAcrossServerRestarts) {
  const fs::path dir =
      fs::temp_directory_path() / "wi_serve_e2e_cold_tier";
  fs::remove_all(dir);

  Table first_table;
  {
    ServerOptions options = fast_options();
    options.store_dir = dir;
    options.version = "e2e-v1";
    ServerFixture fixture(std::move(options));
    const Response response =
        fixture.call(run_by_name("table1_link_budget", "cold-1"));
    ASSERT_TRUE(response.ok()) << response.status.to_string();
    EXPECT_EQ(response.tier, "run");
    ASSERT_TRUE(response.result.has_value());
    first_table = response.result->table;
  }
  {
    // Fresh process-equivalent: empty hot tier, same store directory.
    ServerOptions options = fast_options();
    options.store_dir = dir;
    options.version = "e2e-v1";
    ServerFixture fixture(std::move(options));
    const Response response =
        fixture.call(run_by_name("table1_link_budget", "cold-2"));
    ASSERT_TRUE(response.ok()) << response.status.to_string();
    EXPECT_EQ(response.tier, "cold") << "the on-disk result must be "
                                        "reused, not recomputed";
    ASSERT_TRUE(response.result.has_value());
    EXPECT_EQ(response.result->table, first_table);
    EXPECT_EQ(fixture.server().metrics().snapshot().counter(
                  Counter::kEngineRuns),
              0u);
  }
  fs::remove_all(dir);
}

TEST(ServerE2e, CampaignsDedupLikeScenarios) {
  ServerFixture fixture(fast_options());
  Request request;
  request.type = RequestType::kRunCampaign;
  request.id = "c1";
  request.scenario = "table1_link_budget";
  request.seeds = 2;
  request.base_seed = 7;
  const Response first = fixture.call(request);
  ASSERT_TRUE(first.ok()) << first.status.to_string();
  EXPECT_EQ(first.tier, "run");
  ASSERT_TRUE(first.result.has_value());

  request.id = "c2";
  const Response second = fixture.call(request);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.tier, "hot");
  EXPECT_EQ(second.result->table, first.result->table);

  // A different seed count is a different content key.
  request.id = "c3";
  request.seeds = 3;
  const Response third = fixture.call(request);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third.tier, "run");
}

TEST(ServerE2e, SaltedRowParallelRunsMatchAOneThreadEngine) {
  // The server's engine runs a job's Fig. 6 SNR rows and flit DES rates
  // on the shared pool; the reply must be the one-thread engine's table,
  // byte for byte.
  ServerFixture fixture(fast_options());
  sim::SimEngine serial(sim::EngineOptions{1});
  for (const std::string name :
       {"fig06_info_rates", "flit_hotspot_mesh2d_16x16"}) {
    Request request = run_by_name(name, "salted-" + name);
    request.seed = 4242;
    const Response response = fixture.call(request);
    ASSERT_TRUE(response.ok()) << name << ": " << response.status.to_string();
    EXPECT_EQ(response.tier, "run") << name;
    ASSERT_TRUE(response.result.has_value()) << name;
    const sim::RunResult want = serial.run(sim::scenario_for_seed(
        sim::ScenarioRegistry::paper().get(name), request.seed));
    ASSERT_TRUE(want.ok()) << name << ": " << want.status.to_string();
    EXPECT_EQ(to_csv(response.result->table), to_csv(want.table)) << name;
    EXPECT_EQ(response.result->notes, want.notes) << name;
  }
}

TEST(ServerE2e, ShutdownDrainsAcceptedWorkBeforeAnswering) {
  ensure_sleepy_registered();
  ServerOptions options;
  options.workers = 1;
  ServerFixture fixture(std::move(options));
  g_sleepy_ms.store(300);
  const int started_before = g_sleepy_started.load();

  // Client A: a slow job that must complete despite the shutdown.
  Response slow_response;
  std::thread slow_client([&] {
    Request request;
    request.type = RequestType::kRunScenario;
    request.id = "drain-me";
    request.spec = sleepy_spec("sleepy_drain");
    try {
      slow_response = fixture.call(request);
    } catch (const StatusError& error) {
      ADD_FAILURE() << error.status().to_string();
    }
  });
  // Wait until the worker actually started the job, so the shutdown
  // below races against a genuinely in-flight run.
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (g_sleepy_started.load() == started_before &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(2ms);
  }
  ASSERT_GT(g_sleepy_started.load(), started_before)
      << "slow job never reached the worker";

  const Response ack =
      fixture.call(aux_request(RequestType::kShutdown, "bye"));
  EXPECT_TRUE(ack.ok()) << ack.status.to_string();
  EXPECT_EQ(ack.status.message(), "drained");
  // The shutdown response is only written after the drain, so the slow
  // job has finished by now.
  EXPECT_EQ(g_sleepy_completed.load(), g_sleepy_started.load());

  slow_client.join();
  ASSERT_TRUE(slow_response.ok()) << slow_response.status.to_string();
  ASSERT_TRUE(slow_response.result.has_value());

  fixture.server().wait();  // returns promptly: shutdown was signalled
  EXPECT_TRUE(fixture.server().draining());
  g_sleepy_ms.store(150);

  // New work is refused once draining.
  Client late;
  if (late.connect("127.0.0.1", fixture.port()).is_ok()) {
    try {
      const Response refused =
          late.call(run_by_name("fig01_pathloss", "late"));
      EXPECT_EQ(refused.status.code(), StatusCode::kUnavailable);
    } catch (const StatusError&) {
      // Equally acceptable: the listener is already gone.
    }
  }
}

TEST(ServerE2e, StopIsIdempotentAndGraceful) {
  ServerFixture fixture(fast_options());
  const Response health = fixture.call(aux_request(RequestType::kHealth));
  EXPECT_TRUE(health.ok());
  fixture.server().stop();
  fixture.server().stop();  // second stop is a no-op
  EXPECT_TRUE(fixture.server().draining());
}

}  // namespace
}  // namespace wi::serve
