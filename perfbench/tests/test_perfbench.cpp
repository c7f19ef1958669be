// The benchmark's own tests: the span and percentile arithmetic its
// metrics rest on, the failure accounting behind `failed` and the exit
// code, and the repeatability of the traced counts. Run from the
// repository root (CTest does), since the workloads read its goldens.

#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <memory>
#include <map>
#include <string>
#include <vector>

#include "report.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

Span span(std::uint64_t id, std::uint64_t parent, double start, double end) {
  Span s;
  s.name = std::to_string(id);
  s.id = id;
  s.parent = parent;
  s.start_us = start;
  s.end_us = end;
  return s;
}

TEST(SelfTime, SubtractsTheUnionOfChildrenClippedToTheParent) {
  // Two overlapping children (other threads) and one running past the
  // parent's end: covered = [10, 50] + [90, 100] = 50 of 100.
  const std::vector<Span> spans = {span(1, 0, 0, 100), span(2, 1, 10, 30),
                                   span(3, 1, 20, 50), span(4, 1, 90, 120)};
  const std::vector<double> self = self_times_us(spans);
  EXPECT_DOUBLE_EQ(self[0], 50.0);
  EXPECT_DOUBLE_EQ(self[1], 20.0);
  EXPECT_DOUBLE_EQ(self[3], 30.0);
}

TEST(SelfTime, ChildrenNeverExceedTheirParent) {
  const std::vector<Span> spans = {span(1, 0, 0, 10), span(2, 1, -5, 40),
                                   span(3, 1, 2, 8), span(4, 3, 0, 100)};
  for (const double self : self_times_us(spans)) EXPECT_GE(self, 0.0);
  EXPECT_DOUBLE_EQ(self_times_us(spans)[0], 0.0);
}

TEST(SelfTime, RecorderNestsScopedSpans) {
  Recorder& recorder = Recorder::global();
  recorder.clear();
  recorder.set_enabled(true);
  {
    ScopedSpan outer("outer");
    for (int i = 0; i < 3; ++i) ScopedSpan inner("inner");
  }
  recorder.set_enabled(false);
  const std::vector<Span> spans = recorder.spans();
  ASSERT_EQ(spans.size(), 4u);
  const Span& outer = spans.back();
  double children = 0.0;
  for (const Span& s : spans) {
    if (s.name == "inner") {
      EXPECT_EQ(s.parent, outer.id);
      children += s.duration_us();
    }
  }
  EXPECT_LE(children, outer.duration_us());
  EXPECT_NEAR(self_times_us(spans).back(), outer.duration_us() - children, 1e-6);
  recorder.clear();
}

TEST(Percentile, TailIsTheHighestWithTenSamplesBeyondIt) {
  const auto ramp = [](std::size_t n) {
    std::vector<double> v;
    for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
    return v;
  };
  EXPECT_EQ(tail_percentile(ramp(19)).q, 0.0);  // too few: the median
  EXPECT_DOUBLE_EQ(tail_percentile(ramp(19)).value, 10.0);
  EXPECT_EQ(tail_percentile(ramp(20)).q, 50.0);
  EXPECT_EQ(tail_percentile(ramp(99)).q, 50.0);
  EXPECT_EQ(tail_percentile(ramp(100)).q, 90.0);
  EXPECT_EQ(tail_percentile(ramp(999)).q, 90.0);
  EXPECT_EQ(tail_percentile(ramp(1000)).q, 99.0);
  EXPECT_NEAR(tail_percentile(ramp(1000)).value, 990.01, 1e-9);
  EXPECT_EQ(tail_percentile(ramp(10000)).q, 99.9);
  EXPECT_EQ(tail_percentile(ramp(1000)).samples, 1000u);
}

wi::Table small_table() {
  wi::Table table({"family", "N", "value"});
  table.add_row({"A", "1", "0.5"});
  table.add_row({"B", "2", "0.25"});
  return table;
}

double failed_frac(const wi::Json& result) {
  return result.at("failed").as_number() / result.at("attempted").as_number();
}

TEST(Failures, GoldenMismatchRaisesFailedFracAndExitCode) {
  Checks clean;
  check_rows(small_table(), small_table(), 2, "t", clean);
  EXPECT_EQ(clean.failed(), 0u);
  EXPECT_EQ(exit_code(clean), 0);

  wi::Table wrong = small_table();
  wrong.add_row({"C", "3", "1"});  // extra row
  wi::Table golden = small_table();
  wi::Table tampered({"family", "N", "value"});
  tampered.add_row({"A", "1", "0.5"});
  tampered.add_row({"B", "2", "0.26"});  // one wrong cell
  for (const wi::Table& actual : {wrong, tampered}) {
    Checks checks;
    check_rows(actual, golden, 2, "t", checks);
    EXPECT_GT(checks.failed(), 0u);
    EXPECT_EQ(exit_code(checks), 1);
    const wi::Json result = result_json(checks, end_to_end_metrics(), {});
    EXPECT_FALSE(result.at("correct").as_bool());
    EXPECT_GT(failed_frac(result), 0.0);
  }
}

TEST(Failures, MalformedFrameAnsweredOkRaisesFailedFracAndExitCode) {
  wi::serve::Response rejected;
  rejected.status = wi::Status(wi::StatusCode::kParseError, "bad frame");
  Checks clean;
  check_malformed_reply(rejected, "not json", clean);
  EXPECT_EQ(clean.failed(), 0u);
  EXPECT_EQ(exit_code(clean), 0);

  Checks checks;
  check_malformed_reply(wi::serve::Response{}, "not json", checks);  // ok status
  EXPECT_EQ(checks.failed(), 1u);
  EXPECT_EQ(exit_code(checks), 1);
  EXPECT_GT(failed_frac(result_json(checks, end_to_end_metrics(), {})), 0.0);
}

Options test_options(const std::string& workload) {
  Options options;
  options.workload = workload;
  options.work_dir = std::filesystem::path(PERFBENCH_TEST_WORK_DIR) / workload;
  return options;
}

// Two separate traced runs of the same inputs must report the same
// deterministic counts, and every traced pass within a run too.
void expect_repeatable_counts(const std::function<std::unique_ptr<Workload>()>& make,
                              const std::vector<std::string>& nonzero) {
  std::vector<std::map<std::string, double>> runs;
  for (int run = 0; run < 2; ++run) {
    Checks checks;
    std::vector<std::map<std::string, double>> traced;
    const std::unique_ptr<Workload> workload = make();
    run_workload(*workload, 0.0, true, checks, traced);
    EXPECT_EQ(checks.failed(), 0u) << (checks.messages().empty() ? "" : checks.messages()[0]);
    ASSERT_EQ(traced.size(), 2u);  // passes 0 and 2 of the three
    runs.push_back(traced[0]);
    for (const std::string& name : deterministic_counts()) {
      EXPECT_EQ(traced[0].at(name), traced[1].at(name)) << name;
    }
  }
  for (const std::string& name : deterministic_counts()) {
    EXPECT_EQ(runs[0].at(name), runs[1].at(name)) << name;
  }
  for (const std::string& name : nonzero) EXPECT_GT(runs[0].at(name), 0.0) << name;
  std::filesystem::remove_all(PERFBENCH_TEST_WORK_DIR);
}

TEST(TracedCounts, CampaignCountsRepeatAcrossTwoTracedRuns) {
  expect_repeatable_counts(
      [] { return make_campaign_workload(test_options("campaign_fault"), {16, 2}); },
      {"noc.turns_executed", "noc.delivered", "sim.store_inserts",
       "sim.store_hits", "sim.store_bytes"});
}

TEST(TracedCounts, LdpcCountsRepeatAcrossTwoTracedRuns) {
  expect_repeatable_counts(
      [] {
        return make_ldpc_workload(test_options("ldpc_fig10"),
                                  {LdpcRow{false, 100, 0}});
      },
      {"fec.codewords", "fec.ber_points"});
}

}  // namespace
}  // namespace perfbench
