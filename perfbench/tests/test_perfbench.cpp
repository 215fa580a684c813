// Unit tests of the benchmark's own logic: the percentile rule, the
// max_qps ladder rule, span self time, and the fig51_sweep digest.

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <vector>

#include "common.hpp"
#include "fig51.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(PercentileRule, P99NeedsTenSamplesBeyond) {
  const Tail t = tail_summary(one_to(1000));
  EXPECT_EQ(t.count, 1000u);
  EXPECT_EQ(t.p50, 500.0);
  EXPECT_EQ(t.tail_pct, 99.0);
  EXPECT_EQ(t.tail, 990.0);
  EXPECT_EQ(t.beyond, 10u);
}

TEST(PercentileRule, FallsBackToTheHighestPercentileThatQualifies) {
  const Tail t999 = tail_summary(one_to(999));  // p99 would leave 9 beyond
  EXPECT_EQ(t999.tail_pct, 95.0);
  EXPECT_EQ(t999.beyond, 49u);
  const Tail t100 = tail_summary(one_to(100));
  EXPECT_EQ(t100.tail_pct, 90.0);
  EXPECT_EQ(t100.tail, 90.0);
  EXPECT_EQ(t100.beyond, 10u);
  const Tail t10000 = tail_summary(one_to(10000));
  EXPECT_EQ(t10000.tail_pct, 99.9);
  EXPECT_EQ(t10000.beyond, 10u);
}

TEST(PercentileRule, QuietIsTheLowerQuartile) {
  EXPECT_EQ(quiet({5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 8.0, 7.0}), 2.0);
  EXPECT_EQ(quiet({3.0}), 3.0);
}

TEST(PercentileRule, TooFewSamplesForAnyTail) {
  const Tail t = tail_summary(one_to(20));
  EXPECT_EQ(t.count, 20u);
  EXPECT_EQ(t.tail_pct, 0.0);
  EXPECT_EQ(t.beyond, 0u);
  EXPECT_EQ(t.p50, 10.0);
}

LadderStep step(int index, double p99_ms, std::int64_t mid = 0,
                std::int64_t end = 0, std::int64_t failed = 0) {
  LadderStep s;
  s.index = index;
  s.rate = 100.0 * index;
  s.p99_ms = p99_ms;
  s.backlog_mid = mid;
  s.backlog_end = end;
  s.failed = failed;
  s.requests = 1000;
  return s;
}

TEST(Ladder, PassRequiresLatencyBacklogAndNoFailures) {
  EXPECT_TRUE(step_passes(step(1, 9.9)));
  EXPECT_FALSE(step_passes(step(1, 10.1)));
  EXPECT_FALSE(step_passes(step(1, 1.0, 0, 0, /*failed=*/1)));
  // Backlog growth: p99 fine, but sent - answered climbed past the slack.
  EXPECT_FALSE(step_passes(step(1, 1.0, 10, 10 + kBacklogSlack + 1)));
  EXPECT_TRUE(step_passes(step(1, 1.0, 10, 10 + kBacklogSlack)));
  LadderStep late = step(1, 1.0);
  late.generator_late = true;
  EXPECT_FALSE(step_passes(late));
}

TEST(Ladder, SelectsTheHighestStepThatPassedTwice) {
  const std::vector<LadderStep> probes = {
      step(8, 2.0),  step(10, 4.0), step(11, 30.0), step(10, 3.0),
      step(11, 1.0), step(12, 1.0),  // 11 and 12 passed once each
      step(11, 1.0, 0, 500),         // backlog growth: a fail
      step(9, 2.0)};
  EXPECT_EQ(select_max_step(probes), 10);
  // Without any step passing twice, the highest single pass sets it.
  EXPECT_EQ(select_max_step({step(3, 1.0), step(5, 1.0), step(6, 40.0)}), 5);
  EXPECT_FALSE(select_max_step({step(0, 50.0)}).has_value());
}

TEST(Ladder, BinarySearchThenStaircaseFindsTheBoundary) {
  // A service whose p99 crosses the limit above step 29, and whose backlog
  // grows from step 27 on although p99 stays low: 26 is the answer.
  const auto probe = [](int k) {
    return step(k, k > 29 ? 50.0 : 3.0, 0, k >= 27 ? 400 : 2);
  };
  std::vector<LadderStep> probes;
  while (const std::optional<int> k = next_ladder_probe(probes, 48)) {
    probes.push_back(probe(*k));
    ASSERT_LT(probes.size(), 10u);
  }
  EXPECT_EQ(select_max_step(probes), 26);  // the search probes 26 once
  int k = 27;
  for (int i = 0; i < 6; ++i) {
    probes.push_back(probe(k));
    k = staircase_next(probes.back(), 48);
    EXPECT_TRUE(k == 26 || k == 27);
  }
  EXPECT_EQ(select_max_step(probes), 26);
  EXPECT_EQ(staircase_next(step(0, 50.0), 48), 0);  // clamped at the bottom
  EXPECT_EQ(staircase_next(step(47, 1.0), 48), 47);  // and at the top
}

Span span(std::uint64_t trace, std::uint32_t id, std::uint32_t parent,
          const char* name, double t0, double t1) {
  return Span{trace, id, parent, name, t0, t1};
}

TEST(Spans, SelfTimeSubtractsTheUnionOfChildren) {
  const std::vector<Span> spans = {
      span(1, 1, 0, "root", 0.0, 10.0),
      span(1, 2, 1, "a", 1.0, 4.0),
      span(1, 3, 1, "b", 3.0, 6.0),  // overlaps a: the union is [1, 6]
      span(1, 4, 2, "leaf", 2.0, 3.0),
      // Same span ids in another trace must not count as children above.
      span(2, 2, 1, "other", 0.0, 9.0),
  };
  const std::map<std::string, double> self = self_times(spans);
  EXPECT_DOUBLE_EQ(self.at("root"), 5.0);
  EXPECT_DOUBLE_EQ(self.at("a"), 2.0);
  EXPECT_DOUBLE_EQ(self.at("b"), 3.0);
  EXPECT_DOUBLE_EQ(self.at("leaf"), 1.0);
  EXPECT_DOUBLE_EQ(self.at("other"), 9.0);
}

TEST(Spans, ChildrenAreClippedToTheParent) {
  const std::vector<Span> spans = {span(1, 1, 0, "p", 0.0, 2.0),
                                   span(1, 2, 1, "c", 1.0, 5.0)};
  EXPECT_DOUBLE_EQ(self_times(spans).at("p"), 1.0);
}

TEST(Fig51, DigestIsIdenticalAtOneAndTwoWorkers) {
  Fig51Config config;  // the workload's grid, as the benchmark runs it
  const Fig51Inputs in = fig51_setup(config);
  config.workers = 1;
  const Fig51Grid one = run_fig51_grid(in, config, nullptr);
  config.workers = 2;
  const Fig51Grid two = run_fig51_grid(in, config, nullptr);
  EXPECT_EQ(fig51_digest(one), fig51_digest(two));
  EXPECT_EQ(fig51_digest_hex(one), read_digest_file(PERFBENCH_DIGEST_FILE));
  EXPECT_TRUE(fig51_reference_matches(in, config, two, 0));
}

}  // namespace
}  // namespace perfbench
