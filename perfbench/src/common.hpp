#pragma once
// Shared pieces of the perfbench harness: the percentile rule, the max_qps
// ladder rule, the span log that the traced run records around calls into
// hetcomm's public layers, and the result line the benchmark prints.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------------------
// Percentile rule: a timing is reported as its median plus the highest
// percentile that still has at least kTailBeyond samples beyond it.
// ---------------------------------------------------------------------------

inline constexpr std::size_t kTailBeyond = 10;

/// Nearest-rank percentile of an ascending-sorted sample (pct in (0, 100]).
[[nodiscard]] double percentile_sorted(const std::vector<double>& sorted,
                                       double pct);

struct Tail {
  std::size_t count = 0;   ///< samples
  double p50 = 0.0;
  double tail_pct = 0.0;   ///< highest candidate percentile with enough beyond
  double tail = 0.0;       ///< value at tail_pct (0 when no candidate fits)
  std::size_t beyond = 0;  ///< samples strictly ranked above tail_pct
};

/// Candidates, highest first: 99.9, 99, 95, 90, 75.
[[nodiscard]] Tail tail_summary(std::vector<double> samples);

/// "p99", "p99.9", ... for a candidate percentile.
[[nodiscard]] std::string percentile_name(double pct);

/// Median of an unsorted sample (nearest rank); 0 for an empty sample.
[[nodiscard]] double median(std::vector<double> samples);

/// Lower quartile (nearest rank) of a run's repeats of one timing -- grids,
/// fixed-rate blocks.  On a shared host the slow repeats come from
/// other tenants, and how many there are changes from run to run; the lower
/// quartile is what the program does when the host is quiet, and repeats.
[[nodiscard]] double quiet(std::vector<double> repeats);

// ---------------------------------------------------------------------------
// max_qps ladder: rate k is base * ratio^k.  A probe of a step passes when
// its p99 is within the latency limit, nothing failed, the generator kept
// the rate, and its backlog (sent - answered) did not grow over the second
// half of the probe.  A binary search finds the boundary, then a staircase
// (up one step after a pass, down one after a fail) probes around it, so
// the steps near the boundary are probed several times.
// ---------------------------------------------------------------------------

/// One probe of one ladder step.
struct LadderStep {
  int index = 0;
  double rate = 0.0;           ///< offered requests per second
  double p99_ms = 0.0;         ///< from due time, every request of the probe
  std::int64_t failed = 0;     ///< non-ok, mismatched or unanswered replies
  std::int64_t backlog_mid = 0;  ///< sent - answered at half the sends
  std::int64_t backlog_end = 0;  ///< sent - answered at the last send
  std::int64_t requests = 0;
  double achieved_qps = 0.0;   ///< answered / (last reply - first due)
  bool generator_late = false; ///< the sender could not keep the rate
};

inline constexpr double kLatencyLimitMs = 10.0;

/// The backlog grew when it rose over the second half of the probe by more
/// than max(kBacklogSlack, 5% of the probe's requests).
inline constexpr std::int64_t kBacklogSlack = 64;
[[nodiscard]] bool backlog_grows(const LadderStep& step);
[[nodiscard]] bool step_passes(const LadderStep& step);

/// Binary search over ladder indices [0, size): given the probes so far,
/// the next index to probe, or nullopt when the boundary is found.
[[nodiscard]] std::optional<int> next_ladder_probe(
    const std::vector<LadderStep>& probes, int size);

/// Staircase: the index after `last` -- one up after a pass, one down after
/// a fail, clamped to [0, size).
[[nodiscard]] int staircase_next(const LadderStep& last, int size);

/// The ladder index that sets max_qps: the highest step that passed at
/// least twice.  Host stalls fail single probes at random, and the
/// staircase probes every step near the boundary several times, so one
/// lucky pass cannot set it.  Falls back to the highest step that passed
/// once; nullopt when no probe passed.
[[nodiscard]] std::optional<int> select_max_step(
    const std::vector<LadderStep>& probes);

// ---------------------------------------------------------------------------
// Span log for the traced run.  Spans are kept in memory and written out at
// exit; a null log (tracing off) makes every ScopedSpan a no-op.
// ---------------------------------------------------------------------------

struct Span {
  std::uint64_t trace = 0;  ///< one per cell or request
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = root
  std::string name;
  double t0 = 0.0;  ///< seconds since the log's epoch
  double t1 = 0.0;
};

class SpanLog {
 public:
  SpanLog();
  [[nodiscard]] std::uint64_t new_trace() noexcept { return ++next_trace_; }
  [[nodiscard]] std::uint32_t new_span() noexcept { return ++next_span_; }
  [[nodiscard]] double now() const noexcept {
    return seconds_between(epoch_, Clock::now());
  }
  void record(Span span);
  [[nodiscard]] std::vector<Span> spans() const;
  /// Write every span as a JSON array (one object per span).
  void write_json(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  std::atomic<std::uint64_t> next_trace_{0};
  std::atomic<std::uint32_t> next_span_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::uint64_t trace, std::uint32_t parent,
             const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] std::uint32_t id() const noexcept { return span_.id; }

 private:
  SpanLog* log_;
  Span span_;
};

/// Self time per span name: each span's duration minus the part of its
/// interval covered by its children (same trace, parent == span id).
[[nodiscard]] std::map<std::string, double> self_times(
    const std::vector<Span>& spans);

// ---------------------------------------------------------------------------
// Process accounting and the result line.
// ---------------------------------------------------------------------------

/// User + system CPU seconds of this process so far.
[[nodiscard]] double process_cpu_seconds();
/// Peak resident set size of this process, in MiB.
[[nodiscard]] double peak_rss_mb();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  /// Reported by name and unit in the human-readable lines only: too
  /// noisy on a shared host to gate a change on (see README.md).
  std::vector<Metric> info;
  /// Human-readable lines printed before the result line.
  std::vector<std::string> notes;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void add_info(std::string name, double value, std::string unit) {
    info.push_back({std::move(name), value, std::move(unit)});
  }
};

/// The result line: {"correct", "attempted", "failed", "metrics"}.
[[nodiscard]] std::string result_json(const Result& result);

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;    ///< where the traced run writes its spans
  std::string digest_file;  ///< fig51_sweep's reference digest
};

}  // namespace perfbench
