#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>

namespace perfbench {

namespace {

/// Nearest rank (1-based) of percentile `pct` among `n` samples.  The
/// epsilon keeps products such as 99.9% of 10000 from rounding one rank up.
std::size_t nearest_rank(double pct, std::size_t n) {
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9);
  return static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(std::max<std::size_t>(n, 1))));
}

}  // namespace

double percentile_sorted(const std::vector<double>& sorted, double pct) {
  if (sorted.empty()) return 0.0;
  return sorted[nearest_rank(pct, sorted.size()) - 1];
}

Tail tail_summary(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  Tail t;
  t.count = samples.size();
  t.p50 = percentile_sorted(samples, 50.0);
  for (const double pct : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    const std::size_t at = nearest_rank(pct, samples.size());
    const std::size_t beyond = samples.size() >= at ? samples.size() - at : 0;
    if (beyond >= kTailBeyond) {
      t.tail_pct = pct;
      t.tail = percentile_sorted(samples, pct);
      t.beyond = beyond;
      break;
    }
  }
  return t;
}

double quiet(std::vector<double> repeats) {
  std::sort(repeats.begin(), repeats.end());
  return percentile_sorted(repeats, 25.0);
}

std::string percentile_name(double pct) {
  std::ostringstream os;
  os << "p" << pct;
  return os.str();
}

double median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return percentile_sorted(samples, 50.0);
}

bool backlog_grows(const LadderStep& step) {
  const std::int64_t slack = std::max<std::int64_t>(
      kBacklogSlack, step.requests / 20);
  return step.backlog_end - step.backlog_mid > slack;
}

bool step_passes(const LadderStep& step) {
  return step.failed == 0 && !step.generator_late &&
         step.p99_ms <= kLatencyLimitMs && !backlog_grows(step);
}

std::optional<int> next_ladder_probe(const std::vector<LadderStep>& probes,
                                     int size) {
  int hi = size;  // lowest failing index
  for (const LadderStep& s : probes) {
    if (!step_passes(s)) hi = std::min(hi, s.index);
  }
  int lo = -1;  // highest passing index below hi
  for (const LadderStep& s : probes) {
    if (step_passes(s) && s.index < hi) lo = std::max(lo, s.index);
  }
  if (hi - lo <= 1) return std::nullopt;
  return lo + (hi - lo) / 2;
}

int staircase_next(const LadderStep& last, int size) {
  return std::clamp(last.index + (step_passes(last) ? 1 : -1), 0, size - 1);
}

std::optional<int> select_max_step(const std::vector<LadderStep>& probes) {
  std::map<int, int> passes;  // index -> passing probes
  for (const LadderStep& s : probes) {
    if (step_passes(s)) passes[s.index] += 1;
  }
  std::optional<int> twice;
  std::optional<int> once;
  for (const auto& [index, n] : passes) {  // ascending index
    (n >= 2 ? twice : once) = index;
  }
  return twice ? twice : once;
}

SpanLog::SpanLog() : epoch_(Clock::now()) {}

void SpanLog::record(Span span) {
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<Span> SpanLog::spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void SpanLog::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write span log " + path);
  out << std::setprecision(std::numeric_limits<double>::max_digits10);
  out << "[\n";
  const std::vector<Span> all = spans();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    out << "{\"trace\":" << s.trace << ",\"span\":" << s.id
        << ",\"parent\":" << s.parent << ",\"name\":\"" << s.name
        << "\",\"t0\":" << s.t0 << ",\"t1\":" << s.t1 << "}"
        << (i + 1 < all.size() ? ",\n" : "\n");
  }
  out << "]\n";
}

ScopedSpan::ScopedSpan(SpanLog* log, std::uint64_t trace,
                       std::uint32_t parent, const char* name)
    : log_(log) {
  if (log_ == nullptr) return;
  span_.trace = trace;
  span_.id = log_->new_span();
  span_.parent = parent;
  span_.name = name;
  span_.t0 = log_->now();
}

ScopedSpan::~ScopedSpan() {
  if (log_ == nullptr) return;
  span_.t1 = log_->now();
  log_->record(std::move(span_));
}

std::map<std::string, double> self_times(const std::vector<Span>& spans) {
  // Children of each (trace, span id), as [t0, t1] intervals.
  std::map<std::pair<std::uint64_t, std::uint32_t>,
           std::vector<std::pair<double, double>>>
      children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[{s.trace, s.parent}].push_back({s.t0, s.t1});
  }
  std::map<std::string, double> out;
  for (const Span& s : spans) {
    double covered = 0.0;
    auto it = children.find({s.trace, s.id});
    if (it != children.end()) {
      std::vector<std::pair<double, double>> iv = it->second;
      std::sort(iv.begin(), iv.end());
      double cur0 = 0.0;
      double cur1 = -1.0;  // empty
      for (auto [a, b] : iv) {
        a = std::max(a, s.t0);
        b = std::min(b, s.t1);
        if (b <= a) continue;
        if (cur1 < cur0 || a > cur1) {
          if (cur1 > cur0) covered += cur1 - cur0;
          cur0 = a;
          cur1 = b;
        } else {
          cur1 = std::max(cur1, b);
        }
      }
      if (cur1 > cur0) covered += cur1 - cur0;
    }
    out[s.name] += (s.t1 - s.t0) - covered;
  }
  return out;
}

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string result_json(const Result& result) {
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << "{\"correct\": " << (result.correct ? "true" : "false")
     << ", \"attempted\": " << result.attempted
     << ", \"failed\": " << result.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    if (!std::isfinite(m.value)) {
      throw std::runtime_error("metric " + m.name + " is not finite");
    }
    os << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": " << m.value
       << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}}";
  return os.str();
}

}  // namespace perfbench
