#include "serve_load.hpp"

#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstring>
#include <exception>
#include <future>
#include <map>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/advisor.hpp"
#include "core/comm_pattern.hpp"
#include "core/compiled_plan.hpp"
#include "core/executor.hpp"
#include "core/pattern_io.hpp"
#include "core/strategy.hpp"
#include "machine/machine.hpp"
#include "obs/json.hpp"
#include "serve/service.hpp"

namespace perfbench {

namespace hc = hetcomm;
using hc::obs::JsonValue;

namespace {

// ---------------------------------------------------------------------------
// Workload constants.  The rates are absolute and frozen: `low` and `high`
// sit near 30% and 70% of each workload's max_qps measured at the commit
// that introduced the benchmark (see README.md), so later changes are
// compared at the same offered load.
// ---------------------------------------------------------------------------

constexpr int kJobs = 2;                 // serve::ServiceOptions::jobs
/// The bursts' service runs on the calling thread alone.  At kJobs every
/// parallel_for waits for the second thread to wake, and on a shared host
/// the burst time then measured those wake-ups more than the service.
constexpr int kBurstJobs = 1;
constexpr int kHotPatterns = 16;
constexpr std::size_t kHotStrategiesPerPattern = 2;
constexpr int kHotReps = 8;
constexpr int kChurnReps = 1;
constexpr int kSetups = 25;              // set-ups per run; setup_s is their median
constexpr int kTracedRequests = 1200;    // per traced-run block: p99 has 12 beyond
constexpr int kTracedBlocks = 3;
constexpr int kStaircaseProbes = 12;     // ladder probes after the binary search
constexpr double kLadderSeconds = 12.0;  // the ladder stops probing past this
constexpr double kWarmupSeconds = 3.0;
constexpr int kOracleEvery = 20;         // one-shot measure check, 1 in N replies
constexpr double kLadderRatio = 1.06;
constexpr int kLadderSteps = 40;
/// The generator fell behind when its own scheduling lateness (not socket
/// back-pressure) exceeds this at the median.  Host stalls delay every
/// thread by a few ms and touch a few percent of a block's requests; a
/// sender that cannot keep the rate is late on most of them.
constexpr double kMaxGeneratorLatenessMs = 1.0;
constexpr int kServerNice = 10;          // service threads' nice value

struct Profile {
  double low_qps;
  double high_qps;
  double ladder_base_qps;  ///< ladder rate k = base * kLadderRatio^k
  int block;               ///< requests per fixed-rate block
  int probe;               ///< requests per ladder probe (p99 keeps >= 10 beyond)
  int burst;               ///< requests per timed burst
  int warmup;              ///< untimed burst before any timed phase
  double round_s;          ///< a round's length on a quiet host
};

// Many short blocks and bursts spread over the whole run rather than a few
// long ones in one stretch of it: this kind of host drifts within seconds,
// and a summary over all of the run repeats better from run to run.
// serve_churn's warm-up exceeds the default plan-cache capacity (256).
Profile profile(bool churn) {
  return churn ? Profile{540.0, 1250.0, 300.0, 400, 1000, 256, 320, 1.4}
               : Profile{1800.0, 4200.0, 1000.0, 600, 2000, 512, 256, 0.85};
}

/// Rounds (a low block and a high block, each followed by bursts): as many
/// as fill --seconds on a quiet host, and at least this many.  A fixed count
/// rather than a deadline, so a slow host does the same work and keeps the
/// same replies in memory for the oracle.
constexpr int kMinRounds = 8;
constexpr int kBurstsPerBlock = 2;
/// A run with more discarded fixed-rate blocks than this is invalid.
constexpr int kMaxDiscarded = 12;

double pct(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  return percentile_sorted(v, p);
}

constexpr std::array<int, 3> kNodes = {4, 8, 16};
constexpr std::array<int, 3> kMsgsPerGpu = {2, 4, 8};
constexpr std::array<std::int64_t, 3> kBytes = {4096, 16384, 65536};

template <typename T, std::size_t N>
T pick(std::mt19937_64& rng, const std::array<T, N>& from) {
  return from[rng() % N];
}

/// Seeds stay below 2^62 so they survive the service's int64 JSON parse.
std::uint64_t draw_seed(std::mt19937_64& rng) { return rng() >> 2; }

std::mt19937_64 stream(std::uint64_t seed, std::uint64_t which) {
  std::seed_seq seq{static_cast<std::uint32_t>(seed),
                    static_cast<std::uint32_t>(seed >> 32),
                    static_cast<std::uint32_t>(which)};
  return std::mt19937_64(seq);
}

struct RequestSpec {
  int nodes = 4;
  int msgs = 2;
  std::int64_t bytes = 4096;
  std::uint64_t pattern_seed = 1;
  int hot = -1;          ///< hot-set index; -1 = a fresh random pattern
  std::string strategy;  ///< empty = ranked; the service measures its pick
  int reps = 1;
  std::uint64_t seed = 1;
};

struct HotPattern {
  RequestSpec base;  ///< nodes/msgs/bytes/pattern_seed
  std::vector<std::string> strategies;
  std::string ref;   ///< pattern_hash reported by the service
};

/// The hot set covers fixed shapes, so every seed offers the same kind of
/// work: pattern p has shape p of the nodes x msgs_per_gpu x bytes grid
/// (cycling), and strategies 2p and 2p+1 of all_strategies().  The seed
/// draws each pattern's destinations.
std::vector<HotPattern> make_hot_set(std::uint64_t seed) {
  std::mt19937_64 rng = stream(seed, 1);
  const std::vector<hc::core::StrategyConfig> all = hc::core::all_strategies();
  std::vector<HotPattern> hot(kHotPatterns);
  for (std::size_t p = 0; p < hot.size(); ++p) {
    HotPattern& h = hot[p];
    h.base.nodes = kNodes[p % kNodes.size()];
    h.base.msgs = kMsgsPerGpu[(p / kNodes.size()) % kMsgsPerGpu.size()];
    h.base.bytes = kBytes[(p / (kNodes.size() * kMsgsPerGpu.size())) % kBytes.size()];
    h.base.pattern_seed = draw_seed(rng);
    for (std::size_t k = 0; k < kHotStrategiesPerPattern; ++k) {
      h.strategies.push_back(all[(kHotStrategiesPerPattern * p + k) % all.size()].name());
    }
  }
  return hot;
}

std::vector<RequestSpec> make_requests(bool churn,
                                       const std::vector<HotPattern>& hot,
                                       std::uint64_t seed, std::uint64_t phase,
                                       int count) {
  std::mt19937_64 rng = stream(seed, 100 + phase);
  std::vector<RequestSpec> out(static_cast<std::size_t>(count));
  for (RequestSpec& r : out) {
    if (churn) {
      r.nodes = pick(rng, kNodes);
      r.msgs = pick(rng, kMsgsPerGpu);
      r.bytes = pick(rng, kBytes);
      r.pattern_seed = draw_seed(rng);
      r.reps = kChurnReps;
    } else {
      const std::size_t h = rng() % hot.size();
      r = hot[h].base;
      r.hot = static_cast<int>(h);
      r.strategy = hot[h].strategies[rng() % hot[h].strategies.size()];
      r.reps = kHotReps;
    }
    r.seed = draw_seed(rng);
  }
  return out;
}

std::string random_spec(const RequestSpec& r) {
  return "{\"random\": {\"msgs_per_gpu\": " + std::to_string(r.msgs) +
         ", \"bytes\": " + std::to_string(r.bytes) +
         ", \"seed\": " + std::to_string(r.pattern_seed) + "}}";
}

std::string render(const RequestSpec& r, const std::string& id,
                   const std::vector<HotPattern>& hot) {
  std::string line = "{\"id\": " + id + ", \"machine\": \"lassen\", \"nodes\": " +
                     std::to_string(r.nodes) + ", \"pattern\": ";
  line += r.hot >= 0 ? "{\"ref\": \"" + hot[static_cast<std::size_t>(r.hot)].ref + "\"}"
                     : random_spec(r);
  if (!r.strategy.empty()) line += ", \"strategy\": \"" + r.strategy + "\"";
  line += std::string(", \"rank\": ") + (r.strategy.empty() ? "true" : "false");
  line += ", \"reps\": " + std::to_string(r.reps) +
          ", \"seed\": " + std::to_string(r.seed) + "}\n";
  return line;
}

// ---------------------------------------------------------------------------
// Transport: one Unix-socket connection.
// ---------------------------------------------------------------------------

struct ReplyLine {
  std::string text;
  Clock::time_point at;
};

class Connection {
 public:
  /// Connects, retrying until the server has bound `path` or `timeout_s`.
  Connection(const std::string& path, double timeout_s) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
      throw std::runtime_error("socket path too long: " + path);
    }
    std::copy(path.begin(), path.end(), addr.sun_path);
    const Clock::time_point give_up =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(timeout_s));
    for (;;) {
      fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (fd_ < 0) throw std::runtime_error("cannot create socket");
      if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof addr) == 0) {
        return;
      }
      ::close(fd_);
      fd_ = -1;
      if (Clock::now() > give_up) {
        throw std::runtime_error("cannot connect to " + path);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  void write_all(const std::string& data) const {
    std::size_t done = 0;
    while (done < data.size()) {
      const ssize_t w = ::write(fd_, data.data() + done, data.size() - done);
      if (w <= 0) throw std::runtime_error("socket write failed");
      done += static_cast<std::size_t>(w);
    }
  }

  /// Append the complete lines of one read to `out`, stamped with the read
  /// time.  False on EOF, error, or `deadline` passing first.
  bool read_some(std::vector<ReplyLine>& out, Clock::time_point deadline) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    if (left.count() <= 0) return false;
    pollfd p{fd_, POLLIN, 0};
    if (::poll(&p, 1, static_cast<int>(std::min<std::int64_t>(left.count(), 1000))) <= 0) {
      return Clock::now() < deadline;  // timed out this slice; caller loops
    }
    char chunk[65536];
    const ssize_t n = ::read(fd_, chunk, sizeof chunk);
    if (n <= 0) return false;
    const Clock::time_point at = Clock::now();
    buffer_.append(chunk, static_cast<std::size_t>(n));
    std::size_t pos = 0;
    for (std::size_t nl = buffer_.find('\n'); nl != std::string::npos;
         nl = buffer_.find('\n', pos)) {
      out.push_back({buffer_.substr(pos, nl - pos), at});
      pos = nl + 1;
    }
    buffer_.erase(0, pos);
    return true;
  }

  /// Closed-loop request: send one line, wait for one reply line.
  JsonValue call(const std::string& line) {
    write_all(line);
    std::vector<ReplyLine> got;
    const Clock::time_point deadline = Clock::now() + std::chrono::seconds(60);
    while (got.empty()) {
      if (!read_some(got, deadline)) {
        throw std::runtime_error("no reply to " + line);
      }
    }
    return JsonValue::parse(got.front().text);
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// A serve::Service answering on a Unix socket from its own thread.  That
/// thread lowers its scheduling priority before it constructs the Service,
/// so the service's pool workers inherit it too: on a host with as many
/// cores as busy threads, the generator must not queue behind the system it
/// measures, or its lateness would be counted as the service's latency.
class ServerHost {
 public:
  ServerHost(const hc::serve::ServiceOptions& options, std::string path)
      : path_(std::move(path)) {
    // Shared with the thread: set_value may still be running when the
    // constructor returns.
    auto ready = std::make_shared<std::promise<void>>();
    std::future<void> constructed = ready->get_future();
    thread_ = std::thread([this, options, ready] {
      try {
        (void)::setpriority(PRIO_PROCESS, static_cast<id_t>(::gettid()),
                            kServerNice);
        service_.emplace(options);
        ready->set_value();
      } catch (...) {
        ready->set_exception(std::current_exception());
        return;
      }
      try {
        service_->run_socket(path_);
      } catch (...) {
        error_ = std::current_exception();
      }
    });
    try {
      constructed.get();
    } catch (...) {
      thread_.join();
      throw;
    }
  }
  ~ServerHost() {
    if (!thread_.joinable()) return;
    try {
      Connection c(path_, 5.0);
      (void)c.call("{\"cmd\": \"shutdown\"}\n");
    } catch (...) {  // the server already stopped; join below
    }
    thread_.join();
  }
  ServerHost(const ServerHost&) = delete;
  ServerHost& operator=(const ServerHost&) = delete;

  /// Shut down through `client` (the one connected client) and join.
  void stop(Connection& client) {
    const JsonValue reply = client.call("{\"cmd\": \"shutdown\"}\n");
    if (!reply.at("ok").as_bool()) throw std::runtime_error("shutdown refused");
  }
  void join() {
    thread_.join();
    if (error_) std::rethrow_exception(error_);
  }
  [[nodiscard]] const hc::serve::Service& service() const { return *service_; }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::optional<hc::serve::Service> service_;
  std::string path_;
  std::exception_ptr error_;
  std::thread thread_;  // last: it uses the members above
};

// ---------------------------------------------------------------------------
// Open-loop phase: a sender thread writes each request at its due time (a
// seeded Poisson schedule, or all at once for a burst) while a receiver
// thread collects replies.  Latency is timed from the due time.
// ---------------------------------------------------------------------------

struct PhaseRun {
  std::vector<RequestSpec> specs;
  std::vector<Clock::time_point> due;
  std::vector<Clock::time_point> sent;
  std::vector<double> self_late_ms;  ///< sender's own lateness per request
  std::vector<ReplyLine> replies;
  std::int64_t backlog_mid = 0;
  std::int64_t backlog_end = 0;
};

std::vector<double> poisson_offsets(std::uint64_t seed, std::uint64_t phase,
                                    int count, double rate) {
  std::mt19937_64 rng = stream(seed, 200 + phase);
  std::exponential_distribution<double> gap(rate);
  std::vector<double> out(static_cast<std::size_t>(count));
  double t = 0.0;
  for (double& o : out) {
    o = t;
    t += gap(rng);
  }
  return out;
}

PhaseRun run_open_loop(Connection& conn, std::vector<RequestSpec> specs,
                       const std::vector<double>& offsets,
                       const std::vector<HotPattern>& hot, std::int64_t id_base) {
  PhaseRun run;
  const std::size_t n = specs.size();
  std::vector<std::string> lines(n);
  for (std::size_t i = 0; i < n; ++i) {
    lines[i] = render(specs[i], std::to_string(id_base + static_cast<std::int64_t>(i)), hot);
  }
  run.specs = std::move(specs);
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
  run.due.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    run.due[i] = start + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(offsets[i]));
  }
  run.sent.resize(n);
  run.self_late_ms.resize(n);
  std::atomic<std::int64_t> answered{0};
  std::exception_ptr send_error;

  std::thread receiver([&] {
    // Give up 30 s after the last due time; missing replies count as failed.
    const Clock::time_point deadline =
        run.due.back() + std::chrono::seconds(30);
    while (run.replies.size() < n) {
      if (!conn.read_some(run.replies, deadline)) break;
      answered.store(static_cast<std::int64_t>(run.replies.size()));
    }
  });
  std::thread sender([&] {
    try {
      Clock::time_point prev_end = start;
      std::string batch;
      for (std::size_t i = 0; i < n;) {
        std::this_thread::sleep_until(run.due[i]);
        const Clock::time_point now = Clock::now();
        batch.clear();
        const std::size_t first = i;
        while (i < n && run.due[i] <= now) {
          run.sent[i] = now;
          run.self_late_ms[i] =
              std::max(0.0, seconds_between(std::max(run.due[i], prev_end), now)) * 1e3;
          batch += lines[i];
          ++i;
        }
        if (i == first) continue;  // woke early
        const std::int64_t before = static_cast<std::int64_t>(first);
        if (before < static_cast<std::int64_t>(n / 2) &&
            static_cast<std::int64_t>(i) >= static_cast<std::int64_t>(n / 2)) {
          run.backlog_mid = before - answered.load();
        }
        conn.write_all(batch);
        prev_end = Clock::now();
      }
      run.backlog_end = static_cast<std::int64_t>(n) - answered.load();
    } catch (...) {
      send_error = std::current_exception();
    }
  });
  sender.join();
  receiver.join();
  if (send_error) std::rethrow_exception(send_error);
  return run;
}

// ---------------------------------------------------------------------------
// Evaluating a phase's replies.
// ---------------------------------------------------------------------------

struct Answer {
  bool ok = false;
  double latency_ms = 0.0;  ///< from due time
  double wire_ms = 0.0;     ///< client latency from send - reply latency_seconds
  double queue_ms = 0.0;
  double compile_ms = 0.0;
  double execute_ms = 0.0;
  double unattributed_ms = 0.0;
  double max_avg = 0.0;
  std::string strategy;
  std::string recommended;
  std::string pattern_hash;
};

struct PhaseEval {
  std::vector<std::optional<Answer>> answers;  ///< by request index
  std::int64_t failed = 0;                     ///< not ok or unanswered
  std::vector<double> latency_ms;              ///< failed ones are +inf
  double wall_s = 0.0;                         ///< first due -> last reply
  double lateness_p50_ms = 0.0;  ///< generator's own lateness
  double lateness_p99_ms = 0.0;
};

PhaseEval evaluate(const PhaseRun& run, std::int64_t id_base) {
  PhaseEval ev;
  const std::size_t n = run.specs.size();
  ev.answers.resize(n);
  Clock::time_point last = run.due.front();
  for (const ReplyLine& r : run.replies) {
    const JsonValue doc = JsonValue::parse(r.text);
    const JsonValue* idv = doc.find("id");
    if (idv == nullptr || !idv->is_number()) continue;
    const std::int64_t idx = idv->as_int() - id_base;
    if (idx < 0 || idx >= static_cast<std::int64_t>(n)) continue;
    const std::size_t i = static_cast<std::size_t>(idx);
    Answer a;
    a.ok = doc.at("ok").as_bool();
    last = std::max(last, r.at);
    a.latency_ms = seconds_between(run.due[i], r.at) * 1e3;
    if (a.ok) {
      const JsonValue& t = doc.at("timing");
      const double lat = t.at("latency_seconds").as_double();
      a.queue_ms = t.at("queue_wait_seconds").as_double() * 1e3;
      a.compile_ms = t.at("compile_seconds").as_double() * 1e3;
      a.execute_ms = t.at("execute_seconds").as_double() * 1e3;
      a.unattributed_ms = lat * 1e3 - a.queue_ms - a.compile_ms - a.execute_ms;
      a.wire_ms = (seconds_between(run.sent[i], r.at) - lat) * 1e3;
      const JsonValue& m = doc.at("measured");
      a.max_avg = m.at("max_avg").as_double();
      a.strategy = m.at("strategy").as_string();
      if (const JsonValue* rec = doc.find("recommended")) {
        a.recommended = rec->as_string();
      }
      a.pattern_hash = doc.at("pattern_hash").as_string();
    }
    ev.answers[i] = std::move(a);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::optional<Answer>& a = ev.answers[i];
    if (!a || !a->ok) {
      ev.failed += 1;
      ev.latency_ms.push_back(std::numeric_limits<double>::infinity());
    } else {
      ev.latency_ms.push_back(a->latency_ms);
    }
  }
  ev.wall_s = seconds_between(run.due.front(), last);
  std::vector<double> late = run.self_late_ms;
  std::sort(late.begin(), late.end());
  ev.lateness_p50_ms = percentile_sorted(late, 50.0);
  ev.lateness_p99_ms = percentile_sorted(late, 99.0);
  return ev;
}

std::vector<double> collect(const PhaseEval& ev, double Answer::*field) {
  std::vector<double> out;
  for (const std::optional<Answer>& a : ev.answers) {
    if (a && a->ok) out.push_back((*a).*field);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Replay: re-run requests through the public layer functions, one shot per
// request, and compare with the service's reply (bit for bit).  With a span
// log this also times each layer from outside.
// ---------------------------------------------------------------------------

struct LayerTotals {
  std::int64_t plan_ops = 0;
  std::int64_t messages = 0;     ///< compiled messages of built plans
  std::int64_t reps = 0;
  std::int64_t sim_messages = 0; ///< messages x reps executed
};

class Replayer {
 public:
  explicit Replayer(const std::vector<HotPattern>& hot)
      : hot_(hot), mach_(hc::machine::lassen_machine()) {}

  /// Replays request `spec`; true when the service's answer matches.
  bool check(const RequestSpec& spec, const Answer& got, SpanLog* log,
             LayerTotals& totals) {
    const std::uint64_t trace = log ? log->new_trace() : 0;
    const ScopedSpan root(log, trace, 0, "replay.request");
    const hc::Topology& topo = topology(spec.nodes);
    const hc::core::CommPattern* pattern = nullptr;
    std::optional<hc::core::CommPattern> fresh;
    if (spec.hot >= 0) {
      pattern = &hot_pattern(spec.hot, topo);
    } else {
      pattern = &fresh.emplace(
          hc::core::random_pattern(topo, spec.msgs, spec.bytes, spec.pattern_seed));
    }
    bool ok = hex_hash(hc::core::pattern_hash(*pattern)) == got.pattern_hash;
    hc::core::StrategyConfig config;
    if (spec.strategy.empty()) {
      std::vector<hc::core::Recommendation> ranking;
      {
        const ScopedSpan s(log, trace, root.id(), "core.advisor.rank");
        const hc::core::Advisor advisor(topo, mach_.params);
        ranking = advisor.rank(*pattern);
      }
      config = ranking.front().config;
      ok = ok && config.name() == got.recommended;
    } else {
      config = hc::core::parse_strategy(spec.strategy);
    }
    ok = ok && config.name() == got.strategy;

    // Plans of hot requests are built once, as the service's cache does.
    const std::string key = spec.hot >= 0
        ? std::to_string(spec.hot) + "/" + config.name() : std::string();
    const Plan* plan = nullptr;
    Plan built;
    auto it = key.empty() ? plans_.end() : plans_.find(key);
    if (it != plans_.end()) {
      plan = &it->second;
    } else {
      {
        const ScopedSpan s(log, trace, root.id(), "core.strategy.build_plan");
        built.plan.emplace(hc::core::build_plan(*pattern, topo, mach_.params, config));
      }
      {
        const ScopedSpan s(log, trace, root.id(), "core.compiled_plan.compile");
        built.compiled.emplace(*built.plan, topo, mach_.params);
      }
      for (const hc::core::PlanPhase& ph : built.plan->phases) {
        totals.plan_ops += static_cast<std::int64_t>(ph.ops.size());
      }
      totals.messages += built.compiled->total_messages();
      plan = key.empty() ? &built
                         : &plans_.emplace(key, std::move(built)).first->second;
    }
    hc::core::MeasureOptions m;
    m.reps = spec.reps;
    m.seed = spec.seed;
    m.noise_sigma = 0.02;  // serve::ServiceOptions default
    m.precompiled = &*plan->compiled;
    hc::core::MeasureResult res;
    {
      const ScopedSpan s(log, trace, root.id(), "core.executor.measure");
      res = hc::core::measure(*plan->plan, topo, mach_.params, m);
    }
    totals.reps += spec.reps;
    totals.sim_messages += plan->compiled->total_messages() * spec.reps;
    return ok && std::memcmp(&res.max_avg, &got.max_avg, sizeof(double)) == 0;
  }

 private:
  struct Plan {
    std::optional<hc::core::CommPlan> plan;
    std::optional<hc::core::CompiledPlan> compiled;
  };

  static std::string hex_hash(std::uint64_t h) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(h));
    return buf;
  }

  const hc::Topology& topology(int nodes) {
    auto it = topos_.find(nodes);
    if (it == topos_.end()) it = topos_.emplace(nodes, mach_.topology(nodes)).first;
    return it->second;
  }

  const hc::core::CommPattern& hot_pattern(int h, const hc::Topology& topo) {
    auto it = hot_patterns_.find(h);
    if (it == hot_patterns_.end()) {
      const RequestSpec& b = hot_[static_cast<std::size_t>(h)].base;
      it = hot_patterns_
               .emplace(h, hc::core::random_pattern(topo, b.msgs, b.bytes, b.pattern_seed))
               .first;
    }
    return it->second;
  }

  const std::vector<HotPattern>& hot_;
  hc::machine::MachineModel mach_;
  std::map<int, hc::Topology> topos_;
  std::map<int, hc::core::CommPattern> hot_patterns_;
  std::map<std::string, Plan> plans_;
};

// ---------------------------------------------------------------------------
// Set-up and the service's own counters.
// ---------------------------------------------------------------------------

std::string socket_path(int instance) {
  return ".bench_build/perfbench-" + std::to_string(::getpid()) + "-" +
         std::to_string(instance) + ".sock";
}

hc::serve::ServiceOptions service_options(bool trace) {
  hc::serve::ServiceOptions o;
  o.jobs = kJobs;
  o.trace = trace;
  return o;
}

/// The hot set's priming lines: one measured request per (pattern,
/// strategy), which registers the pattern and compiles the plan.  The id
/// is the pattern's index.
std::vector<std::string> prime_lines(const std::vector<HotPattern>& hot) {
  std::vector<std::string> lines;
  for (std::size_t p = 0; p < hot.size(); ++p) {
    for (const std::string& s : hot[p].strategies) {
      RequestSpec r = hot[p].base;
      r.strategy = s;
      r.reps = 1;
      lines.push_back(render(r, std::to_string(p), hot));
    }
  }
  return lines;
}

/// Records a priming reply's pattern hash as its pattern's `ref`.
void take_ref(const JsonValue& reply, std::vector<HotPattern>& hot) {
  if (!reply.at("ok").as_bool()) {
    throw std::runtime_error("priming failed: " + reply.at("error").as_string());
  }
  hot.at(static_cast<std::size_t>(reply.at("id").as_int())).ref =
      reply.at("pattern_hash").as_string();
}

/// Primes the hot set over the socket, pipelined: every line is sent before
/// the first reply is read.
void prime(Connection& conn, std::vector<HotPattern>& hot) {
  const std::vector<std::string> lines = prime_lines(hot);
  std::string all;
  for (const std::string& line : lines) all += line;
  conn.write_all(all);
  std::vector<ReplyLine> replies;
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(60);
  while (replies.size() < lines.size()) {
    if (!conn.read_some(replies, deadline)) {
      throw std::runtime_error("priming: missing replies");
    }
  }
  for (const ReplyLine& r : replies) take_ref(JsonValue::parse(r.text), hot);
}

struct Stats {
  double total = 0, windows = 0, blocks = 0, lanes = 0, busy_s = 0;
  double measured = 0, request_hits = 0, misses = 0, evictions = 0;
  double errors = 0, shed = 0, deadline = 0;
};

Stats read_stats(Connection& conn) {
  const JsonValue reply = conn.call("{\"cmd\": \"stats\"}\n");
  const JsonValue& s = reply.at("stats").at("serve");
  const JsonValue& plan = s.at("cache").at("plan");
  Stats st;
  st.total = s.at("requests").at("total").as_double();
  st.measured = s.at("requests").at("measured").as_double();
  st.errors = s.at("requests").at("errors").as_double();
  st.windows = s.at("batching").at("windows").as_double();
  st.blocks = s.at("batching").at("blocks").as_double();
  st.lanes = s.at("batching").at("lanes").as_double();
  st.busy_s = s.at("busy_seconds").as_double();
  st.request_hits = plan.at("request_hits").as_double();
  st.misses = plan.at("misses").as_double();
  st.evictions = plan.at("evictions").as_double();
  st.shed = s.at("resilience").at("shed_overloaded").as_double();
  st.deadline = s.at("resilience").at("deadline_exceeded").as_double();
  return st;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// One live service plus its one client connection.
struct LiveService {
  std::unique_ptr<ServerHost> host;
  std::unique_ptr<Connection> conn;

  void close() {
    host->stop(*conn);
    conn.reset();
    host->join();
  }
};

LiveService start_service(bool trace, int instance,
                      std::vector<HotPattern>& hot) {
  LiveService s;
  s.host = std::make_unique<ServerHost>(service_options(trace),
                                        socket_path(instance));
  s.conn = std::make_unique<Connection>(s.host->path(), 10.0);
  prime(*s.conn, hot);
  return s;
}

struct Runner {
  const RunOptions& options;
  bool churn;
  Profile prof;
  std::vector<HotPattern> hot;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::uint64_t phase = 0;
  int discarded = 0;  ///< fixed-rate blocks discarded as invalid
  std::vector<std::string> notes;

  /// One open-loop phase of `count` requests at `rate` (0 = burst).
  std::pair<PhaseRun, PhaseEval> phase_at(Connection& conn, int count, double rate) {
    ++phase;
    const std::int64_t id_base = static_cast<std::int64_t>(phase) * 1000000;
    std::vector<RequestSpec> specs =
        make_requests(churn, hot, options.seed, phase, count);
    const std::vector<double> offsets =
        rate > 0.0 ? poisson_offsets(options.seed, phase, count, rate)
                   : std::vector<double>(static_cast<std::size_t>(count), 0.0);
    PhaseRun run = run_open_loop(conn, std::move(specs), offsets, hot, id_base);
    PhaseEval ev = evaluate(run, id_base);
    attempted += count;
    failed += ev.failed;
    return {std::move(run), std::move(ev)};
  }

  /// One-shot check of every `every`-th answered request.
  void oracle(Replayer& replayer, const PhaseRun& run, const PhaseEval& ev,
              std::size_t every, SpanLog* log, LayerTotals& totals) {
    for (std::size_t i = (options.seed % every); i < run.specs.size(); i += every) {
      const std::optional<Answer>& a = ev.answers[i];
      if (!a || !a->ok) continue;  // already counted as failed
      attempted += 1;
      if (!replayer.check(run.specs[i], *a, log, totals)) failed += 1;
    }
  }

  /// One sample of sweep_s: the wall time for Service::handle_window, the
  /// service's batch entry point, to answer a burst of `count` requests in
  /// windows of ServiceOptions::window lines.  `service` is one of its own
  /// at kBurstJobs, so no thread hands lines or tasks over: a burst is
  /// throughput, and thread hand-offs on a shared host would make it a
  /// measure of wake-up delays.
  double burst(hc::serve::Service& service, int count) {
    ++phase;
    const std::int64_t id_base = static_cast<std::int64_t>(phase) * 1000000;
    const std::vector<RequestSpec> specs =
        make_requests(churn, hot, options.seed, phase, count);
    std::vector<std::string> lines;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      lines.push_back(render(specs[i],
                             std::to_string(id_base + static_cast<std::int64_t>(i)),
                             hot));
    }
    const std::size_t window = static_cast<std::size_t>(hc::serve::ServiceOptions{}.window);
    const Clock::time_point t0 = Clock::now();
    std::vector<std::string> replies;
    for (std::size_t at = 0; at < lines.size(); at += window) {
      const std::vector<std::string> chunk(
          lines.begin() + static_cast<std::ptrdiff_t>(at),
          lines.begin() + static_cast<std::ptrdiff_t>(std::min(lines.size(), at + window)));
      for (std::string& r : service.handle_window(chunk)) replies.push_back(std::move(r));
    }
    const double wall = seconds_between(t0, Clock::now());
    attempted += count;
    for (const std::string& r : replies) {
      if (!JsonValue::parse(r).at("ok").as_bool()) failed += 1;
    }
    failed += count - static_cast<std::int64_t>(replies.size());
    return wall;
  }

  /// Untimed traffic at the two fixed rates for kWarmupSeconds: latencies
  /// on this kind of host settle only after several seconds of load.
  void warm_up(Connection& conn) {
    const Clock::time_point start = Clock::now();
    while (seconds_between(start, Clock::now()) < kWarmupSeconds) {
      (void)phase_at(conn, prof.block, prof.high_qps);
      (void)phase_at(conn, prof.block, prof.low_qps);
    }
  }

  /// One probe of ladder step k.
  LadderStep probe(Connection& conn, int k) {
    const double rate = prof.ladder_base_qps * std::pow(kLadderRatio, k);
    auto [run, ev] = phase_at(conn, prof.probe, rate);
    LadderStep step;
    step.index = k;
    step.rate = rate;
    step.requests = prof.probe;
    step.failed = ev.failed;
    step.p99_ms = pct(ev.latency_ms, 99.0);
    step.backlog_mid = run.backlog_mid;
    step.backlog_end = run.backlog_end;
    step.achieved_qps =
        ratio(static_cast<double>(prof.probe - ev.failed), ev.wall_s);
    // A sender that could not keep the offered rate cannot claim it.
    step.generator_late = ev.lateness_p50_ms > kMaxGeneratorLatenessMs;
    notes.push_back("ladder step " + std::to_string(k) + ": offered " +
                    std::to_string(rate) + "/s, p99 " +
                    std::to_string(step.p99_ms) + " ms, backlog " +
                    std::to_string(step.backlog_mid) + "->" +
                    std::to_string(step.backlog_end) +
                    (step.generator_late ? ", generator late" : "") +
                    (step_passes(step) ? " pass" : " fail"));
    return step;
  }

  /// max_qps: a binary search over the fixed ladder, then a staircase
  /// around the boundary it found (see select_max_step); the median
  /// achieved rate of the chosen step's passing probes.
  double max_qps(Connection& conn) {
    const Clock::time_point start = Clock::now();
    std::vector<LadderStep> probes;
    const auto in_time = [&] {
      return seconds_between(start, Clock::now()) < kLadderSeconds;
    };
    while (const std::optional<int> k = next_ladder_probe(probes, kLadderSteps)) {
      if (!in_time()) break;
      probes.push_back(probe(conn, *k));
    }
    int k = std::min(select_max_step(probes).value_or(-1) + 1, kLadderSteps - 1);
    for (int i = 0; i < kStaircaseProbes && in_time(); ++i) {
      probes.push_back(probe(conn, k));
      k = staircase_next(probes.back(), kLadderSteps);
    }
    const std::optional<int> best = select_max_step(probes);
    if (!best) {
      notes.push_back("max_qps: no ladder step met the latency limit");
      return 0.0;
    }
    std::vector<double> achieved;
    for (const LadderStep& s : probes) {
      if (s.index == *best && step_passes(s)) achieved.push_back(s.achieved_qps);
    }
    return median(achieved);
  }

  /// One fixed-rate block.  A block whose generator fell behind is
  /// invalid: its latencies are discarded and it is run again.  When more
  /// blocks are discarded than one rate has blocks, the run is invalid.
  std::pair<PhaseRun, PhaseEval> block_at(Connection& conn, int count,
                                          double rate) {
    for (;;) {
      auto [run, ev] = phase_at(conn, count, rate);
      if (ev.lateness_p50_ms <= kMaxGeneratorLatenessMs) {
        return {std::move(run), std::move(ev)};
      }
      const std::string what = "generator fell behind at " +
                               std::to_string(rate) + "/s (median lateness " +
                               std::to_string(ev.lateness_p50_ms) + " ms)";
      if (++discarded > kMaxDiscarded) {
        throw std::runtime_error("invalid run: " + what);
      }
      notes.push_back("block discarded: " + what);
    }
  }
};

}  // namespace

Result run_serve(const RunOptions& options, bool churn) {
  Runner rn{options, churn, profile(churn), make_hot_set(options.seed), 0, 0, 0, 0, {}};
  Replayer replayer(rn.hot);
  Result result;
  LayerTotals oracle_totals;

  if (!options.trace) {
    // Set-up, repeated: Service construction, socket bind, hot-set priming.
    std::vector<double> setup_s;
    LiveService live;
    for (int i = 0; i < kSetups; ++i) {
      if (live.host) live.close();
      const Clock::time_point t = Clock::now();
      live = start_service(false, i, rn.hot);
      setup_s.push_back(seconds_between(t, Clock::now()));
    }
    Connection& conn = *live.conn;
    // Warm-up burst (untimed): fills the plan cache, so serve_churn misses,
    // inserts and evicts on every request from here on.
    (void)rn.phase_at(conn, rn.prof.warmup, 0.0);
    rn.warm_up(conn);

    // The bursts' service, primed and warmed (untimed) like the socket one.
    hc::serve::ServiceOptions batch_options = service_options(false);
    batch_options.jobs = kBurstJobs;
    hc::serve::Service batch(batch_options);
    for (const std::string& line : prime_lines(rn.hot)) {
      take_ref(JsonValue::parse(batch.handle_line(line)), rn.hot);
    }
    (void)rn.burst(batch, rn.prof.warmup);

    // Rounds of a low and a high block, each followed by bursts: the rates
    // interleave so drift on the host touches both alike, and the bursts
    // sample the whole run rather than one stretch of it.  sweep_s is the
    // median burst and cpu_s the mean CPU seconds of a round's two blocks,
    // so both draw on all of the run.  p50 is the lower quartile over blocks
    // of each block's median; the tail pools every block of the rate.
    std::vector<double> low_p50, high_p50, low_all, high_all, burst_s;
    std::vector<std::pair<PhaseRun, PhaseEval>> blocks;
    double block_cpu_s = 0.0;
    const int rounds = std::max(
        kMinRounds, static_cast<int>(std::lround(options.seconds / rn.prof.round_s)));
    for (int r = 0; r < rounds; ++r) {
      for (const bool high : {false, true}) {
        const double cpu0 = process_cpu_seconds();
        auto block = rn.block_at(conn, rn.prof.block,
                                 high ? rn.prof.high_qps : rn.prof.low_qps);
        const std::vector<double>& lat = block.second.latency_ms;
        (high ? high_p50 : low_p50).push_back(tail_summary(lat).p50);
        std::vector<double>& all = high ? high_all : low_all;
        all.insert(all.end(), lat.begin(), lat.end());
        blocks.push_back(std::move(block));
        block_cpu_s += process_cpu_seconds() - cpu0;
        for (int i = 0; i < kBurstsPerBlock; ++i) {
          burst_s.push_back(rn.burst(batch, rn.prof.burst));
        }
      }
    }
    const double max_qps = rn.max_qps(conn);

    for (const auto& [run, ev] : blocks) {
      rn.oracle(replayer, run, ev, kOracleEvery, nullptr, oracle_totals);
    }
    live.close();

    const Tail lo = tail_summary(low_all);
    const Tail hi = tail_summary(high_all);
    rn.notes.push_back(
        "fixed rates: " + std::to_string(rounds) + " rounds; " +
        std::to_string(burst_s.size()) + " bursts of " +
        std::to_string(rn.prof.burst) + " requests; blocks of " +
        std::to_string(rn.prof.block) + " requests at " +
        std::to_string(rn.prof.low_qps) + "/s (low) and at " +
        std::to_string(rn.prof.high_qps) + "/s (high); pooled n=" +
        std::to_string(lo.count) + " per rate, " +
        percentile_name(lo.tail_pct) + " with " + std::to_string(lo.beyond) +
        " beyond");
    {
      std::vector<double> b = burst_s;
      std::sort(b.begin(), b.end());
      rn.notes.push_back("burst seconds: min " + std::to_string(b.front()) +
                         ", p25 " + std::to_string(percentile_sorted(b, 25.0)) +
                         ", p50 " + std::to_string(percentile_sorted(b, 50.0)) +
                         ", p75 " + std::to_string(percentile_sorted(b, 75.0)) +
                         ", max " + std::to_string(b.back()));
    }
    result.add("setup_s", median(setup_s), "s");
    result.add("sweep_s", median(burst_s), "s");
    result.add("cpu_s", block_cpu_s / rounds, "s");
    result.add_info("max_qps", max_qps, "1/s");
    result.add_info("p50_ms_low", quiet(low_p50), "ms");
    result.add_info("p50_ms_high", quiet(high_p50), "ms");
    result.add_info(percentile_name(lo.tail_pct) + "_ms_low", lo.tail, "ms");
    result.add_info(percentile_name(hi.tail_pct) + "_ms_high", hi.tail, "ms");
    result.add("peak_rss_mb", peak_rss_mb(), "MiB");
  } else {
    // Traced run: kTracedBlocks high-rate blocks against an untraced
    // service, then as many against a traced one; the difference between
    // their quiet p50s is the tracing overhead.
    std::vector<double> untraced_p50;
    {
      LiveService plain = start_service(false, 0, rn.hot);
      (void)rn.phase_at(*plain.conn, rn.prof.warmup, 0.0);
      rn.warm_up(*plain.conn);
      for (int b = 0; b < kTracedBlocks; ++b) {
        auto [run, ev] = rn.block_at(*plain.conn, kTracedRequests, rn.prof.high_qps);
        untraced_p50.push_back(tail_summary(ev.latency_ms).p50);
      }
      plain.close();
    }
    LiveService traced = start_service(true, 1, rn.hot);
    (void)rn.phase_at(*traced.conn, rn.prof.warmup, 0.0);
    rn.warm_up(*traced.conn);
    const Stats s0 = read_stats(*traced.conn);
    const Clock::time_point t0 = Clock::now();
    std::vector<std::pair<PhaseRun, PhaseEval>> blocks;
    std::vector<double> traced_p50;
    for (int b = 0; b < kTracedBlocks; ++b) {
      blocks.push_back(rn.block_at(*traced.conn, kTracedRequests, rn.prof.high_qps));
      traced_p50.push_back(tail_summary(blocks.back().second.latency_ms).p50);
    }
    const double traced_wall = seconds_between(t0, Clock::now());
    const Stats s1 = read_stats(*traced.conn);
    traced.close();
    const JsonValue service_trace = traced.host->service().trace_json();

    SpanLog log;
    LayerTotals layers;
    PhaseEval ev;  // every traced block's answers, for the reply timings
    double lateness_p99 = 0.0;
    for (const auto& [run, block] : blocks) {
      rn.oracle(replayer, run, block, 1, &log, layers);
      ev.answers.insert(ev.answers.end(), block.answers.begin(), block.answers.end());
      lateness_p99 = std::max(lateness_p99, block.lateness_p99_ms);
    }
    const std::map<std::string, double> self = self_times(log.spans());
    const auto get = [&](const char* name) {
      auto it = self.find(name);
      return it == self.end() ? 0.0 : it->second;
    };
    // The service's own spans: self time of its parse stage (JSON parse,
    // pattern registration and, when asked, the model ranking).
    std::vector<Span> svc;
    for (const JsonValue& sp : service_trace.at("spans").items()) {
      Span s;
      s.trace = static_cast<std::uint64_t>(sp.at("trace").as_int());
      s.id = static_cast<std::uint32_t>(sp.at("span").as_int());
      s.parent = static_cast<std::uint32_t>(sp.at("parent").as_int());
      s.name = sp.at("name").as_string();
      s.t0 = sp.at("t_start").as_double();
      s.t1 = sp.at("t_end").as_double();
      svc.push_back(std::move(s));
    }
    std::vector<double> parse_ms;
    for (const Span& s : svc) {
      if (s.name == "parse") parse_ms.push_back((s.t1 - s.t0) * 1e3);
    }

    const double execute_s = get("core.executor.measure");
    const std::vector<double> queue = collect(ev, &Answer::queue_ms);
    result.add("core.models.rank_s", get("core.advisor.rank"), "s");
    result.add("core.strategy.build_s", get("core.strategy.build_plan"), "s");
    result.add("core.strategy.plan_ops", static_cast<double>(layers.plan_ops), "count");
    result.add("core.compiled_plan.compile_s", get("core.compiled_plan.compile"), "s");
    result.add("core.compiled_plan.messages", static_cast<double>(layers.messages), "count");
    result.add("core.executor.execute_s", execute_s, "s");
    result.add("core.executor.reps", static_cast<double>(layers.reps), "count");
    result.add("core.executor.us_per_rep",
               ratio(execute_s * 1e6, static_cast<double>(layers.reps)), "us");
    result.add("hetsim.ns_per_sim_message",
               ratio(execute_s * 1e9, static_cast<double>(layers.sim_messages)), "ns");
    result.add("runtime.plan_cache.request_hit_rate",
               ratio(s1.request_hits - s0.request_hits, s1.measured - s0.measured), "ratio");
    result.add("runtime.plan_cache.misses", s1.misses - s0.misses, "count");
    result.add("runtime.plan_cache.evictions", s1.evictions - s0.evictions, "count");
    result.add("runtime.pool.busy_ratio",
               ratio(s1.busy_s - s0.busy_s, kJobs * traced_wall), "ratio");
    result.add("serve.queue_wait_ms_p50", pct(queue, 50), "ms");
    result.add("serve.queue_wait_ms_p99", pct(queue, 99), "ms");
    result.add("serve.compile_ms_p50", median(collect(ev, &Answer::compile_ms)), "ms");
    result.add("serve.execute_ms_p50", median(collect(ev, &Answer::execute_ms)), "ms");
    result.add("serve.unattributed_ms_p50",
               median(collect(ev, &Answer::unattributed_ms)), "ms");
    result.add("serve.parse_ms_p50", median(parse_ms), "ms");
    result.add("serve.wire_ms_p50", median(collect(ev, &Answer::wire_ms)), "ms");
    result.add("serve.requests_per_window", ratio(s1.total - s0.total, s1.windows - s0.windows), "count");
    result.add("serve.lanes_per_block", ratio(s1.lanes - s0.lanes, s1.blocks - s0.blocks), "count");
    result.add("serve.shed", s1.shed - s0.shed, "count");
    result.add("serve.deadline_exceeded", s1.deadline - s0.deadline, "count");
    result.add("serve.errors", s1.errors - s0.errors, "count");
    result.add("generator.lateness_ms_p99", lateness_p99, "ms");
    result.add("trace.overhead_ratio",
               ratio(quiet(traced_p50), quiet(untraced_p50)) - 1.0, "ratio");
    if (!options.trace_out.empty()) log.write_json(options.trace_out);
  }
  result.attempted = rn.attempted;
  result.failed = rn.failed;
  result.correct = rn.failed == 0;
  result.notes.insert(result.notes.end(), rn.notes.begin(), rn.notes.end());
  return result;
}

}  // namespace perfbench
