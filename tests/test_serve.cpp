#include "serve/service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/advisor.hpp"
#include "core/comm_pattern.hpp"
#include "core/executor.hpp"
#include "core/pattern_io.hpp"
#include "core/plan.hpp"
#include "core/strategy.hpp"
#include "fault/fault_json.hpp"
#include "hetsim/faults.hpp"
#include "machine/machine_json.hpp"
#include "obs/json.hpp"

#ifdef __unix__
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

namespace hetcomm::serve {
namespace {

using obs::JsonValue;

JsonValue parse(const std::string& line) { return JsonValue::parse(line); }

std::string hash_hex(std::uint64_t h) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(h));
  return std::string(buf);
}

/// Inline 8-GPU request body shared by most tests (lassen preset, 2 nodes).
std::string pattern_body() {
  return R"("pattern": {"gpus": 8, "msgs": [[0, 4, 8192], [1, 5, 4096], )"
         R"([2, 6, 4096], [3, 7, 16384], [4, 0, 8192]]})";
}

core::CommPattern reference_pattern() {
  core::CommPattern p(8);
  p.add(0, 4, 8192);
  p.add(1, 5, 4096);
  p.add(2, 6, 4096);
  p.add(3, 7, 16384);
  p.add(4, 0, 8192);
  return p;
}

TEST(ServeTest, PredictOnlyMatchesAdvisorRank) {
  Service service;
  const JsonValue doc = parse(service.handle_line(
      R"({"id": 1, "machine": "lassen", "nodes": 2, )" + pattern_body() +
      R"(, "reps": 0})"));
  ASSERT_TRUE(doc.at("ok").as_bool());
  EXPECT_EQ(doc.at("id").as_int(), 1);
  EXPECT_FALSE(doc.contains("measured"));

  const machine::MachineModel model = machine::resolve_machine("lassen");
  const Topology topo = model.topology(2);
  const core::Advisor advisor(topo, model.params);
  const std::vector<core::Recommendation> expect =
      advisor.rank(reference_pattern(), {});
  const JsonValue& ranking = doc.at("ranking");
  ASSERT_EQ(ranking.size(), expect.size());
  for (std::size_t i = 0; i < expect.size(); ++i) {
    const JsonValue& row = ranking.at(i);
    EXPECT_EQ(row.at("strategy").as_string(), expect[i].config.name());
    EXPECT_DOUBLE_EQ(row.at("predicted_seconds").as_double(),
                     expect[i].predicted_seconds);
  }
  EXPECT_EQ(doc.at("recommended").as_string(), expect.front().config.name());
}

/// One-shot core::measure of `strategy` on the reference pattern (lassen,
/// 2 nodes) -- the oracle every measured serve reply must match bit for
/// bit.  A FaultAbort from the run is returned instead of a result.
struct OneShot {
  core::MeasureResult result;
  std::optional<FaultAbort> abort;
};

OneShot one_shot_measure(const std::string& strategy, int reps,
                         std::uint64_t seed,
                         const std::string& faults_path = "") {
  const machine::MachineModel model = machine::resolve_machine("lassen");
  const Topology topo = model.topology(2);
  const core::CommPlan plan =
      core::build_plan(reference_pattern(), topo, model.params,
                       core::parse_strategy(strategy));
  std::optional<FaultModel> faults;
  if (!faults_path.empty()) {
    faults.emplace(
        fault::load_fault_file(faults_path).compile(topo, model.params));
  }
  core::MeasureOptions mopts;
  mopts.reps = reps;
  mopts.seed = seed;
  mopts.faults = faults ? &*faults : nullptr;
  OneShot out;
  try {
    out.result = core::measure(plan, topo, model.params, mopts);
  } catch (const FaultAbort& abort) {
    out.abort = abort;
  }
  return out;
}

TEST(ServeTest, MeasuredIsBitIdenticalToOneShotMeasure) {
  const std::string flaky =
      std::string(HETCOMM_TEST_DATA_DIR) + "/flaky_abort.json";
  struct Case {
    std::string strategy;
    int reps;
    std::uint64_t seed;
    std::string faults;
  };
  // Each plan is shared by two requests, one standard (staged) request is
  // faulted, and its repetitions abort at different messages -- so the
  // reply must carry the lowest aborting repetition's abort, as measure()
  // does, whichever worker finishes first.
  const std::vector<Case> cases = {{"split+MD", 6, 99, ""},
                                   {"standard (staged)", 6, 7, flaky},
                                   {"split+MD", 5, 7, ""},
                                   {"standard (staged)", 4, 12, ""}};
  std::string input;
  std::vector<OneShot> expect;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Case& c = cases[i];
    input += R"({"id": )" + std::to_string(i) +
             R"(, "machine": "lassen", "nodes": 2, )" + pattern_body() +
             R"(, "strategy": ")" + c.strategy + R"(", "reps": )" +
             std::to_string(c.reps) + R"(, "seed": )" +
             std::to_string(c.seed) +
             (c.faults.empty() ? "" : R"(, "faults": ")" + c.faults + "\"") +
             "}\n";
    expect.push_back(one_shot_measure(c.strategy, c.reps, c.seed, c.faults));
  }
  ASSERT_TRUE(expect[1].abort) << "flaky-abort must abort the one-shot run";

  // Identical answers at every service geometry: the jobs / window knobs
  // must never leak into the numbers.
  for (const int jobs : {1, 2, 4}) {
    for (const int window : {1, 64}) {
      const std::string label =
          "jobs=" + std::to_string(jobs) + " window=" + std::to_string(window);
      ServiceOptions options;
      options.jobs = jobs;
      options.window = window;
      Service service(options);
      std::istringstream in(input);
      std::ostringstream out;
      service.run(in, out);
      std::istringstream replies(out.str());
      std::string line;
      std::size_t answered = 0;
      while (std::getline(replies, line)) {
        const JsonValue doc = parse(line);
        const std::size_t i = static_cast<std::size_t>(doc.at("id").as_int());
        ASSERT_LT(i, cases.size()) << label;
        ++answered;
        if (expect[i].abort) {
          ASSERT_FALSE(doc.at("ok").as_bool()) << label << " id " << i;
          EXPECT_EQ(doc.at("error_code").as_string(), "fault_abort") << label;
          const JsonValue& fault = doc.at("fault");
          EXPECT_EQ(fault.at("src").as_int(), expect[i].abort->src) << label;
          EXPECT_EQ(fault.at("dst").as_int(), expect[i].abort->dst) << label;
          EXPECT_EQ(fault.at("path").as_string(), expect[i].abort->path)
              << label;
          EXPECT_EQ(fault.at("attempts").as_int(), expect[i].abort->attempts)
              << label;
          continue;
        }
        ASSERT_TRUE(doc.at("ok").as_bool()) << label << " id " << i;
        const JsonValue& measured = doc.at("measured");
        const core::MeasureResult& want = expect[i].result;
        EXPECT_EQ(measured.at("max_avg").as_double(), want.max_avg)
            << label << " id " << i;
        EXPECT_EQ(measured.at("makespan").at("min").as_double(),
                  want.makespan_min)
            << label << " id " << i;
        EXPECT_EQ(measured.at("makespan").at("max").as_double(),
                  want.makespan_max)
            << label << " id " << i;
        EXPECT_EQ(measured.at("strategy").as_string(), cases[i].strategy);
        EXPECT_EQ(measured.at("reps").as_int(), cases[i].reps);
      }
      EXPECT_EQ(answered, cases.size()) << label;
    }
  }
}

TEST(ServeTest, WindowedDuplicatesShareOneCompile) {
  Service service;
  const std::string request =
      R"({"machine": "lassen", "nodes": 2, )" + pattern_body() +
      R"(, "strategy": "split+MD", "reps": 4, "seed": 7})";
  const std::vector<std::string> replies =
      service.handle_window({request, request, request});
  ASSERT_EQ(replies.size(), 3u);
  const JsonValue first = parse(replies[0]);
  ASSERT_TRUE(first.at("ok").as_bool());
  const double max_avg = first.at("measured").at("max_avg").as_double();
  int hits = 0;
  for (const std::string& line : replies) {
    const JsonValue doc = parse(line);
    ASSERT_TRUE(doc.at("ok").as_bool());
    // Same query, same answer -- shared repetitions do not perturb results.
    EXPECT_DOUBLE_EQ(doc.at("measured").at("max_avg").as_double(), max_avg);
    if (doc.at("cache").as_string() == "hit") ++hits;
  }
  EXPECT_EQ(hits, 2);  // one compile, two within-window adoptions

  const JsonValue metrics = service.metrics_json();
  EXPECT_EQ(metrics.at("schema").as_string(), "hetcomm.metrics.v1");
  const JsonValue& serve = metrics.at("serve");
  EXPECT_EQ(serve.at("requests").at("measured").as_int(), 3);
  EXPECT_EQ(serve.at("batching").at("windows").as_int(), 1);
}

TEST(ServeTest, PatternRefRoundTripsAndHitsTheCache) {
  Service service;
  const JsonValue first = parse(service.handle_line(
      R"({"machine": "lassen", "nodes": 2, )" + pattern_body() +
      R"(, "strategy": "split+MD", "reps": 3, "seed": 5})"));
  ASSERT_TRUE(first.at("ok").as_bool());
  const std::string ref = first.at("pattern_hash").as_string();
  EXPECT_EQ(ref, hash_hex(core::pattern_hash(reference_pattern())));

  const JsonValue second = parse(service.handle_line(
      R"({"machine": "lassen", "nodes": 2, "pattern": {"ref": ")" + ref +
      R"("}, "strategy": "split+MD", "reps": 3, "seed": 5})"));
  ASSERT_TRUE(second.at("ok").as_bool());
  EXPECT_EQ(second.at("cache").as_string(), "hit");
  EXPECT_DOUBLE_EQ(second.at("measured").at("max_avg").as_double(),
                   first.at("measured").at("max_avg").as_double());
}

TEST(ServeTest, ErrorsAreResponsesNotCrashes) {
  Service service;
  const struct {
    const char* line;
    const char* why;
  } cases[] = {
      {"not json at all", "parse error"},
      {R"({"machine": "lassen", "nodes": 2, "reps": 1})", "missing pattern"},
      {R"({"machine": "lassen", "nodes": 2, "bogus": 1})", "unknown key"},
      {R"({"machine": "lassen", "nodes": 2, "pattern": {"ref": "BOGUS"}})",
       "bad ref"},
      {R"({"machine": "lassen", "nodes": 0, "pattern": {"ref": "0x1"}})",
       "bad nodes"},
  };
  for (const auto& c : cases) {
    const JsonValue doc = parse(service.handle_line(c.line));
    EXPECT_FALSE(doc.at("ok").as_bool()) << c.why;
    EXPECT_FALSE(doc.at("error").as_string().empty()) << c.why;
  }
  EXPECT_FALSE(service.shutdown_requested());
  // The service still answers after every malformed line.
  const JsonValue ok = parse(service.handle_line(
      R"({"machine": "lassen", "nodes": 2, )" + pattern_body() +
      R"(, "reps": 0})"));
  EXPECT_TRUE(ok.at("ok").as_bool());
}

TEST(ServeTest, StatsAndShutdownControlLines) {
  Service service;
  const JsonValue stats =
      parse(service.handle_line(R"({"id": 3, "cmd": "stats"})"));
  ASSERT_TRUE(stats.at("ok").as_bool());
  EXPECT_EQ(stats.at("stats").at("schema").as_string(), "hetcomm.metrics.v1");
  EXPECT_FALSE(service.shutdown_requested());

  const JsonValue bye = parse(service.handle_line(R"({"cmd": "shutdown"})"));
  EXPECT_TRUE(bye.at("ok").as_bool());
  EXPECT_TRUE(bye.at("shutdown").as_bool());
  EXPECT_TRUE(service.shutdown_requested());
}

// ---------------------------------------------------------------------
// Resilience contract (docs/serve.md "Resilience").
// ---------------------------------------------------------------------

TEST(ServeTest, ShutdownDrainAnswersEverythingQueued) {
  // run() must never swallow requests buffered behind a shutdown: the
  // shutdown's window answers normally, the rest drain with structured
  // shutting_down errors.
  ServiceOptions options;
  options.window = 2;
  Service service(options);
  const std::string r =
      R"({"machine": "lassen", "nodes": 2, )" + pattern_body() +
      R"(, "reps": 0})";
  std::istringstream in(r + "\n" + R"({"cmd": "shutdown"})" + "\n" + r + "\n" +
                        r + "\n");
  std::ostringstream out;
  service.run(in, out);
  EXPECT_TRUE(service.shutdown_requested());

  std::vector<JsonValue> replies;
  std::istringstream lines(out.str());
  for (std::string line; std::getline(lines, line);) {
    if (!line.empty()) replies.push_back(parse(line));
  }
  ASSERT_EQ(replies.size(), 4u);  // one reply per input line, none lost
  EXPECT_TRUE(replies[0].at("ok").as_bool());
  EXPECT_TRUE(replies[1].at("shutdown").as_bool());
  for (std::size_t i = 2; i < replies.size(); ++i) {
    EXPECT_FALSE(replies[i].at("ok").as_bool());
    EXPECT_EQ(replies[i].at("error_code").as_string(), "shutting_down");
    EXPECT_GE(replies[i].at("retry_after_ms").as_int(), 1);
  }
}

TEST(ServeTest, OverloadShedsWithRetryHintAndSparesControlLines) {
  ServiceOptions options;
  options.max_queue = 1;
  Service service(options);
  const std::string r =
      R"({"machine": "lassen", "nodes": 2, )" + pattern_body() +
      R"(, "strategy": "split+MD", "reps": 2, "seed": 1})";
  const std::vector<std::string> replies =
      service.handle_window({r, r, r, R"({"id": "s", "cmd": "stats"})"});
  ASSERT_EQ(replies.size(), 4u);
  EXPECT_TRUE(parse(replies[0]).at("ok").as_bool());
  for (int i = 1; i < 3; ++i) {
    const JsonValue doc = parse(replies[i]);
    EXPECT_FALSE(doc.at("ok").as_bool());
    EXPECT_EQ(doc.at("error_code").as_string(), "overloaded");
    const std::int64_t hint = doc.at("retry_after_ms").as_int();
    EXPECT_GE(hint, 1);
    EXPECT_LE(hint, 60000);
  }
  // Control lines are never shed -- stats stays reachable under storm.
  const JsonValue stats = parse(replies[3]);
  ASSERT_TRUE(stats.at("ok").as_bool());
  const JsonValue& resil = stats.at("stats").at("serve").at("resilience");
  EXPECT_EQ(resil.at("shed_overloaded").as_int(), 2);
  EXPECT_EQ(resil.at("shed_policy").as_string(), "reject");
}

TEST(ServeTest, DegradePolicyAnswersFromTheModelLayer) {
  ServiceOptions options;
  options.max_queue = 1;
  options.shed_policy = ShedPolicy::Degrade;
  Service service(options);
  const std::string r =
      R"({"machine": "lassen", "nodes": 2, )" + pattern_body() +
      R"(, "reps": 3, "seed": 4})";
  const std::vector<std::string> replies = service.handle_window({r, r});
  ASSERT_EQ(replies.size(), 2u);
  const JsonValue full = parse(replies[0]);
  ASSERT_TRUE(full.at("ok").as_bool());
  EXPECT_TRUE(full.contains("measured"));
  EXPECT_FALSE(full.contains("degraded"));

  const JsonValue shed = parse(replies[1]);
  ASSERT_TRUE(shed.at("ok").as_bool());
  EXPECT_TRUE(shed.at("degraded").as_bool());
  EXPECT_FALSE(shed.contains("measured"));  // no engine lanes ran
  const double confidence = shed.at("confidence").as_double();
  EXPECT_GE(confidence, 0.0);
  EXPECT_LE(confidence, 1.0);
  // Degradation costs measurement detail, never a different answer.
  EXPECT_EQ(shed.at("recommended").as_string(),
            full.at("recommended").as_string());

  const JsonValue metrics = service.metrics_json();
  EXPECT_EQ(metrics.at("serve").at("requests").at("degraded").as_int(), 1);
}

TEST(ServeTest, DeadlineZeroExpiresWithPartialRanking) {
  Service service;
  const JsonValue doc = parse(service.handle_line(
      R"({"machine": "lassen", "nodes": 2, )" + pattern_body() +
      R"(, "reps": 5, "deadline_ms": 0})"));
  EXPECT_FALSE(doc.at("ok").as_bool());
  EXPECT_EQ(doc.at("error_code").as_string(), "deadline_exceeded");
  EXPECT_GE(doc.at("retry_after_ms").as_int(), 1);
  // The ranking was computed before the deadline fired; it rides along.
  const machine::MachineModel model = machine::resolve_machine("lassen");
  const core::Advisor advisor(model.topology(2), model.params);
  const std::vector<core::Recommendation> expect =
      advisor.rank(reference_pattern(), {});
  const JsonValue& partial = doc.at("partial");
  EXPECT_EQ(partial.at("recommended").as_string(),
            expect.front().config.name());
  ASSERT_EQ(partial.at("ranking").size(), expect.size());

  const JsonValue metrics = service.metrics_json();
  const JsonValue& resil = metrics.at("serve").at("resilience");
  EXPECT_EQ(resil.at("deadline_exceeded").as_int(), 1);
  EXPECT_EQ(resil.at("deadline_partials").as_int(), 1);

  // An expired request sharing its plan with live ones in the same window
  // never disturbs their repetitions -- including a live request whose own
  // (distant) deadline puts every repetition through the cancellation
  // check.
  const std::string body = R"({"machine": "lassen", "nodes": 2, )" +
                           pattern_body() +
                           R"(, "strategy": "split+MD", "reps": 5, "seed": 9)";
  ServiceOptions options;
  options.jobs = 2;
  Service windowed(options);
  const std::vector<std::string> replies = windowed.handle_window(
      {body + R"(, "deadline_ms": 0})", body + "}",
       body + R"(, "deadline_ms": 600000})"});
  ASSERT_EQ(replies.size(), 3u);
  EXPECT_EQ(parse(replies[0]).at("error_code").as_string(),
            "deadline_exceeded");
  const OneShot want = one_shot_measure("split+MD", 5, 9);
  for (const std::size_t i : {std::size_t{1}, std::size_t{2}}) {
    const JsonValue good = parse(replies[i]);
    ASSERT_TRUE(good.at("ok").as_bool()) << "reply " << i;
    EXPECT_EQ(good.at("measured").at("max_avg").as_double(),
              want.result.max_avg)
        << "reply " << i;
  }
}

TEST(ServeTest, FaultAbortIsStructuredAndSparesWindowSiblings) {
  const std::string faults_path =
      std::string(HETCOMM_TEST_DATA_DIR) + "/flaky_abort.json";
  const std::string sibling =
      R"({"machine": "lassen", "nodes": 2, )" + pattern_body() +
      R"(, "strategy": "split+MD", "reps": 3, "seed": 9})";
  const std::string faulted =
      R"({"machine": "lassen", "nodes": 2, )" + pattern_body() +
      R"(, "strategy": "split+MD", "reps": 3, "seed": 9, "faults": ")" +
      faults_path + R"("})";

  Service service;
  const std::vector<std::string> replies =
      service.handle_window({faulted, sibling});
  ASSERT_EQ(replies.size(), 2u);

  const JsonValue bad = parse(replies[0]);
  EXPECT_FALSE(bad.at("ok").as_bool());
  EXPECT_EQ(bad.at("error_code").as_string(), "fault_abort");
  const JsonValue& fault = bad.at("fault");
  EXPECT_EQ(fault.at("strategy").as_string(), "split+MD");
  EXPECT_FALSE(fault.at("reason").as_string().empty());
  EXPECT_FALSE(fault.at("path").as_string().empty());
  EXPECT_GE(fault.at("src").as_int(), 0);
  EXPECT_GE(fault.at("dst").as_int(), 0);
  // flaky-abort retries max_attempts=2 at loss probability 1.
  EXPECT_EQ(fault.at("attempts").as_int(), 2);

  // The sibling lane in the same window is untouched: its numbers match a
  // one-shot service that never saw the fault.
  const JsonValue good = parse(replies[1]);
  ASSERT_TRUE(good.at("ok").as_bool());
  Service oneshot;
  const JsonValue expect = parse(oneshot.handle_line(sibling));
  ASSERT_TRUE(expect.at("ok").as_bool());
  EXPECT_EQ(good.at("measured").at("max_avg").as_double(),
            expect.at("measured").at("max_avg").as_double());

  const JsonValue metrics = service.metrics_json();
  const JsonValue& serve = metrics.at("serve");
  EXPECT_EQ(serve.at("resilience").at("fault_aborts").as_int(), 1);
  EXPECT_EQ(
      serve.at("requests").at("errors_by_code").at("fault_abort").as_int(), 1);
}

TEST(ServeTest, StatsCountersBalanceAfterMixedTraffic) {
  ServiceOptions options;
  options.max_queue = 2;
  Service service(options);
  const std::string r =
      R"({"machine": "lassen", "nodes": 2, )" + pattern_body() +
      R"(, "strategy": "split+MD", "reps": 2, "seed": 3})";
  (void)service.handle_window({r, r, r, r, "not json", R"({"cmd": "stats"})"});
  (void)service.handle_line(
      R"({"machine": "lassen", "nodes": 2, )" + pattern_body() +
      R"(, "reps": 0})");

  const JsonValue metrics = service.metrics_json();
  const JsonValue& requests = metrics.at("serve").at("requests");
  std::int64_t sum = 0;
  for (const char* bucket :
       {"control", "errors", "degraded", "predict_only", "measured"}) {
    sum += requests.at(bucket).as_int();
  }
  EXPECT_EQ(sum, requests.at("total").as_int());
  std::int64_t code_sum = 0;
  for (const auto& member : requests.at("errors_by_code").members()) {
    code_sum += member.second.as_int();
  }
  EXPECT_EQ(code_sum, requests.at("errors").as_int());
}

TEST(ServeTest, ZeroCapacityCacheCompilesEveryQuery) {
  ServiceOptions options;
  options.cache_capacity = 0;
  Service service(options);
  const std::string request =
      R"({"machine": "lassen", "nodes": 2, )" + pattern_body() +
      R"(, "strategy": "split+MD", "reps": 2, "seed": 1})";
  const JsonValue a = parse(service.handle_line(request));
  const JsonValue b = parse(service.handle_line(request));
  ASSERT_TRUE(a.at("ok").as_bool());
  ASSERT_TRUE(b.at("ok").as_bool());
  EXPECT_EQ(a.at("cache").as_string(), "miss");
  EXPECT_EQ(b.at("cache").as_string(), "miss");
  EXPECT_DOUBLE_EQ(a.at("measured").at("max_avg").as_double(),
                   b.at("measured").at("max_avg").as_double());
}

/// Replies split into lines, one parsed document each.
std::vector<JsonValue> reply_docs(const std::vector<std::string>& lines) {
  std::vector<JsonValue> docs;
  for (const std::string& line : lines) docs.push_back(parse(line));
  return docs;
}

std::vector<JsonValue> run_session(const ServiceOptions& options,
                                   const std::string& session) {
  Service service(options);
  std::istringstream in(session);
  std::ostringstream out;
  service.run(in, out);
  std::vector<std::string> lines;
  std::istringstream replies(out.str());
  for (std::string line; std::getline(replies, line);) lines.push_back(line);
  return reply_docs(lines);
}

/// A reply without the top-level keys that depend on wall time, queue
/// state or cache warmth (the volatile set serve/chaos.cpp strips).
std::string stable(const JsonValue& reply) {
  JsonValue strip = JsonValue::object();
  for (const auto& [key, value] : reply.members()) {
    if (key != "latency_seconds" && key != "timing" && key != "cache" &&
        key != "compile_seconds" && key != "retry_after_ms") {
      strip.set(key, value);
    }
  }
  return strip.dump_string(0);
}

std::string request_counts(const JsonValue& stats_reply) {
  return stats_reply.at("stats").at("serve").at("requests").dump_string(0);
}

#ifdef __unix__

/// Send `session` to a run_socket server in one write and read every reply
/// line until the server closes the connection.
std::vector<JsonValue> socket_session(const ServiceOptions& options,
                                      const std::string& session) {
  Service service(options);
  const std::string path = ::testing::TempDir() + "hetcomm_serve_session_" +
                           std::to_string(::getpid()) + ".sock";
  std::string server_error;
  std::thread server([&] {
    try {
      service.run_socket(path);
    } catch (const std::exception& e) {
      server_error = e.what();
    }
  });
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::copy(path.begin(), path.end(), addr.sun_path);
  int fd = -1;
  for (int attempt = 0; attempt < 400 && fd < 0; ++attempt) {
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(fd);
      fd = -1;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  std::string received;
  if (fd >= 0) {
    EXPECT_EQ(::write(fd, session.data(), session.size()),
              static_cast<ssize_t>(session.size()));
    char chunk[4096];
    for (ssize_t n; (n = ::read(fd, chunk, sizeof chunk)) > 0;) {
      received.append(chunk, static_cast<std::size_t>(n));
    }
    ::close(fd);
  } else {
    ADD_FAILURE() << "cannot connect to " << path << ": " << server_error;
  }
  server.join();
  std::vector<std::string> lines;
  std::istringstream replies(received);
  for (std::string line; std::getline(replies, line);) lines.push_back(line);
  return reply_docs(lines);
}

#endif

TEST(ServeTest, ScriptedSessionMatchesAcrossTransports) {
  // One session through run(), run_socket() and handle_window: the three
  // entry points share one admission / window / drain path, so their
  // replies agree line for line.  The session stays under one 4 KiB socket
  // read, so the socket server forms the same windows as run().
  ServiceOptions options;
  options.window = 2;
  options.max_line_bytes = 512;
  const std::string measured_a =
      R"("machine": "lassen", "nodes": 2, )" + pattern_body() +
      R"(, "strategy": "split+MD", "reps": 2)";
  const std::vector<std::string> lines = {
      "{\"id\": 0, " + measured_a + R"(, "seed": 3})",
      "this is not json",
      R"({"id": 2, "machine": "lassen", "nodes": 2, )" + pattern_body() +
          R"(, "reps": 0})",
      std::string(600, 'x'),  // over max_line_bytes
      R"({"id": 4, "cmd": "stats"})",
      R"({"id": 5, "machine": "lassen", "nodes": 2, )" + pattern_body() +
          R"x(, "strategy": "standard (staged)", "reps": 3, "seed": 9})x",
      "{\"id\": 6, " + measured_a + R"(, "seed": 4})",
      R"({"id": 7, "cmd": "shutdown"})",  // closes the 4th window of 2
      "{\"id\": 8, " + measured_a + R"(, "seed": 5})",
      R"({"id": 9, "machine": "lassen", "nodes": 2, )" + pattern_body() +
          R"(, "reps": 0})",
  };
  const std::size_t oversized = 3;
  const std::size_t stats = 4;
  const std::size_t shutdown = 7;
  std::string session;
  for (const std::string& line : lines) session += line + "\n";
  ASSERT_LT(session.size(), 4096u);

  const std::vector<JsonValue> via_run = run_session(options, session);
  ASSERT_EQ(via_run.size(), lines.size());
  EXPECT_EQ(via_run[oversized].at("error_code").as_string(), "bad_request");
  EXPECT_TRUE(via_run[shutdown].at("shutdown").as_bool());
  EXPECT_EQ(via_run[stats].at("stats").at("serve").at("requests")
                .at("total").as_int(),
            5);

  const auto expect_same = [&](const std::vector<JsonValue>& got,
                               std::size_t count, const char* label) {
    ASSERT_GE(got.size(), count) << label;
    for (std::size_t i = 0; i < count; ++i) {
      if (i == stats) {
        EXPECT_EQ(request_counts(got[i]), request_counts(via_run[i]))
            << label << " line " << i;
      } else if (i == oversized) {
        EXPECT_EQ(got[i].at("error_code").as_string(),
                  via_run[i].at("error_code").as_string())
            << label;
      } else if (i > shutdown) {
        EXPECT_EQ(got[i].at("error_code").as_string(), "shutting_down")
            << label << " line " << i;
        EXPECT_EQ(via_run[i].at("error_code").as_string(), "shutting_down")
            << label << " line " << i;
      } else {
        EXPECT_EQ(stable(got[i]), stable(via_run[i]))
            << label << " line " << i;
      }
    }
  };

  Service direct(options);
  expect_same(reply_docs(direct.handle_window(std::vector<std::string>(
                  lines.begin(),
                  lines.begin() + static_cast<std::ptrdiff_t>(shutdown)))),
              shutdown, "handle_window");

#ifdef __unix__
  const std::vector<JsonValue> via_socket = socket_session(options, session);
  EXPECT_EQ(via_socket.size(), lines.size());
  expect_same(via_socket, lines.size(), "run_socket");
#endif
}

TEST(ServeTest, RunShedsOverMaxQueueLikeHandleWindow) {
  // Lines read in one burst are admitted by the same rule as a synchronous
  // window: the first max_queue join the queue, the rest are shed into the
  // same flush, control lines answer normally.
  ServiceOptions options;
  options.max_queue = 1;
  const std::string r =
      R"("machine": "lassen", "nodes": 2, )" + pattern_body() +
      R"(, "strategy": "split+MD", "reps": 2, "seed": 1})";
  const std::vector<std::string> lines = {
      "{\"id\": 0, " + r, "{\"id\": 1, " + r, "{\"id\": 2, " + r,
      R"({"id": 3, "cmd": "stats"})"};
  std::string session;
  for (const std::string& line : lines) session += line + "\n";

  const std::vector<JsonValue> via_run = run_session(options, session);
  Service direct(options);
  const std::vector<JsonValue> via_window =
      reply_docs(direct.handle_window(lines));
  ASSERT_EQ(via_run.size(), lines.size());
  ASSERT_EQ(via_window.size(), lines.size());
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(stable(via_run[i]), stable(via_window[i])) << "line " << i;
  }
  EXPECT_EQ(via_run[1].at("error_code").as_string(), "overloaded");
  EXPECT_EQ(via_run[2].at("error_code").as_string(), "overloaded");
  EXPECT_EQ(request_counts(via_run[3]), request_counts(via_window[3]));
  const auto shed = [](const JsonValue& reply) {
    return reply.at("stats").at("serve").at("resilience")
        .at("shed_overloaded").as_int();
  };
  EXPECT_EQ(shed(via_run[3]), 2);
  EXPECT_EQ(shed(via_window[3]), 2);
}

}  // namespace
}  // namespace hetcomm::serve
