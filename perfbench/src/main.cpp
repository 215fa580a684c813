// perfbench: hetcomm's benchmark harness.
//
//   perfbench --workload {fig51_sweep,serve_hot,serve_churn} --seed N
//             --seconds S --trace {0,1} [--trace-out FILE]
//             [--digest-file FILE]
//
// Prints human-readable notes and a metric table, then, as the last line,
// one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// Exits non-zero, without a result line, when a workload cannot run.

#include <iomanip>
#include <iostream>
#include <set>
#include <stdexcept>
#include <string>

#include "common.hpp"
#include "fig51.hpp"
#include "serve_load.hpp"

namespace {

using perfbench::Metric;
using perfbench::Result;
using perfbench::RunOptions;

/// Every per-layer metric, in BENCHMARK.json order.  A workload that does
/// not touch a layer reports 0 for it (the layer did no work).
const char* const kPerLayer[][2] = {
    {"sparse.pattern_s", "s"},
    {"sparse.patterns", "count"},
    {"core.models.rank_s", "s"},
    {"core.strategy.build_s", "s"},
    {"core.strategy.plan_ops", "count"},
    {"core.compiled_plan.compile_s", "s"},
    {"core.compiled_plan.messages", "count"},
    {"core.executor.execute_s", "s"},
    {"core.executor.reps", "count"},
    {"core.executor.us_per_rep", "us"},
    {"hetsim.ns_per_sim_message", "ns"},
    {"runtime.sweep.busy_ratio", "ratio"},
    {"runtime.sweep.cell_ms_p50", "ms"},
    {"runtime.sweep.cell_ms_p95", "ms"},
    {"runtime.sweep.cell_self_s", "s"},
    {"runtime.plan_cache.request_hit_rate", "ratio"},
    {"runtime.plan_cache.misses", "count"},
    {"runtime.plan_cache.evictions", "count"},
    {"runtime.pool.busy_ratio", "ratio"},
    {"serve.queue_wait_ms_p50", "ms"},
    {"serve.queue_wait_ms_p99", "ms"},
    {"serve.compile_ms_p50", "ms"},
    {"serve.execute_ms_p50", "ms"},
    {"serve.unattributed_ms_p50", "ms"},
    {"serve.parse_ms_p50", "ms"},
    {"serve.wire_ms_p50", "ms"},
    {"serve.requests_per_window", "count"},
    {"serve.lanes_per_block", "count"},
    {"serve.shed", "count"},
    {"serve.deadline_exceeded", "count"},
    {"serve.errors", "count"},
    {"generator.lateness_ms_p99", "ms"},
    {"trace.unaccounted_ratio", "ratio"},
    {"trace.overhead_ratio", "ratio"},
};

RunOptions parse(int argc, char** argv) {
  RunOptions o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
    const std::string value = argv[++i];
    if (arg == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      o.seed = std::stoull(value);
    } else if (arg == "--seconds") {
      o.seconds = std::stod(value);
      if (!(o.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace is 0 or 1");
      o.trace = value == "1";
    } else if (arg == "--trace-out") {
      o.trace_out = value;
    } else if (arg == "--digest-file") {
      o.digest_file = value;
    } else {
      throw std::invalid_argument("unknown flag " + arg);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return o;
}

void complete_per_layer(Result& r) {
  std::set<std::string> have;
  for (const Metric& m : r.metrics) have.insert(m.name);
  for (const auto& [name, unit] : kPerLayer) {
    if (!have.count(name)) r.add(name, 0.0, unit);
  }
  std::set<std::string> known;
  for (const auto& row : kPerLayer) known.insert(row[0]);
  for (const Metric& m : r.metrics) {
    if (!known.count(m.name)) {
      throw std::logic_error("per-layer metric " + m.name + " is not listed");
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const RunOptions options = parse(argc, argv);
    Result result;
    if (options.workload == "fig51_sweep") {
      result = perfbench::run_fig51(options);
    } else if (options.workload == "serve_hot") {
      result = perfbench::run_serve(options, /*churn=*/false);
    } else if (options.workload == "serve_churn") {
      result = perfbench::run_serve(options, /*churn=*/true);
    } else {
      throw std::invalid_argument("unknown workload " + options.workload);
    }
    if (options.trace) complete_per_layer(result);

    for (const std::string& note : result.notes) std::cout << "# " << note << "\n";
    std::cout << "# " << options.workload << " seed " << options.seed
              << (options.trace ? " (traced)" : "") << "\n";
    std::cout << std::setprecision(6);
    for (const std::vector<Metric>* list : {&result.metrics, &result.info}) {
      for (const Metric& m : *list) {
        std::cout << "#   " << std::left << std::setw(38) << m.name
                  << std::right << std::setw(16) << m.value << " " << m.unit
                  << (list == &result.info ? "  (not gated)" : "") << "\n";
      }
    }
    std::cout << "#   " << std::left << std::setw(38) << "error_ratio" << std::right
              << std::setw(16)
              << (result.attempted ? static_cast<double>(result.failed) /
                                         static_cast<double>(result.attempted)
                                   : 0.0)
              << " ratio (" << result.failed << " of " << result.attempted
              << " operations failed; reported as failed/attempted)\n";
    std::cout << perfbench::result_json(result) << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
