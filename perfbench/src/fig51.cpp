#include "fig51.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>

#include "core/compiled_plan.hpp"
#include "core/executor.hpp"
#include "runtime/sweep.hpp"
#include "sparse/comm_graph.hpp"
#include "sparse/partition.hpp"
#include "sparse/suitesparse_profiles.hpp"

namespace perfbench {

namespace hc = hetcomm;

namespace {

/// Stand-in generator seed used by bench/fig5_1_spmv.
constexpr std::uint64_t kStandinSeed = 11;

struct ColumnSpec {
  std::size_t matrix = 0;
  int gpus = 0;
};

std::vector<ColumnSpec> column_specs() {
  std::vector<ColumnSpec> out;
  const auto& profiles = hc::sparse::figure51_profiles();
  for (std::size_t m = 0; m < profiles.size(); ++m) {
    for (const int g : profiles[m].gpu_counts) out.push_back({m, g});
  }
  return out;
}

/// Stage-1 product: everything the strategy cells of one column share.
struct Column {
  std::optional<hc::Topology> topo;
  std::optional<hc::core::CommPattern> pattern;
};

hc::core::CommPattern column_pattern(const Fig51Inputs& in,
                                     const ColumnSpec& spec,
                                     const hc::Topology& topo) {
  const hc::sparse::CsrMatrix& matrix = in.matrices[spec.matrix];
  const hc::sparse::RowPartition part =
      hc::sparse::RowPartition::contiguous(matrix.rows(), spec.gpus);
  return hc::sparse::spmv_comm_pattern(matrix, part, topo, in.bytes_per_value);
}

hc::core::MeasureOptions measure_options(const Fig51Config& config) {
  hc::core::MeasureOptions m;
  m.reps = config.reps;
  m.noise_sigma = config.noise_sigma;  // seed: the figure's default
  return m;
}

std::uint64_t fnv1a(std::uint64_t h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  for (int i = 0; i < 8; ++i) {
    h ^= (bits >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << std::setw(16) << std::setfill('0') << v;
  return os.str();
}

}  // namespace

Fig51Inputs fig51_setup(const Fig51Config& config) {
  Fig51Inputs in;
  in.mach = hc::machine::lassen_machine();
  // Volume-preserving payload, as bench/fig5_1_spmv: the 1/scale per-value
  // bytes restore the full-size matrix's per-partition volumes.
  in.bytes_per_value = std::llround(8.0 / config.scale);
  in.strategies = hc::core::all_strategies();
  for (const hc::sparse::MatrixProfile& p : hc::sparse::figure51_profiles()) {
    in.matrices.push_back(
        hc::sparse::generate_standin(p, config.scale, kStandinSeed));
  }
  return in;
}

Fig51Grid run_fig51_grid(const Fig51Inputs& in, const Fig51Config& config,
                         SpanLog* log) {
  const std::vector<ColumnSpec> specs = column_specs();
  const std::size_t ns = in.strategies.size();
  const hc::core::MeasureOptions base = measure_options(config);
  const hc::runtime::SweepOptions sweep_opts{.jobs = config.workers};

  Fig51Grid grid;
  grid.column_seconds.resize(specs.size());
  grid.cells.resize(specs.size() * ns);
  std::vector<Column> columns(specs.size());
  std::vector<std::vector<hc::core::Recommendation>> rankings(specs.size());

  const Clock::time_point t0 = Clock::now();
  // Stage 1: one pattern (and one model ranking) per (matrix, GPU count).
  hc::runtime::SweepRunner patterns(sweep_opts);
  for (std::size_t c = 0; c < specs.size(); ++c) {
    patterns.add("pattern " + std::to_string(c), [&, c] {
      const Clock::time_point start = Clock::now();
      const std::uint64_t trace = log ? log->new_trace() : 0;
      const ScopedSpan cell(log, trace, 0, "runtime.sweep.cell");
      const ColumnSpec& spec = specs[c];
      Column& col = columns[c];
      col.topo.emplace(in.mach.topology(in.mach.nodes_for_gpus(spec.gpus)));
      {
        const ScopedSpan s(log, trace, cell.id(), "sparse.spmv_comm_pattern");
        col.pattern.emplace(column_pattern(in, spec, *col.topo));
      }
      {
        const ScopedSpan s(log, trace, cell.id(), "core.advisor.rank");
        const hc::core::Advisor advisor(*col.topo, in.mach.params);
        rankings[c] = advisor.rank(*col.pattern);
      }
      grid.column_seconds[c] = seconds_between(start, Clock::now());
    });
  }
  const hc::runtime::SweepReport r1 = patterns.run();

  // Stage 2: every strategy of every column.
  hc::runtime::SweepRunner cells(sweep_opts);
  for (std::size_t c = 0; c < specs.size(); ++c) {
    for (std::size_t s = 0; s < ns; ++s) {
      cells.add("cell " + std::to_string(c * ns + s), [&, c, s] {
        const Clock::time_point start = Clock::now();
        const std::uint64_t trace = log ? log->new_trace() : 0;
        const ScopedSpan cell(log, trace, 0, "runtime.sweep.cell");
        const Column& col = columns[c];
        Fig51Cell& out = grid.cells[c * ns + s];
        std::optional<hc::core::CommPlan> plan;
        {
          const ScopedSpan sp(log, trace, cell.id(), "core.strategy.build_plan");
          plan.emplace(hc::core::build_plan(*col.pattern, *col.topo,
                                            in.mach.params, in.strategies[s]));
        }
        std::optional<hc::core::CompiledPlan> compiled;
        {
          const ScopedSpan sp(log, trace, cell.id(), "core.compiled_plan.compile");
          compiled.emplace(*plan, *col.topo, in.mach.params);
        }
        hc::core::MeasureResult res;
        {
          const ScopedSpan sp(log, trace, cell.id(), "core.executor.measure");
          hc::core::MeasureOptions m = base;
          m.precompiled = &*compiled;
          res = hc::core::measure(*plan, *col.topo, in.mach.params, m);
        }
        out.max_avg = res.max_avg;
        out.per_rank_mean = std::move(res.per_rank_mean);
        for (const hc::core::PlanPhase& ph : plan->phases) {
          out.plan_ops += static_cast<std::int64_t>(ph.ops.size());
        }
        out.messages = compiled->total_messages();
        out.seconds = seconds_between(start, Clock::now());
      });
    }
  }
  const hc::runtime::SweepReport r2 = cells.run();
  grid.wall_seconds = seconds_between(t0, Clock::now());
  grid.busy_seconds = r1.total_cell_seconds() + r2.total_cell_seconds();

  return grid;
}

std::uint64_t fig51_digest(const Fig51Grid& grid) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const Fig51Cell& cell : grid.cells) {
    h = fnv1a(h, cell.max_avg);
    for (const double v : cell.per_rank_mean) h = fnv1a(h, v);
  }
  return h;
}

bool fig51_reference_matches(const Fig51Inputs& in, const Fig51Config& config,
                             const Fig51Grid& grid, std::size_t cell) {
  const std::vector<ColumnSpec> specs = column_specs();
  const std::size_t ns = in.strategies.size();
  const ColumnSpec& spec = specs.at(cell / ns);
  const hc::Topology topo = in.mach.topology(in.mach.nodes_for_gpus(spec.gpus));
  const hc::core::CommPattern pattern = column_pattern(in, spec, topo);
  const hc::core::CommPlan plan = hc::core::build_plan(
      pattern, topo, in.mach.params, in.strategies[cell % ns]);
  hc::core::MeasureOptions m = measure_options(config);
  m.engine = hc::core::ExecMode::Interpreted;
  const hc::core::MeasureResult ref =
      hc::core::measure(plan, topo, in.mach.params, m);
  const Fig51Cell& got = grid.cells.at(cell);
  const auto same = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof a) == 0;
  };
  if (!same(ref.max_avg, got.max_avg) ||
      ref.per_rank_mean.size() != got.per_rank_mean.size()) {
    return false;
  }
  for (std::size_t i = 0; i < ref.per_rank_mean.size(); ++i) {
    if (!same(ref.per_rank_mean[i], got.per_rank_mean[i])) return false;
  }
  return true;
}

std::string read_digest_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read digest file " + path);
  std::string word;
  while (in >> word) {
    if (word.rfind("0x", 0) == 0) return word;
  }
  throw std::runtime_error("no 0x digest in " + path);
}

std::string fig51_digest_hex(const Fig51Grid& grid) {
  return hex(fig51_digest(grid));
}

namespace {

/// Strategy cells of columns at <= 80 GPUs ("low") or >= 160 ("high").
void split_cell_latencies(const Fig51Inputs& in, const Fig51Grid& grid,
                          std::vector<double>& low_ms,
                          std::vector<double>& high_ms) {
  const std::vector<ColumnSpec> specs = column_specs();
  const std::size_t ns = in.strategies.size();
  for (std::size_t i = 0; i < grid.cells.size(); ++i) {
    const double ms = grid.cells[i].seconds * 1e3;
    (specs[i / ns].gpus <= 80 ? low_ms : high_ms).push_back(ms);
  }
}

}  // namespace

Result run_fig51(const RunOptions& options) {
  const Fig51Config config;
  Result result;
  const std::string expected = read_digest_file(options.digest_file);

  // Set-up: machine load plus stand-in generation, repeated; median.
  constexpr int kSetups = 3;
  std::vector<double> setup_s;
  Fig51Inputs in;
  for (int i = 0; i < kSetups; ++i) {
    const Clock::time_point t = Clock::now();
    in = fig51_setup(config);
    setup_s.push_back(seconds_between(t, Clock::now()));
  }

  // Timed grids until the time is spent, and at least min_grids.  In the
  // traced run untraced and traced grids alternate, so the overhead compares
  // like with like; only the traced grids record spans.
  const int min_grids = options.trace ? 6 : 5;
  SpanLog log;
  // One untimed grid first: timings on this kind of host settle only after
  // a few seconds of load.  Its digest is checked like the others'.
  std::vector<Fig51Grid> plain{run_fig51_grid(in, config, nullptr)};
  const std::size_t warm = plain.size();
  std::vector<Fig51Grid> traced;
  std::vector<double> cpu_per_grid;
  const Clock::time_point start = Clock::now();
  for (int g = 0;; ++g) {
    const bool with_spans = options.trace && g % 2 == 1;
    const double cpu0 = process_cpu_seconds();
    Fig51Grid grid = run_fig51_grid(in, config, with_spans ? &log : nullptr);
    if (!with_spans) cpu_per_grid.push_back(process_cpu_seconds() - cpu0);
    (with_spans ? traced : plain).push_back(std::move(grid));
    const int done = g + 1;
    if (done >= min_grids && (!options.trace || done % 2 == 0) &&
        seconds_between(start, Clock::now()) >= options.seconds) {
      break;
    }
  }

  // Correctness: every grid hashes to the reference digest, and a seeded
  // sample of cells matches the interpreted reference path bit for bit.
  const std::size_t ncells = plain.front().cells.size();
  for (const std::vector<Fig51Grid>* set : {&plain, &traced}) {
    for (const Fig51Grid& grid : *set) {
      result.attempted += static_cast<std::int64_t>(grid.cells.size());
      if (fig51_digest_hex(grid) != expected) {
        result.failed += static_cast<std::int64_t>(grid.cells.size());
        result.notes.push_back("digest mismatch: got " +
                               fig51_digest_hex(grid) + ", expected " +
                               expected);
      }
    }
  }
  constexpr int kReferenceCells = 4;
  std::mt19937_64 rng(options.seed);
  for (int i = 0; i < kReferenceCells; ++i) {
    const std::size_t cell = static_cast<std::size_t>(rng() % ncells);
    result.attempted += 1;
    if (!fig51_reference_matches(in, config, plain.front(), cell)) {
      result.failed += 1;
      result.notes.push_back("cell " + std::to_string(cell) +
                             " differs from the interpreted reference");
    }
  }
  result.correct = result.failed == 0;

  // Per timed grid: its wall time and its cell-latency medians; all cells
  // pooled for the tails.
  std::vector<double> sweep_s;
  std::vector<double> low_p50;
  std::vector<double> high_p50;
  std::vector<double> low_ms;
  std::vector<double> high_ms;
  for (std::size_t g = warm; g < plain.size(); ++g) {
    const Fig51Grid& grid = plain[g];
    sweep_s.push_back(grid.wall_seconds);
    std::vector<double> low;
    std::vector<double> high;
    split_cell_latencies(in, grid, low, high);
    low_p50.push_back(median(low));
    high_p50.push_back(median(high));
    low_ms.insert(low_ms.end(), low.begin(), low.end());
    high_ms.insert(high_ms.end(), high.begin(), high.end());
  }
  const double sweep_quiet = quiet(sweep_s);

  result.notes.push_back(
      "fig51_sweep: " + std::to_string(sweep_s.size()) + " timed untraced grids of " +
      std::to_string(ncells) + " cells");

  if (!options.trace) {
    const Tail low = tail_summary(low_ms);
    const Tail high = tail_summary(high_ms);
    result.notes.push_back(
        "cell latency low (<=80 GPUs): n=" + std::to_string(low.count) + ", " +
        percentile_name(low.tail_pct) + " with " +
        std::to_string(low.beyond) + " beyond; high (>=160 GPUs): n=" +
        std::to_string(high.count) + ", " + percentile_name(high.tail_pct) +
        " with " + std::to_string(high.beyond) + " beyond");
    result.add("setup_s", median(setup_s), "s");
    result.add("sweep_s", sweep_quiet, "s");
    result.add("cpu_s", quiet(cpu_per_grid), "s");
    result.add("peak_rss_mb", peak_rss_mb(), "MiB");
    result.add_info("max_qps", static_cast<double>(ncells) / sweep_quiet, "1/s");
    result.add_info("p50_ms_low", quiet(low_p50), "ms");
    result.add_info("p50_ms_high", quiet(high_p50), "ms");
    result.add_info(percentile_name(low.tail_pct) + "_ms_low", low.tail, "ms");
    result.add_info(percentile_name(high.tail_pct) + "_ms_high", high.tail, "ms");
    return result;
  }

  // Traced run: per-layer self times, per grid.
  const std::vector<Span> spans = log.spans();
  const std::map<std::string, double> self = self_times(spans);
  const auto get = [&](const char* name) {
    auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  const double n = static_cast<double>(traced.size());
  double plan_ops = 0.0;
  double messages = 0.0;
  double sim_messages = 0.0;
  std::vector<double> traced_s;
  std::vector<double> busy;
  std::vector<double> cell_ms;
  for (const Fig51Grid& grid : traced) {
    traced_s.push_back(grid.wall_seconds);
    busy.push_back(grid.busy_seconds /
                   (config.workers * grid.wall_seconds));
    for (const double c : grid.column_seconds) cell_ms.push_back(c * 1e3);
    for (const Fig51Cell& c : grid.cells) {
      plan_ops += static_cast<double>(c.plan_ops);
      messages += static_cast<double>(c.messages);
      sim_messages += static_cast<double>(c.messages) * config.reps;
      cell_ms.push_back(c.seconds * 1e3);
    }
  }
  std::sort(cell_ms.begin(), cell_ms.end());
  const double execute_s = get("core.executor.measure");
  const double reps = static_cast<double>(ncells) * config.reps * n;
  double layers = 0.0;
  for (const auto& [name, s] : self) {
    if (name != "runtime.sweep.cell") layers += s;
  }
  const double traced_quiet = quiet(traced_s);
  result.add("sparse.pattern_s", get("sparse.spmv_comm_pattern") / n, "s");
  result.add("sparse.patterns",
             static_cast<double>(plain.front().column_seconds.size()), "count");
  result.add("core.models.rank_s", get("core.advisor.rank") / n, "s");
  result.add("core.strategy.build_s", get("core.strategy.build_plan") / n, "s");
  result.add("core.strategy.plan_ops", plan_ops / n, "count");
  result.add("core.compiled_plan.compile_s",
             get("core.compiled_plan.compile") / n, "s");
  result.add("core.compiled_plan.messages", messages / n, "count");
  result.add("core.executor.execute_s", execute_s / n, "s");
  result.add("core.executor.reps", reps / n, "count");
  result.add("core.executor.us_per_rep", execute_s * 1e6 / reps, "us");
  result.add("hetsim.ns_per_sim_message", execute_s * 1e9 / sim_messages, "ns");
  result.add("runtime.sweep.busy_ratio", median(busy), "ratio");
  result.add("runtime.sweep.cell_ms_p50", percentile_sorted(cell_ms, 50), "ms");
  result.add("runtime.sweep.cell_ms_p95", percentile_sorted(cell_ms, 95), "ms");
  result.add("runtime.sweep.cell_self_s", get("runtime.sweep.cell") / n, "s");
  // Share of workers x traced sweep wall that no layer span explains
  // (idle workers plus cell bookkeeping), and the cost of tracing itself.
  result.add("trace.unaccounted_ratio",
             1.0 - layers / n / (config.workers * median(traced_s)), "ratio");
  result.add("trace.overhead_ratio", traced_quiet / sweep_quiet - 1.0, "ratio");
  if (!options.trace_out.empty()) log.write_json(options.trace_out);
  return result;
}

}  // namespace perfbench
