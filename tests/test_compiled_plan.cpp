// The CompiledPlan contract: compiled execution is bit-identical -- per-rank
// clocks, traces, counters, statistics, fault aborts -- to the interpreted
// isend/irecv/copy/pack + resolve() path, for every Table 5 strategy flavor,
// on lassen and the dual-rail nvisland, unfaulted and under every
// faults/*.json plan, at any jobs count, with and without a fabric, and on
// an engine reused across repetitions (including after a FaultAbort).
// Repetition blocks -- consecutive repetitions run on one reused engine, as
// measure() workers and serve execute tasks do -- match fresh engines at any
// block width, and measure() equals the serial reduction of such a block.

#include "core/compiled_plan.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/comm_pattern.hpp"
#include "core/executor.hpp"
#include "core/strategy.hpp"
#include "fault/fault_json.hpp"
#include "fault/plan.hpp"
#include "hetsim/faults.hpp"
#include "hetsim/noise.hpp"
#include "machine/machine.hpp"

namespace hetcomm::core {
namespace {

void expect_traces_identical(const Trace& a, const Trace& b) {
  ASSERT_EQ(a.messages.size(), b.messages.size());
  for (std::size_t i = 0; i < a.messages.size(); ++i) {
    const MessageTrace& ma = a.messages[i];
    const MessageTrace& mb = b.messages[i];
    EXPECT_EQ(ma.src, mb.src) << "message " << i;
    EXPECT_EQ(ma.dst, mb.dst) << "message " << i;
    EXPECT_EQ(ma.bytes, mb.bytes) << "message " << i;
    EXPECT_EQ(ma.tag, mb.tag) << "message " << i;
    EXPECT_EQ(ma.space, mb.space) << "message " << i;
    EXPECT_EQ(ma.protocol, mb.protocol) << "message " << i;
    EXPECT_EQ(ma.path, mb.path) << "message " << i;
    EXPECT_EQ(ma.ready, mb.ready) << "message " << i;
    EXPECT_EQ(ma.start, mb.start) << "message " << i;
    EXPECT_EQ(ma.completion, mb.completion) << "message " << i;
  }
  ASSERT_EQ(a.copies.size(), b.copies.size());
  for (std::size_t i = 0; i < a.copies.size(); ++i) {
    EXPECT_EQ(a.copies[i].rank, b.copies[i].rank) << "copy " << i;
    EXPECT_EQ(a.copies[i].gpu, b.copies[i].gpu) << "copy " << i;
    EXPECT_EQ(a.copies[i].bytes, b.copies[i].bytes) << "copy " << i;
    EXPECT_EQ(a.copies[i].start, b.copies[i].start) << "copy " << i;
    EXPECT_EQ(a.copies[i].completion, b.copies[i].completion) << "copy " << i;
  }
}

void expect_aborts_identical(const FaultAbort& a, const FaultAbort& b) {
  EXPECT_EQ(a.reason, b.reason);
  EXPECT_EQ(a.strategy, b.strategy);
  EXPECT_EQ(a.src, b.src);
  EXPECT_EQ(a.dst, b.dst);
  EXPECT_EQ(a.path_id, b.path_id);
  EXPECT_EQ(a.path, b.path);
  EXPECT_EQ(a.attempts, b.attempts);
}

/// One engine run: final clocks, network counters and trace, or the abort
/// that ended it.
struct EngineRun {
  std::vector<double> clocks;
  std::int64_t net_bytes = 0;
  std::int64_t net_messages = 0;
  Trace trace;
  std::optional<FaultAbort> abort;
};

template <typename Body>
EngineRun run_engine(Engine& engine, Body&& body) {
  EngineRun run;
  try {
    body();
    run.clocks = engine.clocks();
    run.net_bytes = engine.network_bytes();
    run.net_messages = engine.network_messages();
    run.trace = engine.trace();
  } catch (const FaultAbort& abort) {
    run.abort = abort;
  }
  return run;
}

void expect_runs_identical(const EngineRun& a, const EngineRun& b) {
  ASSERT_EQ(a.abort.has_value(), b.abort.has_value());
  if (a.abort) {
    expect_aborts_identical(*a.abort, *b.abort);
    return;
  }
  EXPECT_EQ(a.clocks, b.clocks);
  EXPECT_EQ(a.net_bytes, b.net_bytes);
  EXPECT_EQ(a.net_messages, b.net_messages);
  expect_traces_identical(a.trace, b.trace);
}

/// A machine the contract is checked on, plus the fault plans run on it:
/// nullptr (unfaulted) first, then every faults/*.json plan the machine
/// can host -- degraded_rail names NIC lane 1, so it needs a dual-rail
/// machine.  flaky_abort loses every off-node message for good, so it
/// aborts every run that crosses nodes.
struct MachineCase {
  std::string name;
  Topology topo;
  ParamSet params;
  std::vector<std::pair<std::string, std::shared_ptr<const FaultModel>>>
      faults;
};

std::vector<MachineCase> machine_cases() {
  std::vector<MachineCase> out;
  for (const char* name : {"lassen", "nvisland"}) {
    const machine::MachineModel model = machine::preset_machine(name);
    MachineCase mc{name, model.topology(4), model.params, {}};
    mc.faults.emplace_back("unfaulted", nullptr);
    std::vector<std::string> files = {"flaky_abort", "lossy_fabric"};
    if (model.params.injection.nics_per_node > 1) {
      files.push_back("degraded_rail");
    }
    for (const std::string& file : files) {
      mc.faults.emplace_back(
          file, std::make_shared<const FaultModel>(
                    fault::load_fault_file(std::string(HETCOMM_FAULTS_DIR) +
                                           "/" + file + ".json")
                        .compile(mc.topo, mc.params)));
    }
    out.push_back(std::move(mc));
  }
  return out;
}

class CompiledPlanTest : public ::testing::Test {
 protected:
  Topology topo_{presets::lassen(4)};
  ParamSet params_ = lassen_params();

  // Irregular pattern touching every path class and both protocols used by
  // the strategies: on-socket, on-node, off-node; short/eager/rendezvous.
  CommPattern pattern() const {
    CommPattern p(topo_.num_gpus());
    p.add(0, 4, 40000);
    p.add(1, 5, 40000);
    p.add(2, 9, 20000);
    p.add(0, 2, 8000);
    p.add(3, 12, 300);
    p.add(7, 1, 120000);
    p.add(5, 14, 2048);
    return p;
  }
};

TEST_F(CompiledPlanTest, EngineLevelBitIdentityForAllStrategies) {
  // Fresh engine + run_plan vs fresh engine + execute(compiled), same noise
  // seed: every clock, counter and traced event -- or the abort -- must
  // agree to the bit.
  for (const MachineCase& mc : machine_cases()) {
    for (const auto& [fault_name, faults] : mc.faults) {
      for (const StrategyConfig& cfg : all_strategies()) {
        const CommPlan plan = build_plan(pattern(), mc.topo, mc.params, cfg);
        const CompiledPlan compiled(plan, mc.topo, mc.params);
        SCOPED_TRACE(mc.name + " " + fault_name + " " + plan.strategy_name);

        Engine interpreted(mc.topo, mc.params, NoiseModel(0xabcd, 0.03));
        interpreted.set_tracing(true);
        interpreted.set_faults(faults.get());
        const EngineRun want = run_engine(
            interpreted, [&] { (void)run_plan(interpreted, plan); });

        Engine fast(mc.topo, mc.params, NoiseModel(0xabcd, 0.03));
        fast.set_tracing(true);
        fast.set_faults(faults.get());
        const EngineRun got = run_engine(fast, [&] { fast.execute(compiled); });
        expect_runs_identical(want, got);
      }
    }
  }
}

/// measure() outcome: the result, or the abort it rethrew.
struct Measured {
  MeasureResult result;
  std::optional<FaultAbort> abort;
};

Measured measure_or_abort(const CommPlan& plan, const Topology& topo,
                          const ParamSet& params, const MeasureOptions& opts) {
  Measured out;
  try {
    out.result = measure(plan, topo, params, opts);
  } catch (const FaultAbort& abort) {
    out.abort = abort;
  }
  return out;
}

TEST_F(CompiledPlanTest, MeasureBitIdenticalAcrossEnginesAndJobs) {
  // measure() statistics, last-rep trace and aborts must depend on neither
  // the execution mode nor jobs in {1, 4, hardware}: every run matches the
  // interpreted jobs=1 reference.
  for (const MachineCase& mc : machine_cases()) {
    for (const auto& [fault_name, faults] : mc.faults) {
      for (const StrategyConfig& cfg : all_strategies()) {
        const CommPlan plan = build_plan(pattern(), mc.topo, mc.params, cfg);
        MeasureOptions opts;
        opts.reps = 6;
        opts.seed = 0xfeedULL;
        opts.noise_sigma = 0.04;
        opts.trace_last_rep = true;
        opts.faults = faults.get();
        opts.jobs = 1;
        opts.engine = ExecMode::Interpreted;
        const Measured ref = measure_or_abort(plan, mc.topo, mc.params, opts);
        for (const ExecMode engine :
             {ExecMode::Interpreted, ExecMode::Compiled}) {
          for (const int jobs : {1, 4, 0}) {
            SCOPED_TRACE(mc.name + " " + fault_name + " " +
                         plan.strategy_name + " " + to_string(engine) +
                         " jobs=" + std::to_string(jobs));
            opts.engine = engine;
            opts.jobs = jobs;
            const Measured got =
                measure_or_abort(plan, mc.topo, mc.params, opts);
            ASSERT_EQ(ref.abort.has_value(), got.abort.has_value());
            if (ref.abort) {
              expect_aborts_identical(*ref.abort, *got.abort);
              continue;
            }
            EXPECT_EQ(ref.result.max_avg, got.result.max_avg);
            EXPECT_EQ(ref.result.makespan_mean, got.result.makespan_mean);
            EXPECT_EQ(ref.result.makespan_min, got.result.makespan_min);
            EXPECT_EQ(ref.result.makespan_max, got.result.makespan_max);
            EXPECT_EQ(ref.result.per_rank_mean, got.result.per_rank_mean);
            expect_traces_identical(ref.result.trace, got.result.trace);
          }
        }
      }
    }
  }
}

TEST_F(CompiledPlanTest, CompiledMatchesInterpretedWithFabric) {
  // Tapered fat-tree pod links and per-hop latency take the compiled path's
  // off-node branch; both paths must queue identically.
  FatTreeConfig fabric;
  fabric.taper = 4.0;
  fabric.nodes_per_pod = 2;
  for (const MachineCase& mc : machine_cases()) {
    const CommPlan plan = build_plan(pattern(), mc.topo, mc.params,
                                     {StrategyKind::Standard, MemSpace::Host});
    const CompiledPlan compiled(plan, mc.topo, mc.params);
    for (const auto& [fault_name, faults] : mc.faults) {
      SCOPED_TRACE(mc.name + " " + fault_name);
      Engine interpreted(mc.topo, mc.params, NoiseModel(7, 0.02));
      interpreted.set_fabric(fabric);
      interpreted.set_tracing(true);
      interpreted.set_faults(faults.get());
      const EngineRun want = run_engine(
          interpreted, [&] { (void)run_plan(interpreted, plan); });

      Engine fast(mc.topo, mc.params, NoiseModel(7, 0.02));
      fast.set_fabric(fabric);
      fast.set_tracing(true);
      fast.set_faults(faults.get());
      const EngineRun got = run_engine(fast, [&] { fast.execute(compiled); });
      expect_runs_identical(want, got);
    }
  }
}

TEST_F(CompiledPlanTest, ReusedEngineMatchesFreshEnginePerRep) {
  // The measure() usage pattern: one engine, reset(mix_seed(base, rep)) +
  // execute per repetition must equal a freshly constructed engine reset to
  // the same seed and running the interpreted path, for every rep.  The reused
  // engine runs the fault plans in order -- flaky_abort first -- so every
  // later plan replays on an engine whose previous repetitions aborted.
  for (const MachineCase& mc : machine_cases()) {
    const CommPlan plan = build_plan(pattern(), mc.topo, mc.params,
                                     {StrategyKind::SplitMD, MemSpace::Host});
    const CompiledPlan compiled(plan, mc.topo, mc.params);
    Engine reused(mc.topo, mc.params, NoiseModel(0, 0.05));
    std::vector<std::pair<std::string, std::shared_ptr<const FaultModel>>>
        order = mc.faults;
    // flaky_abort (mc.faults[1]) first, then the rest, then flaky_abort
    // and unfaulted again: aborts follow survivors and vice versa.
    std::rotate(order.begin(), order.begin() + 1, order.end());
    order.push_back(order.front());
    order.push_back(mc.faults.front());
    bool saw_abort = false;
    for (const auto& [fault_name, faults] : order) {
      reused.set_faults(faults.get());
      for (std::uint64_t rep = 0; rep < 8; ++rep) {
        SCOPED_TRACE(mc.name + " " + fault_name + " rep " +
                     std::to_string(rep));
        Engine fresh(mc.topo, mc.params, NoiseModel(0, 0.05));
        fresh.set_faults(faults.get());
        const EngineRun want = run_engine(fresh, [&] {
          fresh.reset(mix_seed(0x5eed, rep));
          (void)run_plan(fresh, plan);
        });
        const EngineRun got = run_engine(reused, [&] {
          reused.reset(mix_seed(0x5eed, rep));
          reused.execute(compiled);
        });
        saw_abort = saw_abort || got.abort.has_value();
        ASSERT_EQ(want.abort.has_value(), got.abort.has_value());
        if (want.abort) {
          expect_aborts_identical(*want.abort, *got.abort);
        } else {
          EXPECT_EQ(want.clocks, got.clocks);
        }
      }
    }
    EXPECT_TRUE(saw_abort) << mc.name << ": flaky_abort must abort";
  }
}

TEST(WidePhaseSchedule, ReusedEngineAndStaleHintMatchFreshEngines) {
  // A phase of 2,560 messages with jitter large enough to reorder its ready
  // times between repetitions: the warm-start schedule sort exceeds its
  // shift budget and finishes with a comparison sort.  A reused engine over
  // many repetitions, and one whose cached order is a stale hint of the
  // same size from another plan, must both equal a fresh engine (which
  // always sorts cold) rep for rep.
  const Topology topo{presets::lassen(16)};
  const ParamSet params = lassen_params();
  const StrategyConfig staged{StrategyKind::Standard, MemSpace::Host};
  const CommPlan plan_a =
      build_plan(random_pattern(topo, 40, 4096, 7), topo, params, staged);
  const CommPlan plan_b =
      build_plan(random_pattern(topo, 40, 4096, 8), topo, params, staged);
  const CompiledPlan a(plan_a, topo, params);
  const CompiledPlan b(plan_b, topo, params);
  ASSERT_EQ(a.phases().size(), b.phases().size());
  std::size_t widest = 0;
  for (std::size_t p = 0; p < a.phases().size(); ++p) {
    ASSERT_EQ(a.phases()[p].messages.size(), b.phases()[p].messages.size());
    widest = std::max(widest, a.phases()[p].messages.size());
  }
  ASSERT_GE(widest, 2000u);

  constexpr double kSigma = 0.2;
  const auto fresh_clocks = [&](const CompiledPlan& plan, std::uint64_t rep) {
    Engine fresh(topo, params, NoiseModel(0, kSigma));
    fresh.reset(mix_seed(0x5eed, rep));
    fresh.execute(plan);
    return fresh.clocks();
  };
  Engine reused(topo, params, NoiseModel(0, kSigma));
  for (std::uint64_t rep = 0; rep < 24; ++rep) {
    SCOPED_TRACE("rep " + std::to_string(rep));
    reused.reset(mix_seed(0x5eed, rep));
    reused.execute(a);
    EXPECT_EQ(reused.clocks(), fresh_clocks(a, rep));
  }
  for (std::uint64_t rep = 0; rep < 8; ++rep) {
    SCOPED_TRACE("stale hint, rep " + std::to_string(rep));
    reused.reset(mix_seed(0xb, rep));
    reused.execute(b);  // leaves b's schedule orders in the cache
    reused.reset(mix_seed(0x5eed, rep));
    reused.execute(a);
    EXPECT_EQ(reused.clocks(), fresh_clocks(a, rep));
  }
}

TEST_F(CompiledPlanTest, MatchingIsIdentityAndCountersPrecomputed) {
  // White-box: run_plan posts each send with its matching receive, so FIFO
  // matching degenerates to the identity permutation, and the phase network
  // counters equal the plan summary's internode aggregates.
  const CommPlan plan = build_plan(pattern(), topo_, params_,
                                   {StrategyKind::Standard, MemSpace::Host});
  const CompiledPlan compiled(plan, topo_, params_);
  const PlanSummary summary = plan.summarize(topo_);
  std::int64_t net_bytes = 0, net_messages = 0;
  for (const CompiledPhase& phase : compiled.phases()) {
    for (std::size_t i = 0; i < phase.recv_of_send.size(); ++i) {
      EXPECT_EQ(phase.recv_of_send[i], i);
    }
    net_bytes += phase.network_bytes;
    net_messages += phase.network_messages;
  }
  EXPECT_EQ(net_bytes, summary.internode_bytes);
  EXPECT_EQ(net_messages, summary.internode_messages);
  EXPECT_EQ(compiled.total_messages(), summary.messages);
}

TEST_F(CompiledPlanTest, CompileValidatesOperands) {
  CommPlan plan;
  plan.phases.emplace_back();
  plan.phases.back().ops.push_back(
      PlanOp::message(0, topo_.num_ranks(), 100, 0, MemSpace::Host));
  EXPECT_THROW((void)CompiledPlan(plan, topo_, params_), std::out_of_range);

  plan.phases.back().ops[0] = PlanOp::message(0, 1, -4, 0, MemSpace::Host);
  EXPECT_THROW((void)CompiledPlan(plan, topo_, params_),
               std::invalid_argument);

  plan.phases.back().ops[0] =
      PlanOp::copy(0, topo_.num_gpus(), CopyDir::DeviceToHost, 64);
  EXPECT_THROW((void)CompiledPlan(plan, topo_, params_), std::out_of_range);

  plan.phases.back().ops[0] =
      PlanOp::copy(0, 0, CopyDir::DeviceToHost, 64, 0);
  EXPECT_THROW((void)CompiledPlan(plan, topo_, params_),
               std::invalid_argument);

  plan.phases.back().ops[0] = PlanOp::pack(-1, 64);
  EXPECT_THROW((void)CompiledPlan(plan, topo_, params_), std::out_of_range);
}

TEST_F(CompiledPlanTest, ExecuteRejectsPendingOpsAndWrongShape) {
  const CommPlan plan = build_plan(pattern(), topo_, params_,
                                   {StrategyKind::Standard, MemSpace::Host});
  const CompiledPlan compiled(plan, topo_, params_);

  Engine engine(topo_, params_);
  engine.isend(0, 1, 64, 0, MemSpace::Host);
  EXPECT_THROW(engine.execute(compiled), std::logic_error);
  engine.reset();
  engine.execute(compiled);  // fine after reset
  EXPECT_GT(engine.max_clock(), 0.0);

  Engine small(Topology(presets::lassen(2)), params_);
  EXPECT_THROW(small.execute(compiled), std::invalid_argument);
}

TEST_F(CompiledPlanTest, RunPlanSpanOverloadsValidateSize) {
  const CommPlan plan = build_plan(pattern(), topo_, params_,
                                   {StrategyKind::Standard, MemSpace::Host});
  const CompiledPlan compiled(plan, topo_, params_);
  Engine engine(topo_, params_);
  std::vector<double> wrong(static_cast<std::size_t>(topo_.num_ranks()) - 1);
  EXPECT_THROW(run_plan(engine, plan, wrong), std::invalid_argument);
  EXPECT_THROW(run_plan(engine, compiled, wrong), std::invalid_argument);

  std::vector<double> right(static_cast<std::size_t>(topo_.num_ranks()));
  run_plan(engine, compiled, right);
  EXPECT_EQ(*std::max_element(right.begin(), right.end()),
            engine.max_clock());
}

// ---------------------------------------------------------------------------
// Repetition blocks.  A measure() worker or a serve execute task runs a
// block of repetitions back to back on one engine, each as
// reset(mix_seed(seed, rep)) + execute(compiled), in whatever order the pool
// hands them out.  Every repetition -- clocks, network counters, trace,
// abort -- must equal the same repetition on a fresh engine at any block
// width, and an aborted repetition must not leak into the next one.

constexpr double kBlockSigma = 0.03;
constexpr std::uint64_t kBlockSeed = 0xb47c;
constexpr std::size_t kBlockWidths[] = {1, 4, 5, 16};

/// What a block engine is built with: a machine, plus optional faults and
/// fabric.
struct BlockSetup {
  BlockSetup(Topology topo_in, ParamSet params_in,
             const FaultModel* faults_in = nullptr)
      : topo(std::move(topo_in)),
        params(std::move(params_in)),
        faults(faults_in) {}

  Topology topo;
  ParamSet params;
  const FaultModel* faults = nullptr;
  std::optional<FatTreeConfig> fabric;
};

std::unique_ptr<Engine> block_engine(const BlockSetup& setup) {
  auto engine = std::make_unique<Engine>(setup.topo, setup.params,
                                         NoiseModel(0, kBlockSigma));
  engine->set_tracing(true);
  engine->set_faults(setup.faults);
  if (setup.fabric) engine->set_fabric(*setup.fabric);
  return engine;
}

EngineRun run_rep(Engine& engine, const CompiledPlan& compiled,
                  std::size_t rep) {
  return run_engine(engine, [&] {
    engine.reset(mix_seed(kBlockSeed, rep));
    engine.execute(compiled);
  });
}

/// Repetitions [0, reps), each on its own freshly constructed engine.
std::vector<EngineRun> fresh_reps(const BlockSetup& setup,
                                  const CompiledPlan& compiled,
                                  std::size_t reps) {
  std::vector<EngineRun> out;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    const std::unique_ptr<Engine> fresh = block_engine(setup);
    out.push_back(run_rep(*fresh, compiled, rep));
  }
  return out;
}

/// Replays every repetition of `reference` on `engine` in blocks of
/// `width`, last block first, and checks each against its fresh-engine run.
void expect_blocks_match(Engine& engine, const CompiledPlan& compiled,
                         const std::vector<EngineRun>& reference,
                         std::size_t width) {
  const std::size_t reps = reference.size();
  for (std::size_t block = (reps + width - 1) / width; block-- > 0;) {
    const std::size_t end = std::min(reps, (block + 1) * width);
    for (std::size_t rep = block * width; rep < end; ++rep) {
      SCOPED_TRACE("width " + std::to_string(width) + " rep " +
                   std::to_string(rep));
      expect_runs_identical(reference[rep], run_rep(engine, compiled, rep));
    }
  }
}

/// Every Table 5 strategy on a 2-node `mach`: one reused engine per
/// strategy replays 16 repetitions at every block width.
void check_machine_blocks(const machine::MachineModel& mach,
                          const fault::FaultPlan* faults) {
  BlockSetup setup{mach.topology(2), mach.params};
  std::unique_ptr<const FaultModel> model;
  if (faults != nullptr) {
    model = std::make_unique<const FaultModel>(
        faults->compile(setup.topo, setup.params));
    setup.faults = model.get();
  }
  const CommPattern pattern = random_pattern(setup.topo, 24, 8192, 7);
  for (const StrategyConfig& cfg : table5_strategies()) {
    const CommPlan plan = build_plan(pattern, setup.topo, setup.params, cfg);
    const CompiledPlan compiled(plan, setup.topo, setup.params);
    SCOPED_TRACE(mach.name + " " + plan.strategy_name);
    const std::vector<EngineRun> reference = fresh_reps(setup, compiled, 16);
    for (const EngineRun& run : reference) {
      ASSERT_FALSE(run.abort) << "matrix fixtures must not abort";
    }
    const std::unique_ptr<Engine> engine = block_engine(setup);
    for (const std::size_t width : kBlockWidths) {
      expect_blocks_match(*engine, compiled, reference, width);
    }
  }
}

TEST(BatchExec, BitIdenticalOnLassenForAllStrategiesAndWidths) {
  check_machine_blocks(machine::preset_machine("lassen"), nullptr);
}

TEST(BatchExec, BitIdenticalOnNvislandForAllStrategiesAndWidths) {
  check_machine_blocks(machine::preset_machine("nvisland"), nullptr);
}

/// All four perturbation kinds at once, with a retry budget deep enough to
/// never abort.
fault::FaultPlan composite_plan() {
  fault::FaultPlan plan;
  plan.name = "composite";
  plan.seed = 3;
  plan.link_degradations.push_back({"off-node", 1.5, 2.0, {}});
  plan.nic_degradations.push_back({-1, 1, 1.5, 1.5, {}});
  plan.nic_outages.push_back({0, 0, {0.0, 2e-4}});
  plan.stragglers.push_back({0, 1.5, 1.25});
  fault::MessageLoss loss;
  loss.path = "off-node";
  loss.probability = 0.2;
  loss.retry.max_attempts = 12;
  plan.message_loss.push_back(loss);
  return plan;
}

TEST(BatchExec, FaultedBitIdenticalOnNvisland) {
  const fault::FaultPlan faults = composite_plan();
  check_machine_blocks(machine::preset_machine("nvisland"), &faults);
}

TEST(BatchExec, FabricBitIdentical) {
  const machine::MachineModel mach = machine::preset_machine("lassen");
  BlockSetup setup{mach.topology(4), mach.params};
  FatTreeConfig fabric;
  fabric.nodes_per_pod = 2;
  fabric.taper = 2.0;
  setup.fabric = fabric;
  const CommPlan plan =
      build_plan(random_pattern(setup.topo, 24, 8192, 7), setup.topo,
                 setup.params, table5_strategies()[0]);
  const CompiledPlan compiled(plan, setup.topo, setup.params);
  const std::vector<EngineRun> reference = fresh_reps(setup, compiled, 8);

  // The fabric is really in the loop: cross-pod hops move the clocks.
  BlockSetup flat = setup;
  flat.fabric.reset();
  EXPECT_NE(fresh_reps(flat, compiled, 1)[0].clocks, reference[0].clocks);

  const std::unique_ptr<Engine> engine = block_engine(setup);
  for (const std::size_t width : kBlockWidths) {
    expect_blocks_match(*engine, compiled, reference, width);
  }
}

TEST(BatchExec, MidBatchFaultAbortDoesNotPoisonSiblings) {
  const machine::MachineModel mach = machine::preset_machine("lassen");
  BlockSetup setup{mach.topology(2), mach.params};
  const CommPlan plan =
      build_plan(random_pattern(setup.topo, 24, 8192, 7), setup.topo,
                 setup.params, table5_strategies()[0]);
  const CompiledPlan compiled(plan, setup.topo, setup.params);

  // Shallow retry budget: each repetition's own fault stream decides its
  // fate, so some repetitions abort and some survive.
  fault::FaultPlan lossy;
  fault::MessageLoss loss;
  loss.path = "off-node";
  loss.probability = 0.1;
  loss.retry.max_attempts = 2;
  lossy.message_loss.push_back(loss);
  const FaultModel model = lossy.compile(setup.topo, setup.params);
  setup.faults = &model;

  const std::vector<EngineRun> reference = fresh_reps(setup, compiled, 8);
  std::size_t first_dead = reference.size();
  std::size_t survivors = 0;
  for (std::size_t rep = 0; rep < reference.size(); ++rep) {
    if (!reference[rep].abort) {
      ++survivors;
    } else if (first_dead == reference.size()) {
      first_dead = rep;
    }
  }
  ASSERT_LT(first_dead, reference.size())
      << "fixture must make at least one repetition abort";
  ASSERT_GT(survivors, 0u) << "fixture must leave at least one survivor";

  // Survivors run after aborted repetitions on the same engine and still
  // match their fresh-engine runs bit for bit.
  const std::unique_ptr<Engine> engine = block_engine(setup);
  for (const std::size_t width : kBlockWidths) {
    expect_blocks_match(*engine, compiled, reference, width);
  }

  // measure() reports the lowest aborting repetition's abort -- the one a
  // jobs=1 sweep hits first -- at any jobs count.
  MeasureOptions opts;
  opts.reps = static_cast<int>(reference.size());
  opts.seed = kBlockSeed;
  opts.noise_sigma = kBlockSigma;
  opts.faults = &model;
  opts.engine = ExecMode::Compiled;
  const FaultAbort& want = *reference[first_dead].abort;
  for (const int jobs : {1, 4, 0}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    opts.jobs = jobs;
    const Measured got = measure_or_abort(plan, setup.topo, setup.params, opts);
    ASSERT_TRUE(got.abort.has_value());
    EXPECT_EQ(got.abort->strategy, plan.strategy_name);
    EXPECT_EQ(got.abort->reason, want.reason);
    EXPECT_EQ(got.abort->src, want.src);
    EXPECT_EQ(got.abort->dst, want.dst);
    EXPECT_EQ(got.abort->path_id, want.path_id);
    EXPECT_EQ(got.abort->path, want.path);
    EXPECT_EQ(got.abort->attempts, want.attempts);
  }
}

TEST(BatchExec, EngineReusableAcrossSerialAndBatchedRuns) {
  const machine::MachineModel mach = machine::preset_machine("lassen");
  const BlockSetup setup{mach.topology(2), mach.params};
  const CommPlan plan =
      build_plan(random_pattern(setup.topo, 24, 8192, 7), setup.topo,
                 setup.params, table5_strategies()[0]);
  const CompiledPlan compiled(plan, setup.topo, setup.params);
  const std::vector<EngineRun> reference = fresh_reps(setup, compiled, 4);

  const std::unique_ptr<Engine> engine = block_engine(setup);
  std::vector<EngineRun> first;
  for (std::size_t rep = 0; rep < reference.size(); ++rep) {
    first.push_back(run_rep(*engine, compiled, rep));
  }

  // A lone repetition after the block matches a fresh engine bit for bit.
  expect_runs_identical(reference[2], run_rep(*engine, compiled, 2));

  // After a plain reset(), a second pass over the block reproduces the
  // first.
  engine->reset();
  for (std::size_t rep = 0; rep < first.size(); ++rep) {
    SCOPED_TRACE("rep " + std::to_string(rep));
    expect_runs_identical(first[rep], run_rep(*engine, compiled, rep));
  }
}

TEST(MeasureBatch, BitIdenticalAcrossWidthsJobsAndFaults) {
  // measure() over a block of `width` repetitions equals the serial
  // reduction, in repetition order, of the same block replayed by hand on
  // one engine -- at any jobs count, with and without faults.
  const machine::MachineModel mach = machine::preset_machine("lassen");
  const Topology topo = mach.topology(2);
  const CommPattern pattern = random_pattern(topo, 16, 4096, 5);
  const std::size_t num_ranks = static_cast<std::size_t>(topo.num_ranks());

  fault::FaultPlan faults_on;
  faults_on.seed = 3;
  faults_on.link_degradations.push_back({"off-node", 1.5, 2.0, {}});
  faults_on.stragglers.push_back({0, 1.5, 1.25});
  fault::MessageLoss loss;
  loss.path = "off-node";
  loss.probability = 0.1;
  loss.retry.max_attempts = 12;
  faults_on.message_loss.push_back(loss);
  const FaultModel model = faults_on.compile(topo, mach.params);

  for (const StrategyConfig& cfg : table5_strategies()) {
    const CommPlan plan = build_plan(pattern, topo, mach.params, cfg);
    const CompiledPlan compiled(plan, topo, mach.params);
    for (const FaultModel* faults : {(const FaultModel*)nullptr, &model}) {
      const BlockSetup setup{topo, mach.params, faults};
      const std::unique_ptr<Engine> engine = block_engine(setup);
      for (const std::size_t width : kBlockWidths) {
        const std::string label = plan.strategy_name +
                                  (faults ? " faulted" : "") + " width " +
                                  std::to_string(width);
        std::vector<double> per_rank(num_ranks, 0.0);
        double mean = 0.0;
        double lo = std::numeric_limits<double>::infinity();
        double hi = 0.0;
        Trace last;
        for (std::size_t rep = 0; rep < width; ++rep) {
          const EngineRun run = run_rep(*engine, compiled, rep);
          ASSERT_FALSE(run.abort) << label;
          double makespan = 0.0;
          for (std::size_t r = 0; r < num_ranks; ++r) {
            per_rank[r] += run.clocks[r];
            makespan = std::max(makespan, run.clocks[r]);
          }
          mean += makespan;
          lo = std::min(lo, makespan);
          hi = std::max(hi, makespan);
          if (rep + 1 == width) last = run.trace;
        }
        const double inv = 1.0 / static_cast<double>(width);
        mean *= inv;
        for (double& t : per_rank) t *= inv;
        const double max_avg = *std::max_element(per_rank.begin(),
                                                 per_rank.end());

        for (const int jobs : {1, 4, 0}) {
          SCOPED_TRACE(label + " jobs=" + std::to_string(jobs));
          MeasureOptions opts;
          opts.reps = static_cast<int>(width);
          opts.seed = kBlockSeed;
          opts.noise_sigma = kBlockSigma;
          opts.trace_last_rep = true;
          opts.jobs = jobs;
          opts.engine = ExecMode::Compiled;
          opts.faults = faults;
          const MeasureResult got = measure(plan, topo, mach.params, opts);
          EXPECT_EQ(got.max_avg, max_avg);
          EXPECT_EQ(got.makespan_mean, mean);
          EXPECT_EQ(got.makespan_min, lo);
          EXPECT_EQ(got.makespan_max, hi);
          EXPECT_EQ(got.per_rank_mean, per_rank);
          expect_traces_identical(got.trace, last);
        }
      }
    }
  }
}

}  // namespace
}  // namespace hetcomm::core
