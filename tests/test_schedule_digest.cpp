// Pinned schedule digests: the engine's scheduler against fixed numbers.
//
// The compiled-vs-interpreted equality tests compare two entry points of the
// engine with each other; they cannot tell when both drift together.  These
// tests pin FNV-1a digests (core/fnv1a.hpp) of everything a schedule
// produces -- final clocks, trace records, network counters and engine
// metrics -- so any change to the send/resend loop, the lowering of a
// message or copy into its costs, the (ready, index) schedule order, the
// noise or the fault streams moves a number here.  Covered:
//   * every all_strategies() plan on every machine preset, unfaulted and
//     under faults/degraded_rail.json (dual-rail machines) and
//     faults/lossy_fabric.json, through run_plan(CommPlan) -- resolve() --
//     and through execute(CompiledPlan), three repetitions on one reused
//     engine; both entry points must reproduce the same digest;
//   * a tapered fat-tree fabric;
//   * resolve()'s own callers, whose matching is not the identity: the
//     simmpi collectives, the ping-pong calibration helpers, and a
//     hand-posted batch with receives before sends, repeated (src, dst,
//     tag) keys, explicit rails and depends_on edges;
//   * faults/flaky_abort.json on the hand-posted batches, whose aborts must
//     drop every pending operation;
//   * the exact error messages of a failed resolve().
// The values were computed with the two-scheduler engine these tests were
// written against; a change that alters any of them alters the simulator's
// results and must say so.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "benchutil/pingpong.hpp"
#include "core/comm_pattern.hpp"
#include "core/compiled_plan.hpp"
#include "core/executor.hpp"
#include "core/fnv1a.hpp"
#include "core/strategy.hpp"
#include "fault/fault_json.hpp"
#include "fault/plan.hpp"
#include "hetsim/engine.hpp"
#include "hetsim/faults.hpp"
#include "hetsim/noise.hpp"
#include "machine/machine.hpp"
#include "obs/engine_metrics.hpp"
#include "simmpi/collectives.hpp"

namespace hetcomm {
namespace {

/// Running FNV-1a digest.
struct Digest {
  std::uint64_t h = core::kFnv1aOffset;
  void word(std::uint64_t w) { h = core::fnv1a_word(h, w); }
  void integer(std::int64_t v) { word(static_cast<std::uint64_t>(v)); }
  void real(double v) { word(std::bit_cast<std::uint64_t>(v)); }
  void text(std::string_view s) {
    integer(static_cast<std::int64_t>(s.size()));
    h = core::fnv1a_bytes(h, s);
  }
};

void fold_trace(Digest& d, const Trace& trace) {
  d.integer(static_cast<std::int64_t>(trace.messages.size()));
  for (const MessageTrace& m : trace.messages) {
    d.integer(m.src);
    d.integer(m.dst);
    d.integer(m.bytes);
    d.integer(m.tag);
    d.integer(static_cast<int>(m.space));
    d.integer(static_cast<int>(m.protocol));
    d.integer(static_cast<int>(m.path));
    d.real(m.ready);
    d.real(m.start);
    d.real(m.completion);
  }
  d.integer(static_cast<std::int64_t>(trace.copies.size()));
  for (const CopyTrace& c : trace.copies) {
    d.integer(c.rank);
    d.integer(c.gpu);
    d.integer(static_cast<int>(c.dir));
    d.integer(c.bytes);
    d.integer(c.sharing_procs);
    d.real(c.start);
    d.real(c.completion);
  }
}

/// Every metrics slot both entry points record.  phase_makespan is left
/// out: only execute() records phase ends.
void fold_metrics(Digest& d, const obs::EngineMetrics& m) {
  for (int p = 0; p < obs::EngineMetrics::kPaths; ++p) {
    for (int q = 0; q < obs::EngineMetrics::kProtos; ++q) {
      d.integer(m.msgs[p][q]);
      d.integer(m.msg_bytes[p][q]);
    }
    d.real(m.fault_degraded_seconds[p]);
  }
  for (int r = 0; r < obs::kNumSimResources; ++r) {
    const obs::Histogram& w = m.queue_wait[r];
    d.integer(w.count());
    d.real(w.sum());
    for (int b = 0; b < obs::Histogram::kBins; ++b) d.integer(w.bins()[b]);
    d.integer(m.zero_waits[r]);
    d.real(m.occupancy_seconds[r]);
  }
  for (const std::int64_t b : m.nic_bytes) d.integer(b);
  for (const std::int64_t b : m.nic_striped_bytes) d.integer(b);
  for (int dir = 0; dir < 2; ++dir) {
    for (int shared = 0; shared < 2; ++shared) {
      d.integer(m.copy_count[dir][shared]);
      d.integer(m.copy_bytes[dir][shared]);
      d.real(m.copy_seconds[dir][shared]);
    }
  }
  d.integer(m.packs);
  d.integer(m.pack_bytes);
  d.real(m.pack_seconds);
  d.integer(m.fault_retries);
  d.integer(m.fault_failovers);
  d.integer(m.fault_degraded);
  d.real(m.fault_retry_seconds);
  for (const std::int64_t r : m.fault_rail_retries) d.integer(r);
}

void fold_abort(Digest& d, const FaultAbort& a) {
  d.integer(static_cast<int>(a.reason));
  d.integer(a.src);
  d.integer(a.dst);
  d.integer(a.path_id);
  d.text(a.path);
  d.integer(a.attempts);
}

/// Fold one run's outcome: clocks, trace and -- unless it aborted, when
/// the counters of the interrupted phase are not part of the contract --
/// the network counters.
void fold_run(Digest& d, const Engine& engine,
              const std::optional<FaultAbort>& abort) {
  d.integer(abort.has_value() ? 1 : 0);
  if (abort) {
    fold_abort(d, *abort);
  } else {
    d.integer(engine.network_bytes());
    d.integer(engine.network_messages());
  }
  for (const double c : engine.clocks()) d.real(c);
  fold_trace(d, engine.trace());
}

template <typename Body>
std::optional<FaultAbort> run_or_abort(Body&& body) {
  try {
    body();
  } catch (const FaultAbort& abort) {
    return abort;
  }
  return std::nullopt;
}

/// Deterministic pattern touching every path class and protocol: each GPU
/// sends to its neighbour, to a GPU half the machine away and to a strided
/// GPU, with sizes cycling from short to rendezvous.
core::CommPattern digest_pattern(int num_gpus) {
  core::CommPattern p(num_gpus);
  constexpr std::int64_t kSizes[] = {300, 2048, 8000, 40000, 120000};
  for (int g = 0; g < num_gpus; ++g) {
    p.add(g, (g + 1) % num_gpus, kSizes[g % 5]);
    p.add(g, (g + num_gpus / 2 + 1) % num_gpus, kSizes[(g + 2) % 5]);
    p.add(g, (3 * g + 2) % num_gpus, kSizes[(g + 4) % 5]);
  }
  return p;
}

std::shared_ptr<const FaultModel> load_faults(const std::string& file,
                                              const Topology& topo,
                                              const ParamSet& params) {
  return std::make_shared<const FaultModel>(
      fault::load_fault_file(std::string(HETCOMM_FAULTS_DIR) + "/" + file +
                             ".json")
          .compile(topo, params));
}

constexpr int kReps = 3;
constexpr double kSigma = 0.03;
constexpr std::uint64_t kSeed = 0xd16e57ULL;

/// Digest of every strategy's plan on one machine, `kReps` repetitions on
/// one reused engine each, through resolve() (compiled == false) or
/// execute().
std::uint64_t strategies_digest(const Topology& topo, const ParamSet& params,
                                const FaultModel* faults,
                                const FatTreeConfig* fabric, bool compiled) {
  const core::CommPattern pattern = digest_pattern(topo.num_gpus());
  Digest d;
  for (const core::StrategyConfig& cfg : core::all_strategies()) {
    const core::CommPlan plan = core::build_plan(pattern, topo, params, cfg);
    const core::CompiledPlan compiled_plan(plan, topo, params);
    Engine engine(topo, params, NoiseModel(kSeed, kSigma));
    if (fabric != nullptr) engine.set_fabric(*fabric);
    engine.set_tracing(true);
    engine.set_faults(faults);
    obs::EngineMetrics metrics;
    engine.set_metrics(&metrics);
    d.text(plan.strategy_name);
    for (int rep = 0; rep < kReps; ++rep) {
      engine.reset(mix_seed(kSeed, static_cast<std::uint64_t>(rep)));
      const std::optional<FaultAbort> abort = run_or_abort([&] {
        if (compiled) {
          engine.execute(compiled_plan);
        } else {
          (void)core::run_plan(engine, plan);
        }
      });
      fold_run(d, engine, abort);
    }
    fold_metrics(d, metrics);
  }
  return d.h;
}

struct StrategyPin {
  const char* machine;
  const char* faults;  ///< faults/<name>.json, or "none"
  std::uint64_t digest;
};

// Computed with the two-scheduler engine (see the file comment).
constexpr StrategyPin kStrategyPins[] = {
    {"lassen", "none", 0xade2e240d224828fULL},
    {"lassen", "lossy_fabric", 0xec6d82b48eea668eULL},
    {"summit", "none", 0xb7d1d4263872a1ddULL},
    {"summit", "lossy_fabric", 0x3a6e2980506de7eaULL},
    {"frontier", "none", 0xf4dbcc9ab2f13556ULL},
    {"frontier", "lossy_fabric", 0x7a8e8a3015e991b4ULL},
    {"delta", "none", 0x8f83b9dc9ea16b8fULL},
    {"delta", "lossy_fabric", 0xfd7aecbda88c2abdULL},
    {"nvisland", "none", 0x862919e22cb5f2b2ULL},
    {"nvisland", "lossy_fabric", 0xd9adca28033f4e5dULL},
    {"nvisland", "degraded_rail", 0x130827eaa67e29aeULL},
};

TEST(ScheduleDigest, EveryStrategyOnEveryPresetIsPinned) {
  std::vector<std::string> covered;
  for (const StrategyPin& pin : kStrategyPins) {
    const machine::MachineModel model = machine::preset_machine(pin.machine);
    const Topology topo = model.topology(4);
    const std::string faults_name = pin.faults;
    const std::shared_ptr<const FaultModel> faults =
        faults_name == "none" ? nullptr
                              : load_faults(faults_name, topo, model.params);
    for (const bool compiled : {false, true}) {
      SCOPED_TRACE(std::string(pin.machine) + " " + faults_name +
                   (compiled ? " execute" : " resolve"));
      const std::uint64_t got = strategies_digest(topo, model.params,
                                                  faults.get(), nullptr,
                                                  compiled);
      EXPECT_EQ(got, pin.digest) << std::hex << "0x" << got;
    }
    covered.push_back(std::string(pin.machine) + "/" + faults_name);
  }
  // Every preset, with and without faults; degraded_rail names NIC lane 1,
  // so only dual-rail machines host it.
  for (const std::string& name : machine::preset_machine_names()) {
    const machine::MachineModel model = machine::preset_machine(name);
    std::vector<std::string> want = {"none", "lossy_fabric"};
    if (model.params.injection.nics_per_node > 1) {
      want.push_back("degraded_rail");
    }
    for (const std::string& f : want) {
      EXPECT_NE(std::find(covered.begin(), covered.end(), name + "/" + f),
                covered.end())
          << name << "/" << f << " has no pinned digest";
    }
  }
}

TEST(ScheduleDigest, FabricIsPinned) {
  FatTreeConfig fabric;
  fabric.taper = 4.0;
  fabric.nodes_per_pod = 2;
  const struct {
    const char* machine;
    const char* faults;
    std::uint64_t digest;
  } pins[] = {
      {"lassen", "none", 0xc7feeaa92072ba9ULL},
      {"nvisland", "lossy_fabric", 0xefa36936f5f9b696ULL},
  };
  for (const auto& pin : pins) {
    const machine::MachineModel model = machine::preset_machine(pin.machine);
    const Topology topo = model.topology(4);
    const std::string faults_name = pin.faults;
    const std::shared_ptr<const FaultModel> faults =
        faults_name == "none" ? nullptr
                              : load_faults(faults_name, topo, model.params);
    for (const bool compiled : {false, true}) {
      SCOPED_TRACE(std::string(pin.machine) + " " + faults_name +
                   (compiled ? " execute" : " resolve"));
      const std::uint64_t got = strategies_digest(topo, model.params,
                                                  faults.get(), &fabric,
                                                  compiled);
      EXPECT_EQ(got, pin.digest) << std::hex << "0x" << got;
    }
  }
}

TEST(ScheduleDigest, CollectivesArePinned) {
  // Every simmpi collective in turn on one engine, on the world and on
  // split communicators, then again under message loss.
  const machine::MachineModel model = machine::preset_machine("lassen");
  const Topology topo = model.topology(2);
  const std::shared_ptr<const FaultModel> lossy =
      load_faults("lossy_fabric", topo, model.params);
  Digest d;
  for (const FaultModel* faults : {static_cast<const FaultModel*>(nullptr),
                                   lossy.get()}) {
    Engine engine(topo, model.params, NoiseModel(kSeed, kSigma));
    engine.set_tracing(true);
    engine.set_faults(faults);
    obs::EngineMetrics metrics;
    engine.set_metrics(&metrics);
    simmpi::Comm world = simmpi::Comm::world(engine);
    const int n = world.size();
    const std::optional<FaultAbort> abort = run_or_abort([&] {
      simmpi::barrier(world);
      simmpi::bcast(world, 3, 4096);
      simmpi::bcast(world, 0, 200000, MemSpace::Device);
      std::vector<std::int64_t> per_rank(static_cast<std::size_t>(n));
      for (int r = 0; r < n; ++r) per_rank[r] = 100 + 700 * r;
      simmpi::gatherv(world, 5, per_rank);
      simmpi::scatterv(world, 2, per_rank, MemSpace::Device);
      simmpi::allgather(world, 1500);
      std::vector<std::vector<std::int64_t>> sizes(
          static_cast<std::size_t>(n),
          std::vector<std::int64_t>(static_cast<std::size_t>(n), 0));
      for (int i = 0; i < n; ++i) {
        for (int j = 0; j < n; ++j) {
          if ((i * 7 + j * 3) % 4 != 0) sizes[i][j] = 64 + 977 * ((i + j) % 9);
        }
      }
      simmpi::alltoallv(world, sizes);
      simmpi::allreduce(world, 8192);
      simmpi::reduce(world, 7, 30000, MemSpace::Device);
      simmpi::sendrecv(world, 1, n - 1, 50000);
      std::vector<std::vector<std::pair<int, std::int64_t>>> nbrs(
          static_cast<std::size_t>(n));
      for (int i = 0; i < n; ++i) {
        nbrs[i].push_back({(i + 1) % n, 2000 + 10 * i});
        nbrs[i].push_back({(i + n - 3) % n, 90000});
      }
      simmpi::neighbor_alltoallv(world, nbrs);
      for (auto& [node, comm] : world.split_by_node()) {
        simmpi::allreduce(comm, 4096 + node);
        simmpi::bcast(comm, 0, 65536, MemSpace::Device);
      }
      for (auto& [socket, comm] : world.split_by_socket()) {
        simmpi::allgather(comm, 512 + socket);
      }
    });
    fold_run(d, engine, abort);
    fold_metrics(d, metrics);
  }
  EXPECT_EQ(d.h, 0xfe885fc5a2fcd17bULL) << std::hex << "0x" << d.h;
}

TEST(ScheduleDigest, CalibrationHelpersArePinned) {
  const machine::MachineModel model = machine::preset_machine("lassen");
  const Topology topo = model.topology(2);
  benchutil::MeasureOpts opts;
  opts.iterations = 12;
  opts.seed = 23;
  opts.noise_sigma = 0.05;
  Digest d;
  for (const PathClass path :
       {PathClass::OnSocket, PathClass::OnNode, PathClass::OffNode}) {
    const auto [a, b] = benchutil::rank_pair_for(topo, path);
    for (const std::int64_t bytes : {8, 5000, 70000, 1 << 20}) {
      for (const MemSpace space : {MemSpace::Host, MemSpace::Device}) {
        d.real(benchutil::ping_pong(topo, model.params, a, b, bytes, space,
                                    opts));
      }
    }
  }
  for (const int ppn : {1, 4, topo.ppn()}) {
    for (const std::int64_t bytes : {1000, 300000}) {
      d.real(benchutil::node_pong(topo, model.params, 0, 1, ppn, bytes,
                                  MemSpace::Host, opts));
      d.real(benchutil::node_pong(topo, model.params, 1, 0, ppn, bytes,
                                  MemSpace::Device, opts));
    }
  }
  for (const CopyDir dir : {CopyDir::HostToDevice, CopyDir::DeviceToHost}) {
    for (const int np : {1, 2, 4}) {
      d.real(benchutil::copy_time(topo, model.params, 1, dir, 1000003, np,
                                  opts));
    }
  }
  EXPECT_EQ(d.h, 0x20411e6fff9a405eULL) << std::hex << "0x" << d.h;
}

/// Hand-posted batches whose matching is not the identity: receives posted
/// before their sends, repeated (src, dst, tag) keys paired FIFO, explicit
/// rails, depends_on chains, and copies/packs/compute between batches.
void post_hand_batches(Engine& engine) {
  const int n = engine.topology().num_ranks();
  const int far = n - 1;  // another node
  // Batch 1: receives first, repeated keys, mixed spaces and protocols.
  engine.irecv(far, 0, 64, 7, MemSpace::Host);
  engine.irecv(far, 0, 300000, 7, MemSpace::Host);
  engine.irecv(1, 2, 5000, 1, MemSpace::Device);
  engine.irecv(far, 0, 9000, 7, MemSpace::Host);
  engine.isend(2, 1, 5000, 1, MemSpace::Device);
  engine.isend(0, far, 64, 7, MemSpace::Host);
  engine.irecv(0, far, 120000, 3, MemSpace::Device);
  engine.isend(0, far, 300000, 7, MemSpace::Host);
  engine.isend(far, 0, 120000, 3, MemSpace::Device);
  engine.isend(0, far, 9000, 7, MemSpace::Host);
  engine.copy(3, 0, CopyDir::DeviceToHost, 250000, 1);
  engine.pack(2, 40000);
  engine.resolve();
  // Batch 2: railed stripes and a depends_on chain, receives interleaved.
  const int lanes = std::max(1, engine.params().injection.nics_per_node);
  int prev = -1;
  for (int k = 0; k < 6; ++k) {
    engine.irecv(far - 1, 1, 70000 + k, 11, MemSpace::Device);
    prev = engine.isend(1, far - 1, 70000 + k, 11, MemSpace::Device,
                        k % lanes, prev);
  }
  const int head = engine.isend(3, far, 180000, 12, MemSpace::Host);
  engine.isend(3, far, 2000, 12, MemSpace::Host, -1, head);
  engine.irecv(far, 3, 180000, 12, MemSpace::Host);
  engine.irecv(far, 3, 2000, 12, MemSpace::Host);
  engine.compute(far, 1e-5);
  engine.copy(far, engine.topology().num_gpus() - 1, CopyDir::HostToDevice,
              180000, 2);
  engine.resolve();
  // Batch 3: an all-pairs burst among the first eight ranks, posted in
  // reverse on the receive side.
  for (int dst = 7; dst >= 0; --dst) {
    for (int src = 7; src >= 0; --src) {
      if (src != dst) engine.irecv(dst, src, 1000 * (src + 1), 5, MemSpace::Host);
    }
  }
  for (int src = 0; src < 8; ++src) {
    for (int dst = 0; dst < 8; ++dst) {
      if (src != dst) engine.isend(src, dst, 1000 * (src + 1), 5, MemSpace::Host);
    }
  }
  engine.resolve();
}

TEST(ScheduleDigest, HandPostedBatchesArePinned) {
  const struct {
    const char* machine;
    const char* faults;
    std::uint64_t digest;
  } pins[] = {
      {"lassen", "none", 0x7c7dca44056cd255ULL},
      {"lassen", "lossy_fabric", 0x84669cd8373a5105ULL},
      {"lassen", "flaky_abort", 0xe796b7605c447fa3ULL},
      {"nvisland", "none", 0x9bca7adad5c6347eULL},
      {"nvisland", "degraded_rail", 0x7d8fae51acba24c1ULL},
  };
  for (const auto& pin : pins) {
    const machine::MachineModel model = machine::preset_machine(pin.machine);
    const Topology topo = model.topology(2);
    const std::string faults_name = pin.faults;
    const std::shared_ptr<const FaultModel> faults =
        faults_name == "none" ? nullptr
                              : load_faults(faults_name, topo, model.params);
    Digest d;
    Engine engine(topo, model.params, NoiseModel(kSeed, kSigma));
    engine.set_tracing(true);
    engine.set_faults(faults.get());
    obs::EngineMetrics metrics;
    engine.set_metrics(&metrics);
    for (int rep = 0; rep < kReps; ++rep) {
      engine.reset(mix_seed(kSeed, static_cast<std::uint64_t>(rep)));
      const std::optional<FaultAbort> abort =
          run_or_abort([&] { post_hand_batches(engine); });
      // An abort drops every pending operation.
      EXPECT_FALSE(engine.has_pending());
      fold_run(d, engine, abort);
    }
    fold_metrics(d, metrics);
    EXPECT_EQ(d.h, pin.digest)
        << pin.machine << " " << faults_name << std::hex << " 0x" << d.h;
  }
}

std::string resolve_error(Engine& engine) {
  try {
    engine.resolve();
  } catch (const std::logic_error& e) {
    EXPECT_FALSE(engine.has_pending());
    return e.what();
  }
  return "";
}

TEST(ScheduleDigest, ResolveErrorMessagesArePinned) {
  Engine engine(Topology(presets::lassen(2)), lassen_params());
  engine.isend(0, 1, 10, 2, MemSpace::Host);
  EXPECT_EQ(resolve_error(engine), "Engine::resolve: unmatched send 0->1 tag 2");
  engine.irecv(1, 0, 10, 2, MemSpace::Host);
  EXPECT_EQ(resolve_error(engine),
            "Engine::resolve: 1 unmatched receive(s)");
  engine.isend(0, 1, 10, 2, MemSpace::Host);
  engine.irecv(1, 0, 10, 3, MemSpace::Host);
  EXPECT_EQ(resolve_error(engine),
            "Engine::resolve: unmatched send 0->1 tag 2");
  engine.isend(0, 1, 10, 4, MemSpace::Host);
  engine.irecv(1, 0, 10, 3, MemSpace::Host);
  EXPECT_EQ(resolve_error(engine),
            "Engine::resolve: unmatched receive 0->1 tag 3");
  engine.isend(0, 1, 10, 2, MemSpace::Host);
  engine.irecv(1, 0, 11, 2, MemSpace::Host);
  EXPECT_EQ(resolve_error(engine),
            "Engine::resolve: size mismatch 0->1 tag 2: send 10B vs recv 11B");
  const int recv = engine.irecv(1, 0, 10, 2, MemSpace::Host);
  engine.isend(0, 1, 10, 2, MemSpace::Host, -1, recv);
  EXPECT_EQ(resolve_error(engine),
            "Engine::resolve: send " + std::to_string(recv + 1) +
                " depends on request " + std::to_string(recv) +
                ", which is not a send");
  // A dependency on a send resolved in an earlier batch is not in this
  // batch either.
  const int old = engine.isend(0, 1, 10, 2, MemSpace::Host);
  engine.irecv(1, 0, 10, 2, MemSpace::Host);
  engine.resolve();
  engine.isend(0, 1, 10, 2, MemSpace::Host, -1, old);
  engine.irecv(1, 0, 10, 2, MemSpace::Host);
  EXPECT_EQ(resolve_error(engine),
            "Engine::resolve: send " + std::to_string(old + 2) +
                " depends on request " + std::to_string(old) +
                ", which is not a send");
}

}  // namespace
}  // namespace hetcomm
