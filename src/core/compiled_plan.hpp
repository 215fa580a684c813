#pragma once
// Compile-once / simulate-many execution of CommPlans.
//
// core::measure() runs the same CommPlan hundreds to thousands of times with
// nothing but the noise seed changing between repetitions.  Interpreting the
// plan op-by-op repeats a large amount of noise-independent work every rep:
// send/receive matching, path classification (on-socket / on-node /
// off-node), protocol selection, alpha/beta parameter lookups, queue-depth
// counting, and resource-id derivation (ports, NIC servers, DMA engines).
//
// CompiledPlan hoists all of that out of the repetition loop.  Compiling a
// (CommPlan, Topology, ParamSet) triple lowers each phase into the op tables
// of hetsim/lowering.hpp -- the same tables, filled by the same
// lower_message / lower_copy / lower_pack, that Engine::resolve() builds
// for the batch it matched:
//
//   * messages: matched send/receive pairing (FIFO per (src,dst,tag); here
//     the identity, since each op posts its send with its receive), path
//     class, protocol, sender occupancy alpha+beta*s, receiver drain beta*s,
//     completion base alpha+beta*s+queue_cost, NIC occupancy, node ids,
//     dependency waves;
//   * copies: interpolated copy parameters, DMA occupancy, base duration;
//   * packs: base duration.
//
// Engine::execute(plan) then performs only the rep-varying work -- posting,
// noise draws, single-server queueing, clock advancement -- in the engine's
// one schedule body, on member-owned scratch that is cleared, never
// reallocated, across reps.  Execution is bit-identical (clocks, traces,
// counters, noise-stream position) to driving the same plan through
// run_plan()'s isend/irecv/copy/pack + resolve() path;
// tests/test_compiled_plan.cpp and tests/test_schedule_digest.cpp hold that
// contract.

#include <cstdint>
#include <vector>

#include "core/plan.hpp"
#include "hetsim/lowering.hpp"
#include "hetsim/params.hpp"
#include "hetsim/topology.hpp"

namespace hetcomm::core {

/// One phase of a compiled plan: its lowered op tables plus the posting
/// order that interleaves them.
using CompiledPhase = LoweredPhase;

/// Immutable compiled form of a CommPlan for one (Topology, ParamSet).
/// Thread-safe to share by const reference across workers: execution
/// mutates only the executing Engine.
class CompiledPlan {
 public:
  /// Compile `plan` against `topo`/`params`.  Performs the same
  /// validation the interpreted path would: bad ranks/GPUs and negative
  /// sizes throw (std::out_of_range / std::invalid_argument), and a phase
  /// whose sends and receives cannot be fully FIFO-matched throws
  /// std::logic_error -- at compile time, before any repetition runs.
  CompiledPlan(const CommPlan& plan, const Topology& topo,
               const ParamSet& params);

  [[nodiscard]] const std::vector<CompiledPhase>& phases() const noexcept {
    return phases_;
  }
  /// Structural shape of the machine this plan was compiled for;
  /// Engine::execute() rejects engines with a different shape.
  [[nodiscard]] int num_ranks() const noexcept { return num_ranks_; }
  [[nodiscard]] int num_gpus() const noexcept { return num_gpus_; }
  [[nodiscard]] int num_nodes() const noexcept { return num_nodes_; }
  /// Path-class count and NIC-lane count the plan's precomputed ids assume
  /// (taxonomy/NIC layout are structural too, not just the shape).
  [[nodiscard]] int num_paths() const noexcept { return num_paths_; }
  [[nodiscard]] int nic_lanes() const noexcept { return nic_lanes_; }

  /// Total message count across phases (diagnostics / sizing).
  [[nodiscard]] std::int64_t total_messages() const noexcept;

 private:
  std::vector<CompiledPhase> phases_;
  int num_ranks_ = 0;
  int num_gpus_ = 0;
  int num_nodes_ = 0;
  int num_paths_ = 0;
  int nic_lanes_ = 1;
};

}  // namespace hetcomm::core
