#include "core/compiled_plan.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "hetsim/engine.hpp"
#include "obs/engine_metrics.hpp"

namespace hetcomm::core {

namespace {

void check_rank(int rank, int num_ranks, const char* what) {
  if (rank < 0 || rank >= num_ranks) {
    throw std::out_of_range(std::string("CompiledPlan: ") + what + " rank " +
                            std::to_string(rank) + " out of range [0," +
                            std::to_string(num_ranks) + ")");
  }
}

/// Validate a depends_on edge against the ops already compiled for this
/// phase and return the gating *message* index, or -1 when the dependency
/// compiles away (a copy/pack target on the same rank is already ordered
/// by blocking posting).  `op_rank` is the dependent op's executing rank
/// (the source rank for messages).
std::int32_t resolve_dep(const CompiledPhase& out, int depends_on,
                         int op_rank, bool dependent_is_message) {
  if (depends_on < 0) return -1;
  if (depends_on >= static_cast<int>(out.steps.size())) {
    throw std::invalid_argument(
        "CompiledPlan: depends_on " + std::to_string(depends_on) +
        " does not reference an earlier op in the same phase");
  }
  const PhaseStep target = out.steps[static_cast<std::size_t>(depends_on)];
  if (target.kind == StepKind::Message) {
    if (!dependent_is_message) {
      // Copies/packs execute during the posting pass, before any message
      // completes; such an edge could never be honored.
      throw std::invalid_argument(
          "CompiledPlan: copy/pack op cannot depend on a message");
    }
    return static_cast<std::int32_t>(target.index);
  }
  const int target_rank =
      target.kind == StepKind::Copy
          ? out.copies[target.index].rank
          : out.packs[target.index].rank;
  if (target_rank != op_rank) {
    // Blocking posting only orders ops on the same rank's clock; a
    // cross-rank copy dep would silently not gate anything.
    throw std::invalid_argument(
        "CompiledPlan: depends_on targets a copy/pack on rank " +
        std::to_string(target_rank) + " but the dependent op runs on rank " +
        std::to_string(op_rank));
  }
  return -1;  // ordered by the posting pass; no scheduling edge needed
}

}  // namespace

CompiledPlan::CompiledPlan(const CommPlan& plan, const Topology& topo,
                           const ParamSet& params)
    : num_ranks_(topo.num_ranks()),
      num_gpus_(topo.num_gpus()),
      num_nodes_(topo.num_nodes()),
      num_paths_(params.taxonomy.num_classes()),
      nic_lanes_(params.injection.nics_per_node) {
  params.validate();
  const PathTable paths(topo, params.taxonomy);
  phases_.reserve(plan.phases.size());
  std::vector<int> recv_depth(static_cast<std::size_t>(num_ranks_), 0);
  std::vector<std::int32_t> wave_depth;

  for (const PlanPhase& phase : plan.phases) {
    CompiledPhase out;
    out.steps.reserve(phase.ops.size());
    std::fill(recv_depth.begin(), recv_depth.end(), 0);

    for (const PlanOp& op : phase.ops) {
      switch (op.type) {
        case OpType::Message: {
          check_rank(op.src_rank, num_ranks_, "message src");
          check_rank(op.dst_rank, num_ranks_, "message dst");
          if (op.bytes < 0) {
            throw std::invalid_argument(
                "CompiledPlan: negative message size");
          }
          const int lanes = std::max(1, nic_lanes_);
          if (op.rail >= lanes) {
            throw std::invalid_argument(
                "CompiledPlan: rail " + std::to_string(op.rail) + " >= " +
                std::to_string(lanes) + " NIC lane(s)");
          }
          out.msg_dep.push_back(
              resolve_dep(out, op.depends_on, op.src_rank, true));
          out.steps.push_back(
              {StepKind::Message,
               static_cast<std::uint32_t>(out.messages.size())});
          lower_message(out, topo, params, paths, op.src_rank, op.dst_rank,
                        op.bytes, op.tag, op.space, op.rail);
          ++recv_depth[static_cast<std::size_t>(op.dst_rank)];
          break;
        }
        case OpType::Copy: {
          check_rank(op.rank, num_ranks_, "copy");
          if (op.gpu < 0 || op.gpu >= num_gpus_) {
            throw std::out_of_range("CompiledPlan: bad copy gpu " +
                                    std::to_string(op.gpu));
          }
          if (op.bytes < 0) {
            throw std::invalid_argument("CompiledPlan: negative copy size");
          }
          if (op.sharing_procs < 1) {
            throw std::invalid_argument(
                "CompiledPlan: copy sharing_procs must be >= 1");
          }
          resolve_dep(out, op.depends_on, op.rank, false);
          out.steps.push_back(
              {StepKind::Copy, static_cast<std::uint32_t>(out.copies.size())});
          out.copies.push_back(lower_copy(params, op.rank, op.gpu, op.dir,
                                          op.bytes, op.sharing_procs));
          break;
        }
        case OpType::Pack: {
          check_rank(op.rank, num_ranks_, "pack");
          if (op.bytes < 0) {
            throw std::invalid_argument("CompiledPlan: negative pack size");
          }
          resolve_dep(out, op.depends_on, op.rank, false);
          out.steps.push_back(
              {StepKind::Pack, static_cast<std::uint32_t>(out.packs.size())});
          out.packs.push_back(lower_pack(params, op.rank, op.bytes));
          break;
        }
      }
    }

    // Every Message op posts its send and its matching receive together
    // (run_plan's contract), and FIFO pairing per (src, dst, tag) preserves
    // posting order on both sides, so the k-th send of a key pairs with the
    // k-th receive of that key -- the same op.  The matching resolve()
    // derives per call is therefore the identity.
    out.recv_of_send.resize(out.messages.size());
    std::iota(out.recv_of_send.begin(), out.recv_of_send.end(), 0u);
    out.add_queue_search(params, recv_depth);
    out.build_waves(wave_depth);

    phases_.push_back(std::move(out));
  }
}

std::int64_t CompiledPlan::total_messages() const noexcept {
  std::int64_t n = 0;
  for (const CompiledPhase& p : phases_) {
    n += static_cast<std::int64_t>(p.messages.size());
  }
  return n;
}

}  // namespace hetcomm::core

namespace hetcomm {

// Defined here (not engine.cpp) so the hetsim layer never depends on core's
// plan types; the phases themselves run in engine.cpp's run_phase.
void Engine::execute(const core::CompiledPlan& plan) {
  if (plan.num_ranks() != topo_.num_ranks() ||
      plan.num_gpus() != topo_.num_gpus() ||
      plan.num_nodes() != topo_.num_nodes() ||
      plan.num_paths() != paths_.num_classes() ||
      plan.nic_lanes() != params_.injection.nics_per_node) {
    throw std::invalid_argument(
        "Engine::execute: plan compiled for a different machine shape");
  }
  if (has_pending()) {
    throw std::logic_error(
        "Engine::execute: engine holds pending isend/irecv operations; "
        "resolve() or reset() first");
  }
  if (sched_order_cache_.size() < plan.phases().size()) {
    sched_order_cache_.resize(plan.phases().size());
  }
  std::size_t phase_index = 0;
  for (const core::CompiledPhase& phase : plan.phases()) {
    // The per-phase cache slot warm-starts the schedule sort from the
    // previous repetition's order.
    run_phase(phase, sched_order_cache_[phase_index]);
    ++phase_index;
    // Phase-end clocks ride the sampled tier: max_clock() over every rank
    // is too hot for steady-state repetitions (see core::measure).
    if (metrics_smp_) metrics_smp_->on_phase_end(max_clock());
  }
}

}  // namespace hetcomm
