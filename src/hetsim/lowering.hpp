#pragma once
// Lowering: messages, copies and packs turned into the rep-invariant costs
// the engine's one schedule body runs.
//
// A LoweredPhase is one phase's flat struct-of-arrays op tables.  Every
// entry carries its path class, protocol, postal alpha+beta*s occupancies,
// queue-search term, NIC servers and copy/pack durations, pre-folded into
// the doubles the simulation charges.  Both engine entry points fill one:
//   * Engine::resolve() matches its pending sends to receives and lowers
//     the matched batch into a member-owned table, then schedules it;
//   * core::CompiledPlan lowers every phase of a CommPlan once, and
//     Engine::execute() replays the tables each repetition.
// lower_message / lower_copy / lower_pack and add_queue_search are the only
// places the cost expressions are written, so the two entry points cannot
// drift apart.

#include <cstdint>
#include <vector>

#include "hetsim/params.hpp"
#include "hetsim/taxonomy.hpp"
#include "hetsim/topology.hpp"

namespace hetcomm {

/// Posting-order step: which op table the next op lives in.
enum class StepKind : std::uint8_t { Message, Copy, Pack };

struct PhaseStep {
  StepKind kind = StepKind::Message;
  std::uint32_t index = 0;  ///< index into the phase's per-kind table
};

struct LoweredPhase {
  /// Posting order interleaving the op tables (noise draws happen in
  /// posting order).  Compiled plans only: resolve() runs copies and packs
  /// as they are posted.
  std::vector<PhaseStep> steps;

  // -- Messages ----------------------------------------------------------
  // Hot scheduling constants, read every repetition in the inner loop.
  struct MessageSchedule {
    std::int32_t src = -1;
    std::int32_t dst = -1;
    std::int64_t bytes = 0;
    double send_occupancy = 0.0;   ///< alpha + beta*s (sender port)
    double drain_occupancy = 0.0;  ///< beta*s (receiver port)
    double completion_base = 0.0;  ///< alpha + beta*s + queue_cost (noised)
    double nic_occupancy = 0.0;    ///< inv_rate*s + nic_overhead (off-node)
    std::int32_t src_node = -1;    ///< valid when off_node
    std::int32_t dst_node = -1;
    std::int32_t src_nic = -1;     ///< NIC-lane server index (off-node)
    std::int32_t dst_nic = -1;
    std::int8_t rail = -1;         ///< explicit NIC lane (-1 = hashed)
    bool off_node = false;
    bool rendezvous = false;       ///< ready waits for the receive posting
  };
  // Cold metadata, touched only by tracing, faults and the metrics
  // invariant tier.
  struct MessageMeta {
    int tag = 0;
    MemSpace space = MemSpace::Host;
    Protocol protocol = Protocol::Eager;
    std::uint8_t path_id = 0;         ///< taxonomy class id (metrics slot)
    PathClass path = PathClass::OnSocket;  ///< base locality (traces)
  };
  std::vector<MessageSchedule> messages;  ///< in send posting order
  std::vector<MessageMeta> message_meta;  ///< index-aligned with messages
  /// messages[i]'s send is FIFO-matched (per (src, dst, tag)) to the
  /// recv_of_send[i]-th receive of the phase in posting order.  Compiled
  /// plans post each send with its receive, so there it is the identity.
  std::vector<std::uint32_t> recv_of_send;
  /// messages[i] becomes ready no earlier than messages[msg_dep[i]]'s
  /// completion (-1 = independent); edges always point to earlier
  /// messages.
  std::vector<std::int32_t> msg_dep;
  /// Dependency waves: when any msg_dep edge exists, wave w's message
  /// indices are wave_members[wave_begin[w] .. wave_begin[w+1]), bucketed
  /// by dep-chain depth, index-ascending within a wave.  Empty wave_begin
  /// means one wave of all messages.
  std::vector<std::uint32_t> wave_members;
  std::vector<std::uint32_t> wave_begin;
  [[nodiscard]] std::size_t num_waves() const noexcept {
    return wave_begin.empty() ? 1 : wave_begin.size() - 1;
  }

  // -- Copies ------------------------------------------------------------
  struct CopyOp {
    std::int32_t rank = -1;
    std::int32_t gpu = -1;
    CopyDir dir = CopyDir::DeviceToHost;
    std::int32_t sharing_procs = 1;
    std::int64_t bytes = 0;
    double occupancy = 0.0;      ///< dma_op_overhead + raw_beta*s/sharing
    double duration_base = 0.0;  ///< interpolated alpha + beta*s (noised)
  };
  std::vector<CopyOp> copies;

  // -- Packs -------------------------------------------------------------
  struct PackOp {
    std::int32_t rank = -1;
    std::int64_t bytes = 0;
    double duration_base = 0.0;  ///< pack_per_byte * s (noised)
  };
  std::vector<PackOp> packs;

  // Phase-constant network counters (sum over off-node messages), added to
  // the engine's totals once per scheduled phase.
  std::int64_t network_bytes = 0;
  std::int64_t network_messages = 0;

  /// Fold the queue-search cost into every message's completion base:
  /// proportional to `recv_depth[dst]`, the receives its destination has
  /// posted in this phase (a proxy for posted-queue length).
  void add_queue_search(const ParamSet& params,
                        const std::vector<int>& recv_depth);
  /// Bucket the messages into wave_members/wave_begin from msg_dep.
  /// `depth` is caller-owned scratch.
  void build_waves(std::vector<std::int32_t>& depth);
  /// Empty every table, keeping capacity.
  void clear() noexcept;
};

/// Append one message to `phase`'s message tables and network counters:
/// its path class, protocol, alpha+beta*s occupancies and NIC servers
/// (`rail` >= 0 pins both ends to that lane).  Its queue-search term
/// joins once the phase is complete (add_queue_search).  Operands are
/// assumed validated.
void lower_message(LoweredPhase& phase, const Topology& topo,
                   const ParamSet& params, const PathTable& paths, int src,
                   int dst, std::int64_t bytes, int tag, MemSpace space,
                   int rail);

/// A host<->device copy of `bytes` by `rank` against `gpu`'s DMA engine,
/// one of `sharing_procs` concurrent sharers.
[[nodiscard]] LoweredPhase::CopyOp lower_copy(const ParamSet& params, int rank,
                                              int gpu, CopyDir dir,
                                              std::int64_t bytes,
                                              int sharing_procs);

/// A CPU-side pack/unpack of `bytes` on `rank`.
[[nodiscard]] LoweredPhase::PackOp lower_pack(const ParamSet& params, int rank,
                                              std::int64_t bytes);

/// Copy parameters for `np` processes sharing one GPU's DMA engine.
/// np == 1 and np == table.shared_procs return measured rows; intermediate
/// values interpolate geometrically in np.  Above the measured sharing
/// level both alpha and beta scale linearly with np (flat aggregate
/// throughput, growing per-client latency), reflecting the paper's "no
/// benefit past four processes" observation.
[[nodiscard]] PostalParams copy_params_for(const CopyParamTable& table,
                                           CopyDir dir, int np);

}  // namespace hetcomm
