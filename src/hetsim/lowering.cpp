#include "hetsim/lowering.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace hetcomm {

void LoweredPhase::add_queue_search(const ParamSet& params,
                                    const std::vector<int>& recv_depth) {
  for (MessageSchedule& msg : messages) {
    msg.completion_base =
        msg.send_occupancy + params.overheads.queue_search_per_entry *
                                 recv_depth[static_cast<std::size_t>(msg.dst)];
  }
}

void LoweredPhase::build_waves(std::vector<std::int32_t>& depth) {
  // msg_dep edges point at earlier messages, so one forward pass computes
  // dep-chain depths and acyclicity is structural.
  const std::size_t n = messages.size();
  wave_members.clear();
  wave_begin.clear();
  depth.assign(n, 0);
  std::int32_t max_depth = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::int32_t d = msg_dep[i];
    if (d < 0) continue;
    depth[i] = depth[static_cast<std::size_t>(d)] + 1;
    max_depth = std::max(max_depth, depth[i]);
  }
  if (max_depth == 0) return;
  // Counting sort by depth, index-ascending within a wave: wave_begin[w]
  // serves as wave w's fill cursor, then shifts back to its start.
  wave_begin.assign(static_cast<std::size_t>(max_depth) + 2, 0);
  for (const std::int32_t d : depth) ++wave_begin[static_cast<std::size_t>(d) + 1];
  for (std::size_t w = 1; w < wave_begin.size(); ++w) {
    wave_begin[w] += wave_begin[w - 1];
  }
  wave_members.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    wave_members[wave_begin[static_cast<std::size_t>(depth[i])]++] =
        static_cast<std::uint32_t>(i);
  }
  for (std::size_t w = static_cast<std::size_t>(max_depth); w > 0; --w) {
    wave_begin[w] = wave_begin[w - 1];
  }
  wave_begin[0] = 0;
}

void LoweredPhase::clear() noexcept {
  steps.clear();
  messages.clear();
  message_meta.clear();
  recv_of_send.clear();
  msg_dep.clear();
  wave_members.clear();
  wave_begin.clear();
  copies.clear();
  packs.clear();
  network_bytes = 0;
  network_messages = 0;
}

void lower_message(LoweredPhase& phase, const Topology& topo,
                   const ParamSet& params, const PathTable& paths, int src,
                   int dst, std::int64_t bytes, int tag, MemSpace space,
                   int rail) {
  LoweredPhase::MessageSchedule msg;
  msg.src = src;
  msg.dst = dst;
  msg.bytes = bytes;
  msg.rail = static_cast<std::int8_t>(rail < 0 ? -1 : rail);
  const std::uint8_t path_id = paths.path_of(src, dst);
  const PathClass path = paths.locality_of(path_id);
  const Protocol proto = params.thresholds.select(space, bytes);
  const PostalParams& pp = params.messages.get(space, proto, path_id);
  const double size = static_cast<double>(bytes);
  msg.send_occupancy = pp.alpha + pp.beta * size;
  msg.drain_occupancy = pp.beta * size;
  msg.rendezvous = proto == Protocol::Rendezvous;
  msg.off_node = path == PathClass::OffNode;
  if (msg.off_node) {
    const double inv_rate = space == MemSpace::Host
                                ? params.injection.inv_rate_cpu
                                : params.injection.inv_rate_gpu;
    msg.src_node = topo.node_of_rank(src);
    msg.dst_node = topo.node_of_rank(dst);
    if (rail >= 0) {
      // Explicit rail assignment (striped plans): pin both endpoints to the
      // rail's NIC pair instead of the default hash-to-lane choice.
      const int lanes = std::max(1, params.injection.nics_per_node);
      msg.src_nic = msg.src_node * lanes + rail;
      msg.dst_nic = msg.dst_node * lanes + rail;
    } else {
      msg.src_nic = params.injection.nic_of(topo.rank_location(src));
      msg.dst_nic = params.injection.nic_of(topo.rank_location(dst));
    }
    msg.nic_occupancy = inv_rate * size + params.overheads.nic_message_overhead;
    phase.network_bytes += bytes;
    ++phase.network_messages;
  }
  phase.messages.push_back(msg);
  phase.message_meta.push_back({tag, space, proto, path_id, path});
}

LoweredPhase::CopyOp lower_copy(const ParamSet& params, int rank, int gpu,
                                CopyDir dir, std::int64_t bytes,
                                int sharing_procs) {
  LoweredPhase::CopyOp op;
  op.rank = rank;
  op.gpu = gpu;
  op.dir = dir;
  op.sharing_procs = sharing_procs;
  op.bytes = bytes;
  // The DMA engine serializes distinct copies.  For shared (MPS-style)
  // copies the measured betas already embody the sharing penalty, so the
  // occupancy uses the raw 1-process link rate scaled down by the sharing
  // degree: concurrent sharers overlap nearly fully while sequential copies
  // still queue.
  const PostalParams raw = copy_params_for(params.copies, dir, 1);
  op.occupancy = params.overheads.dma_op_overhead +
                 raw.beta * static_cast<double>(bytes) / sharing_procs;
  op.duration_base =
      copy_params_for(params.copies, dir, sharing_procs).time(bytes);
  return op;
}

LoweredPhase::PackOp lower_pack(const ParamSet& params, int rank,
                                std::int64_t bytes) {
  return {rank, bytes,
          params.overheads.pack_per_byte * static_cast<double>(bytes)};
}

PostalParams copy_params_for(const CopyParamTable& table, CopyDir dir,
                             int np) {
  if (np < 1) throw std::invalid_argument("copy_params_for: np must be >= 1");
  const PostalParams& one = table.get(dir, 1);
  const PostalParams& shared = table.get(dir, table.shared_procs);
  if (np == 1) return one;
  if (np >= table.shared_procs) {
    // Beyond the measured sharing level the paper observed no benefit in
    // splitting further: keep the *aggregate* throughput flat (per-process
    // rate degrades proportionally) and let the per-copy latency grow with
    // the number of time-sliced MPS clients.
    const double factor = static_cast<double>(np) / table.shared_procs;
    PostalParams out = shared;
    out.alpha = shared.alpha * factor;
    out.beta = shared.beta * factor;
    return out;
  }
  // Geometric interpolation in log(np) between the two measured rows.
  const double f = std::log(static_cast<double>(np)) /
                   std::log(static_cast<double>(table.shared_procs));
  PostalParams out;
  out.alpha = one.alpha * std::pow(shared.alpha / one.alpha, f);
  out.beta = one.beta * std::pow(shared.beta / one.beta, f);
  return out;
}

}  // namespace hetcomm
