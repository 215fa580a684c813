#include "core/strategies/common.hpp"

namespace hetcomm::core::detail {

NodeTraffic internode_traffic(const CommPattern& pattern,
                              const Topology& topo) {
  NodeTraffic traffic;
  for (int src = 0; src < pattern.num_gpus(); ++src) {
    const int src_node = topo.gpu_location(src).node;
    // Collect this GPU's flows grouped by destination node.
    std::map<int, std::vector<Flow>> flows_by_dst_node;
    for (const GpuMessage& m : pattern.sends_from(src)) {
      const int dst_node = topo.gpu_location(m.dst_gpu).node;
      if (dst_node == src_node) continue;
      flows_by_dst_node[dst_node].push_back({src, m.dst_gpu, m.bytes, m.bytes});
    }
    // Spread the deduplicated per-node volume proportionally over the flows
    // toward that node, then append to the global map.
    for (auto& [dst_node, flows] : flows_by_dst_node) {
      const std::int64_t dedup = pattern.node_dedup_bytes(src, dst_node);
      if (dedup >= 0) {
        std::int64_t payload = 0;
        for (const Flow& f : flows) payload += f.bytes;
        std::int64_t assigned = 0;
        for (std::size_t i = 0; i < flows.size(); ++i) {
          if (i + 1 == flows.size()) {
            flows[i].wire_bytes = dedup - assigned;
          } else {
            flows[i].wire_bytes =
                payload > 0 ? mul_div(dedup, flows[i].bytes, payload) : 0;
          }
          assigned += flows[i].wire_bytes;
        }
      }
      auto& vec = traffic.flows[{src_node, dst_node}];
      vec.insert(vec.end(), flows.begin(), flows.end());
    }
  }
  return traffic;
}

int send_leader(const Topology& topo, int src_node, int dst_node) {
  const int local_gpu = dst_node % topo.gpn();
  return topo.owner_rank_of_gpu(topo.gpus_on_node(src_node)[local_gpu]);
}

int recv_leader(const Topology& topo, int dst_node, int src_node) {
  const int local_gpu = src_node % topo.gpn();
  return topo.owner_rank_of_gpu(topo.gpus_on_node(dst_node)[local_gpu]);
}

int paired_rank(const Topology& topo, int src_gpu, int dst_node) {
  const int local_gpu = topo.gpu_location(src_gpu).local_index;
  return topo.owner_rank_of_gpu(topo.gpus_on_node(dst_node)[local_gpu]);
}

void append_local_phase(CommPlan& plan, const CommPattern& pattern,
                        const Topology& topo, MemSpace space) {
  PlanPhase phase;
  phase.label = "local";
  int tag = kTagLocal;
  for (int src = 0; src < pattern.num_gpus(); ++src) {
    const int src_node = topo.gpu_location(src).node;
    for (const GpuMessage& m : pattern.sends_from(src)) {
      if (topo.gpu_location(m.dst_gpu).node != src_node) continue;
      phase.ops.push_back(PlanOp::message(topo.owner_rank_of_gpu(src),
                                          topo.owner_rank_of_gpu(m.dst_gpu),
                                          m.bytes, tag++, space));
    }
  }
  if (!phase.ops.empty()) plan.phases.push_back(std::move(phase));
}

std::int64_t dedup_send_bytes(const CommPattern& pattern,
                              const Topology& topo, int gpu) {
  const int src_node = topo.gpu_location(gpu).node;
  std::map<int, std::int64_t> payload_by_node;
  for (const GpuMessage& m : pattern.sends_from(gpu)) {
    const int dst_node = topo.gpu_location(m.dst_gpu).node;
    if (dst_node == src_node) continue;
    payload_by_node[dst_node] += m.bytes;
  }
  std::int64_t wire = 0;
  for (const auto& [dst_node, payload] : payload_by_node) {
    const std::int64_t dedup = pattern.node_dedup_bytes(gpu, dst_node);
    wire += dedup >= 0 ? dedup : payload;
  }
  return wire;
}

void append_dedup_d2h_copies(CommPlan& plan, const CommPattern& pattern,
                             const Topology& topo, const char* label) {
  PlanPhase phase;
  phase.label = label;
  for (int gpu = 0; gpu < pattern.num_gpus(); ++gpu) {
    const int node = topo.gpu_location(gpu).node;
    std::int64_t intra = 0;
    for (const GpuMessage& m : pattern.sends_from(gpu)) {
      if (topo.gpu_location(m.dst_gpu).node == node) intra += m.bytes;
    }
    const std::int64_t bytes = intra + dedup_send_bytes(pattern, topo, gpu);
    if (bytes == 0) continue;
    phase.ops.push_back(
        PlanOp::copy(topo.owner_rank_of_gpu(gpu), gpu, CopyDir::DeviceToHost,
                     bytes));
  }
  if (!phase.ops.empty()) plan.phases.push_back(std::move(phase));
}

void append_owner_copies(CommPlan& plan, const CommPattern& pattern,
                         const Topology& topo, CopyDir dir,
                         const char* label) {
  PlanPhase phase;
  phase.label = label;
  for (int gpu = 0; gpu < pattern.num_gpus(); ++gpu) {
    const std::int64_t bytes = dir == CopyDir::DeviceToHost
                                   ? pattern.send_bytes(gpu)
                                   : pattern.recv_bytes(gpu);
    if (bytes == 0) continue;
    phase.ops.push_back(
        PlanOp::copy(topo.owner_rank_of_gpu(gpu), gpu, dir, bytes));
  }
  if (!phase.ops.empty()) plan.phases.push_back(std::move(phase));
}

}  // namespace hetcomm::core::detail
