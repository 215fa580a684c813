#include "benchutil/pingpong.hpp"

#include <algorithm>
#include <stdexcept>

namespace hetcomm::benchutil {

std::pair<int, int> rank_pair_for(const Topology& topo, PathClass path) {
  const MachineShape& shape = topo.shape();
  switch (path) {
    case PathClass::OnSocket:
      if (shape.cores_per_socket < 2) {
        throw std::invalid_argument("rank_pair_for: need 2 cores per socket");
      }
      return {topo.rank_of(0, 0, 0), topo.rank_of(0, 0, 1)};
    case PathClass::OnNode:
      if (shape.sockets_per_node < 2) {
        throw std::invalid_argument("rank_pair_for: need 2 sockets");
      }
      return {topo.rank_of(0, 0, 0), topo.rank_of(0, 1, 0)};
    case PathClass::OffNode:
      if (shape.num_nodes < 2) {
        throw std::invalid_argument("rank_pair_for: need 2 nodes");
      }
      return {topo.rank_of(0, 0, 0), topo.rank_of(1, 0, 0)};
  }
  throw std::logic_error("rank_pair_for: bad path");
}

double ping_pong(const Topology& topo, const ParamSet& params, int rank_a,
                 int rank_b, std::int64_t bytes, MemSpace space,
                 const MeasureOpts& opts) {
  if (opts.iterations < 1) {
    throw std::invalid_argument("ping_pong: iterations must be >= 1");
  }
  // One engine per call: reset(seed) makes it indistinguishable from a
  // freshly constructed one, so each iteration is an independent run.
  Engine engine(topo, params, NoiseModel(opts.seed, opts.noise_sigma));
  double total = 0.0;
  for (int it = 0; it < opts.iterations; ++it) {
    engine.reset(opts.seed + static_cast<std::uint64_t>(it));
    engine.isend(rank_a, rank_b, bytes, 0, space);
    engine.irecv(rank_b, rank_a, bytes, 0, space);
    engine.resolve();
    total += engine.clock(rank_b);
  }
  return total / opts.iterations;
}

Sweep ping_pong_sweep(const Topology& topo, const ParamSet& params, int rank_a,
                      int rank_b, std::span<const std::int64_t> sizes,
                      MemSpace space, const MeasureOpts& opts) {
  Sweep sweep;
  sweep.sizes.reserve(sizes.size());
  sweep.times.reserve(sizes.size());
  for (const std::int64_t s : sizes) {
    sweep.sizes.push_back(static_cast<double>(s));
    sweep.times.push_back(
        ping_pong(topo, params, rank_a, rank_b, s, space, opts));
  }
  return sweep;
}

double node_pong(const Topology& topo, const ParamSet& params, int node_a,
                 int node_b, int active_ppn, std::int64_t bytes_per_proc,
                 MemSpace space, const MeasureOpts& opts) {
  if (active_ppn < 1 || active_ppn > topo.ppn()) {
    throw std::invalid_argument("node_pong: active_ppn out of range");
  }
  if (node_a == node_b) {
    throw std::invalid_argument("node_pong: nodes must differ");
  }
  const std::vector<int> src = topo.ranks_on_node(node_a);
  const std::vector<int> dst = topo.ranks_on_node(node_b);

  Engine engine(topo, params, NoiseModel(opts.seed, opts.noise_sigma));
  double total = 0.0;
  for (int it = 0; it < opts.iterations; ++it) {
    engine.reset(opts.seed + static_cast<std::uint64_t>(it));
    for (int p = 0; p < active_ppn; ++p) {
      engine.isend(src[static_cast<std::size_t>(p)],
                   dst[static_cast<std::size_t>(p)], bytes_per_proc, p, space);
      engine.irecv(dst[static_cast<std::size_t>(p)],
                   src[static_cast<std::size_t>(p)], bytes_per_proc, p, space);
    }
    engine.resolve();
    total += engine.max_clock();
  }
  return total / opts.iterations;
}

double copy_time(const Topology& topo, const ParamSet& params, int gpu,
                 CopyDir dir, std::int64_t bytes_total, int np,
                 const MeasureOpts& opts) {
  if (np < 1) throw std::invalid_argument("copy_time: np must be >= 1");
  const GpuLocation loc = topo.gpu_location(gpu);
  if (np > topo.pps()) {
    throw std::invalid_argument("copy_time: np exceeds cores per socket");
  }
  Engine engine(topo, params, NoiseModel(opts.seed, opts.noise_sigma));
  double total = 0.0;
  for (int it = 0; it < opts.iterations; ++it) {
    engine.reset(opts.seed + static_cast<std::uint64_t>(it));
    for (int p = 0; p < np; ++p) {
      const std::int64_t share = bytes_total / np +
                                 (p < bytes_total % np ? 1 : 0);
      engine.copy(topo.rank_of(loc.node, loc.socket, p), gpu, dir, share, np);
    }
    total += engine.max_clock();
  }
  return total / opts.iterations;
}

std::vector<std::int64_t> sizes_for_protocol(
    const ProtocolThresholds& thresholds, MemSpace space, Protocol proto) {
  std::int64_t lo = 1;
  std::int64_t hi = thresholds.short_max;
  switch (proto) {
    case Protocol::Short:
      if (space == MemSpace::Device) {
        throw std::invalid_argument(
            "sizes_for_protocol: device transfers have no short protocol");
      }
      lo = 1;
      hi = thresholds.short_max;
      break;
    case Protocol::Eager:
      lo = space == MemSpace::Host ? thresholds.short_max + 1 : 1;
      hi = thresholds.eager_max;
      break;
    case Protocol::Rendezvous:
      lo = thresholds.eager_max + 1;
      hi = thresholds.eager_max * 64;
      break;
  }
  std::vector<std::int64_t> sizes;
  for (std::int64_t s = lo; s <= hi; s = std::max(s + 1, s * 2)) {
    sizes.push_back(s);
  }
  if (sizes.size() < 2 || sizes.back() != hi) sizes.push_back(hi);
  return sizes;
}

}  // namespace hetcomm::benchutil
