#include "sparse/comm_graph.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <vector>

namespace hetcomm::sparse {

HaloMap halo_map(const CsrMatrix& a, const RowPartition& partition) {
  if (partition.rows() != a.rows()) {
    throw std::invalid_argument("halo_map: partition does not cover matrix");
  }
  if (a.rows() != a.cols()) {
    throw std::invalid_argument("halo_map: matrix must be square (SpMV halo)");
  }
  HaloMap halo;
  halo.needed.resize(static_cast<std::size_t>(partition.parts()));
  const auto& rp = a.row_ptr();
  const auto& ci = a.col_idx();
  // seen[c] == p once column c is on part p's list: duplicates are dropped
  // before the sort instead of after it.
  std::vector<int> seen(static_cast<std::size_t>(a.cols()), -1);
  for (int p = 0; p < partition.parts(); ++p) {
    const std::int64_t lo = partition.first_row(p);
    const std::int64_t hi = partition.last_row(p);
    std::vector<std::int64_t>& need = halo.needed[static_cast<std::size_t>(p)];
    for (std::int64_t r = lo; r < hi; ++r) {
      for (std::int64_t k = rp[static_cast<std::size_t>(r)];
           k < rp[static_cast<std::size_t>(r) + 1]; ++k) {
        const std::int64_t c = ci[static_cast<std::size_t>(k)];
        if (c >= lo && c < hi) continue;
        int& s = seen[static_cast<std::size_t>(c)];
        if (s == p) continue;
        s = p;
        need.push_back(c);
      }
    }
    std::sort(need.begin(), need.end());
  }
  return halo;
}

namespace {

/// Calls f(column, owner) for each column of one part's sorted halo list.
/// Owners of ascending columns ascend, so one cursor over the partition
/// offsets replaces a binary search per column; empty parts are skipped
/// exactly as RowPartition::owner_of skips them.
template <class F>
void for_each_owned(const std::vector<std::int64_t>& columns,
                    const RowPartition& partition, F&& f) {
  const std::vector<std::int64_t>& offsets = partition.offsets();
  std::size_t owner = 0;
  for (const std::int64_t c : columns) {
    while (c >= offsets[owner + 1]) ++owner;
    f(c, static_cast<int>(owner));
  }
}

/// One message per (owner, needer) pair, sized by the needer's distinct
/// columns of that owner.
core::CommPattern halo_pattern(const HaloMap& halo,
                               const RowPartition& partition,
                               std::int64_t bytes_per_value) {
  core::CommPattern pattern(partition.parts());
  for (int p = 0; p < partition.parts(); ++p) {
    int run_owner = -1;
    std::int64_t count = 0;
    for_each_owned(halo.needed[static_cast<std::size_t>(p)], partition,
                   [&](std::int64_t, int owner) {
                     if (owner != run_owner) {
                       if (count > 0) {
                         pattern.add(run_owner, p, count * bytes_per_value);
                       }
                       run_owner = owner;
                       count = 0;
                     }
                     ++count;
                   });
    if (count > 0) pattern.add(run_owner, p, count * bytes_per_value);
  }
  return pattern;
}

void check_bytes_per_value(std::int64_t bytes_per_value) {
  if (bytes_per_value <= 0) {
    throw std::invalid_argument("spmv_comm_pattern: bad bytes_per_value");
  }
}

}  // namespace

core::CommPattern spmv_comm_pattern(const CsrMatrix& a,
                                    const RowPartition& partition,
                                    std::int64_t bytes_per_value) {
  check_bytes_per_value(bytes_per_value);
  return halo_pattern(halo_map(a, partition), partition, bytes_per_value);
}

core::CommPattern spmv_comm_pattern(const CsrMatrix& a,
                                    const RowPartition& partition,
                                    const hetcomm::Topology& topo,
                                    std::int64_t bytes_per_value) {
  if (topo.num_gpus() != partition.parts()) {
    throw std::invalid_argument(
        "spmv_comm_pattern: one partition part per GPU required");
  }
  check_bytes_per_value(bytes_per_value);
  const HaloMap halo = halo_map(a, partition);
  core::CommPattern pattern = halo_pattern(halo, partition, bytes_per_value);

  // Deduplicated volumes: distinct columns of owner q needed by *any* part
  // on destination node l.  Nodes are visited one at a time over the parts
  // they hold (nothing assumes a node's GPUs are numbered contiguously);
  // counted[c] == l once column c is counted for node l, and each column
  // has one owner, so distinct[q] ends as the size of the (q, l) set.
  const int parts = partition.parts();
  std::vector<int> node_of(static_cast<std::size_t>(parts));
  std::vector<std::vector<int>> parts_on_node(
      static_cast<std::size_t>(topo.num_nodes()));
  for (int p = 0; p < parts; ++p) {
    const int node = topo.gpu_location(p).node;
    node_of[static_cast<std::size_t>(p)] = node;
    parts_on_node[static_cast<std::size_t>(node)].push_back(p);
  }
  std::vector<int> counted(static_cast<std::size_t>(a.cols()), -1);
  std::vector<std::int64_t> distinct(static_cast<std::size_t>(parts), 0);
  for (int l = 0; l < topo.num_nodes(); ++l) {
    for (const int p : parts_on_node[static_cast<std::size_t>(l)]) {
      for_each_owned(halo.needed[static_cast<std::size_t>(p)], partition,
                     [&](std::int64_t c, int owner) {
                       const auto q = static_cast<std::size_t>(owner);
                       int& stamp = counted[static_cast<std::size_t>(c)];
                       if (node_of[q] == l || stamp == l) return;
                       stamp = l;
                       ++distinct[q];
                     });
    }
    for (int q = 0; q < parts; ++q) {
      std::int64_t& n = distinct[static_cast<std::size_t>(q)];
      if (n == 0) continue;
      pattern.set_node_dedup(q, l, n * bytes_per_value);
      n = 0;
    }
  }
  return pattern;
}

std::vector<double> distributed_spmv(const CsrMatrix& a,
                                     const RowPartition& partition,
                                     const std::vector<double>& x) {
  if (!a.has_values()) {
    throw std::invalid_argument("distributed_spmv: matrix has no values");
  }
  if (static_cast<std::int64_t>(x.size()) != a.cols()) {
    throw std::invalid_argument("distributed_spmv: vector length mismatch");
  }
  const HaloMap halo = halo_map(a, partition);
  std::vector<double> y(static_cast<std::size_t>(a.rows()), 0.0);
  const auto& rp = a.row_ptr();
  const auto& ci = a.col_idx();
  const auto& v = a.values();

  for (int p = 0; p < partition.parts(); ++p) {
    const std::int64_t lo = partition.first_row(p);
    const std::int64_t hi = partition.last_row(p);

    // "Halo exchange": assemble the ghost values this part received.  Each
    // ghost column is looked up only through the halo map, proving the map
    // is sufficient for the computation.
    std::map<std::int64_t, double> ghost;
    for (const std::int64_t c : halo.needed[static_cast<std::size_t>(p)]) {
      ghost[c] = x[static_cast<std::size_t>(c)];
    }

    for (std::int64_t r = lo; r < hi; ++r) {
      double acc = 0.0;
      for (std::int64_t k = rp[static_cast<std::size_t>(r)];
           k < rp[static_cast<std::size_t>(r) + 1]; ++k) {
        const std::int64_t c = ci[static_cast<std::size_t>(k)];
        const double xv = (c >= lo && c < hi)
                              ? x[static_cast<std::size_t>(c)]
                              : ghost.at(c);
        acc += v[static_cast<std::size_t>(k)] * xv;
      }
      y[static_cast<std::size_t>(r)] = acc;
    }
  }
  return y;
}

}  // namespace hetcomm::sparse
