#include "sparse/comm_graph.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/pattern_io.hpp"
#include "machine/machine.hpp"
#include "sparse/generators.hpp"
#include "sparse/suitesparse_profiles.hpp"

namespace hetcomm::sparse {
namespace {

TEST(HaloMap, TridiagonalNeedsOneGhostPerSide) {
  // 12 rows over 3 parts; each interior part needs one column from each
  // neighbor (tridiagonal coupling).
  std::vector<Triplet> t;
  for (std::int64_t i = 0; i < 12; ++i) {
    t.push_back({i, i, 2.0});
    if (i > 0) t.push_back({i, i - 1, -1.0});
    if (i < 11) t.push_back({i, i + 1, -1.0});
  }
  const CsrMatrix m = CsrMatrix::from_triplets(12, 12, t);
  const RowPartition part = RowPartition::contiguous(12, 3);
  const HaloMap halo = halo_map(m, part);
  ASSERT_EQ(halo.needed.size(), 3u);
  EXPECT_EQ(halo.needed[0], (std::vector<std::int64_t>{4}));
  EXPECT_EQ(halo.needed[1], (std::vector<std::int64_t>{3, 8}));
  EXPECT_EQ(halo.needed[2], (std::vector<std::int64_t>{7}));
}

TEST(HaloMap, DuplicateColumnsCountedOnce) {
  // Two rows of part 1 both reference column 0: one ghost value suffices.
  const CsrMatrix m = CsrMatrix::from_triplets(
      4, 4, {{2, 0, 1.0}, {3, 0, 1.0}, {0, 0, 1.0}, {1, 1, 1.0},
             {2, 2, 1.0}, {3, 3, 1.0}});
  const RowPartition part = RowPartition::contiguous(4, 2);
  const HaloMap halo = halo_map(m, part);
  EXPECT_EQ(halo.needed[1], (std::vector<std::int64_t>{0}));
}

TEST(HaloMap, RejectsMismatchedInputs) {
  const CsrMatrix m = CsrMatrix::from_triplets(4, 4, {{0, 0, 1.0}});
  EXPECT_THROW((void)halo_map(m, RowPartition::contiguous(5, 2)),
               std::invalid_argument);
  const CsrMatrix rect = CsrMatrix::from_triplets(4, 5, {{0, 0, 1.0}});
  EXPECT_THROW((void)halo_map(rect, RowPartition::contiguous(4, 2)),
               std::invalid_argument);
}

TEST(SpmvCommPattern, BytesCountDistinctColumns) {
  const CsrMatrix m = CsrMatrix::from_triplets(
      4, 4, {{2, 0, 1.0}, {2, 1, 1.0}, {3, 0, 1.0}, {0, 0, 1.0},
             {1, 1, 1.0}, {2, 2, 1.0}, {3, 3, 1.0}});
  const RowPartition part = RowPartition::contiguous(4, 2);
  const core::CommPattern pattern = spmv_comm_pattern(m, part, 8);
  // Part 1 needs columns {0, 1} from part 0 => 16 bytes, one message.
  EXPECT_EQ(pattern.bytes(0, 1), 16);
  EXPECT_EQ(pattern.bytes(1, 0), 0);
  EXPECT_EQ(pattern.total_messages(), 1);
  EXPECT_THROW((void)spmv_comm_pattern(m, part, 0), std::invalid_argument);
}

TEST(SpmvCommPattern, SymmetricMatrixGivesSymmetricNeighbors) {
  const CsrMatrix m = banded_fem(400, 12, 6, 21);
  const RowPartition part = RowPartition::contiguous(400, 8);
  const core::CommPattern pattern = spmv_comm_pattern(m, part);
  for (int p = 0; p < 8; ++p) {
    for (int q = 0; q < 8; ++q) {
      // Structural symmetry => if p sends to q, q sends to p.
      EXPECT_EQ(pattern.bytes(p, q) > 0, pattern.bytes(q, p) > 0)
          << p << "->" << q;
    }
  }
}

TEST(SpmvCommPattern, NarrowBandTouchesOnlyNeighbors) {
  const CsrMatrix m = banded_fem(800, 10, 4, 3);
  const RowPartition part = RowPartition::contiguous(800, 8);  // 100 rows/part
  const core::CommPattern pattern = spmv_comm_pattern(m, part);
  for (int p = 0; p < 8; ++p) {
    for (const core::GpuMessage& msg : pattern.sends_from(p)) {
      EXPECT_LE(std::abs(msg.dst_gpu - p), 1)
          << "band 10 << 100 rows/part must stay nearest-neighbor";
    }
  }
}

TEST(SpmvCommPattern, WideBandTouchesManyParts) {
  const CsrMatrix m = banded_fem(800, 300, 8, 3);
  const RowPartition part = RowPartition::contiguous(800, 8);
  const core::CommPattern pattern = spmv_comm_pattern(m, part);
  int max_fanout = 0;
  for (int p = 0; p < 8; ++p) {
    max_fanout = std::max(
        max_fanout, static_cast<int>(pattern.sends_from(p).size()));
  }
  EXPECT_GE(max_fanout, 3);
}

/// Reference extraction: the direct std::map / std::set formulation, with
/// an owner_of binary search per column, that spmv_comm_pattern must
/// reproduce exactly (flows, multiplicities and node-dedup annotations).
core::CommPattern reference_pattern(const CsrMatrix& a,
                                    const RowPartition& part,
                                    const Topology& topo,
                                    std::int64_t bytes_per_value,
                                    std::vector<std::set<std::int64_t>>& needed) {
  core::CommPattern pattern(part.parts());
  std::map<std::pair<int, int>, std::set<std::int64_t>> distinct;
  needed.assign(static_cast<std::size_t>(part.parts()), {});
  for (int p = 0; p < part.parts(); ++p) {
    const std::int64_t lo = part.first_row(p);
    const std::int64_t hi = part.last_row(p);
    std::set<std::int64_t>& need = needed[static_cast<std::size_t>(p)];
    for (std::int64_t r = lo; r < hi; ++r) {
      for (std::int64_t k = a.row_ptr()[static_cast<std::size_t>(r)];
           k < a.row_ptr()[static_cast<std::size_t>(r) + 1]; ++k) {
        const std::int64_t c = a.col_idx()[static_cast<std::size_t>(k)];
        if (c < lo || c >= hi) need.insert(c);
      }
    }
    const int dst_node = topo.gpu_location(p).node;
    std::map<int, std::int64_t> per_owner;
    for (const std::int64_t c : need) {
      const int owner = part.owner_of(c);
      ++per_owner[owner];
      if (topo.gpu_location(owner).node != dst_node) {
        distinct[{owner, dst_node}].insert(c);
      }
    }
    for (const auto& [owner, count] : per_owner) {
      pattern.add(owner, p, count * bytes_per_value);
    }
  }
  for (const auto& [key, columns] : distinct) {
    pattern.set_node_dedup(
        key.first, key.second,
        static_cast<std::int64_t>(columns.size()) * bytes_per_value);
  }
  return pattern;
}

TEST(SpmvCommPattern, MatchesMapSetReferenceOnRandomMatrices) {
  // Seeded random matrices (banded rows plus scattered far columns and
  // repeated entries) over uneven partitions with empty parts -- first,
  // last and interior -- on shapes with 1, 2 and 4 GPUs per node, 1 or 2
  // sockets per node.  Topology numbers GPUs node-major, so every part's
  // node comes from gpu_location as in the library.
  const std::vector<MachineShape> shapes = {
      presets::lassen(1), presets::lassen(3), presets::summit(2),
      presets::frontier(3), MachineShape{5, 1, 1, 4},
      MachineShape{2, 2, 1, 4}};
  int cases = 0;
  int with_empty_parts = 0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    for (const MachineShape& shape : shapes) {
      SCOPED_TRACE("seed " + std::to_string(seed) + ", " +
                   std::to_string(shape.total_gpus()) + " GPUs");
      std::mt19937_64 rng(seed * 131 + static_cast<std::uint64_t>(
                                           shape.total_gpus()));
      const Topology topo(shape);
      const int parts = topo.num_gpus();
      const std::int64_t n =
          std::uniform_int_distribution<std::int64_t>(1, 240)(rng);
      std::uniform_int_distribution<std::int64_t> any(0, n - 1);
      std::vector<Triplet> t;
      for (std::int64_t r = 0; r < n; ++r) {
        t.push_back({r, r, 1.0});
        for (int k = 0; k < 3; ++k) {
          const std::int64_t c = std::clamp<std::int64_t>(
              r + std::uniform_int_distribution<std::int64_t>(-9, 9)(rng), 0,
              n - 1);
          t.push_back({r, c, 1.0});
          t.push_back({r, c, 1.0});  // duplicate entry
        }
        if (rng() % 4 == 0) t.push_back({r, any(rng), 1.0});
      }
      const CsrMatrix m = CsrMatrix::from_triplets(n, n, std::move(t));

      // Offsets: sorted draws from [0, n] with heavy repetition, so many
      // parts are empty.
      std::vector<std::int64_t> offsets(static_cast<std::size_t>(parts) + 1);
      offsets.front() = 0;
      offsets.back() = n;
      std::uniform_int_distribution<int> coarse(0, 4);
      for (int p = 1; p < parts; ++p) {
        offsets[static_cast<std::size_t>(p)] = n * coarse(rng) / 4;
      }
      std::sort(offsets.begin(), offsets.end());
      const RowPartition part(offsets);
      for (int p = 0; p < parts; ++p) {
        if (part.size(p) == 0) {
          ++with_empty_parts;
          break;
        }
      }

      std::vector<std::set<std::int64_t>> needed;
      const std::int64_t bpv = 1 + static_cast<std::int64_t>(seed % 9);
      const core::CommPattern want =
          reference_pattern(m, part, topo, bpv, needed);
      const core::CommPattern got = spmv_comm_pattern(m, part, topo, bpv);
      EXPECT_EQ(core::pattern_hash(got), core::pattern_hash(want));
      EXPECT_EQ(got.node_dedup_entries(), want.node_dedup_entries());
      // The topology-free overload: the same flows, no annotations.
      const core::CommPattern plain = spmv_comm_pattern(m, part, bpv);
      EXPECT_FALSE(plain.has_dedup_info());
      for (int src = 0; src < parts; ++src) {
        const std::vector<core::GpuMessage> a = plain.sends_from(src);
        const std::vector<core::GpuMessage> b = want.sends_from(src);
        ASSERT_EQ(a.size(), b.size()) << "src " << src;
        for (std::size_t k = 0; k < a.size(); ++k) {
          EXPECT_EQ(a[k].dst_gpu, b[k].dst_gpu);
          EXPECT_EQ(a[k].bytes, b[k].bytes);
          EXPECT_EQ(a[k].count, b[k].count);
        }
      }
      const HaloMap halo = halo_map(m, part);
      for (int p = 0; p < parts; ++p) {
        const std::set<std::int64_t>& need = needed[static_cast<std::size_t>(p)];
        EXPECT_EQ(halo.needed[static_cast<std::size_t>(p)],
                  std::vector<std::int64_t>(need.begin(), need.end()))
            << "part " << p;
      }
      ++cases;
    }
  }
  EXPECT_EQ(cases, 180);
  EXPECT_GT(with_empty_parts, 100);
}

TEST(SpmvCommPattern, Fig51ColumnsKeepTheirPatternHashes) {
  // Every (matrix, GPU count) column of Fig. 5.1 at the fig5_1 scale
  // (0.015, volume-preserving payload, stand-in seed 11, Lassen): the
  // pattern -- flows and node-dedup annotations -- is pinned by hash.
  struct Column {
    const char* matrix;
    int gpus;
    std::uint64_t hash;
  };
  const std::vector<Column> pinned = {
      {"audikw_1", 40, 0x4c122fe5027c4d77ULL},
      {"audikw_1", 80, 0xb4050c12617115c3ULL},
      {"audikw_1", 160, 0xf3e4f248988f6bf9ULL},
      {"audikw_1", 320, 0x71526a408ffed9a1ULL},
      {"Serena", 40, 0xa8eb6a01908e1ea8ULL},
      {"Serena", 80, 0x924a5214c1e45761ULL},
      {"Serena", 160, 0x87420dea2a78f8dfULL},
      {"Serena", 320, 0xe8a5ad2e81438cacULL},
      {"ldoor", 40, 0x7b06c7ca83cae6edULL},
      {"ldoor", 80, 0x3ba42bae2b240abeULL},
      {"ldoor", 160, 0x6ba9e54ade3fae15ULL},
      {"ldoor", 320, 0x9e1185fe5ec5778dULL},
      {"thermal2", 40, 0x2a5fcce947834f83ULL},
      {"thermal2", 80, 0x045142a1ed40d16aULL},
      {"thermal2", 160, 0x7fe53f1ffc6bfc47ULL},
      {"thermal2", 320, 0x41941c9839db0014ULL},
      {"bone010", 80, 0x5a8c56d5719c9fe5ULL},
      {"bone010", 160, 0xe9a18f42d1ac2b25ULL},
      {"bone010", 320, 0x11cddee784e8c8d3ULL},
      {"Geo_1438", 80, 0xba3422a553d36b16ULL},
      {"Geo_1438", 160, 0xd355fbda7b9fd346ULL},
      {"Geo_1438", 320, 0x3218afc1a0393f05ULL},
  };
  const machine::MachineModel mach = machine::lassen_machine();
  const double scale = 0.015;
  const std::int64_t bytes_per_value = std::llround(8.0 / scale);
  std::size_t i = 0;
  for (const MatrixProfile& profile : figure51_profiles()) {
    const CsrMatrix m = generate_standin(profile, scale, 11);
    for (const int gpus : profile.gpu_counts) {
      ASSERT_LT(i, pinned.size());
      const Column& col = pinned[i++];
      ASSERT_EQ(profile.name, col.matrix);
      ASSERT_EQ(gpus, col.gpus);
      const Topology topo = mach.topology(mach.nodes_for_gpus(gpus));
      const core::CommPattern pattern = spmv_comm_pattern(
          m, RowPartition::contiguous(m.rows(), gpus), topo, bytes_per_value);
      EXPECT_EQ(core::pattern_hash(pattern), col.hash)
          << profile.name << " @ " << gpus << " GPUs";
    }
  }
  EXPECT_EQ(i, pinned.size());
}

TEST(DistributedSpmv, MatchesSequentialKernel) {
  const CsrMatrix m = banded_fem(600, 25, 8, 77);
  std::vector<double> x(600);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = 0.25 * static_cast<double>(i % 17) - 1.0;
  }
  const std::vector<double> y_seq = spmv(m, x);
  for (const int parts : {1, 2, 5, 16}) {
    const RowPartition part = RowPartition::contiguous(600, parts);
    const std::vector<double> y_dist = distributed_spmv(m, part, x);
    ASSERT_EQ(y_dist.size(), y_seq.size());
    for (std::size_t i = 0; i < y_seq.size(); ++i) {
      EXPECT_DOUBLE_EQ(y_dist[i], y_seq[i]) << "parts=" << parts << " i=" << i;
    }
  }
}

TEST(DistributedSpmv, ArrowMatrixStillExact) {
  CsrMatrix base = banded_fem(400, 10, 4, 5);
  const CsrMatrix m = with_arrow(base, 10, 20, 6);
  std::vector<double> x(400, 1.0);
  const std::vector<double> y_seq = spmv(m, x);
  const std::vector<double> y_dist =
      distributed_spmv(m, RowPartition::contiguous(400, 7), x);
  for (std::size_t i = 0; i < y_seq.size(); ++i) {
    EXPECT_DOUBLE_EQ(y_dist[i], y_seq[i]);
  }
}

}  // namespace
}  // namespace hetcomm::sparse
