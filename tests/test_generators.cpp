#include "sparse/generators.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

namespace hetcomm::sparse {
namespace {

TEST(BandedFem, ShapeAndSymmetry) {
  const CsrMatrix m = banded_fem(500, 20, 8, 42);
  EXPECT_EQ(m.rows(), 500);
  EXPECT_EQ(m.cols(), 500);
  EXPECT_NO_THROW(m.validate());
  EXPECT_TRUE(m.pattern_symmetric());
  EXPECT_LE(m.bandwidth(), 20);
}

TEST(BandedFem, DegreeIsApproximatelyRespected) {
  const CsrMatrix m = banded_fem(2000, 100, 12, 7);
  // Degree ~ 12 couplings + diagonal, modulo collisions and edge rows.
  EXPECT_GT(m.mean_degree(), 6.0);
  EXPECT_LT(m.mean_degree(), 14.0);
}

TEST(BandedFem, DeterministicForSeed) {
  const CsrMatrix a = banded_fem(300, 15, 6, 11);
  const CsrMatrix b = banded_fem(300, 15, 6, 11);
  EXPECT_EQ(a.nnz(), b.nnz());
  EXPECT_EQ(a.col_idx(), b.col_idx());
}

TEST(BandedFem, DiagonallyDominantValues) {
  const CsrMatrix m = banded_fem(200, 10, 6, 3);
  const auto& rp = m.row_ptr();
  const auto& ci = m.col_idx();
  const auto& v = m.values();
  for (std::int64_t r = 0; r < m.rows(); ++r) {
    double diag = 0.0, off = 0.0;
    for (std::int64_t k = rp[r]; k < rp[r + 1]; ++k) {
      if (ci[k] == r) {
        diag = v[k];
      } else {
        off += std::abs(v[k]);
      }
    }
    EXPECT_GT(diag, off) << "row " << r;
  }
}

TEST(BandedFem, RejectsBadArguments) {
  EXPECT_THROW((void)banded_fem(0, 10, 4, 1), std::invalid_argument);
  EXPECT_THROW((void)banded_fem(10, 0, 4, 1), std::invalid_argument);
  EXPECT_THROW((void)banded_fem(10, 2, -1, 1), std::invalid_argument);
}

TEST(BandedFem, RejectsUnrepresentableEntryCount) {
  // n * (4 * 2^29 + 1) entries cannot be counted in int64: the generator
  // must say so before it allocates row counts or draws a single coupling
  // (either would exhaust memory or time long before an answer).
  constexpr std::int64_t kHuge = std::numeric_limits<std::int64_t>::max() / 4;
  EXPECT_THROW((void)banded_fem(kHuge, 1, 1 << 30, 1), std::invalid_argument);
  EXPECT_THROW((void)banded_fem(kHuge, 1, 1 << 30, 1, /*with_values=*/false),
               std::invalid_argument);
  EXPECT_THROW((void)mesh_laplacian_2d(kHuge, 8), std::invalid_argument);
  EXPECT_THROW((void)mesh_laplacian_2d(kHuge / 2, 2), std::invalid_argument);
  CouplingLayers layers;
  layers.n = kHuge;
  layers.degree = 1 << 30;
  EXPECT_THROW((void)coupling_pattern(layers, 1), std::invalid_argument);
}

TEST(CouplingPattern, MatchesChainedGenerators) {
  // One assembly of all three layers equals chaining the generators with
  // seeds s, s + 1, s + 2, pattern for pattern.
  for (const std::uint64_t seed : {1u, 9u, 77u}) {
    CouplingLayers layers;
    layers.n = 1500;
    layers.half_band = 40;
    layers.degree = 10;
    layers.arrow_head = 12;
    layers.arrow_degree = 25;
    layers.long_range_per_row = 2;
    layers.long_range_fraction = 0.1;
    const CsrMatrix one = coupling_pattern(layers, seed);
    const CsrMatrix chained = with_long_range(
        with_arrow(banded_fem(1500, 40, 10, seed, false), 12, 25, seed + 1), 2,
        0.1, seed + 2);
    EXPECT_NO_THROW(one.validate());
    EXPECT_FALSE(one.has_values());
    EXPECT_EQ(one.row_ptr(), chained.row_ptr());
    EXPECT_EQ(one.col_idx(), chained.col_idx());
  }
  CouplingLayers bad;
  bad.n = 100;
  bad.arrow_head = 101;
  EXPECT_THROW((void)coupling_pattern(bad, 1), std::invalid_argument);
  bad.arrow_head = 0;
  bad.long_range_fraction = 1.5;
  EXPECT_THROW((void)coupling_pattern(bad, 1), std::invalid_argument);
}

TEST(MeshLaplacian, FivePointStencil) {
  const CsrMatrix m = mesh_laplacian_2d(10, 10);
  EXPECT_EQ(m.rows(), 100);
  EXPECT_NO_THROW(m.validate());
  EXPECT_TRUE(m.pattern_symmetric());
  // Interior rows have 5 entries, corners 3.
  EXPECT_EQ(m.row_nnz(5 * 10 + 5), 5);
  EXPECT_EQ(m.row_nnz(0), 3);
  EXPECT_THROW((void)mesh_laplacian_2d(0, 5), std::invalid_argument);
}

TEST(WithArrow, AddsDenseHead) {
  const CsrMatrix base = banded_fem(1000, 10, 4, 5);
  const CsrMatrix arrowed = with_arrow(base, 20, 30, 6);
  EXPECT_GT(arrowed.nnz(), base.nnz());
  EXPECT_TRUE(arrowed.pattern_symmetric());
  // Head rows become much denser than body rows.
  EXPECT_GT(arrowed.row_nnz(0), 3 * base.row_nnz(0));
  // Arrow couplings span the whole matrix, so bandwidth explodes.
  EXPECT_GT(arrowed.bandwidth(), base.bandwidth());
}

TEST(WithArrow, ValidatesArguments) {
  const CsrMatrix base = banded_fem(100, 5, 4, 5);
  EXPECT_THROW((void)with_arrow(base, -1, 10, 1), std::invalid_argument);
  EXPECT_THROW((void)with_arrow(base, 101, 10, 1), std::invalid_argument);
  const CsrMatrix rect = CsrMatrix::from_triplets(2, 3, {{0, 1, 1.0}});
  EXPECT_THROW((void)with_arrow(rect, 1, 1, 1), std::invalid_argument);
}

TEST(WithArrow, KeepsValuesDiagonallyDominant) {
  // A valued base stays valued; every arrow coupling reinforces both
  // endpoints' diagonals.
  const CsrMatrix arrowed = with_arrow(banded_fem(400, 8, 6, 3), 10, 30, 4);
  ASSERT_TRUE(arrowed.has_values());
  EXPECT_NO_THROW(arrowed.validate());
  const auto& rp = arrowed.row_ptr();
  const auto& ci = arrowed.col_idx();
  const auto& v = arrowed.values();
  for (std::int64_t r = 0; r < arrowed.rows(); ++r) {
    double diag = 0.0, off = 0.0;
    for (std::int64_t k = rp[r]; k < rp[r + 1]; ++k) {
      if (ci[k] == r) {
        diag = v[k];
      } else {
        off += std::abs(v[k]);
      }
    }
    EXPECT_GT(diag, off) << "row " << r;
  }
}

TEST(WithLongRange, AddsScatteredCouplings) {
  const CsrMatrix base = banded_fem(2000, 5, 4, 5);
  const CsrMatrix lr = with_long_range(base, 2, 0.5, 8);
  EXPECT_GT(lr.nnz(), base.nnz());
  EXPECT_TRUE(lr.pattern_symmetric());
  EXPECT_GT(lr.bandwidth(), base.bandwidth());
}

TEST(WithLongRange, ZeroFractionIsAlmostIdentity) {
  const CsrMatrix base = banded_fem(500, 5, 4, 5);
  const CsrMatrix lr = with_long_range(base, 3, 0.0, 8);
  EXPECT_EQ(lr.nnz(), base.nnz() + 0);  // only diagonal re-added, merged
  EXPECT_THROW((void)with_long_range(base, 1, 1.5, 2), std::invalid_argument);
}

}  // namespace
}  // namespace hetcomm::sparse
