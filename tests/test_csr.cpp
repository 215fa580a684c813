#include "sparse/csr.hpp"

#include <gtest/gtest.h>

namespace hetcomm::sparse {
namespace {

CsrMatrix small_matrix() {
  // [ 2 -1  0 ]
  // [-1  2 -1 ]
  // [ 0 -1  2 ]
  return CsrMatrix::from_triplets(
      3, 3,
      {{0, 0, 2}, {0, 1, -1}, {1, 0, -1}, {1, 1, 2}, {1, 2, -1}, {2, 1, -1},
       {2, 2, 2}});
}

TEST(CsrMatrix, FromTripletsBasics) {
  const CsrMatrix m = small_matrix();
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_EQ(m.nnz(), 7);
  EXPECT_TRUE(m.has_values());
  EXPECT_NO_THROW(m.validate());
  EXPECT_EQ(m.row_nnz(0), 2);
  EXPECT_EQ(m.row_nnz(1), 3);
}

TEST(CsrMatrix, DuplicatesAreSummed) {
  const CsrMatrix m = CsrMatrix::from_triplets(
      2, 2, {{0, 0, 1.0}, {0, 0, 2.5}, {1, 1, 1.0}});
  EXPECT_EQ(m.nnz(), 2);
  EXPECT_DOUBLE_EQ(m.values()[0], 3.5);
}

TEST(CsrMatrix, DuplicateHeavyTripletsReserveExactly) {
  // Every (row, col) pair appears four times, in scrambled order: the
  // matrix keeps exactly nnz entries of capacity, not the triplet count.
  std::vector<Triplet> t;
  for (int copy = 0; copy < 4; ++copy) {
    for (std::int64_t i = 0; i < 40; ++i) {
      const std::int64_t r = (i * 13 + copy * 7) % 40;  // scrambled rows
      for (std::int64_t c = r % 3; c < 40; c += 3) t.push_back({r, c, 1.0});
    }
  }
  for (const bool with_values : {true, false}) {
    const CsrMatrix m = CsrMatrix::from_triplets(40, 40, t, with_values);
    ASSERT_EQ(m.nnz() * 4, static_cast<std::int64_t>(t.size()));
    EXPECT_EQ(m.col_idx().capacity(), static_cast<std::size_t>(m.nnz()));
    EXPECT_EQ(m.values().capacity(),
              with_values ? static_cast<std::size_t>(m.nnz()) : 0u);
    EXPECT_NO_THROW(m.validate());
  }
}

TEST(CsrMatrix, PatternOnlyDiscardsValues) {
  const CsrMatrix m =
      CsrMatrix::from_triplets(2, 2, {{0, 1, 5.0}}, /*with_values=*/false);
  EXPECT_FALSE(m.has_values());
  EXPECT_EQ(m.nnz(), 1);
  EXPECT_NO_THROW(m.validate());
}

TEST(CsrMatrix, OutOfRangeTripletThrows) {
  EXPECT_THROW((void)CsrMatrix::from_triplets(2, 2, {{0, 2, 1.0}}),
               std::out_of_range);
  EXPECT_THROW((void)CsrMatrix::from_triplets(2, 2, {{-1, 0, 1.0}}),
               std::out_of_range);
  EXPECT_THROW((void)CsrMatrix::from_triplets(-1, 2, {}), std::invalid_argument);
}

TEST(CsrMatrix, EmptyMatrixIsValid) {
  const CsrMatrix m = CsrMatrix::from_triplets(4, 4, {});
  EXPECT_EQ(m.nnz(), 0);
  EXPECT_NO_THROW(m.validate());
  EXPECT_DOUBLE_EQ(m.mean_degree(), 0.0);
}

TEST(CsrMatrix, BandwidthOfTridiagonal) {
  EXPECT_EQ(small_matrix().bandwidth(), 1);
}

TEST(CsrMatrix, PatternSymmetry) {
  EXPECT_TRUE(small_matrix().pattern_symmetric());
  const CsrMatrix asym = CsrMatrix::from_triplets(2, 2, {{0, 1, 1.0}});
  EXPECT_FALSE(asym.pattern_symmetric());
  const CsrMatrix rect = CsrMatrix::from_triplets(2, 3, {{0, 1, 1.0}});
  EXPECT_FALSE(rect.pattern_symmetric());
}

TEST(CsrMatrix, MeanDegree) {
  EXPECT_NEAR(small_matrix().mean_degree(), 7.0 / 3.0, 1e-12);
}

TEST(Spmv, MatchesHandComputedResult) {
  const CsrMatrix m = small_matrix();
  const std::vector<double> x = {1.0, 2.0, 3.0};
  const std::vector<double> y = spmv(m, x);
  ASSERT_EQ(y.size(), 3u);
  EXPECT_DOUBLE_EQ(y[0], 2 * 1 - 2);          // 0
  EXPECT_DOUBLE_EQ(y[1], -1 + 4 - 3);          // 0
  EXPECT_DOUBLE_EQ(y[2], -2 + 6);              // 4
}

TEST(Spmv, RejectsBadInputs) {
  const CsrMatrix m = small_matrix();
  EXPECT_THROW((void)spmv(m, {1.0, 2.0}), std::invalid_argument);
  const CsrMatrix pat =
      CsrMatrix::from_triplets(2, 2, {{0, 0, 1.0}}, false);
  EXPECT_THROW((void)spmv(pat, {1.0, 2.0}), std::invalid_argument);
}

TEST(Spmv, IdentityActsAsIdentity) {
  std::vector<Triplet> t;
  for (std::int64_t i = 0; i < 10; ++i) t.push_back({i, i, 1.0});
  const CsrMatrix eye = CsrMatrix::from_triplets(10, 10, t);
  std::vector<double> x(10);
  for (std::size_t i = 0; i < 10; ++i) x[i] = static_cast<double>(i) * 1.5;
  EXPECT_EQ(spmv(eye, x), x);
}

}  // namespace
}  // namespace hetcomm::sparse
