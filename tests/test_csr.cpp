#include "sparse/csr.hpp"

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <utility>

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

TEST(CsrMatrix, FromTripletsMatchesMapReference) {
  // Random triplets with heavy duplicates against an ordered-map reference
  // that sums each position's values in input order: rows with no entries
  // at the start, middle and end; the capacity is exactly nnz.
  std::mt19937_64 rng(2024);
  for (int trial = 0; trial < 40; ++trial) {
    const std::int64_t rows =
        trial == 0 ? 0 : 1 + static_cast<std::int64_t>(rng() % 60);
    const std::int64_t cols = 1 + static_cast<std::int64_t>(rng() % 50);
    std::vector<Triplet> t;
    if (rows > 0) {
      const std::int64_t empty_mid = rows / 2;
      const auto count = static_cast<int>(rng() % 400);
      for (int i = 0; i < count; ++i) {
        const std::int64_t r = static_cast<std::int64_t>(rng() % rows);
        if (rows > 2 && (r == 0 || r == empty_mid || r == rows - 1)) continue;
        // Few distinct columns per row: most positions repeat.
        const std::int64_t c = static_cast<std::int64_t>(rng() % 4) * cols / 4;
        const double v = static_cast<double>(rng() % 1000) / 7.0 - 70.0;
        t.push_back({r, c, v});
      }
    }
    std::map<std::pair<std::int64_t, std::int64_t>, double> ref;
    for (const Triplet& e : t) ref[{e.row, e.col}] += e.value;

    for (const bool with_values : {true, false}) {
      const CsrMatrix m = CsrMatrix::from_triplets(rows, cols, t, with_values);
      ASSERT_NO_THROW(m.validate());
      ASSERT_EQ(m.rows(), rows);
      ASSERT_EQ(m.nnz(), static_cast<std::int64_t>(ref.size()));
      EXPECT_EQ(m.col_idx().capacity(), ref.size());
      EXPECT_EQ(m.has_values(), with_values && !ref.empty());
      std::vector<std::int64_t> row_ptr{0};
      std::vector<std::int64_t> col_idx;
      std::vector<double> values;
      for (const auto& [pos, v] : ref) {
        while (static_cast<std::int64_t>(row_ptr.size()) <= pos.first) {
          row_ptr.push_back(static_cast<std::int64_t>(col_idx.size()));
        }
        col_idx.push_back(pos.second);
        values.push_back(v);
      }
      while (static_cast<std::int64_t>(row_ptr.size()) <= rows) {
        row_ptr.push_back(static_cast<std::int64_t>(col_idx.size()));
      }
      EXPECT_EQ(m.row_ptr(), row_ptr) << "trial " << trial;
      EXPECT_EQ(m.col_idx(), col_idx) << "trial " << trial;
      if (m.has_values()) {
        EXPECT_EQ(m.values(), values) << "trial " << trial;  // exact sums
        EXPECT_EQ(m.values().capacity(), ref.size());
      }
      if (rows > 2) {
        EXPECT_EQ(m.row_nnz(0), 0);
        EXPECT_EQ(m.row_nnz(rows / 2), 0);
        EXPECT_EQ(m.row_nnz(rows - 1), 0);
      }
    }
    if (rows > 0) {
      std::vector<Triplet> bad = t;
      bad.insert(bad.begin() + static_cast<std::ptrdiff_t>(bad.size() / 2),
                 Triplet{rows, 0, 1.0});
      EXPECT_THROW((void)CsrMatrix::from_triplets(rows, cols, bad),
                   std::out_of_range);
      bad = t;
      bad.push_back({0, cols, 1.0});
      EXPECT_THROW((void)CsrMatrix::from_triplets(rows, cols, bad, false),
                   std::out_of_range);
    }
  }
}

TEST(CsrMatrix, AssembleRejectsAStreamThatDoesNotReplay) {
  // The entry stream runs twice; a second run that differs from the first
  // must not write outside the row buckets the first one sized.
  int calls = 0;
  EXPECT_THROW((void)CsrMatrix::assemble(
                   3, 3,
                   [&calls](const auto& entry) {
                     entry(0, 0, 1.0);
                     if (calls++ > 0) entry(0, 1, 1.0);
                   },
                   false),
               std::logic_error);
  calls = 0;
  EXPECT_THROW((void)CsrMatrix::assemble(
                   3, 3,
                   [&calls](const auto& entry) {
                     if (calls++ == 0) entry(2, 2, 1.0);
                   },
                   true),
               std::logic_error);
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
