#include "sparse/matrix_market.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "sparse/generators.hpp"

namespace hetcomm::sparse {
namespace {

TEST(MatrixMarket, ReadGeneralReal) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "% a comment\n"
      "3 3 4\n"
      "1 1 2.0\n"
      "1 2 -1.0\n"
      "2 2 2.0\n"
      "3 3 2.0\n");
  const CsrMatrix m = read_matrix_market(in);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.nnz(), 4);
  EXPECT_TRUE(m.has_values());
  EXPECT_DOUBLE_EQ(m.values()[1], -1.0);
}

TEST(MatrixMarket, ReadSymmetricExpands) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "3 3 3\n"
      "1 1 2.0\n"
      "2 1 -1.0\n"
      "3 3 2.0\n");
  const CsrMatrix m = read_matrix_market(in);
  EXPECT_EQ(m.nnz(), 4);  // (2,1) mirrored to (1,2)
  EXPECT_TRUE(m.pattern_symmetric());
}

TEST(MatrixMarket, ReadPattern) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "2 2 2\n"
      "1 1\n"
      "2 2\n");
  const CsrMatrix m = read_matrix_market(in);
  EXPECT_FALSE(m.has_values());
  EXPECT_EQ(m.nnz(), 2);
}

TEST(MatrixMarket, RejectsHostileEntryCounts) {
  // A size line claiming more entries than the matrix has positions is
  // refused before anything is reserved from it: no bad_alloc, no
  // length_error, no overflow doubling the count for a symmetric file.
  for (const char* entries :
       {"1000000000000000", "3000000000000000000", "5000000000000000000"}) {
    std::istringstream in(
        std::string("%%MatrixMarket matrix coordinate real symmetric\n") +
        "2 2 " + entries + "\n" + "1 1 1.0\n");
    try {
      (void)read_matrix_market(in);
      ADD_FAILURE() << entries << ": no exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "matrix market: invalid dimensions") << entries;
    } catch (const std::exception& e) {
      ADD_FAILURE() << entries << ": " << e.what();
    }
  }
  // When rows * cols overflows int64 every entry count fits: this file
  // fails only as truncated.
  std::istringstream wide(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "4000000000 4000000000 3\n"
      "1 1\n");
  EXPECT_THROW((void)read_matrix_market(wide), std::runtime_error);
}

TEST(MatrixMarket, RejectsBadHeaders) {
  std::istringstream bad1("%%MatrixMarket matrix array real general\n1 1\n");
  EXPECT_THROW((void)read_matrix_market(bad1), std::runtime_error);
  std::istringstream bad2(
      "%%MatrixMarket matrix coordinate complex general\n1 1 0\n");
  EXPECT_THROW((void)read_matrix_market(bad2), std::runtime_error);
  std::istringstream bad3("");
  EXPECT_THROW((void)read_matrix_market(bad3), std::runtime_error);
}

TEST(MatrixMarket, RejectsTruncatedEntries) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 3\n"
      "1 1 1.0\n");
  EXPECT_THROW((void)read_matrix_market(in), std::runtime_error);
}

TEST(MatrixMarket, RoundTripPreservesStructureAndValues) {
  const CsrMatrix m = banded_fem(120, 8, 4, 13);
  std::stringstream buf;
  write_matrix_market(buf, m);
  const CsrMatrix back = read_matrix_market(buf);
  EXPECT_EQ(back.rows(), m.rows());
  EXPECT_EQ(back.nnz(), m.nnz());
  EXPECT_EQ(back.col_idx(), m.col_idx());
  for (std::size_t k = 0; k < m.values().size(); ++k) {
    EXPECT_NEAR(back.values()[k], m.values()[k], 1e-12);
  }
}

TEST(MatrixMarket, RoundTripPatternOnly) {
  const CsrMatrix m = banded_fem(60, 5, 4, 3, /*with_values=*/false);
  std::stringstream buf;
  write_matrix_market(buf, m);
  const CsrMatrix back = read_matrix_market(buf);
  EXPECT_FALSE(back.has_values());
  EXPECT_EQ(back.col_idx(), m.col_idx());
}

TEST(MatrixMarket, MissingFileThrows) {
  EXPECT_THROW((void)read_matrix_market_file("/nonexistent/path.mtx"),
               std::runtime_error);
}

}  // namespace
}  // namespace hetcomm::sparse
