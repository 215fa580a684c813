#pragma once
// Compressed sparse row matrices.
//
// Values are optional: communication-pattern work only needs the sparsity
// structure, while the SpMV reference kernels use values.  Every matrix is
// built by one row-bucket assembly (`CsrMatrix::assemble`): a replayable
// entry stream is run twice, once to count entries per row and once to
// scatter them into exact-size row buckets, and each short row is then
// sorted and its duplicates merged.  `from_triplets` is a thin adapter over
// it; the generators feed it their seeded coupling streams directly.

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

namespace hetcomm::sparse {

struct Triplet {
  std::int64_t row = 0;
  std::int64_t col = 0;
  double value = 1.0;
};

class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Build from triplets; duplicates are summed in input order, entries
  /// sorted per row.  `with_values` false discards values (pattern-only
  /// matrix).
  static CsrMatrix from_triplets(std::int64_t rows, std::int64_t cols,
                                 const std::vector<Triplet>& triplets,
                                 bool with_values = true);

  /// Row-bucket assembly.  `emit(entry)` must call `entry(row, col, value)`
  /// for every entry and replay the same sequence each time it is called:
  /// it runs twice, once to count entries per row (checking each against
  /// the shape; std::out_of_range on the first outside it) and once to
  /// scatter columns -- and values, when kept -- into their row's bucket.
  /// Each row is then sorted and duplicates merged, values summed in
  /// emission order; `col_idx` ends with exactly nnz capacity.
  template <class Emit>
  static CsrMatrix assemble(std::int64_t rows, std::int64_t cols, Emit&& emit,
                            bool with_values);

  [[nodiscard]] std::int64_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::int64_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::int64_t nnz() const noexcept {
    return static_cast<std::int64_t>(col_idx_.size());
  }
  [[nodiscard]] bool has_values() const noexcept { return !values_.empty(); }

  [[nodiscard]] const std::vector<std::int64_t>& row_ptr() const noexcept {
    return row_ptr_;
  }
  [[nodiscard]] const std::vector<std::int64_t>& col_idx() const noexcept {
    return col_idx_;
  }
  [[nodiscard]] const std::vector<double>& values() const noexcept {
    return values_;
  }

  [[nodiscard]] std::int64_t row_nnz(std::int64_t row) const;

  /// Mean nonzeros per row.
  [[nodiscard]] double mean_degree() const noexcept {
    return rows_ == 0 ? 0.0
                      : static_cast<double>(nnz()) / static_cast<double>(rows_);
  }

  /// Structural bandwidth: max |row - col| over nonzeros.
  [[nodiscard]] std::int64_t bandwidth() const;

  /// True when the *pattern* is structurally symmetric.
  [[nodiscard]] bool pattern_symmetric() const;

  /// Internal consistency check; throws std::logic_error on violation.
  void validate() const;

 private:
  /// Shape with an all-zero row_ptr; std::invalid_argument when negative.
  CsrMatrix(std::int64_t rows, std::int64_t cols);
  [[noreturn]] static void throw_out_of_range(std::int64_t row,
                                              std::int64_t col);
  /// Turn per-row counts (row r's in row_ptr_[r + 1]) into row offsets;
  /// returns the total, std::invalid_argument when it overflows.
  std::int64_t offsets_from_counts();
  /// Sort and merge each scattered row bucket (row_ptr_ holds the bucket
  /// offsets), then keep the merged entries at exact capacity.
  void merge_buckets(std::vector<std::int64_t> cols,
                     std::vector<double> values);

  std::int64_t rows_ = 0;
  std::int64_t cols_ = 0;
  std::vector<std::int64_t> row_ptr_{0};
  std::vector<std::int64_t> col_idx_;
  std::vector<double> values_;
};

template <class Emit>
CsrMatrix CsrMatrix::assemble(std::int64_t rows, std::int64_t cols,
                              Emit&& emit, bool with_values) {
  CsrMatrix m(rows, cols);
  emit([&m](std::int64_t r, std::int64_t c, double) {
    if (r < 0 || r >= m.rows_ || c < 0 || c >= m.cols_) {
      throw_out_of_range(r, c);
    }
    ++m.row_ptr_[static_cast<std::size_t>(r) + 1];
  });
  const auto total = static_cast<std::size_t>(m.offsets_from_counts());
  std::vector<std::int64_t> bucket_cols(total);
  std::vector<double> bucket_values(with_values ? total : 0);
  std::vector<std::int64_t> next(m.row_ptr_.begin(), m.row_ptr_.end() - 1);
  emit([&](std::int64_t r, std::int64_t c, double v) {
    const auto row = static_cast<std::size_t>(r);
    if (row >= next.size() || c < 0 || c >= m.cols_ ||
        next[row] >= m.row_ptr_[row + 1]) {
      throw std::logic_error("CsrMatrix::assemble: entry stream not replayed");
    }
    const auto k = static_cast<std::size_t>(next[row]++);
    bucket_cols[k] = c;
    if (with_values) bucket_values[k] = v;
  });
  for (std::size_t r = 0; r < next.size(); ++r) {
    if (next[r] != m.row_ptr_[r + 1]) {
      throw std::logic_error("CsrMatrix::assemble: entry stream not replayed");
    }
  }
  m.merge_buckets(std::move(bucket_cols), std::move(bucket_values));
  return m;
}

/// y = A * x (reference sequential kernel; A must carry values).
std::vector<double> spmv(const CsrMatrix& a, const std::vector<double>& x);

}  // namespace hetcomm::sparse
