#include "sparse/csr.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>
#include <string>

namespace hetcomm::sparse {

CsrMatrix::CsrMatrix(std::int64_t rows, std::int64_t cols)
    : rows_(rows), cols_(cols) {
  if (rows < 0 || cols < 0) {
    throw std::invalid_argument("CsrMatrix: negative dimensions");
  }
  row_ptr_.assign(static_cast<std::size_t>(rows) + 1, 0);
}

void CsrMatrix::throw_out_of_range(std::int64_t row, std::int64_t col) {
  throw std::out_of_range("CsrMatrix: entry (" + std::to_string(row) + "," +
                          std::to_string(col) + ") out of range");
}

std::int64_t CsrMatrix::offsets_from_counts() {
  for (std::size_t r = 1; r < row_ptr_.size(); ++r) {
    if (__builtin_add_overflow(row_ptr_[r], row_ptr_[r - 1], &row_ptr_[r])) {
      throw std::invalid_argument("CsrMatrix: entry count overflows");
    }
  }
  return row_ptr_.back();
}

void CsrMatrix::merge_buckets(std::vector<std::int64_t> cols,
                              std::vector<double> values) {
  const bool with_values = !values.empty();
  std::vector<std::pair<std::int64_t, double>> row;  // one bucket, with values
  std::size_t out = 0;
  std::size_t begin = 0;
  for (std::size_t r = 0; r < static_cast<std::size_t>(rows_); ++r) {
    const auto end = static_cast<std::size_t>(row_ptr_[r + 1]);
    const std::size_t first = out;
    if (with_values) {
      // Stable, so duplicates sum in emission order.
      row.clear();
      for (std::size_t k = begin; k < end; ++k) {
        row.emplace_back(cols[k], values[k]);
      }
      std::stable_sort(row.begin(), row.end(),
                       [](const auto& a, const auto& b) {
                         return a.first < b.first;
                       });
      for (const auto& [c, v] : row) {
        if (out > first && cols[out - 1] == c) {
          values[out - 1] += v;
        } else {
          cols[out] = c;
          values[out] = v;
          ++out;
        }
      }
    } else {
      std::sort(cols.begin() + static_cast<std::ptrdiff_t>(begin),
                cols.begin() + static_cast<std::ptrdiff_t>(end));
      for (std::size_t k = begin; k < end; ++k) {
        if (out == first || cols[out - 1] != cols[k]) cols[out++] = cols[k];
      }
    }
    row_ptr_[r + 1] = static_cast<std::int64_t>(out);
    begin = end;
  }
  // Keep exactly nnz capacity: the matrix holds it for its lifetime.
  if (out == cols.size()) {
    col_idx_ = std::move(cols);
    values_ = std::move(values);
    return;
  }
  col_idx_.reserve(out);
  col_idx_.assign(cols.begin(),
                  cols.begin() + static_cast<std::ptrdiff_t>(out));
  if (with_values) {
    values_.reserve(out);
    values_.assign(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(out));
  }
}

CsrMatrix CsrMatrix::from_triplets(std::int64_t rows, std::int64_t cols,
                                   const std::vector<Triplet>& triplets,
                                   bool with_values) {
  return assemble(
      rows, cols,
      [&triplets](const auto& entry) {
        for (const Triplet& t : triplets) entry(t.row, t.col, t.value);
      },
      with_values);
}

std::int64_t CsrMatrix::row_nnz(std::int64_t row) const {
  if (row < 0 || row >= rows_) {
    throw std::out_of_range("CsrMatrix::row_nnz: row out of range");
  }
  return row_ptr_[static_cast<std::size_t>(row) + 1] -
         row_ptr_[static_cast<std::size_t>(row)];
}

std::int64_t CsrMatrix::bandwidth() const {
  std::int64_t band = 0;
  for (std::int64_t r = 0; r < rows_; ++r) {
    for (std::int64_t k = row_ptr_[static_cast<std::size_t>(r)];
         k < row_ptr_[static_cast<std::size_t>(r) + 1]; ++k) {
      const std::int64_t d = col_idx_[static_cast<std::size_t>(k)] - r;
      band = std::max(band, d < 0 ? -d : d);
    }
  }
  return band;
}

bool CsrMatrix::pattern_symmetric() const {
  if (rows_ != cols_) return false;
  std::set<std::pair<std::int64_t, std::int64_t>> entries;
  for (std::int64_t r = 0; r < rows_; ++r) {
    for (std::int64_t k = row_ptr_[static_cast<std::size_t>(r)];
         k < row_ptr_[static_cast<std::size_t>(r) + 1]; ++k) {
      entries.insert({r, col_idx_[static_cast<std::size_t>(k)]});
    }
  }
  for (const auto& [r, c] : entries) {
    if (r != c && entries.count({c, r}) == 0) return false;
  }
  return true;
}

void CsrMatrix::validate() const {
  if (static_cast<std::int64_t>(row_ptr_.size()) != rows_ + 1) {
    throw std::logic_error("CsrMatrix: row_ptr size mismatch");
  }
  if (row_ptr_.front() != 0 ||
      row_ptr_.back() != static_cast<std::int64_t>(col_idx_.size())) {
    throw std::logic_error("CsrMatrix: row_ptr endpoints invalid");
  }
  for (std::size_t r = 0; r + 1 < row_ptr_.size(); ++r) {
    if (row_ptr_[r] > row_ptr_[r + 1]) {
      throw std::logic_error("CsrMatrix: row_ptr not monotone");
    }
    for (std::int64_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      const std::int64_t c = col_idx_[static_cast<std::size_t>(k)];
      if (c < 0 || c >= cols_) {
        throw std::logic_error("CsrMatrix: column index out of range");
      }
      if (k > row_ptr_[r] && col_idx_[static_cast<std::size_t>(k - 1)] >= c) {
        throw std::logic_error("CsrMatrix: columns not strictly increasing");
      }
    }
  }
  if (!values_.empty() && values_.size() != col_idx_.size()) {
    throw std::logic_error("CsrMatrix: values size mismatch");
  }
}

std::vector<double> spmv(const CsrMatrix& a, const std::vector<double>& x) {
  if (!a.has_values()) {
    throw std::invalid_argument("spmv: matrix has no values");
  }
  if (static_cast<std::int64_t>(x.size()) != a.cols()) {
    throw std::invalid_argument("spmv: vector length mismatch");
  }
  std::vector<double> y(static_cast<std::size_t>(a.rows()), 0.0);
  const auto& rp = a.row_ptr();
  const auto& ci = a.col_idx();
  const auto& v = a.values();
  for (std::int64_t r = 0; r < a.rows(); ++r) {
    double acc = 0.0;
    for (std::int64_t k = rp[static_cast<std::size_t>(r)];
         k < rp[static_cast<std::size_t>(r) + 1]; ++k) {
      acc += v[static_cast<std::size_t>(k)] *
             x[static_cast<std::size_t>(ci[static_cast<std::size_t>(k)])];
    }
    y[static_cast<std::size_t>(r)] = acc;
  }
  return y;
}

}  // namespace hetcomm::sparse
