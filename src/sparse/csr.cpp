#include "sparse/csr.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>
#include <string>

namespace hetcomm::sparse {

CsrMatrix CsrMatrix::from_triplets(std::int64_t rows, std::int64_t cols,
                                   std::vector<Triplet> triplets,
                                   bool with_values) {
  if (rows < 0 || cols < 0) {
    throw std::invalid_argument("CsrMatrix: negative dimensions");
  }
  for (const Triplet& t : triplets) {
    if (t.row < 0 || t.row >= rows || t.col < 0 || t.col >= cols) {
      throw std::out_of_range("CsrMatrix: triplet (" + std::to_string(t.row) +
                              "," + std::to_string(t.col) + ") out of range");
    }
  }
  std::sort(triplets.begin(), triplets.end(),
            [](const Triplet& a, const Triplet& b) {
              if (a.row != b.row) return a.row < b.row;
              return a.col < b.col;
            });

  CsrMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_.assign(static_cast<std::size_t>(rows) + 1, 0);
  // Reserve the exact entry count: triplets may repeat a (row, col) pair,
  // and the matrix keeps this capacity for its lifetime.
  std::size_t distinct = 0;
  for (std::size_t i = 0; i < triplets.size(); ++i) {
    if (i == 0 || triplets[i].row != triplets[i - 1].row ||
        triplets[i].col != triplets[i - 1].col) {
      ++distinct;
    }
  }
  m.col_idx_.reserve(distinct);
  if (with_values) m.values_.reserve(distinct);

  for (std::size_t i = 0; i < triplets.size();) {
    const std::int64_t r = triplets[i].row;
    const std::int64_t c = triplets[i].col;
    double v = 0.0;
    std::size_t j = i;
    for (; j < triplets.size() && triplets[j].row == r && triplets[j].col == c;
         ++j) {
      v += triplets[j].value;  // duplicates sum
    }
    m.col_idx_.push_back(c);
    if (with_values) m.values_.push_back(v);
    ++m.row_ptr_[static_cast<std::size_t>(r) + 1];
    i = j;
  }
  for (std::size_t r = 0; r < static_cast<std::size_t>(rows); ++r) {
    m.row_ptr_[r + 1] += m.row_ptr_[r];
  }
  return m;
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
