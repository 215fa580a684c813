#include "sparse/generators.hpp"

#include <algorithm>
#include <random>
#include <stdexcept>

namespace hetcomm::sparse {

namespace {

std::vector<Triplet> to_triplets(const CsrMatrix& m) {
  std::vector<Triplet> out;
  out.reserve(static_cast<std::size_t>(m.nnz()));
  const auto& rp = m.row_ptr();
  const auto& ci = m.col_idx();
  const bool hv = m.has_values();
  for (std::int64_t r = 0; r < m.rows(); ++r) {
    for (std::int64_t k = rp[static_cast<std::size_t>(r)];
         k < rp[static_cast<std::size_t>(r) + 1]; ++k) {
      const double v = hv ? m.values()[static_cast<std::size_t>(k)] : 1.0;
      out.push_back({r, ci[static_cast<std::size_t>(k)], v});
    }
  }
  return out;
}

/// Reinforce the diagonal entries of both endpoints of a coupling so the
/// assembled matrix stays strictly diagonally dominant no matter how many
/// couplings accumulate on a row (duplicate triplets sum on assembly).
void reinforce_edge(std::vector<Triplet>& t, std::int64_t r, std::int64_t c,
                    double weight) {
  t.push_back({r, c, -weight});
  t.push_back({c, r, -weight});
  t.push_back({r, r, weight});
  t.push_back({c, c, weight});
}

/// Base diagonal so empty rows stay nonsingular.
void add_base_diagonal(std::vector<Triplet>& t, std::int64_t n) {
  for (std::int64_t r = 0; r < n; ++r) t.push_back({r, r, 1.0});
}

}  // namespace

CsrMatrix banded_fem(std::int64_t n, std::int64_t half_band, int degree,
                     std::uint64_t seed, bool with_values) {
  if (n <= 0) throw std::invalid_argument("banded_fem: n must be positive");
  if (half_band < 1 || degree < 0) {
    throw std::invalid_argument("banded_fem: bad band/degree");
  }
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::int64_t> offset(1, half_band);

  const int half_degree = std::max(1, degree / 2);
  // Each coupling pushes four triplets, plus one base diagonal per row.
  std::vector<Triplet> t;
  t.reserve(static_cast<std::size_t>(n) *
            (4 * static_cast<std::size_t>(half_degree) + 1));
  for (std::int64_t r = 0; r < n; ++r) {
    for (int k = 0; k < half_degree; ++k) {
      const std::int64_t c = r + offset(rng);
      if (c >= n) continue;
      reinforce_edge(t, r, c, 1.0);
    }
  }
  add_base_diagonal(t, n);
  return CsrMatrix::from_triplets(n, n, std::move(t), with_values);
}

CsrMatrix mesh_laplacian_2d(std::int64_t nx, std::int64_t ny,
                            bool with_values) {
  if (nx <= 0 || ny <= 0) {
    throw std::invalid_argument("mesh_laplacian_2d: bad grid");
  }
  const std::int64_t n = nx * ny;
  std::vector<Triplet> t;
  t.reserve(static_cast<std::size_t>(n) * 5);
  auto id = [nx](std::int64_t i, std::int64_t j) { return j * nx + i; };
  for (std::int64_t j = 0; j < ny; ++j) {
    for (std::int64_t i = 0; i < nx; ++i) {
      const std::int64_t r = id(i, j);
      t.push_back({r, r, 4.0});
      if (i + 1 < nx) {
        t.push_back({r, id(i + 1, j), -1.0});
        t.push_back({id(i + 1, j), r, -1.0});
      }
      if (j + 1 < ny) {
        t.push_back({r, id(i, j + 1), -1.0});
        t.push_back({id(i, j + 1), r, -1.0});
      }
    }
  }
  return CsrMatrix::from_triplets(n, n, std::move(t), with_values);
}

CsrMatrix with_arrow(const CsrMatrix& base, std::int64_t head,
                     int arrow_degree, std::uint64_t seed) {
  if (base.rows() != base.cols()) {
    throw std::invalid_argument("with_arrow: matrix must be square");
  }
  if (head < 0 || head > base.rows() || arrow_degree < 0) {
    throw std::invalid_argument("with_arrow: bad head/degree");
  }
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::int64_t> col(0, base.cols() - 1);
  std::vector<Triplet> t = to_triplets(base);
  for (std::int64_t r = 0; r < head; ++r) {
    for (int k = 0; k < arrow_degree; ++k) {
      const std::int64_t c = col(rng);
      if (c == r) continue;
      reinforce_edge(t, r, c, 0.1);
    }
  }
  add_base_diagonal(t, base.rows());
  return CsrMatrix::from_triplets(base.rows(), base.cols(), std::move(t),
                                  base.has_values());
}

CsrMatrix with_long_range(const CsrMatrix& base, int per_row,
                          double row_fraction, std::uint64_t seed) {
  if (base.rows() != base.cols()) {
    throw std::invalid_argument("with_long_range: matrix must be square");
  }
  if (per_row < 0 || row_fraction < 0.0 || row_fraction > 1.0) {
    throw std::invalid_argument("with_long_range: bad parameters");
  }
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::int64_t> col(0, base.cols() - 1);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::vector<Triplet> t = to_triplets(base);
  for (std::int64_t r = 0; r < base.rows(); ++r) {
    if (coin(rng) >= row_fraction) continue;
    for (int k = 0; k < per_row; ++k) {
      const std::int64_t c = col(rng);
      if (c == r) continue;
      reinforce_edge(t, r, c, 0.1);
    }
  }
  add_base_diagonal(t, base.rows());
  return CsrMatrix::from_triplets(base.rows(), base.cols(), std::move(t),
                                  base.has_values());
}

}  // namespace hetcomm::sparse
