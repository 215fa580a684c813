#include "sparse/generators.hpp"

#include <algorithm>
#include <random>
#include <stdexcept>
#include <string>

namespace hetcomm::sparse {

namespace {

constexpr double kBandWeight = 1.0;
constexpr double kFarWeight = 0.1;  // arrow and long-range couplings

/// `entries` plus `rows * per_row` couplings of `per_coupling` entries each;
/// std::invalid_argument naming `who` when the sum leaves int64.
std::int64_t plus_couplings(const char* who, std::int64_t entries,
                            std::int64_t rows, std::int64_t per_row,
                            std::int64_t per_coupling) {
  std::int64_t couplings = 0;
  if (__builtin_mul_overflow(rows, per_row, &couplings) ||
      __builtin_mul_overflow(couplings, per_coupling, &couplings) ||
      __builtin_add_overflow(entries, couplings, &entries)) {
    throw std::invalid_argument(std::string(who) + ": entry count overflows");
  }
  return entries;
}

void check_band(const char* who, std::int64_t n, std::int64_t half_band,
                int degree) {
  if (n <= 0) {
    throw std::invalid_argument(std::string(who) + ": n must be positive");
  }
  if (half_band < 1 || degree < 0) {
    throw std::invalid_argument(std::string(who) + ": bad band/degree");
  }
}

void check_arrow(const char* who, std::int64_t n, std::int64_t head,
                 int arrow_degree) {
  if (head < 0 || head > n || arrow_degree < 0) {
    throw std::invalid_argument(std::string(who) + ": bad head/degree");
  }
}

void check_long_range(const char* who, int per_row, double row_fraction) {
  if (per_row < 0 || row_fraction < 0.0 || row_fraction > 1.0) {
    throw std::invalid_argument(std::string(who) + ": bad parameters");
  }
}

// Seeded coupling streams.  Each calls edge(r, c, weight), r != c, once per
// coupling it draws; re-running one from the same seed replays the same
// couplings in the same order.

/// `half_degree` draws per row, each to a row up to `half_band` below it.
template <class Edge>
void band_couplings(std::int64_t n, std::int64_t half_band, int half_degree,
                    std::uint64_t seed, const Edge& edge) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::int64_t> offset(1, half_band);
  for (std::int64_t r = 0; r < n; ++r) {
    for (int k = 0; k < half_degree; ++k) {
      const std::int64_t c = r + offset(rng);
      if (c < n) edge(r, c, kBandWeight);
    }
  }
}

/// `arrow_degree` draws anywhere in the matrix for each of the first `head`
/// rows.
template <class Edge>
void arrow_couplings(std::int64_t n, std::int64_t head, int arrow_degree,
                     std::uint64_t seed, const Edge& edge) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::int64_t> col(0, n - 1);
  for (std::int64_t r = 0; r < head; ++r) {
    for (int k = 0; k < arrow_degree; ++k) {
      const std::int64_t c = col(rng);
      if (c != r) edge(r, c, kFarWeight);
    }
  }
}

/// `per_row` draws anywhere in the matrix for a `row_fraction` coin-flipped
/// share of rows.
template <class Edge>
void long_range_couplings(std::int64_t n, int per_row, double row_fraction,
                          std::uint64_t seed, const Edge& edge) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::int64_t> col(0, n - 1);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  for (std::int64_t r = 0; r < n; ++r) {
    if (coin(rng) >= row_fraction) continue;
    for (int k = 0; k < per_row; ++k) {
      const std::int64_t c = col(rng);
      if (c != r) edge(r, c, kFarWeight);
    }
  }
}

/// Assemble `base`'s entries (when given), every coupling `couplings(edge)`
/// draws and a unit diagonal.  A coupling is its two mirrored entries; with
/// values they weigh -weight and the coupling also adds weight to both
/// endpoints' diagonals, so the matrix stays strictly diagonally dominant
/// however many couplings a row accumulates.
template <class Couplings>
CsrMatrix assemble_symmetric(std::int64_t n, const CsrMatrix* base,
                             bool with_values, const Couplings& couplings) {
  return CsrMatrix::assemble(
      n, n,
      [&](const auto& entry) {
        if (base != nullptr) {
          const auto& rp = base->row_ptr();
          const auto& ci = base->col_idx();
          const bool hv = base->has_values();
          for (std::int64_t r = 0; r < n; ++r) {
            for (std::int64_t k = rp[static_cast<std::size_t>(r)];
                 k < rp[static_cast<std::size_t>(r) + 1]; ++k) {
              const auto i = static_cast<std::size_t>(k);
              entry(r, ci[i], hv ? base->values()[i] : 1.0);
            }
          }
        }
        couplings([&](std::int64_t r, std::int64_t c, double weight) {
          entry(r, c, -weight);
          entry(c, r, -weight);
          if (with_values) {
            entry(r, r, weight);
            entry(c, c, weight);
          }
        });
        for (std::int64_t r = 0; r < n; ++r) entry(r, r, 1.0);
      },
      with_values);
}

}  // namespace

CsrMatrix banded_fem(std::int64_t n, std::int64_t half_band, int degree,
                     std::uint64_t seed, bool with_values) {
  check_band("banded_fem", n, half_band, degree);
  const int half_degree = std::max(1, degree / 2);
  (void)plus_couplings("banded_fem", n, n, half_degree, with_values ? 4 : 2);
  return assemble_symmetric(n, nullptr, with_values, [&](const auto& edge) {
    band_couplings(n, half_band, half_degree, seed, edge);
  });
}

CsrMatrix mesh_laplacian_2d(std::int64_t nx, std::int64_t ny,
                            bool with_values) {
  if (nx <= 0 || ny <= 0) {
    throw std::invalid_argument("mesh_laplacian_2d: bad grid");
  }
  std::int64_t n = 0;
  if (__builtin_mul_overflow(nx, ny, &n)) {
    throw std::invalid_argument("mesh_laplacian_2d: entry count overflows");
  }
  (void)plus_couplings("mesh_laplacian_2d", n, n, 2, 2);
  auto id = [nx](std::int64_t i, std::int64_t j) { return j * nx + i; };
  return CsrMatrix::assemble(
      n, n,
      [&](const auto& entry) {
        for (std::int64_t j = 0; j < ny; ++j) {
          for (std::int64_t i = 0; i < nx; ++i) {
            const std::int64_t r = id(i, j);
            entry(r, r, 4.0);
            if (i + 1 < nx) {
              entry(r, id(i + 1, j), -1.0);
              entry(id(i + 1, j), r, -1.0);
            }
            if (j + 1 < ny) {
              entry(r, id(i, j + 1), -1.0);
              entry(id(i, j + 1), r, -1.0);
            }
          }
        }
      },
      with_values);
}

CsrMatrix with_arrow(const CsrMatrix& base, std::int64_t head,
                     int arrow_degree, std::uint64_t seed) {
  if (base.rows() != base.cols()) {
    throw std::invalid_argument("with_arrow: matrix must be square");
  }
  const std::int64_t n = base.rows();
  check_arrow("with_arrow", n, head, arrow_degree);
  const bool hv = base.has_values();
  (void)plus_couplings("with_arrow", n + base.nnz(), head, arrow_degree,
                       hv ? 4 : 2);
  return assemble_symmetric(n, &base, hv, [&](const auto& edge) {
    arrow_couplings(n, head, arrow_degree, seed, edge);
  });
}

CsrMatrix with_long_range(const CsrMatrix& base, int per_row,
                          double row_fraction, std::uint64_t seed) {
  if (base.rows() != base.cols()) {
    throw std::invalid_argument("with_long_range: matrix must be square");
  }
  check_long_range("with_long_range", per_row, row_fraction);
  const std::int64_t n = base.rows();
  const bool hv = base.has_values();
  (void)plus_couplings("with_long_range", n + base.nnz(), n, per_row,
                       hv ? 4 : 2);
  return assemble_symmetric(n, &base, hv, [&](const auto& edge) {
    long_range_couplings(n, per_row, row_fraction, seed, edge);
  });
}

CsrMatrix coupling_pattern(const CouplingLayers& layers, std::uint64_t seed) {
  const std::int64_t n = layers.n;
  check_band("coupling_pattern", n, layers.half_band, layers.degree);
  check_arrow("coupling_pattern", n, layers.arrow_head, layers.arrow_degree);
  check_long_range("coupling_pattern", layers.long_range_per_row,
                   layers.long_range_fraction);
  const int half_degree = std::max(1, layers.degree / 2);
  std::int64_t entries =
      plus_couplings("coupling_pattern", n, n, half_degree, 2);
  entries = plus_couplings("coupling_pattern", entries, layers.arrow_head,
                           layers.arrow_degree, 2);
  (void)plus_couplings("coupling_pattern", entries, n,
                       layers.long_range_per_row, 2);
  return assemble_symmetric(n, nullptr, false, [&](const auto& edge) {
    band_couplings(n, layers.half_band, half_degree, seed, edge);
    if (layers.arrow_head > 0 && layers.arrow_degree > 0) {
      arrow_couplings(n, layers.arrow_head, layers.arrow_degree, seed + 1,
                      edge);
    }
    if (layers.long_range_per_row > 0) {
      long_range_couplings(n, layers.long_range_per_row,
                           layers.long_range_fraction, seed + 2, edge);
    }
  });
}

}  // namespace hetcomm::sparse
