#pragma once
// Synthetic sparse-matrix generators.
//
// These produce structurally-symmetric patterns with controllable size,
// degree and locality, mimicking the character of the paper's SuiteSparse
// test matrices (FEM band structure, dense arrow heads, scattered
// long-range couplings).  Values, when requested, make the matrix strictly
// diagonally dominant so SpMV results are well-behaved.
//
// Each coupling family is a seeded stream that draws couplings (r, c) in a
// fixed order; every generator feeds its streams straight into the
// row-bucket assembly (CsrMatrix::assemble), which replays them twice.  A
// matrix whose entry count cannot be represented throws
// std::invalid_argument before anything is allocated or drawn.

#include <cstdint>

#include "sparse/csr.hpp"

namespace hetcomm::sparse {

/// Symmetric banded FEM-like matrix: each row couples to ~`degree` random
/// neighbors within +-`half_band` plus the diagonal.
[[nodiscard]] CsrMatrix banded_fem(std::int64_t n, std::int64_t half_band,
                                   int degree, std::uint64_t seed,
                                   bool with_values = true);

/// 5-point Laplacian on an nx-by-ny grid (classic mesh matrix).
[[nodiscard]] CsrMatrix mesh_laplacian_2d(std::int64_t nx, std::int64_t ny,
                                          bool with_values = true);

/// Add a dense symmetric "arrow": the first `head` rows/columns couple to
/// `arrow_degree` random positions spread over the whole matrix (audikw_1's
/// signature structure).
[[nodiscard]] CsrMatrix with_arrow(const CsrMatrix& base, std::int64_t head,
                                   int arrow_degree, std::uint64_t seed);

/// Add `per_row` random symmetric long-range couplings to a fraction
/// `row_fraction` of rows (thermal2-like scattered structure).
[[nodiscard]] CsrMatrix with_long_range(const CsrMatrix& base, int per_row,
                                        double row_fraction,
                                        std::uint64_t seed);

/// The banded -> arrow -> long-range composition the SuiteSparse stand-ins
/// use.  `arrow_head` 0 or `arrow_degree` 0 drops the arrow layer;
/// `long_range_per_row` 0 drops the long-range layer.
struct CouplingLayers {
  std::int64_t n = 0;
  std::int64_t half_band = 1;
  int degree = 0;
  std::int64_t arrow_head = 0;
  int arrow_degree = 0;
  int long_range_per_row = 0;
  double long_range_fraction = 0.0;
};

/// Pattern-only matrix of every layer, drawn from seeds `seed` (band),
/// `seed + 1` (arrow) and `seed + 2` (long range): the pattern of
/// with_long_range(with_arrow(banded_fem(...))), built in one assembly.
[[nodiscard]] CsrMatrix coupling_pattern(const CouplingLayers& layers,
                                         std::uint64_t seed);

}  // namespace hetcomm::sparse
