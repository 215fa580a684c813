#include "sparse/suitesparse_profiles.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "sparse/generators.hpp"

namespace hetcomm::sparse {

const std::vector<MatrixProfile>& figure51_profiles() {
  // Published sizes from the SuiteSparse collection; band fractions chosen
  // to reproduce each matrix's neighbor fan-out character under contiguous
  // row partitioning (narrow band => nearest-neighbor halo, wide band =>
  // many-node halo).
  static const std::vector<MatrixProfile> profiles = {
      {"audikw_1", 943695, 77651847, 0.015, /*arrow_head=*/2000,
       /*arrow_degree=*/40, 0, 0.0, {40, 80, 160, 320}},
      {"Serena", 1391349, 64131971, 0.040, 0, 0, 0, 0.0, {40, 80, 160, 320}},
      {"ldoor", 952203, 42493817, 0.008, 0, 0, 0, 0.0, {40, 80, 160, 320}},
      {"thermal2", 1228045, 8580313, 0.002, 0, 0, /*long_range_per_row=*/1,
       /*long_range_fraction=*/0.02, {40, 80, 160, 320}},
      {"bone010", 986703, 47851783, 0.020, 0, 0, 0, 0.0, {80, 160, 320}},
      {"Geo_1438", 1437960, 60236322, 0.035, 0, 0, 0, 0.0, {80, 160, 320}},
  };
  return profiles;
}

const MatrixProfile& profile_by_name(const std::string& name) {
  for (const MatrixProfile& p : figure51_profiles()) {
    if (p.name == name) return p;
  }
  throw std::invalid_argument("profile_by_name: unknown matrix " + name);
}

CsrMatrix generate_standin(const MatrixProfile& profile, double scale,
                           std::uint64_t seed) {
  if (scale <= 0.0 || scale > 1.0) {
    throw std::invalid_argument("generate_standin: scale out of (0,1]");
  }
  const std::int64_t n = std::max<std::int64_t>(
      64, static_cast<std::int64_t>(
              std::llround(static_cast<double>(profile.rows) * scale)));
  const int degree = std::max(
      2, static_cast<int>(profile.nnz / std::max<std::int64_t>(1, profile.rows)));
  const std::int64_t half_band = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(
             std::llround(profile.band_fraction * static_cast<double>(n))));

  CouplingLayers layers{.n = n, .half_band = half_band, .degree = degree};
  if (profile.arrow_head > 0 && profile.arrow_degree > 0) {
    layers.arrow_head = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(std::llround(
               static_cast<double>(profile.arrow_head) * scale)));
    layers.arrow_degree = profile.arrow_degree;
  }
  layers.long_range_per_row = profile.long_range_per_row;
  layers.long_range_fraction = profile.long_range_fraction;
  return coupling_pattern(layers, seed);
}

}  // namespace hetcomm::sparse
