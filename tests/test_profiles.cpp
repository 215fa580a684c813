#include "sparse/suitesparse_profiles.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <utility>
#include <vector>

#include "core/comm_pattern.hpp"
#include "core/fnv1a.hpp"
#include "sparse/comm_graph.hpp"
#include "sparse/partition.hpp"

namespace hetcomm::sparse {
namespace {

TEST(Profiles, SixFigure51Matrices) {
  const auto& profiles = figure51_profiles();
  ASSERT_EQ(profiles.size(), 6u);
  EXPECT_EQ(profiles[0].name, "audikw_1");
  EXPECT_EQ(profiles[3].name, "thermal2");
}

TEST(Profiles, PublishedSizesRecorded) {
  const MatrixProfile& audi = profile_by_name("audikw_1");
  EXPECT_EQ(audi.rows, 943695);
  EXPECT_EQ(audi.nnz, 77651847);
  EXPECT_GT(audi.arrow_head, 0);
  const MatrixProfile& thermal = profile_by_name("thermal2");
  EXPECT_GT(thermal.long_range_per_row, 0);
  EXPECT_THROW((void)profile_by_name("nonexistent"), std::invalid_argument);
}

TEST(Profiles, GeneratedStandinMatchesScaledSize) {
  const MatrixProfile& ldoor = profile_by_name("ldoor");
  const CsrMatrix m = generate_standin(ldoor, 0.01, 42);
  EXPECT_NEAR(static_cast<double>(m.rows()),
              static_cast<double>(ldoor.rows) * 0.01, 100.0);
  EXPECT_NO_THROW(m.validate());
  EXPECT_TRUE(m.pattern_symmetric());
  // Mean degree matches the published nnz/n character within a factor ~2.
  const double target = static_cast<double>(ldoor.nnz) /
                        static_cast<double>(ldoor.rows);
  EXPECT_GT(m.mean_degree(), target / 3.0);
  EXPECT_LT(m.mean_degree(), target * 2.0);
}

TEST(Profiles, ThermalIsMuchSparserThanAudi) {
  const CsrMatrix audi = generate_standin(profile_by_name("audikw_1"), 0.005, 1);
  const CsrMatrix thermal =
      generate_standin(profile_by_name("thermal2"), 0.005, 1);
  EXPECT_GT(audi.mean_degree(), 5.0 * thermal.mean_degree());
}

TEST(Profiles, AudiArrowCreatesHighFanout) {
  // The dense head makes part 0 talk to far more parts than a pure band.
  const CsrMatrix audi = generate_standin(profile_by_name("audikw_1"), 0.01, 2);
  const CsrMatrix serena = generate_standin(profile_by_name("Serena"), 0.01, 2);
  const int parts = 16;
  const core::CommPattern pa =
      spmv_comm_pattern(audi, RowPartition::contiguous(audi.rows(), parts));
  const core::CommPattern ps = spmv_comm_pattern(
      serena, RowPartition::contiguous(serena.rows(), parts));
  // audikw_1's head part exchanges with (almost) everyone.
  EXPECT_GE(static_cast<int>(pa.recvs_to(0).size()), parts - 2);
  (void)ps;
}

TEST(Profiles, ScaleValidation) {
  const MatrixProfile& p = profile_by_name("Serena");
  EXPECT_THROW((void)generate_standin(p, 0.0, 1), std::invalid_argument);
  EXPECT_THROW((void)generate_standin(p, 1.5, 1), std::invalid_argument);
}

TEST(Profiles, GpuSweepsAreNonEmptyAndSorted) {
  for (const MatrixProfile& p : figure51_profiles()) {
    ASSERT_FALSE(p.gpu_counts.empty()) << p.name;
    for (std::size_t i = 1; i < p.gpu_counts.size(); ++i) {
      EXPECT_LT(p.gpu_counts[i - 1], p.gpu_counts[i]) << p.name;
    }
    // All sweeps are multiples of Lassen's 4 GPUs/node.
    for (const int g : p.gpu_counts) EXPECT_EQ(g % 4, 0) << p.name;
  }
}

// The triplet + global-sort chain generate_standin ran before the
// row-bucket assembly (banded_fem -> with_arrow -> with_long_range, each
// expanding the previous matrix back to triplets), kept as the oracle.
struct ReferencePattern {
  std::vector<std::int64_t> row_ptr{0};
  std::vector<std::int64_t> col_idx;
};

using Entries = std::vector<std::pair<std::int64_t, std::int64_t>>;

ReferencePattern sort_entries(std::int64_t n, Entries t) {
  std::sort(t.begin(), t.end());
  t.erase(std::unique(t.begin(), t.end()), t.end());
  ReferencePattern p;
  p.row_ptr.assign(static_cast<std::size_t>(n) + 1, 0);
  for (const auto& [r, c] : t) {
    ++p.row_ptr[static_cast<std::size_t>(r) + 1];
    p.col_idx.push_back(c);
  }
  for (std::size_t r = 0; r < static_cast<std::size_t>(n); ++r) {
    p.row_ptr[r + 1] += p.row_ptr[r];
  }
  return p;
}

Entries expand(const ReferencePattern& p) {
  Entries t;
  for (std::size_t r = 0; r + 1 < p.row_ptr.size(); ++r) {
    for (std::int64_t k = p.row_ptr[r]; k < p.row_ptr[r + 1]; ++k) {
      t.emplace_back(static_cast<std::int64_t>(r),
                     p.col_idx[static_cast<std::size_t>(k)]);
    }
  }
  return t;
}

void reinforce(Entries& t, std::int64_t r, std::int64_t c) {
  t.emplace_back(r, c);
  t.emplace_back(c, r);
  t.emplace_back(r, r);
  t.emplace_back(c, c);
}

void add_diagonal(Entries& t, std::int64_t n) {
  for (std::int64_t r = 0; r < n; ++r) t.emplace_back(r, r);
}

ReferencePattern reference_standin(const MatrixProfile& profile, double scale,
                                   std::uint64_t seed) {
  const std::int64_t n = std::max<std::int64_t>(
      64, static_cast<std::int64_t>(
              std::llround(static_cast<double>(profile.rows) * scale)));
  const int degree = std::max(
      2, static_cast<int>(profile.nnz /
                          std::max<std::int64_t>(1, profile.rows)));
  const std::int64_t half_band = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(
             std::llround(profile.band_fraction * static_cast<double>(n))));

  Entries t;
  {
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<std::int64_t> offset(1, half_band);
    const int half_degree = std::max(1, degree / 2);
    for (std::int64_t r = 0; r < n; ++r) {
      for (int k = 0; k < half_degree; ++k) {
        const std::int64_t c = r + offset(rng);
        if (c < n) reinforce(t, r, c);
      }
    }
    add_diagonal(t, n);
  }
  ReferencePattern p = sort_entries(n, std::move(t));
  if (profile.arrow_head > 0 && profile.arrow_degree > 0) {
    const std::int64_t head = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(std::llround(
               static_cast<double>(profile.arrow_head) * scale)));
    std::mt19937_64 rng(seed + 1);
    std::uniform_int_distribution<std::int64_t> col(0, n - 1);
    t = expand(p);
    for (std::int64_t r = 0; r < head; ++r) {
      for (int k = 0; k < profile.arrow_degree; ++k) {
        const std::int64_t c = col(rng);
        if (c != r) reinforce(t, r, c);
      }
    }
    add_diagonal(t, n);
    p = sort_entries(n, std::move(t));
  }
  if (profile.long_range_per_row > 0) {
    std::mt19937_64 rng(seed + 2);
    std::uniform_int_distribution<std::int64_t> col(0, n - 1);
    std::uniform_real_distribution<double> coin(0.0, 1.0);
    t = expand(p);
    for (std::int64_t r = 0; r < n; ++r) {
      if (coin(rng) >= profile.long_range_fraction) continue;
      for (int k = 0; k < profile.long_range_per_row; ++k) {
        const std::int64_t c = col(rng);
        if (c != r) reinforce(t, r, c);
      }
    }
    add_diagonal(t, n);
    p = sort_entries(n, std::move(t));
  }
  return p;
}

TEST(Standin, MatchesTripletReferenceOnRandomProfiles) {
  std::mt19937_64 rng(515);
  auto uniform = [&rng](double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(rng);
  };
  auto pick = [&rng](std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng);
  };
  for (int trial = 0; trial < 100; ++trial) {
    MatrixProfile p;
    p.name = "random";
    p.rows = pick(1000, 100000);
    // Mean degree 0..60; below 2 it floors at the generator's degree 2.
    p.nnz = p.rows * pick(0, 60);
    p.band_fraction = uniform(0.0005, 0.1);
    if (trial % 2 == 0) {
      p.arrow_head = pick(1, p.rows / 100);
      p.arrow_degree = static_cast<int>(pick(1, 60));
    }
    if (trial % 3 == 0) {
      p.long_range_per_row = static_cast<int>(pick(1, 3));
      p.long_range_fraction = uniform(0.0, 0.3);
    }
    // Down to the 64-row floor.
    const double scale = trial % 5 == 0 ? uniform(0.00001, 0.0005)
                                        : uniform(0.0005, 0.03);
    const std::uint64_t seed = rng();
    const CsrMatrix m = generate_standin(p, scale, seed);
    const ReferencePattern ref = reference_standin(p, scale, seed);
    ASSERT_EQ(m.row_ptr(), ref.row_ptr) << "trial " << trial;
    ASSERT_EQ(m.col_idx(), ref.col_idx) << "trial " << trial;
    EXPECT_FALSE(m.has_values());
  }
}

TEST(Standin, Fig51StandinsKeepTheirPatternHashes) {
  // The six Fig. 5.1 stand-ins at the fig5_1 scale (0.015, seed 11):
  // FNV-1a over row_ptr then col_idx, each entry one little-endian word.
  struct Pinned {
    const char* name;
    std::int64_t rows;
    std::int64_t nnz;
    std::uint64_t hash;
  };
  const std::vector<Pinned> pinned = {
      {"audikw_1", 14155, 1066431, 0xea7e9f0de9c8cfe1ULL},
      {"Serena", 20870, 949446, 0x355f1ed8a0a4becaULL},
      {"ldoor", 14283, 585397, 0x7dd437b58c69b3bcULL},
      {"thermal2", 18421, 126693, 0xf7c80904159b26c4ULL},
      {"bone010", 14801, 691643, 0x5cd4ac4f3651ca51ULL},
      {"Geo_1438", 21569, 858811, 0x6fc129f40f1755bcULL},
  };
  const auto& profiles = figure51_profiles();
  ASSERT_EQ(profiles.size(), pinned.size());
  for (std::size_t i = 0; i < pinned.size(); ++i) {
    ASSERT_EQ(profiles[i].name, pinned[i].name);
    const CsrMatrix m = generate_standin(profiles[i], 0.015, 11);
    EXPECT_EQ(m.rows(), pinned[i].rows) << pinned[i].name;
    EXPECT_EQ(m.nnz(), pinned[i].nnz) << pinned[i].name;
    std::uint64_t h = core::kFnv1aOffset;
    for (const std::int64_t v : m.row_ptr()) {
      h = core::fnv1a_word(h, static_cast<std::uint64_t>(v));
    }
    for (const std::int64_t v : m.col_idx()) {
      h = core::fnv1a_word(h, static_cast<std::uint64_t>(v));
    }
    EXPECT_EQ(h, pinned[i].hash) << pinned[i].name;
  }
}

}  // namespace
}  // namespace hetcomm::sparse
