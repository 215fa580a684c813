#pragma once
// fig51_sweep: the paper's Figure 5.1 grid driven through hetcomm's public
// functions, building each SpMV pattern once per (matrix, GPU count).

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/advisor.hpp"
#include "core/comm_pattern.hpp"
#include "core/strategy.hpp"
#include "machine/machine.hpp"
#include "sparse/csr.hpp"

namespace perfbench {

struct Fig51Config {
  double scale = 0.015;  ///< stand-in size as a fraction of the published one
  int reps = 15;
  double noise_sigma = 0.02;
  int workers = 2;       ///< runtime::SweepRunner jobs
};

/// Set-up: the machine plus the six stand-in matrices.
struct Fig51Inputs {
  hetcomm::machine::MachineModel mach;
  std::vector<hetcomm::sparse::CsrMatrix> matrices;  ///< figure51_profiles order
  std::vector<hetcomm::core::StrategyConfig> strategies;
  std::int64_t bytes_per_value = 0;
};

[[nodiscard]] Fig51Inputs fig51_setup(const Fig51Config& config);

struct Fig51Cell {
  double max_avg = 0.0;
  std::vector<double> per_rank_mean;
  double seconds = 0.0;     ///< wall time of the cell
  std::int64_t plan_ops = 0;
  std::int64_t messages = 0;  ///< compiled messages per repetition
};

struct Fig51Grid {
  double wall_seconds = 0.0;       ///< both sweep stages
  std::vector<double> column_seconds;  ///< pattern + rank cell per column
  std::vector<Fig51Cell> cells;    ///< column-major: column * strategies + s
  double busy_seconds = 0.0;       ///< sum of every cell's wall time
};

/// Run the whole grid once; spans go to `log` when it is non-null.
[[nodiscard]] Fig51Grid run_fig51_grid(const Fig51Inputs& inputs,
                                       const Fig51Config& config,
                                       SpanLog* log);

/// FNV-1a over every cell's max_avg and per_rank_mean bits, grid order.
[[nodiscard]] std::uint64_t fig51_digest(const Fig51Grid& grid);
/// The same, as "0x" plus 16 hex digits.
[[nodiscard]] std::string fig51_digest_hex(const Fig51Grid& grid);
/// The reference digest: the first "0x..." word of `path`.
[[nodiscard]] std::string read_digest_file(const std::string& path);

/// Re-run cell `cell` on ExecMode::Interpreted (the reference path) and
/// report whether it matches the grid's result bit for bit.
[[nodiscard]] bool fig51_reference_matches(const Fig51Inputs& inputs,
                                           const Fig51Config& config,
                                           const Fig51Grid& grid,
                                           std::size_t cell);

[[nodiscard]] Result run_fig51(const RunOptions& options);

}  // namespace perfbench
