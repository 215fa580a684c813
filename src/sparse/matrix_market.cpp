#include "sparse/matrix_market.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace hetcomm::sparse {

namespace {

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

}  // namespace

CsrMatrix read_matrix_market(std::istream& in) {
  std::string line;
  if (!std::getline(in, line)) {
    throw std::runtime_error("matrix market: empty stream");
  }
  std::istringstream header(line);
  std::string tag, object, format, field, symmetry;
  header >> tag >> object >> format >> field >> symmetry;
  if (tag != "%%MatrixMarket" || lower(object) != "matrix" ||
      lower(format) != "coordinate") {
    throw std::runtime_error("matrix market: unsupported header: " + line);
  }
  field = lower(field);
  symmetry = lower(symmetry);
  const bool has_values = field == "real" || field == "integer";
  if (!has_values && field != "pattern") {
    throw std::runtime_error("matrix market: unsupported field: " + field);
  }
  const bool symmetric = symmetry == "symmetric";
  if (!symmetric && symmetry != "general") {
    throw std::runtime_error("matrix market: unsupported symmetry: " + symmetry);
  }

  // Skip comments, read the size line.
  std::int64_t rows = 0, cols = 0, entries = 0;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '%') continue;
    std::istringstream sizes(line);
    if (!(sizes >> rows >> cols >> entries)) {
      throw std::runtime_error("matrix market: bad size line: " + line);
    }
    break;
  }
  // A size line claiming more entries than the matrix has positions is
  // corrupt or hostile.
  std::int64_t cells = 0;
  if (rows <= 0 || cols <= 0 || entries < 0 ||
      (!__builtin_mul_overflow(rows, cols, &cells) && entries > cells)) {
    throw std::runtime_error("matrix market: invalid dimensions");
  }

  // The size line is untrusted until the entries arrive: reserve at most a
  // fixed chunk up front and let the vector grow past it.
  constexpr std::int64_t kReserveChunk = std::int64_t{1} << 16;
  std::vector<Triplet> triplets;
  triplets.reserve(static_cast<std::size_t>(std::min(entries, kReserveChunk)) *
                   (symmetric ? 2 : 1));
  std::int64_t seen = 0;
  while (seen < entries && std::getline(in, line)) {
    if (line.empty() || line[0] == '%') continue;
    std::istringstream entry(line);
    std::int64_t r = 0, c = 0;
    double v = 1.0;
    if (!(entry >> r >> c)) {
      throw std::runtime_error("matrix market: bad entry line: " + line);
    }
    if (has_values && !(entry >> v)) {
      throw std::runtime_error("matrix market: missing value: " + line);
    }
    --r;  // 1-based to 0-based
    --c;
    triplets.push_back({r, c, v});
    if (symmetric && r != c) triplets.push_back({c, r, v});
    ++seen;
  }
  if (seen != entries) {
    throw std::runtime_error("matrix market: truncated entry list");
  }
  return CsrMatrix::from_triplets(rows, cols, std::move(triplets), has_values);
}

CsrMatrix read_matrix_market_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("matrix market: cannot open " + path);
  return read_matrix_market(in);
}

void write_matrix_market(std::ostream& out, const CsrMatrix& m) {
  const bool hv = m.has_values();
  out << "%%MatrixMarket matrix coordinate " << (hv ? "real" : "pattern")
      << " general\n";
  out << m.rows() << " " << m.cols() << " " << m.nnz() << "\n";
  const auto& rp = m.row_ptr();
  const auto& ci = m.col_idx();
  for (std::int64_t r = 0; r < m.rows(); ++r) {
    for (std::int64_t k = rp[static_cast<std::size_t>(r)];
         k < rp[static_cast<std::size_t>(r) + 1]; ++k) {
      out << (r + 1) << " " << (ci[static_cast<std::size_t>(k)] + 1);
      if (hv) out << " " << m.values()[static_cast<std::size_t>(k)];
      out << "\n";
    }
  }
}

void write_matrix_market_file(const std::string& path, const CsrMatrix& m) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("matrix market: cannot open " + path);
  write_matrix_market(out, m);
}

}  // namespace hetcomm::sparse
