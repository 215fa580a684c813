#include "core/pattern_io.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/fnv1a.hpp"

namespace hetcomm::core {

namespace {

constexpr const char* kHeader = "hetcomm-pattern v1";

}  // namespace

std::uint64_t pattern_hash(const CommPattern& pattern) {
  std::uint64_t h = kFnv1aOffset;
  h = fnv1a_word(h, static_cast<std::uint64_t>(pattern.num_gpus()));
  for (int src = 0; src < pattern.num_gpus(); ++src) {
    for (const GpuMessage& m : pattern.sends_from(src)) {
      h = fnv1a_word(h, static_cast<std::uint64_t>(src));
      h = fnv1a_word(h, static_cast<std::uint64_t>(m.dst_gpu));
      h = fnv1a_word(h, static_cast<std::uint64_t>(m.bytes));
      h = fnv1a_word(h, static_cast<std::uint64_t>(m.count));
    }
  }
  for (const auto& [src, node, bytes] : pattern.node_dedup_entries()) {
    // Tag dedup entries so a pattern with annotations can never collide
    // with one whose message list happens to encode the same words.
    h = fnv1a_word(h, 0xdedaULL);
    h = fnv1a_word(h, static_cast<std::uint64_t>(src));
    h = fnv1a_word(h, static_cast<std::uint64_t>(node));
    h = fnv1a_word(h, static_cast<std::uint64_t>(bytes));
  }
  return h;
}

void write_pattern(std::ostream& os, const CommPattern& pattern) {
  os << kHeader << "\n";
  os << "gpus " << pattern.num_gpus() << "\n";
  for (int src = 0; src < pattern.num_gpus(); ++src) {
    for (const GpuMessage& m : pattern.sends_from(src)) {
      os << "msg " << src << " " << m.dst_gpu << " " << m.bytes << " "
         << m.count << "\n";
    }
  }
  for (const auto& [src, node, bytes] : pattern.node_dedup_entries()) {
    os << "dedup " << src << " " << node << " " << bytes << "\n";
  }
}

CommPattern read_pattern(std::istream& is) {
  std::string line;
  if (!std::getline(is, line) || line != kHeader) {
    throw std::runtime_error("read_pattern: bad header: '" + line + "'");
  }
  if (!std::getline(is, line)) {
    throw std::runtime_error("read_pattern: missing gpus line");
  }
  std::istringstream gpus_line(line);
  std::string keyword;
  int num_gpus = 0;
  if (!(gpus_line >> keyword >> num_gpus) || keyword != "gpus" ||
      num_gpus <= 0) {
    throw std::runtime_error("read_pattern: bad gpus line: '" + line + "'");
  }

  CommPattern pattern(num_gpus);
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream entry(line);
    entry >> keyword;
    if (keyword == "msg") {
      int src = 0, dst = 0, count = 0;
      std::int64_t bytes = 0;
      if (!(entry >> src >> dst >> bytes >> count) || count <= 0 ||
          bytes < count) {
        throw std::runtime_error("read_pattern: bad msg line: '" + line + "'");
      }
      // Reconstruct `count` logical messages totaling `bytes`.
      const std::int64_t each = bytes / count;
      std::int64_t left = bytes;
      for (int i = 0; i < count; ++i) {
        const std::int64_t b = i + 1 == count ? left : each;
        pattern.add(src, dst, b);
        left -= b;
      }
    } else if (keyword == "dedup") {
      int src = 0, node = 0;
      std::int64_t bytes = 0;
      if (!(entry >> src >> node >> bytes)) {
        throw std::runtime_error("read_pattern: bad dedup line: '" + line +
                                 "'");
      }
      pattern.set_node_dedup(src, node, bytes);
    } else {
      throw std::runtime_error("read_pattern: unknown keyword '" + keyword +
                               "'");
    }
  }
  return pattern;
}

void write_pattern_file(const std::string& path, const CommPattern& pattern) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("write_pattern_file: cannot open " + path);
  write_pattern(os, pattern);
}

CommPattern read_pattern_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("read_pattern_file: cannot open " + path);
  return read_pattern(is);
}

}  // namespace hetcomm::core
