#include "core/pattern_io.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "core/fnv1a.hpp"

namespace hetcomm::core {
namespace {

CommPattern sample() {
  CommPattern p(8);
  p.add(0, 4, 1000);
  p.add(0, 4, 500);  // multiplicity 2
  p.add(1, 7, 64);
  p.add(3, 2, 12345);
  p.set_node_dedup(0, 1, 900);
  return p;
}

TEST(PatternIo, Fnv1aMatchesReferenceVectors) {
  // Published 64-bit FNV-1a test vectors.
  EXPECT_EQ(fnv1a_bytes(kFnv1aOffset, ""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a_bytes(kFnv1aOffset, "a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a_bytes(kFnv1aOffset, "foobar"), 0x85944171f73967e8ULL);
  // A word folds in as its eight little-endian bytes.
  const std::uint64_t word = 0x0123456789abcdefULL;
  const char le[8] = {'\xef', '\xcd', '\xab', '\x89',
                      '\x67', '\x45', '\x23', '\x01'};
  EXPECT_EQ(fnv1a_word(kFnv1aOffset, word),
            fnv1a_bytes(kFnv1aOffset, std::string_view(le, 8)));
}

TEST(PatternIo, PatternHashIsPinned) {
  // Fingerprints key the serve plan cache and are echoed to clients as
  // {"ref": ...} handles, so their values must never drift.
  EXPECT_EQ(pattern_hash(sample()), 0x50b5ac1e684223b2ULL);
  EXPECT_EQ(pattern_hash(CommPattern(3)), 0xc7c2bf3b330983e6ULL);
}

TEST(PatternIo, RoundTripPreservesEverything) {
  const CommPattern original = sample();
  std::stringstream buf;
  write_pattern(buf, original);
  const CommPattern back = read_pattern(buf);

  EXPECT_EQ(back.num_gpus(), original.num_gpus());
  EXPECT_EQ(back.total_bytes(), original.total_bytes());
  EXPECT_EQ(back.total_messages(), original.total_messages());
  for (int src = 0; src < original.num_gpus(); ++src) {
    const auto a = original.sends_from(src);
    const auto b = back.sends_from(src);
    ASSERT_EQ(a.size(), b.size()) << "src " << src;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].dst_gpu, b[i].dst_gpu);
      EXPECT_EQ(a[i].bytes, b[i].bytes);
      EXPECT_EQ(a[i].count, b[i].count);
    }
  }
  EXPECT_EQ(back.node_dedup_bytes(0, 1), 900);
  EXPECT_EQ(back.node_dedup_bytes(1, 1), -1);
}

TEST(PatternIo, EmptyPatternRoundTrips) {
  std::stringstream buf;
  write_pattern(buf, CommPattern(4));
  const CommPattern back = read_pattern(buf);
  EXPECT_EQ(back.num_gpus(), 4);
  EXPECT_EQ(back.total_bytes(), 0);
}

TEST(PatternIo, SkipsCommentsAndBlankLines) {
  std::istringstream in(
      "hetcomm-pattern v1\n"
      "gpus 4\n"
      "\n"
      "# a comment\n"
      "msg 0 1 100 1\n");
  const CommPattern p = read_pattern(in);
  EXPECT_EQ(p.bytes(0, 1), 100);
}

TEST(PatternIo, RejectsMalformedInput) {
  {
    std::istringstream in("wrong header\n");
    EXPECT_THROW((void)read_pattern(in), std::runtime_error);
  }
  {
    std::istringstream in("hetcomm-pattern v1\ngpus -2\n");
    EXPECT_THROW((void)read_pattern(in), std::runtime_error);
  }
  {
    std::istringstream in("hetcomm-pattern v1\ngpus 2\nmsg 0 1 5 0\n");
    EXPECT_THROW((void)read_pattern(in), std::runtime_error);
  }
  {
    std::istringstream in("hetcomm-pattern v1\ngpus 2\nbogus 1 2 3\n");
    EXPECT_THROW((void)read_pattern(in), std::runtime_error);
  }
  {
    std::istringstream in("hetcomm-pattern v1\ngpus 2\nmsg 0 9 5 1\n");
    EXPECT_THROW((void)read_pattern(in), std::out_of_range);
  }
}

TEST(PatternIo, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/hetcomm_pattern.txt";
  write_pattern_file(path, sample());
  const CommPattern back = read_pattern_file(path);
  EXPECT_EQ(back.total_bytes(), sample().total_bytes());
  EXPECT_THROW((void)read_pattern_file("/nonexistent/nope.txt"),
               std::runtime_error);
}

}  // namespace
}  // namespace hetcomm::core
