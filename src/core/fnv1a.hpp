#pragma once
// 64-bit FNV-1a, the one content hash behind hetcomm's stable fingerprints:
// core::pattern_hash and serve's machine, fault-plan and strategy keys.
// Inputs fold in byte by byte -- words little-endian -- so every value is
// identical across processes and platforms.

#include <cstdint>
#include <string_view>

namespace hetcomm::core {

inline constexpr std::uint64_t kFnv1aOffset = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnv1aPrime = 0x100000001b3ULL;

/// Fold the bytes of `text` into FNV-1a state `h`.
[[nodiscard]] constexpr std::uint64_t fnv1a_bytes(
    std::uint64_t h, std::string_view text) noexcept {
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnv1aPrime;
  }
  return h;
}

/// Fold one 64-bit word into FNV-1a state `h`, least significant byte
/// first.
[[nodiscard]] constexpr std::uint64_t fnv1a_word(std::uint64_t h,
                                                 std::uint64_t word) noexcept {
  for (int b = 0; b < 8; ++b) {
    h ^= (word >> (8 * b)) & 0xffULL;
    h *= kFnv1aPrime;
  }
  return h;
}

}  // namespace hetcomm::core
