// 64-bit FNV-1a: the one hash behind every determinism fingerprint (the
// vpdebug trace digest, ert tenant fingerprints, harness seed derivation).
//
// fold_word() folds a 64-bit word as its 8 little-endian bytes, exactly as
// the byte loop would, but skips the word's high zero bytes: FNV-1a over a
// zero byte is just `h *= kPrime` (the xor is a no-op), so the k zero
// bytes above the last folded one collapse into that byte's multiply,
// kPrime^(k+1). The word is folded at one of three widths, 1, 4 or 8
// bytes, picked by its magnitude: small values (trace kinds, core ids,
// addresses, timestamps) then need a short, branch-predictable chain of
// dependent multiplies. The result is bit-identical to the
// one-multiply-per-byte loop (tests/test_common_fnv.cpp keeps that loop as
// the reference).
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

namespace rw::fnv {

inline constexpr std::uint64_t kOffsetBasis = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kPrime = 0x100000001b3ULL;

/// kPrime^k (mod 2^64) for k = 0..8.
inline constexpr std::array<std::uint64_t, 9> kPrimePow = [] {
  std::array<std::uint64_t, 9> p{};
  p[0] = 1;
  for (std::size_t k = 1; k < p.size(); ++k) p[k] = p[k - 1] * kPrime;
  return p;
}();

constexpr std::uint64_t fold_byte(std::uint64_t h, std::uint8_t b) {
  return (h ^ b) * kPrime;
}

constexpr std::uint64_t fold_bytes(std::uint64_t h, std::string_view s) {
  for (const char c : s) h = fold_byte(h, static_cast<std::uint8_t>(c));
  return h;
}

/// Fold `v` as its 8 little-endian bytes (see the file comment).
constexpr std::uint64_t fold_word(std::uint64_t h, std::uint64_t v) {
  if (v < 0x100) return (h ^ v) * kPrimePow[8];
  if (v < 0x1'0000'0000ULL) {
    for (int i = 0; i < 3; ++i, v >>= 8)
      h = fold_byte(h, static_cast<std::uint8_t>(v));
    return (h ^ v) * kPrimePow[5];
  }
  for (int i = 0; i < 7; ++i, v >>= 8)
    h = fold_byte(h, static_cast<std::uint8_t>(v));
  return (h ^ v) * kPrime;
}

}  // namespace rw::fnv
