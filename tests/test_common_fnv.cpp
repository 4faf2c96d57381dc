#include "common/fnv.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"

namespace rw {
namespace {

// The reference: FNV-1a over the word's 8 little-endian bytes, one
// multiply per byte (the fold every fingerprint was defined with).
std::uint64_t fold_word_reference(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ULL;
  }
  return h;
}

std::vector<std::uint64_t> edge_words() {
  std::vector<std::uint64_t> out = {0, 1, 0xff, ~0ULL};
  for (int k = 1; k < 8; ++k) {
    const std::uint64_t boundary = 1ULL << (8 * k);
    out.push_back(boundary);
    out.push_back(boundary - 1);
    out.push_back(boundary + 1);
  }
  return out;
}

TEST(Fnv, ConstantsAreTheStandard64BitOnes) {
  EXPECT_EQ(fnv::kOffsetBasis, 14695981039346656037ULL);
  EXPECT_EQ(fnv::kPrime, 1099511628211ULL);
  EXPECT_EQ(fnv::kPrimePow[0], 1u);
  EXPECT_EQ(fnv::kPrimePow[1], fnv::kPrime);
  EXPECT_EQ(fnv::kPrimePow[8], fnv::kPrimePow[7] * fnv::kPrime);
}

TEST(Fnv, FastWordFoldMatchesReferenceOnEdgeWords) {
  const std::uint64_t seeds[] = {fnv::kOffsetBasis, 0, ~0ULL};
  for (const std::uint64_t h : seeds)
    for (const std::uint64_t v : edge_words())
      EXPECT_EQ(fnv::fold_word(h, v), fold_word_reference(h, v))
          << std::hex << "h=" << h << " v=" << v;
}

TEST(Fnv, FastWordFoldMatchesReferenceOnRandomWords) {
  Rng rng(0xF17A);
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t h = rng.next_u64();
    // Shift so every significant-byte count 0..8 is drawn often.
    const std::uint64_t v = rng.next_u64() >> rng.next_below(64);
    ASSERT_EQ(fnv::fold_word(h, v), fold_word_reference(h, v))
        << std::hex << "h=" << h << " v=" << v;
  }
}

TEST(Fnv, ByteFoldIsFnv1a) {
  // Published FNV-1a 64-bit test vectors.
  EXPECT_EQ(fnv::fold_bytes(fnv::kOffsetBasis, ""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv::fold_bytes(fnv::kOffsetBasis, "a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv::fold_bytes(fnv::kOffsetBasis, "foobar"),
            0x85944171f73967e8ULL);
}

TEST(Fnv, WordFoldEqualsByteFoldOfLittleEndianBytes) {
  const std::uint64_t v = 0x0000'0102'0304'0506ULL;
  const char bytes[8] = {6, 5, 4, 3, 2, 1, 0, 0};
  EXPECT_EQ(fnv::fold_word(fnv::kOffsetBasis, v),
            fnv::fold_bytes(fnv::kOffsetBasis, std::string_view(bytes, 8)));
}

}  // namespace
}  // namespace rw
