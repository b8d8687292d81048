#include "src/core/block_hash.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <set>
#include <span>
#include <vector>

namespace jenga {
namespace {

std::vector<int32_t> Tokens(std::initializer_list<int32_t> list) { return list; }

TEST(ChainBlockHashes, OnlyFullBlocksHashed) {
  const auto tokens = Tokens({1, 2, 3, 4, 5, 6, 7});
  const auto hashes = ChainBlockHashes(tokens, /*block_size=*/3, /*salt=*/0);
  EXPECT_EQ(hashes.size(), 2u);  // 7 tokens → 2 full blocks of 3.
}

TEST(ChainBlockHashes, DeterministicAndPrefixStable) {
  const auto a = ChainBlockHashes(Tokens({1, 2, 3, 4, 5, 6}), 3, 0);
  const auto b = ChainBlockHashes(Tokens({1, 2, 3, 4, 5, 6, 99}), 3, 0);
  ASSERT_EQ(a.size(), 2u);
  ASSERT_EQ(b.size(), 2u);
  EXPECT_EQ(a[0], b[0]);  // Shared prefix → identical hashes.
  EXPECT_EQ(a[1], b[1]);
}

TEST(ChainBlockHashes, ChainCommitsToEarlierBlocks) {
  // Same second block, different first block → different second-block hash. This is what
  // makes a block hash identify a whole prefix.
  const auto a = ChainBlockHashes(Tokens({1, 2, 3, 7, 8, 9}), 3, 0);
  const auto b = ChainBlockHashes(Tokens({4, 5, 6, 7, 8, 9}), 3, 0);
  EXPECT_NE(a[0], b[0]);
  EXPECT_NE(a[1], b[1]);
}

TEST(ChainBlockHashes, SaltNamespaces) {
  const auto a = ChainBlockHashes(Tokens({1, 2, 3}), 3, /*salt=*/1);
  const auto b = ChainBlockHashes(Tokens({1, 2, 3}), 3, /*salt=*/2);
  EXPECT_NE(a[0], b[0]);
}

TEST(ChainBlockHashes, BlockBoundariesMatter) {
  const auto a = ChainBlockHashes(Tokens({1, 2, 3, 4}), 2, 0);
  const auto b = ChainBlockHashes(Tokens({1, 2, 3, 4}), 4, 0);
  EXPECT_NE(a.back(), b.back());
}

TEST(ChainBlockHashes, NoCollisionsOnSmallUniverse) {
  // All 2-token blocks over a small alphabet must hash distinctly (sanity, not a proof).
  std::set<BlockHash> seen;
  int count = 0;
  for (int32_t x = 0; x < 50; ++x) {
    for (int32_t y = 0; y < 50; ++y) {
      const auto h = ChainBlockHashes(Tokens({x, y}), 2, 0);
      seen.insert(h[0]);
      ++count;
    }
  }
  EXPECT_EQ(static_cast<int>(seen.size()), count);
}

// Digest of one block as a chain sees it (a fixed previous chain value).
BlockHash Digest(std::span<const int32_t> block) {
  return ExtendBlockHash(InitBlockChain(0), block);
}

std::vector<int32_t> RandomBlock(size_t n, uint64_t seed) {
  std::vector<int32_t> block(n);
  uint64_t x = seed;
  for (int32_t& token : block) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    token = static_cast<int32_t>(x >> 40);  // Vocabulary-sized ids.
  }
  return block;
}

TEST(ExtendBlockHash, PermutationsInsideABlockChangeTheDigest) {
  for (const size_t n : {size_t{2}, size_t{3}, size_t{16}, size_t{512}}) {
    const std::vector<int32_t> base = RandomBlock(n, n);
    const BlockHash base_digest = Digest(base);
    // Every transposition of two positions (sampled for the 512-token block).
    const size_t stride = n > 64 ? 7 : 1;
    for (size_t i = 0; i < n; i += stride) {
      for (size_t j = i + 1; j < n; j += stride) {
        if (base[i] == base[j]) {
          continue;
        }
        std::vector<int32_t> swapped = base;
        std::swap(swapped[i], swapped[j]);
        EXPECT_NE(Digest(swapped), base_digest) << n << "-token block, swap " << i << "/" << j;
      }
    }
  }
  // Whole 32-token chunks exchanged with the chunk 32 tokens later, and a rotation by 32,
  // inside a Mamba-interval (512-token) block.
  const std::vector<int32_t> base = RandomBlock(512, 7);
  const BlockHash base_digest = Digest(base);
  for (size_t c = 0; c + 64 <= 512; c += 32) {
    std::vector<int32_t> swapped = base;
    std::swap_ranges(swapped.begin() + static_cast<std::ptrdiff_t>(c),
                     swapped.begin() + static_cast<std::ptrdiff_t>(c + 32),
                     swapped.begin() + static_cast<std::ptrdiff_t>(c + 32));
    EXPECT_NE(Digest(swapped), base_digest) << "chunks at " << c << " and " << c + 32;
  }
  std::vector<int32_t> rotated = base;
  std::rotate(rotated.begin(), rotated.begin() + 32, rotated.end());
  EXPECT_NE(Digest(rotated), base_digest);
}

TEST(ExtendBlockHash, ExtremeAndKeyEqualTokensStayDistinct) {
  // Each position takes every special value in turn: zero, the int32 extremes, and the two
  // halves of the position's own key word (the value that zeroes one factor of its keyed
  // product) and of its pair neighbour's. All these blocks, and the base, must digest apart.
  for (const size_t n : {size_t{3}, size_t{16}, size_t{512}}) {
    const std::vector<int32_t> base = RandomBlock(n, 100 + n);
    std::set<BlockHash> seen = {Digest(base)};
    size_t variants = 1;
    for (size_t i = 0; i < n; ++i) {
      const uint64_t key = BlockDigestKey(i / 2);
      const std::set<int32_t> specials = {
          0, std::numeric_limits<int32_t>::min(), std::numeric_limits<int32_t>::max(),
          static_cast<int32_t>(static_cast<uint32_t>(key)),
          static_cast<int32_t>(static_cast<uint32_t>(key >> 32))};
      for (const int32_t value : specials) {
        if (value == base[i]) {
          continue;
        }
        std::vector<int32_t> block = base;
        block[i] = value;
        seen.insert(Digest(block));
        ++variants;
      }
    }
    EXPECT_EQ(seen.size(), variants) << n << "-token block";
  }
  // Blocks made only of key words, of zeros and of the extremes.
  std::vector<int32_t> keys(16);
  for (size_t i = 0; i < keys.size(); ++i) {
    const uint64_t key = BlockDigestKey(i / 2);
    keys[i] = static_cast<int32_t>(static_cast<uint32_t>(i % 2 == 0 ? key : key >> 32));
  }
  const std::set<BlockHash> uniform = {
      Digest(keys), Digest(std::vector<int32_t>(16, 0)),
      Digest(std::vector<int32_t>(16, std::numeric_limits<int32_t>::min())),
      Digest(std::vector<int32_t>(16, std::numeric_limits<int32_t>::max()))};
  EXPECT_EQ(uniform.size(), 4u);
}

TEST(ChainBlockHashes, BoundaryAndSaltChangesChangeTheChain) {
  const std::vector<int32_t> tokens = RandomBlock(1024, 3);
  // The same tokens cut at every block size hash apart at the shared end boundary.
  std::set<BlockHash> ends;
  for (const int block_size : {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}) {
    ends.insert(ChainBlockHashes(tokens, block_size, 0).back());
  }
  EXPECT_EQ(ends.size(), 11u);
  // One token moved across a block boundary (same multiset of tokens per chain).
  const std::vector<int32_t> shifted = {1, 2, 3, 4, 5, 6};
  EXPECT_NE(ChainBlockHashes(shifted, 3, 0).back(), ChainBlockHashes(shifted, 2, 0).back());
  // Every group salt namespaces the chain.
  std::set<BlockHash> salted;
  for (int g = 0; g < 9; ++g) {
    salted.insert(ChainBlockHashes(tokens, 16, GroupChainSalt(g)).front());
  }
  EXPECT_EQ(salted.size(), 9u);
}

TEST(ChainBlockHashesFused, EqualsPerSaltChains) {
  // Lane counts 1..9; block sizes include a Mamba checkpoint interval (512) and a block
  // longer than the digest's keyed span (600); the token counts cover an empty stream, a
  // stream shorter than a block, exact blocks and a partial trailing block.
  std::vector<int32_t> stream;
  for (int32_t i = 0; i < 1300; ++i) {
    stream.push_back(i * 7919 % 1000 - 300);  // Negative ids too.
  }
  for (const int block_size : {1, 2, 3, 16, 64, 512, 600}) {
    for (const size_t len : {size_t{0}, size_t{2}, size_t{64}, size_t{203}, size_t{1300}}) {
      const std::span<const int32_t> tokens(stream.data(), len);
      for (size_t lanes = 1; lanes <= 9; ++lanes) {
        std::vector<uint64_t> salts;
        for (size_t k = 0; k < lanes; ++k) {
          salts.push_back(GroupChainSalt(static_cast<int>(k)) ^ (k * 31));
        }
        const auto fused = ChainBlockHashesFused(tokens, block_size, salts);
        ASSERT_EQ(fused.size(), lanes);
        for (size_t k = 0; k < lanes; ++k) {
          const std::vector<BlockHash> chain = ChainBlockHashes(tokens, block_size, salts[k]);
          EXPECT_EQ(fused[k], chain) << "block size " << block_size << ", " << len
                                     << " tokens, lane " << k << " of " << lanes;
          // The incremental form the KV manager uses past the prompt.
          BlockHash h = InitBlockChain(salts[k]);
          ASSERT_EQ(chain.size(), len / static_cast<size_t>(block_size));
          for (size_t b = 0; b < chain.size(); ++b) {
            h = ExtendBlockHash(h, tokens.subspan(b * static_cast<size_t>(block_size),
                                                  static_cast<size_t>(block_size)));
            EXPECT_EQ(h, chain[b]) << "block size " << block_size << ", block " << b;
          }
        }
      }
    }
  }
  EXPECT_TRUE(ChainBlockHashesFused(stream, 16, {}).empty());
}

TEST(LongestCommonValidPrefix, IntersectsAcrossGroups) {
  // Group A valid up to 4, group B valid at {0, 2, 3}: the longest common boundary is 3.
  const std::vector<std::vector<bool>> valids = {
      {true, true, true, true, true},
      {true, false, true, true, false},
  };
  EXPECT_EQ(LongestCommonValidPrefix(valids), 3);
}

TEST(LongestCommonValidPrefix, ZeroWhenNothingShared) {
  const std::vector<std::vector<bool>> valids = {
      {true, true, false},
      {true, false, true},
  };
  EXPECT_EQ(LongestCommonValidPrefix(valids), 0);
}

TEST(LongestCommonValidPrefix, EmptyGroupListIsZero) {
  EXPECT_EQ(LongestCommonValidPrefix({}), 0);
}

TEST(LongestCommonValidPrefix, SingleGroupTakesItsMax) {
  const std::vector<std::vector<bool>> valids = {{true, true, true, false}};
  EXPECT_EQ(LongestCommonValidPrefix(valids), 2);
}

TEST(LongestCommonValidPrefixDeath, MismatchedSizes) {
  const std::vector<std::vector<bool>> valids = {{true, true}, {true}};
  EXPECT_DEATH((void)LongestCommonValidPrefix(valids), "same boundary count");
}

}  // namespace
}  // namespace jenga
