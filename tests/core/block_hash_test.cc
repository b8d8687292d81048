#include "src/core/block_hash.h"

#include <gtest/gtest.h>

#include <cstdint>
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

TEST(ChainBlockHashesFused, EqualsPerSaltChains) {
  // Lane counts 1..9 cover paired lanes with and without a leftover lane; the token counts
  // cover an empty stream, a stream shorter than a block, exact blocks and a partial trailing
  // block.
  std::vector<int32_t> stream;
  for (int32_t i = 0; i < 203; ++i) {
    stream.push_back(i * 7919 % 1000 - 300);  // Negative ids too.
  }
  for (const int block_size : {1, 3, 16, 64}) {
    for (const size_t len : {size_t{0}, size_t{2}, size_t{64}, size_t{203}}) {
      const std::span<const int32_t> tokens(stream.data(), len);
      for (size_t lanes = 1; lanes <= 9; ++lanes) {
        std::vector<uint64_t> salts;
        for (size_t k = 0; k < lanes; ++k) {
          salts.push_back(GroupChainSalt(static_cast<int>(k)) ^ (k * 31));
        }
        const auto fused = ChainBlockHashesFused(tokens, block_size, salts);
        ASSERT_EQ(fused.size(), lanes);
        for (size_t k = 0; k < lanes; ++k) {
          EXPECT_EQ(fused[k], ChainBlockHashes(tokens, block_size, salts[k]))
              << "block size " << block_size << ", " << len << " tokens, lane " << k << " of "
              << lanes;
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
