#include "src/core/block_hash.h"

#include <algorithm>
#include <array>

#include "src/common/check.h"

namespace jenga {

namespace {

// FNV-1a style absorption with a 64-bit avalanche finish: the one serial step of a chain,
// taken once per block.
uint64_t Absorb(uint64_t h, uint64_t value) {
  h ^= value;
  h *= 0x100000001B3ull;
  h ^= h >> 29;
  h *= 0xBF58476D1CE4E5B9ull;
  h ^= h >> 32;
  return h;
}

// Tokens covered by distinct key words: one key per token pair, so no two positions of a
// block share a key up to Mamba's 512-token checkpoint interval. Longer blocks are digested
// in segments of this size, folded with Absorb.
constexpr size_t kKeyedTokens = 512;

// splitmix64 outputs, fixed at compile time.
constexpr std::array<uint64_t, kKeyedTokens / 2> kKeys = [] {
  std::array<uint64_t, kKeyedTokens / 2> keys{};
  uint64_t state = 0x243F6A8885A308D3ull;
  for (uint64_t& key : keys) {
    state += 0x9E3779B97F4A7C15ull;
    uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    key = z ^ (z >> 31);
  }
  return keys;
}();

// xxh3-style keyed product of one token pair: the 32x32->64 product of the keyed halves,
// plus the pair itself so that a half equal to its key word still contributes.
uint64_t KeyedPair(int32_t first, int32_t second, uint64_t key) {
  const uint64_t data = static_cast<uint64_t>(static_cast<uint32_t>(first)) |
                        (static_cast<uint64_t>(static_cast<uint32_t>(second)) << 32);
  const uint64_t x = data ^ key;
  return (x & 0xFFFFFFFFull) * (x >> 32) + data;
}

// Sum of the keyed pair products of at most kKeyedTokens tokens. The products are
// independent of each other, so this loop pipelines (and vectorizes) instead of paying a
// serial multiply chain per token; an odd last token pairs with 0.
uint64_t KeyedSum(const int32_t* tokens, size_t n) {
  uint64_t sum = 0;
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    sum += KeyedPair(tokens[i], tokens[i + 1], kKeys[i / 2]);
  }
  if (i < n) {
    sum += KeyedPair(tokens[i], 0, kKeys[i / 2]);
  }
  return sum;
}

// Digest of one block's tokens, tagged with the block length.
uint64_t BlockDigest(std::span<const int32_t> block) {
  uint64_t digest = block.size();
  for (size_t s = 0; s < block.size(); s += kKeyedTokens) {
    digest = Absorb(digest, KeyedSum(block.data() + s, std::min(kKeyedTokens, block.size() - s)));
  }
  return digest;
}

}  // namespace

uint64_t BlockDigestKey(size_t pair) { return kKeys[pair % kKeys.size()]; }

BlockHash InitBlockChain(uint64_t salt) { return Absorb(0x51A3C0DE5EEDull, salt); }

BlockHash ExtendBlockHash(BlockHash previous, std::span<const int32_t> block_tokens) {
  return Absorb(previous, BlockDigest(block_tokens));
}

std::vector<BlockHash> ChainBlockHashes(std::span<const int32_t> tokens, int block_size,
                                        uint64_t salt) {
  return std::move(ChainBlockHashesFused(tokens, block_size, std::span(&salt, 1)).front());
}

std::vector<std::vector<BlockHash>> ChainBlockHashesFused(std::span<const int32_t> tokens,
                                                          int block_size,
                                                          std::span<const uint64_t> salts) {
  JENGA_CHECK_GT(block_size, 0);
  const size_t bs = static_cast<size_t>(block_size);
  const size_t num_blocks = tokens.size() / bs;
  std::vector<std::vector<BlockHash>> chains(salts.size());
  for (std::vector<BlockHash>& chain : chains) {
    chain.reserve(num_blocks);
  }
  // Each block is digested once; every salt lane then takes its one serial step.
  for (size_t b = 0; b < num_blocks; ++b) {
    const uint64_t digest = BlockDigest(tokens.subspan(b * bs, bs));
    for (size_t k = 0; k < salts.size(); ++k) {
      const BlockHash previous = b == 0 ? InitBlockChain(salts[k]) : chains[k].back();
      chains[k].push_back(Absorb(previous, digest));
    }
  }
  return chains;
}

int64_t LongestCommonValidPrefix(std::span<const std::vector<bool>> valids) {
  if (valids.empty()) {
    return 0;
  }
  const size_t size = valids.front().size();
  for (const std::vector<bool>& v : valids) {
    JENGA_CHECK_EQ(v.size(), size) << "all groups must report the same boundary count";
  }
  for (int64_t boundary = static_cast<int64_t>(size) - 1; boundary > 0; --boundary) {
    bool all = true;
    for (const std::vector<bool>& v : valids) {
      if (!v[static_cast<size_t>(boundary)]) {
        all = false;
        break;
      }
    }
    if (all) {
      return boundary;
    }
  }
  return 0;
}

}  // namespace jenga
