#include "src/core/block_hash.h"

#include <array>

#include "src/common/check.h"

namespace jenga {

namespace {

// FNV-1a style absorption with a 64-bit avalanche finish; cheap and collision-resistant
// enough for cache keys over token ids.
uint64_t Absorb(uint64_t h, uint64_t value) {
  h ^= value;
  h *= 0x100000001B3ull;
  h ^= h >> 29;
  h *= 0xBF58476D1CE4E5B9ull;
  h ^= h >> 32;
  return h;
}

// Absorbed at the start of every block, so block boundaries are part of the chain.
constexpr uint64_t kBlockSeparator = 0x9E3779B97F4A7C15ull;

uint64_t TokenValue(int32_t token) {
  return static_cast<uint64_t>(static_cast<uint32_t>(token)) + 1;
}

// ChainBlockHashesFused over N lanes: every lane absorbs the same values as ExtendBlockHash,
// token by token, so the N independent dependency chains interleave.
template <size_t N>
void ChainLanes(std::span<const int32_t> tokens, int block_size, const uint64_t* salts,
                std::vector<BlockHash>* out) {
  const int64_t num_blocks = static_cast<int64_t>(tokens.size()) / block_size;
  std::array<uint64_t, N> h;
  for (size_t k = 0; k < N; ++k) {
    h[k] = InitBlockChain(salts[k]);
    out[k].reserve(static_cast<size_t>(num_blocks));
  }
  const int32_t* token = tokens.data();
  for (int64_t b = 0; b < num_blocks; ++b) {
    for (size_t k = 0; k < N; ++k) {
      h[k] = Absorb(h[k], kBlockSeparator);
    }
    for (int i = 0; i < block_size; ++i, ++token) {
      const uint64_t value = TokenValue(*token);
      for (size_t k = 0; k < N; ++k) {
        h[k] = Absorb(h[k], value);
      }
    }
    for (size_t k = 0; k < N; ++k) {
      out[k].push_back(h[k]);
    }
  }
}

}  // namespace

BlockHash InitBlockChain(uint64_t salt) { return Absorb(0x51A3C0DE5EEDull, salt); }

BlockHash ExtendBlockHash(BlockHash previous, std::span<const int32_t> block_tokens) {
  uint64_t h = Absorb(previous, kBlockSeparator);
  for (int32_t token : block_tokens) {
    h = Absorb(h, TokenValue(token));
  }
  return h;
}

std::vector<BlockHash> ChainBlockHashes(std::span<const int32_t> tokens, int block_size,
                                        uint64_t salt) {
  JENGA_CHECK_GT(block_size, 0);
  const int64_t num_blocks = static_cast<int64_t>(tokens.size()) / block_size;
  std::vector<BlockHash> hashes;
  hashes.reserve(static_cast<size_t>(num_blocks));
  BlockHash chain = InitBlockChain(salt);
  for (int64_t b = 0; b < num_blocks; ++b) {
    chain = ExtendBlockHash(
        chain, tokens.subspan(static_cast<size_t>(b) * block_size, static_cast<size_t>(block_size)));
    hashes.push_back(chain);
  }
  return hashes;
}

std::vector<std::vector<BlockHash>> ChainBlockHashesFused(std::span<const int32_t> tokens,
                                                          int block_size,
                                                          std::span<const uint64_t> salts) {
  JENGA_CHECK_GT(block_size, 0);
  std::vector<std::vector<BlockHash>> chains(salts.size());
  // Lanes go in pairs: the classes that share a stream are pairs (full + sliding window,
  // vision embedding + cross-attention), and a leftover lane runs alone.
  size_t k = 0;
  for (; k + 2 <= salts.size(); k += 2) {
    ChainLanes<2>(tokens, block_size, &salts[k], &chains[k]);
  }
  if (k < salts.size()) {
    ChainLanes<1>(tokens, block_size, &salts[k], &chains[k]);
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
