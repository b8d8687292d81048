// Content-addressed block hashing for prefix caching. Hashes are chained: the hash of block i
// commits to every token in blocks 0..i, so equal hashes identify equal *prefixes* — the
// property prefix caching relies on. A block is first reduced to a digest by independent
// per-token work (keyed 32x32->64 products, one key per position within the block); the chain
// then takes one serial mixing step per block. Hashes are equality keys only: no decision
// anywhere orders by a hash value, so the function may change without changing any output.

#ifndef JENGA_SRC_CORE_BLOCK_HASH_H_
#define JENGA_SRC_CORE_BLOCK_HASH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/core/types.h"

namespace jenga {

// Initial chain value for a given salt; ChainBlockHashes starts from this, so incremental
// hashers (InitBlockChain + repeated ExtendBlockHash) produce identical hashes.
[[nodiscard]] BlockHash InitBlockChain(uint64_t salt);

// The per-group chain salt the KV manager hashes with (group index → salt). Exposed here so
// layers that compute chains *about* a manager's cache — the cluster router scoring a prompt
// against per-replica residency summaries — produce hashes identical to the ones the manager
// registered. Both sides must agree on it; its value is otherwise arbitrary.
[[nodiscard]] inline uint64_t GroupChainSalt(int group_index) {
  return (static_cast<uint64_t>(group_index) + 1) * 0x9E3779B97F4A7C15ull;
}

// Chained hash of one more block given the previous chain value: the chain absorbs the
// block's digest in one step.
[[nodiscard]] BlockHash ExtendBlockHash(BlockHash previous, std::span<const int32_t> block_tokens);

// Hashes all *full* blocks of `tokens` (floor(len / block_size) of them). `salt` namespaces
// the chain, e.g. per group kind, so identical token streams in different coordinate spaces
// (text blocks vs Mamba checkpoints) never alias.
[[nodiscard]] std::vector<BlockHash> ChainBlockHashes(std::span<const int32_t> tokens,
                                                      int block_size, uint64_t salt);

// ChainBlockHashes under every salt of `salts` in one pass over `tokens`: result[i] equals
// ChainBlockHashes(tokens, block_size, salts[i]) exactly. Each block is digested once and the
// digest is absorbed into every salt's chain, so k salts cost one pass over the tokens plus k
// serial steps per block (e.g. the full and sliding-window groups of one prompt, which differ
// only by salt).
[[nodiscard]] std::vector<std::vector<BlockHash>> ChainBlockHashesFused(
    std::span<const int32_t> tokens, int block_size, std::span<const uint64_t> salts);

// Key word of token pair `pair` (block positions 2·pair and 2·pair + 1, modulo 512) in the
// block digest. Exposed for tests that feed the digest tokens equal to its keys.
[[nodiscard]] uint64_t BlockDigestKey(size_t pair);

// Longest prefix boundary valid in *every* group (§5.2): each element of `valids` is one
// group's bitmap over the same boundary indices (all must share a size); returns the largest
// index at which all bitmaps are true. Index 0 (the empty prefix) is always valid.
[[nodiscard]] int64_t LongestCommonValidPrefix(std::span<const std::vector<bool>> valids);

}  // namespace jenga

#endif  // JENGA_SRC_CORE_BLOCK_HASH_H_
