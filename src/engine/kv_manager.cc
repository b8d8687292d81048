#include "src/engine/kv_manager.h"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <span>

#include "src/common/check.h"
#include "src/common/math_util.h"
#include "src/core/block_hash.h"
#include "src/core/policy_factory.h"
#include "src/offload/swap_manager.h"

namespace jenga {

KvSpec MakeJengaSpec(const ModelConfig& model, int tokens_per_page, bool vision_cache) {
  KvSpecOptions options;
  options.tokens_per_page = tokens_per_page;
  options.include_vision_group = vision_cache;
  return BuildKvSpec(model, options);
}

KvSpec MakeHomogeneousSpec(const ModelConfig& model, int tokens_per_page,
                           int64_t bytes_per_token_override) {
  int64_t bytes_per_token = model.KvBytesPerTokenAllLayers();
  if (bytes_per_token_override > 0) {
    bytes_per_token = bytes_per_token_override;
  }
  JENGA_CHECK_GT(bytes_per_token, 0) << "model has no attention layers";
  KvSpec spec;
  KvGroupSpec group;
  group.name = "paged_all_layers";
  group.kind = GroupKind::kFullAttention;
  group.scope = GroupScope::kAllTokens;
  group.num_layers = 1;  // Collapsed: bytes_per_token already sums every layer.
  group.bytes_per_token_per_layer = bytes_per_token;
  group.tokens_per_page = tokens_per_page;
  group.page_bytes = static_cast<int64_t>(tokens_per_page) * bytes_per_token;
  spec.groups.push_back(std::move(group));
  return spec;
}

int64_t StaticMambaReservationBytes(const ModelConfig& model, int max_num_seqs) {
  return model.MambaStateBytesTotal() * max_num_seqs;
}

namespace {

// Total tokens across a range list.
int64_t RangeTokens(const std::vector<TokenRange>& ranges) {
  int64_t total = 0;
  for (const TokenRange& range : ranges) {
    total += range.end - range.begin;
  }
  return total;
}

int64_t GroupTokensFor(const Request& r, const KvGroupSpec& group, int64_t prefix_tokens) {
  switch (group.scope) {
    case GroupScope::kAllTokens:
    case GroupScope::kPerSequence:
      return prefix_tokens;
    case GroupScope::kTextTokens:
      return r.TextTokensBefore(prefix_tokens);
    case GroupScope::kImageTokens:
      return r.ImageTokensBefore(prefix_tokens);
  }
  JENGA_CHECK(false) << "unhandled scope";
}

// Appends the image tokens of all_tokens[from, to) to `image` and, when `text` is non-null, the
// text tokens to `text`, one image run (and one gap between runs) at a time.
void AppendModalityStreams(const Request& r, int64_t from, int64_t to, std::vector<int32_t>& image,
                           std::vector<int32_t>* text) {
  const int32_t* tokens = r.all_tokens.data();
  int64_t i = from;
  for (const Request::ImageRun& run : r.image_runs) {
    if (run.end <= i) {
      continue;
    }
    if (run.begin >= to) {
      break;
    }
    if (text != nullptr && i < run.begin) {
      text->insert(text->end(), tokens + i, tokens + run.begin);
    }
    const int64_t end = std::min(run.end, to);
    image.insert(image.end(), tokens + std::max(i, run.begin), tokens + end);
    i = end;
  }
  if (text != nullptr && i < to) {
    text->insert(text->end(), tokens + i, tokens + to);
  }
}

// How many blocks ahead the hit scan prefetches cache-index slots.
constexpr size_t kProbeLookahead = 8;

bool IsSubsequenceScope(GroupScope scope) {
  return scope == GroupScope::kImageTokens || scope == GroupScope::kTextTokens;
}

// Order-sensitive mix for the swap round-trip fingerprint (splitmix-style).
uint64_t MixFingerprint(uint64_t h, uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ull + (h << 12) + (h >> 4);
  return h * 0xFF51AFD7ED558CCDull;
}

// Differential audit of the admission fast paths against their references: the fused hit scan
// against the materialized bitmaps, the scan's memoized pages against fresh index lookups, and
// memoized prompt chains against re-hashing. Off by default (the references redo the work);
// the fuzz/chaos stages enable it.
bool AdmissionScanAuditEnabled() {
  static const bool enabled = std::getenv("JENGA_CHECK_ADMISSION") != nullptr;
  return enabled;
}

}  // namespace

KvManager::KvManager(KvSpec alloc_spec, KvSpec accounting_spec, int64_t pool_bytes,
                     Options options)
    : spec_(std::move(alloc_spec)),
      accounting_spec_(std::move(accounting_spec)),
      options_(options),
      allocator_(spec_, pool_bytes) {
  JENGA_CHECK_LE(spec_.groups.size(), kMaxGroups);
  for (size_t g = 0; g < spec_.groups.size(); ++g) {
    const KvGroupSpec& group = spec_.groups[g];
    if (options_.jenga) {
      policies_.push_back(MakeLayerPolicy(group, options_.tokens_per_image));
    } else {
      policies_.push_back(std::make_unique<FullPrefixPolicy>());
    }
    if (group.kind == GroupKind::kVisionEmbed) {
      vision_group_ = static_cast<int>(g);
    }
    if (group.scope == GroupScope::kTextTokens) {
      has_text_scope_ = true;
    }
    const LayerPolicy& policy = *policies_.back();
    // Droppable policies cover all residents only when drops actually run (Jenga mode).
    defer_refresh_.push_back(policy.RefreshCoversResidentPages() &&
                             (!policy.CanDropUnneededPages() || options_.jenga));
  }
  for (const KvGroupSpec& group : accounting_spec_.groups) {
    accounting_policies_.push_back(MakeLayerPolicy(group, std::max(options_.tokens_per_image, 1)));
  }
}

KvManager::RequestKv& KvManager::StateOf(const Request& r) {
  const auto it = requests_.find(r.id);
  JENGA_CHECK(it != requests_.end()) << "request " << r.id << " not admitted";
  return it->second;
}

int64_t KvManager::TargetPages(const Request& r, const KvGroupSpec& group,
                               int64_t prefix_tokens) const {
  switch (group.kind) {
    case GroupKind::kMamba:
      return 1;  // The running state; checkpoints are transient snapshots.
    case GroupKind::kVisionEmbed:
      // All of the request's vision embeddings exist from admission (encoder output).
      return CeilDiv(r.num_image_tokens, group.tokens_per_page);
    default:
      break;
  }
  const int64_t tokens = GroupTokensFor(r, group, prefix_tokens);
  return CeilDiv(tokens, group.tokens_per_page);
}

void KvManager::OnAdmit(Request& r, Tick now) {
  JENGA_CHECK(!requests_.contains(r.id)) << "request " << r.id << " already admitted";
  RequestKv& state = requests_[r.id];
  state.groups.resize(spec_.groups.size());
  for (size_t g = 0; g < spec_.groups.size(); ++g) {
    state.groups[g].chain = InitBlockChain(GroupSalt(static_cast<int>(g)));
  }
  r.num_computed_tokens = 0;
  r.cached_prefix_tokens = 0;
  state.computed_tokens = 0;
  // Mamba state and unconsumed image embeddings are needed before any token is computed.
  state.needed_bytes = NeededBytesFor(r);

  if (!options_.enable_prefix_caching) {
    return;
  }
  const int bs = options_.tokens_per_page;
  const int64_t prompt_len = r.prompt_len();
  const int64_t num_boundaries = prompt_len / bs;  // Boundary b covers b·bs tokens.
  if (num_boundaries == 0) {
    return;
  }

  // Per-group block-hash chains over the prompt (checkpoint-interval blocks for Mamba,
  // subsequence streams for modality-scoped groups, prompt blocks otherwise). Prompts are
  // immutable, so re-admissions of the same request reuse the memoized chains instead of
  // re-hashing the whole prompt.
  const AdmissionMemo* memo = nullptr;
  AdmissionMemo scratch;
  if (options_.memoize_admission) {
    const auto [it, inserted] = admission_memos_.try_emplace(r.id);
    if (inserted) {
      it->second = BuildAdmissionMemo(r);
    }
    memo = &it->second;
  } else {
    scratch = BuildAdmissionMemo(r);
    memo = &scratch;
  }
  const std::vector<std::vector<BlockHash>>& group_hashes = memo->group_hashes;

  // Second-chance pass: re-materialize host-resident pages on the GPU *before* scanning for
  // hits, so the scan and the reference-taking below see one consistent allocator state
  // (a promotion's allocation may evict GPU pages of any group under pressure).
  if (offload_ != nullptr) {
    PromoteHostHits(r, group_hashes, now);
  }

  std::vector<BlockHitResolver> resolvers;
  int64_t boundary = ResolveHitBoundary(r, group_hashes, /*include_host=*/false, resolvers);
  // Keep at least one prompt token to compute (an engine cannot "hit" the whole prompt).
  while (boundary > 0 && boundary * bs >= prompt_len) {
    --boundary;
  }
  if (boundary == 0) {
    return;
  }
  const int64_t hit_tokens = boundary * bs;

  // The page the scan resolved block j of group g to, or a fresh lookup for a block it never
  // probed (the cap above can shift a window onto such blocks). Nothing touches the cache
  // index between the scan and here, so a memoized page is still the indexed one; the
  // admission audit re-checks that on every block.
  const auto cached_page = [&](size_t g, int64_t j) {
    const SmallPageId memo_page = resolvers[g].Resolved(j);
    if (memo_page != BlockHitResolver::kUnresolved && !AdmissionScanAuditEnabled()) {
      return memo_page;
    }
    const SmallPageId page = allocator_.group(static_cast<int>(g))
                                 .LookupCached(group_hashes[g][static_cast<size_t>(j)])
                                 .value_or(kNoSmallPage);
    JENGA_CHECK(memo_page == BlockHitResolver::kUnresolved || memo_page == page)
        << "hit scan resolved group " << g << " block " << j << " to page " << memo_page
        << ", the cache index to " << page;
    return page;
  };

  // Take references on the covering pages of every group.
  for (size_t g = 0; g < spec_.groups.size(); ++g) {
    const KvGroupSpec& group = spec_.groups[g];
    SmallPageAllocator& alloc = allocator_.group(static_cast<int>(g));
    GroupState& gs = state.groups[g];

    if (group.kind == GroupKind::kMamba) {
      const int64_t k = hit_tokens / kMambaCheckpointInterval;
      JENGA_CHECK_EQ(hit_tokens % kMambaCheckpointInterval, 0);
      if (k > 0) {
        const SmallPageId page = cached_page(g, k - 1);
        JENGA_CHECK(page != kNoSmallPage) << "mamba hit vanished";
        alloc.UpdateLastAccess(page, now);  // Restore-from-checkpoint touches the state.
        gs.chain = group_hashes[g][static_cast<size_t>(k) - 1];
        gs.chain_tokens = k * kMambaCheckpointInterval;
        gs.checkpoints_done = k;
      }
      continue;
    }

    const int64_t blocks =
        IsSubsequenceScope(group.scope) ? GroupTokensFor(r, group, hit_tokens) / bs : boundary;
    // Only blocks the layer actually depends on are referenced and refreshed (Figure 9b:
    // update_last_access touches window tokens only). Cached out-of-window blocks stay
    // evictable with their old timestamps, so they age out first under pressure.
    const std::vector<TokenRange> needed =
        policies_[g]->NeededTokenRanges(GroupTokensFor(r, group, hit_tokens));
    gs.pages.reserve(static_cast<size_t>(blocks));
    for (int64_t j = 0; j < blocks; ++j) {
      bool block_needed = false;
      for (const TokenRange& range : needed) {
        if (range.begin < (j + 1) * bs && range.end > j * bs) {
          block_needed = true;
          break;
        }
      }
      const SmallPageId page = block_needed ? cached_page(g, j) : kNoSmallPage;
      if (page != kNoSmallPage) {
        alloc.AddRef(page);
        alloc.UpdateLastAccess(page, now);
        gs.pages.push_back(page);
      } else {
        // A hole the policy tolerates (out-of-window block, or an unneeded one we skip).
        gs.pages.push_back(kNoSmallPage);
      }
    }
    // Blocks before the first needed one will never be re-referenced; start the drop cursor
    // past them so DropUnneededPages does not revisit.
    gs.drop_cursor = 0;
    gs.hashed_blocks = blocks;
    if (blocks > 0) {
      gs.chain = group_hashes[g][static_cast<size_t>(blocks) - 1];
      gs.chain_tokens = blocks * bs;
    }
  }

  // Modality streams consumed so far (for future chain extension).
  ExtendModalityStreams(r, state, 0, hit_tokens);

  r.num_computed_tokens = hit_tokens;
  r.cached_prefix_tokens = hit_tokens;
  state.computed_tokens = hit_tokens;
  state.needed_bytes = NeededBytesFor(r);
  total_cache_hit_tokens_ += hit_tokens;
}

KvManager::AdmissionMemo KvManager::BuildAdmissionMemo(const Request& r) const {
  AdmissionMemo memo;
  const int bs = options_.tokens_per_page;
  const int64_t prompt_len = r.prompt_len();
  // Prompt modality subsequences, the streams of the subsequence-scope groups.
  std::vector<int32_t> image_tokens;
  std::vector<int32_t> text_tokens;
  image_tokens.reserve(static_cast<size_t>(r.num_image_tokens));
  if (has_text_scope_) {
    text_tokens.reserve(static_cast<size_t>(prompt_len - r.num_image_tokens));
  }
  AppendModalityStreams(r, 0, prompt_len, image_tokens, has_text_scope_ ? &text_tokens : nullptr);
  // Each group hashes one stream — the prompt, or a modality subsequence of it — at one block
  // size (checkpoint interval for Mamba). Groups sharing both differ only by salt, so each
  // such class is hashed in one fused pass (Ministral's full and sliding groups, the vision
  // embedding and cross-attention image streams).
  const size_t num_groups = spec_.groups.size();
  std::array<const std::vector<int32_t>*, kMaxGroups> streams{};
  std::array<int, kMaxGroups> block_sizes{};
  for (size_t g = 0; g < num_groups; ++g) {
    const KvGroupSpec& group = spec_.groups[g];
    streams[g] = group.scope == GroupScope::kImageTokens  ? &image_tokens
                 : group.scope == GroupScope::kTextTokens ? &text_tokens
                                                          : &r.prompt.tokens;
    block_sizes[g] = group.kind == GroupKind::kMamba ? kMambaCheckpointInterval : bs;
  }
  memo.group_hashes.resize(num_groups);
  std::array<bool, kMaxGroups> hashed{};
  for (size_t g = 0; g < num_groups; ++g) {
    if (hashed[g]) {
      continue;
    }
    std::array<size_t, kMaxGroups> members;
    std::array<uint64_t, kMaxGroups> salts;
    size_t n = 0;
    for (size_t h = g; h < num_groups; ++h) {
      if (streams[h] == streams[g] && block_sizes[h] == block_sizes[g]) {
        hashed[h] = true;
        members[n] = h;
        salts[n++] = GroupSalt(static_cast<int>(h));
      }
    }
    std::vector<std::vector<BlockHash>> chains =
        ChainBlockHashesFused(*streams[g], block_sizes[g], std::span(salts.data(), n));
    for (size_t i = 0; i < n; ++i) {
      memo.group_hashes[members[i]] = std::move(chains[i]);
    }
  }
  return memo;
}

int64_t KvManager::ResolveHitBoundary(const Request& r,
                                      const std::vector<std::vector<BlockHash>>& group_hashes,
                                      bool include_host,
                                      std::vector<BlockHitResolver>& resolvers) const {
  const int bs = options_.tokens_per_page;
  const int64_t num_boundaries = r.prompt_len() / bs;
  // One lazy hit resolver per group; a block's cache lookup happens at most once no matter how
  // many boundary candidates probe it.
  resolvers.clear();
  resolvers.reserve(spec_.groups.size());
  for (size_t g = 0; g < spec_.groups.size(); ++g) {
    const SmallPageAllocator* alloc = &allocator_.group(static_cast<int>(g));
    const std::vector<BlockHash>* hashes = &group_hashes[g];
    const int gi = static_cast<int>(g);
    resolvers.emplace_back(static_cast<int64_t>(hashes->size()),
                           [this, alloc, hashes, gi, include_host](int64_t j) {
                             // Scans mostly walk blocks upward; start the miss a few
                             // blocks ahead.
                             if (static_cast<size_t>(j) + kProbeLookahead < hashes->size()) {
                               alloc->PrefetchCached(
                                   (*hashes)[static_cast<size_t>(j) + kProbeLookahead]);
                             }
                             const BlockHash h = (*hashes)[static_cast<size_t>(j)];
                             if (const auto page = alloc->LookupCached(h)) {
                               return *page;
                             }
                             return include_host && offload_ != nullptr &&
                                            offload_->LookupHostPage(manager_index_, gi, h) !=
                                                nullptr
                                        ? BlockHitResolver::kHitWithoutPage
                                        : kNoSmallPage;
                           });
  }

  // Top-down scan, mirroring LongestCommonValidPrefix over BuildValidBitmaps: the first
  // boundary where every group's prefix is valid wins. Group evaluation short-circuits on the
  // first invalid group, and lookups are pure, so lazy evaluation cannot change the result.
  int64_t result = 0;
  for (int64_t b = num_boundaries; b > 0; --b) {
    bool all = true;
    for (size_t g = 0; g < spec_.groups.size() && all; ++g) {
      const KvGroupSpec& group = spec_.groups[g];
      const int64_t num_hashes = static_cast<int64_t>(group_hashes[g].size());
      if (group.kind == GroupKind::kMamba) {
        const int64_t tokens = b * bs;
        if (tokens % kMambaCheckpointInterval != 0) {
          all = false;  // Only checkpoint-aligned boundaries can be Mamba hits.
          continue;
        }
        const int64_t k = tokens / kMambaCheckpointInterval;
        all = k <= num_hashes &&
              policies_[g]->PrefixValid(resolvers[g], k, kMambaCheckpointInterval);
        continue;
      }
      if (IsSubsequenceScope(group.scope)) {
        const int64_t sub_count = GroupTokensFor(r, group, b * bs);
        // Conservative: only block-aligned subsequence coverage counts as a hit.
        if (sub_count % bs != 0) {
          all = false;
          continue;
        }
        const int64_t p = sub_count / bs;
        all = p <= num_hashes && policies_[g]->PrefixValid(resolvers[g], p, bs);
        continue;
      }
      // All-token groups: boundaries map 1:1 to group blocks.
      all = policies_[g]->PrefixValid(resolvers[g], b, bs);
    }
    if (all) {
      result = b;
      break;
    }
  }

  if (AdmissionScanAuditEnabled()) {
    const int64_t reference =
        LongestCommonValidPrefix(BuildValidBitmaps(r, group_hashes, include_host));
    JENGA_CHECK_EQ(result, reference) << "fused hit scan diverged from the bitmap reference";
  }
  return result;
}

void KvManager::ExtendModalityStreams(const Request& r, RequestKv& state, int64_t from,
                                      int64_t to) {
  AppendModalityStreams(r, from, to, state.image_tokens,
                        has_text_scope_ ? &state.text_tokens : nullptr);
}

bool KvManager::AllocateForTokens(Request& r, int64_t n, Tick now) {
  RequestKv& state = StateOf(r);
  const int64_t upto = r.num_computed_tokens + n;
  // Completed per-group bulk allocations, for cross-group rollback (within one group
  // AllocateN rolls itself back before reporting failure). Groups are per layer *type*, so
  // the count is tiny and bounded (checked in the constructor); the inline array removes the
  // heap allocation this function used to pay per call even when nothing needed rolling
  // back (ROADMAP item 5).
  struct FreshGroup {
    int group;
    int64_t need;
  };
  std::array<FreshGroup, kMaxGroups> fresh;
  size_t num_fresh = 0;
  for (size_t g = 0; g < spec_.groups.size(); ++g) {
    const KvGroupSpec& group = spec_.groups[g];
    GroupState& gs = state.groups[g];
    const int64_t target = TargetPages(r, group, upto);
    const int64_t need = target - static_cast<int64_t>(gs.pages.size());
    if (need <= 0) {
      continue;
    }
    if (!allocator_.group(static_cast<int>(g)).AllocateN(r.id, need, now, &gs.pages)) {
      // Roll back everything this call allocated, newest first; the caller will preempt.
      for (size_t f = num_fresh; f > 0; --f) {
        SmallPageAllocator& alloc = allocator_.group(fresh[f - 1].group);
        GroupState& owner = state.groups[static_cast<size_t>(fresh[f - 1].group)];
        for (int64_t k = 0; k < fresh[f - 1].need; ++k) {
          alloc.Release(owner.pages.back(), /*keep_cached=*/false);
          owner.pages.pop_back();
        }
      }
      return false;
    }
    fresh[num_fresh++] = FreshGroup{static_cast<int>(g), need};
  }
  return true;
}

BlockHash KvManager::NextChainHash(const AdmissionMemo* memo, size_t g, int64_t block,
                                   BlockHash previous, std::span<const int32_t> block_tokens) {
  if (memo != nullptr && static_cast<size_t>(block) < memo->group_hashes[g].size()) {
    const BlockHash memoized = memo->group_hashes[g][static_cast<size_t>(block)];
    if (AdmissionScanAuditEnabled()) {
      JENGA_CHECK_EQ(memoized, ExtendBlockHash(previous, block_tokens))
          << "admission memo chain diverged at group " << g << " block " << block;
    }
    return memoized;
  }
  return ExtendBlockHash(previous, block_tokens);
}

void KvManager::RegisterHashes(Request& r, RequestKv& state, const AdmissionMemo* memo,
                               Tick now) {
  const int bs = options_.tokens_per_page;
  const int64_t c = r.num_computed_tokens;
  for (size_t g = 0; g < spec_.groups.size(); ++g) {
    const KvGroupSpec& group = spec_.groups[g];
    if (group.kind == GroupKind::kMamba) {
      SnapshotMambaCheckpoints(r, state, static_cast<int>(g), memo, now);
      continue;
    }
    SmallPageAllocator& alloc = allocator_.group(static_cast<int>(g));
    GroupState& gs = state.groups[g];
    const std::vector<int32_t>& stream = group.scope == GroupScope::kImageTokens
                                             ? state.image_tokens
                                             : (group.scope == GroupScope::kTextTokens
                                                    ? state.text_tokens
                                                    : r.all_tokens);
    const int64_t stream_len = GroupTokensFor(r, group, c);
    const int64_t num_blocks = stream_len / bs;
    for (int64_t j = gs.hashed_blocks; j < num_blocks; ++j) {
      gs.chain = NextChainHash(memo, g, j, gs.chain,
                               std::span<const int32_t>(stream).subspan(
                                   static_cast<size_t>(j) * bs, static_cast<size_t>(bs)));
      gs.chain_tokens += bs;
      if (j < static_cast<int64_t>(gs.pages.size()) &&
          gs.pages[static_cast<size_t>(j)] != kNoSmallPage) {
        alloc.SetContentHash(gs.pages[static_cast<size_t>(j)], gs.chain);
      }
    }
    gs.hashed_blocks = num_blocks;
  }
}

void KvManager::SnapshotMambaCheckpoints(Request& r, RequestKv& state, int g,
                                         const AdmissionMemo* memo, Tick now) {
  // §5.3: cache the Mamba state every kMambaCheckpointInterval tokens. The snapshot page is
  // allocated, hashed, prioritized by its depth, and immediately released to evictable — the
  // running request keeps only its live state page. Snapshots are best-effort: under memory
  // pressure they are skipped rather than failing the step.
  GroupState& gs = state.groups[static_cast<size_t>(g)];
  SmallPageAllocator& alloc = allocator_.group(g);
  const int64_t target = r.num_computed_tokens / kMambaCheckpointInterval;
  for (int64_t k = gs.checkpoints_done + 1; k <= target; ++k) {
    gs.chain = NextChainHash(memo, static_cast<size_t>(g), k - 1, gs.chain,
                             std::span<const int32_t>(r.all_tokens)
                                 .subspan(static_cast<size_t>((k - 1) * kMambaCheckpointInterval),
                                          static_cast<size_t>(kMambaCheckpointInterval)));
    gs.chain_tokens = k * kMambaCheckpointInterval;
    gs.checkpoints_done = k;
    if (alloc.LookupCached(gs.chain).has_value()) {
      continue;  // Snapshot already cached (e.g. shared prefix).
    }
    const auto page = alloc.Allocate(r.id, now);
    if (!page.has_value()) {
      continue;
    }
    alloc.SetContentHash(*page, gs.chain);
    alloc.SetPrefixLength(*page, k * kMambaCheckpointInterval);
    alloc.UpdateLastAccess(*page, now);
    alloc.Release(*page, /*keep_cached=*/true);
  }
}

void KvManager::DropUnneededPages(RequestKv& state, int g, Tick now) {
  GroupState& gs = state.groups[static_cast<size_t>(g)];
  if (gs.pages.empty()) {
    return;
  }
  SmallPageAllocator& alloc = allocator_.group(g);
  const KvGroupSpec& group = spec_.groups[static_cast<size_t>(g)];
  const int bs = group.tokens_per_page;
  const int64_t tokens = gs.drop_tokens_hint;
  const std::vector<TokenRange> ranges = policies_[static_cast<size_t>(g)]->NeededTokenRanges(tokens);
  if (ranges.empty()) {
    return;
  }
  const int64_t limit_block =
      std::min<int64_t>(ranges.back().begin / bs, static_cast<int64_t>(gs.pages.size()));
  while (gs.drop_cursor < limit_block) {
    const int64_t j = gs.drop_cursor;
    bool keep = false;
    for (size_t i = 0; i + 1 < ranges.size(); ++i) {
      if (ranges[i].begin < (j + 1) * bs && ranges[i].end > j * bs) {
        keep = true;
        break;
      }
    }
    if (!keep && gs.pages[static_cast<size_t>(j)] != kNoSmallPage) {
      const SmallPageId page = gs.pages[static_cast<size_t>(j)];
      if (defer_refresh_[static_cast<size_t>(g)] && gs.last_touch != 0) {
        // Deferred refresh: the page was inside the window through the previous step.
        alloc.UpdateLastAccess(page, gs.last_touch);
      }
      alloc.SetPrefixLength(page, (j + 1) * bs);
      alloc.Release(page, options_.enable_prefix_caching);
      gs.pages[static_cast<size_t>(j)] = kNoSmallPage;
    }
    gs.drop_cursor += 1;
  }
  (void)now;
}

void KvManager::FreeConsumedVisionPages(const Request& r, RequestKv& state, Tick now) {
  if (vision_group_ < 0) {
    return;
  }
  GroupState& gs = state.groups[static_cast<size_t>(vision_group_)];
  SmallPageAllocator& alloc = allocator_.group(vision_group_);
  const int bs = spec_.groups[static_cast<size_t>(vision_group_)].tokens_per_page;
  const int64_t consumed = r.ImageTokensBefore(r.num_computed_tokens);
  const int64_t total = r.num_image_tokens;
  while (gs.drop_cursor < static_cast<int64_t>(gs.pages.size())) {
    const int64_t j = gs.drop_cursor;
    const bool fully_consumed = (j + 1) * bs <= consumed || consumed == total;
    if (!fully_consumed) {
      break;
    }
    if (gs.pages[static_cast<size_t>(j)] != kNoSmallPage) {
      alloc.UpdateLastAccess(gs.pages[static_cast<size_t>(j)], now);
      alloc.Release(gs.pages[static_cast<size_t>(j)], options_.enable_prefix_caching);
      gs.pages[static_cast<size_t>(j)] = kNoSmallPage;
    }
    gs.drop_cursor += 1;
  }
}

RequestPages KvManager::ViewOf(const Request& r, const RequestKv& state, int g) const {
  const KvGroupSpec& group = spec_.groups[static_cast<size_t>(g)];
  RequestPages view;
  view.request = r.id;
  view.pages = state.groups[static_cast<size_t>(g)].pages;
  view.num_tokens = GroupTokensFor(r, group, r.num_computed_tokens);
  view.tokens_per_page =
      group.kind == GroupKind::kMamba ? kMambaCheckpointInterval : group.tokens_per_page;
  return view;
}

void KvManager::OnStepComputed(Request& r, Tick now) {
  RequestKv& state = StateOf(r);
  if (options_.enable_prefix_caching) {
    ExtendModalityStreams(r, state, state.computed_tokens, r.num_computed_tokens);
    const auto memo_it = admission_memos_.find(r.id);
    RegisterHashes(r, state, memo_it == admission_memos_.end() ? nullptr : &memo_it->second, now);
  }
  if (options_.jenga) {
    for (size_t g = 0; g < spec_.groups.size(); ++g) {
      if (static_cast<int>(g) == vision_group_) {
        continue;  // Vision pages are freed by consumption, not by windowing.
      }
      if (policies_[g]->CanDropUnneededPages()) {
        state.groups[g].drop_tokens_hint =
            GroupTokensFor(r, spec_.groups[g], r.num_computed_tokens);
        DropUnneededPages(state, static_cast<int>(g), now);
      }
    }
    FreeConsumedVisionPages(r, state, now);
  }
  // Balanced eviction (§5.1): refresh last-access of the pages this step actually touched.
  // Deferred-refresh groups record one tick instead of writing O(pages) metadata — a used
  // page's last-access is unobservable until it can become evictable, so the tick is applied
  // at release/drop/consume time (ApplyDeferredTouch), yielding the same final values.
  for (size_t g = 0; g < spec_.groups.size(); ++g) {
    if (defer_refresh_[g]) {
      state.groups[g].last_touch = now;
    } else {
      policies_[g]->UpdateLastAccess(ViewOf(r, state, static_cast<int>(g)), now,
                                     allocator_.group(static_cast<int>(g)));
    }
  }
  state.computed_tokens = r.num_computed_tokens;
  state.needed_bytes = NeededBytesFor(r);
}

void KvManager::ApplyDeferredTouch(const Request& r, RequestKv& state, int g) {
  GroupState& gs = state.groups[static_cast<size_t>(g)];
  if (!defer_refresh_[static_cast<size_t>(g)] || gs.last_touch == 0 || gs.pages.empty()) {
    return;
  }
  const KvGroupSpec& group = spec_.groups[static_cast<size_t>(g)];
  // Only blocks the eager refresh would have marked: blocks of computed tokens. The vision
  // group allocates ahead for unconsumed images — those pages keep their claim-time tick.
  const int64_t tokens = GroupTokensFor(r, group, state.computed_tokens);
  const int64_t marked = std::min<int64_t>(CeilDiv(tokens, group.tokens_per_page),
                                           static_cast<int64_t>(gs.pages.size()));
  SmallPageAllocator& alloc = allocator_.group(g);
  for (int64_t j = 0; j < marked; ++j) {
    if (gs.pages[static_cast<size_t>(j)] != kNoSmallPage) {
      alloc.UpdateLastAccess(gs.pages[static_cast<size_t>(j)], gs.last_touch);
    }
  }
}

void KvManager::Release(Request& r, Tick now, bool finished) {
  RequestKv& state = StateOf(r);
  for (size_t g = 0; g < spec_.groups.size(); ++g) {
    SmallPageAllocator& alloc = allocator_.group(static_cast<int>(g));
    ApplyDeferredTouch(r, state, static_cast<int>(g));
    if (options_.enable_prefix_caching) {
      // Aligned eviction (§5.1): assign consistent per-token priorities across groups before
      // the pages become evictable.
      policies_[g]->SetPrefixLength(ViewOf(r, state, static_cast<int>(g)), alloc);
    }
    for (const SmallPageId page : state.groups[g].pages) {
      if (page != kNoSmallPage) {
        alloc.Release(page, options_.enable_prefix_caching);
      }
    }
  }
  requests_.erase(r.id);
  if (finished) {
    admission_memos_.erase(r.id);
    allocator_.ForgetRequest(r.id);
  }
  (void)now;
}

bool KvManager::CanAllocate(const Request& r, int64_t tokens) const {
  // Large-page-granular admission check: a group can consume its own empty small pages, but
  // everything beyond that must come from free (or fully-evictable) large pages. Counting
  // other groups' stranded empties would over-admit and cause preemption storms.
  const auto it = requests_.find(r.id);
  const int64_t upto = r.num_computed_tokens + tokens;
  int64_t larges_needed = 0;
  for (size_t g = 0; g < spec_.groups.size(); ++g) {
    const int64_t have =
        it == requests_.end() ? 0 : static_cast<int64_t>(it->second.groups[g].pages.size());
    const int64_t target = TargetPages(r, spec_.groups[g], upto);
    const int64_t own_empties = allocator_.group(static_cast<int>(g)).GetStats().empty_pages;
    const int64_t new_pages = std::max<int64_t>(0, target - have - own_empties);
    larges_needed +=
        CeilDiv(new_pages, allocator_.group(static_cast<int>(g)).pages_per_large());
  }
  const int64_t evictable_larges =
      allocator_.GetBreakdown().evictable_bytes / allocator_.lcm().large_page_bytes();
  const int64_t available = allocator_.lcm().num_free() + evictable_larges;
  // Watermark: keep ~2% of the pool free as decode-growth headroom (vLLM-style), so steady
  // decode progress does not degenerate into preemption storms.
  const int64_t watermark = std::max<int64_t>(1, allocator_.lcm().num_pages() / 50);
  return larges_needed + watermark <= available;
}

void KvManager::AttachOffload(SwapManager* offload, int manager_index) {
  JENGA_CHECK(offload != nullptr);
  JENGA_CHECK(offload_ == nullptr) << "offload tier already attached";
  offload_ = offload;
  manager_index_ = manager_index;
  std::vector<char> eligible;
  std::vector<int64_t> page_bytes;
  eligible.reserve(spec_.groups.size());
  page_bytes.reserve(spec_.groups.size());
  for (size_t g = 0; g < spec_.groups.size(); ++g) {
    eligible.push_back(policies_[g]->SwapEligible() ? 1 : 0);
    page_bytes.push_back(spec_.groups[g].page_bytes);
  }
  allocator_.SetEvictionSink(
      offload_->RegisterManager(manager_index, std::move(eligible), std::move(page_bytes)));
}

uint64_t KvManager::StateFingerprint(const RequestKv& state) const {
  uint64_t h = 0x243F6A8885A308D3ull;
  for (size_t g = 0; g < state.groups.size(); ++g) {
    const GroupState& gs = state.groups[g];
    h = MixFingerprint(h, static_cast<uint64_t>(g));
    h = MixFingerprint(h, gs.chain);
    h = MixFingerprint(h, static_cast<uint64_t>(gs.chain_tokens));
    h = MixFingerprint(h, static_cast<uint64_t>(gs.pages.size()));
  }
  return h;
}

KvSwapFootprint KvManager::GetSwapFootprint(const Request& r) const {
  const auto it = requests_.find(r.id);
  JENGA_CHECK(it != requests_.end()) << "request " << r.id << " not admitted";
  const RequestKv& state = it->second;
  KvSwapFootprint fp;
  fp.tokens = r.num_computed_tokens;
  for (size_t g = 0; g < spec_.groups.size(); ++g) {
    const KvGroupSpec& group = spec_.groups[g];
    int64_t resident = 0;
    for (const SmallPageId page : state.groups[g].pages) {
      if (page != kNoSmallPage) {
        resident += group.page_bytes;
      }
    }
    fp.resident_bytes += resident;
    if (policies_[g]->SwapEligible()) {
      fp.swappable_bytes += resident;
    } else {
      // Recompute-cheap groups are dropped on swap-out; the swap alternative still pays for
      // rebuilding what the policy needs at this progress point.
      const int64_t tokens = GroupTokensFor(r, group, r.num_computed_tokens);
      fp.drop_recompute_bytes +=
          RangeTokens(policies_[g]->NeededTokenRanges(tokens)) * group.BytesPerToken();
    }
  }
  fp.fingerprint = StateFingerprint(state);
  return fp;
}

void KvManager::TrimToComputed(const Request& r) {
  RequestKv& state = StateOf(r);
  for (size_t g = 0; g < spec_.groups.size(); ++g) {
    GroupState& gs = state.groups[g];
    const int64_t target = TargetPages(r, spec_.groups[g], r.num_computed_tokens);
    SmallPageAllocator& alloc = allocator_.group(static_cast<int>(g));
    while (static_cast<int64_t>(gs.pages.size()) > target) {
      // Uncomputed pages never had a content hash registered; nothing to keep cached.
      if (gs.pages.back() != kNoSmallPage) {
        alloc.Release(gs.pages.back(), /*keep_cached=*/false);
      }
      gs.pages.pop_back();
    }
  }
}

bool KvManager::RestoreFromSwap(Request& r, int64_t tokens, uint64_t expected_fingerprint,
                                Tick now) {
  JENGA_CHECK(!requests_.contains(r.id)) << "request " << r.id << " already admitted";
  JENGA_CHECK_GT(tokens, 0);
  JENGA_CHECK_GE(static_cast<int64_t>(r.all_tokens.size()), tokens);
  RequestKv& state = requests_[r.id];
  state.groups.resize(spec_.groups.size());
  for (size_t g = 0; g < spec_.groups.size(); ++g) {
    state.groups[g].chain = InitBlockChain(GroupSalt(static_cast<int>(g)));
  }
  r.num_computed_tokens = 0;
  r.cached_prefix_tokens = 0;
  state.computed_tokens = 0;

  // Completed bulk runs as (group, first block-table index, count) — needed pages come in
  // contiguous runs between the droppable holes, so each run is one AllocateN call.
  std::vector<std::tuple<int, size_t, int64_t>> fresh_runs;
  bool failed = false;
  for (size_t g = 0; g < spec_.groups.size() && !failed; ++g) {
    const KvGroupSpec& group = spec_.groups[g];
    SmallPageAllocator& alloc = allocator_.group(static_cast<int>(g));
    GroupState& gs = state.groups[g];
    const int64_t target = TargetPages(r, group, tokens);
    // Droppable groups (sliding window, pyramid) restore only the blocks the policy still
    // needs at `tokens`; everything else stays a hole, exactly as DropUnneededPages left it.
    const bool droppable = options_.jenga && policies_[g]->CanDropUnneededPages();
    std::vector<TokenRange> needed;
    if (droppable) {
      needed = policies_[g]->NeededTokenRanges(GroupTokensFor(r, group, tokens));
    }
    const int bs = group.tokens_per_page;
    const auto want = [&](int64_t j) {
      if (!droppable) {
        return true;
      }
      for (const TokenRange& range : needed) {
        if (range.begin < (j + 1) * bs && range.end > j * bs) {
          return true;
        }
      }
      return false;
    };
    gs.pages.reserve(static_cast<size_t>(target));
    int64_t j = 0;
    while (j < target) {
      if (!want(j)) {
        gs.pages.push_back(kNoSmallPage);
        ++j;
        continue;
      }
      int64_t run_end = j + 1;
      while (run_end < target && want(run_end)) {
        ++run_end;
      }
      const size_t start = gs.pages.size();
      if (!alloc.AllocateN(r.id, run_end - j, now, &gs.pages)) {
        failed = true;
        break;
      }
      fresh_runs.emplace_back(static_cast<int>(g), start, run_end - j);
      j = run_end;
    }
  }
  if (failed) {
    // Newest-first rollback across runs (AllocateN already rolled back the failing run).
    for (auto it = fresh_runs.rbegin(); it != fresh_runs.rend(); ++it) {
      const auto [g, start, count] = *it;
      GroupState& gs = state.groups[static_cast<size_t>(g)];
      for (int64_t k = count - 1; k >= 0; --k) {
        allocator_.group(g).Release(gs.pages[start + static_cast<size_t>(k)],
                                    /*keep_cached=*/false);
      }
    }
    requests_.erase(r.id);
    return false;
  }
  // Replay the bookkeeping a normal run reaching `tokens` computed tokens would have done:
  // stream extension, hash registration, Mamba checkpoints, drop cursors, last-access.
  r.num_computed_tokens = tokens;
  OnStepComputed(r, now);
  JENGA_CHECK_EQ(StateFingerprint(state), expected_fingerprint)
      << "swap round trip diverged for request " << r.id;
  return true;
}

void KvManager::OnRequestRetired(RequestId id) {
  admission_memos_.erase(id);
  allocator_.ForgetRequest(id);
}

std::vector<std::vector<bool>> KvManager::BuildValidBitmaps(
    const Request& r, const std::vector<std::vector<BlockHash>>& group_hashes,
    bool include_host) const {
  const int bs = options_.tokens_per_page;
  const int64_t num_boundaries = r.prompt_len() / bs;
  std::vector<std::vector<bool>> valid_global(spec_.groups.size());
  for (size_t g = 0; g < spec_.groups.size(); ++g) {
    const KvGroupSpec& group = spec_.groups[g];
    const SmallPageAllocator& alloc = allocator_.group(static_cast<int>(g));
    std::vector<bool>& valid = valid_global[g];
    valid.assign(static_cast<size_t>(num_boundaries) + 1, false);
    valid[0] = true;

    std::vector<bool> is_hit(group_hashes[g].size());
    for (size_t j = 0; j < is_hit.size(); ++j) {
      is_hit[j] =
          alloc.LookupCached(group_hashes[g][j]).has_value() ||
          (include_host && offload_ != nullptr &&
           offload_->LookupHostPage(manager_index_, static_cast<int>(g), group_hashes[g][j]) !=
               nullptr);
    }

    if (group.kind == GroupKind::kMamba) {
      const std::vector<bool> gv =
          policies_[g]->GetPossiblePrefix(is_hit, kMambaCheckpointInterval);
      for (int64_t b = 1; b <= num_boundaries; ++b) {
        const int64_t tokens = b * bs;
        if (tokens % kMambaCheckpointInterval != 0) {
          continue;
        }
        const size_t k = static_cast<size_t>(tokens / kMambaCheckpointInterval);
        if (k < gv.size()) {
          valid[static_cast<size_t>(b)] = gv[k];
        }
      }
      continue;
    }

    if (IsSubsequenceScope(group.scope)) {
      const std::vector<bool> gv = policies_[g]->GetPossiblePrefix(is_hit, bs);
      for (int64_t b = 1; b <= num_boundaries; ++b) {
        const int64_t sub_count = GroupTokensFor(r, group, b * bs);
        // Conservative: only block-aligned subsequence coverage counts as a hit.
        if (sub_count % bs != 0) {
          continue;
        }
        const size_t blocks = static_cast<size_t>(sub_count / bs);
        if (blocks < gv.size()) {
          valid[static_cast<size_t>(b)] = gv[blocks];
        }
      }
      continue;
    }

    // All-token groups: boundaries map 1:1 to group blocks.
    valid = policies_[g]->GetPossiblePrefix(is_hit, bs);
  }
  return valid_global;
}

void KvManager::PromoteHostHits(const Request& r,
                                const std::vector<std::vector<BlockHash>>& group_hashes,
                                Tick now) {
  const int bs = options_.tokens_per_page;
  const int64_t prompt_len = r.prompt_len();
  // The promotion target is what the hit scan *could* find if every host-resident block were
  // on the GPU: the longest common valid prefix over GPU ∪ host residency. Promotion then
  // fills exactly the gap between that target and current GPU residency — blocks a policy
  // never reads at the target length (out-of-window tails, pyramid middles) are not worth
  // PCIe time, and each one would evict a genuinely useful page.
  std::vector<BlockHitResolver> resolvers;
  int64_t boundary = ResolveHitBoundary(r, group_hashes, /*include_host=*/true, resolvers);
  while (boundary > 0 && boundary * bs >= prompt_len) {
    --boundary;
  }
  if (boundary == 0) {
    return;
  }
  const int64_t hit_tokens = boundary * bs;

  // Pass 0 refreshes the last-access of every GPU-resident needed block; pass 1 promotes the
  // host-resident rest. Ordering matters: a promotion's allocation evicts under pressure, and
  // it must take other requests' stale pages, not the prefix this pass is assembling (the
  // reference pass in OnAdmit has not pinned it yet).
  for (int pass = 0; pass < 2; ++pass) {
    const bool promote = pass == 1;
    for (size_t g = 0; g < spec_.groups.size(); ++g) {
      const KvGroupSpec& group = spec_.groups[g];
      SmallPageAllocator& alloc = allocator_.group(static_cast<int>(g));
      const std::vector<BlockHash>& hashes = group_hashes[g];
      if (group.kind == GroupKind::kMamba) {
        // Only the deepest checkpoint at or before the target is restored from (the reference
        // pass reads checkpoint k−1 alone).
        const int64_t k = hit_tokens / kMambaCheckpointInterval;
        if (k <= 0 || static_cast<size_t>(k) > hashes.size()) {
          continue;
        }
        const BlockHash h = hashes[static_cast<size_t>(k) - 1];
        if (const auto page = alloc.LookupCached(h)) {
          if (!promote) {
            alloc.UpdateLastAccess(*page, now);
          }
        } else if (promote) {
          (void)TryPromoteHostBlock(static_cast<int>(g), h, k * kMambaCheckpointInterval, r.id,
                                    now);
        }
        continue;
      }
      const int64_t group_tokens = GroupTokensFor(r, group, hit_tokens);
      const int64_t blocks =
          std::min(static_cast<int64_t>(hashes.size()), group_tokens / bs);
      const std::vector<TokenRange> needed = policies_[g]->NeededTokenRanges(group_tokens);
      for (int64_t j = 0; j < blocks; ++j) {
        bool block_needed = false;
        for (const TokenRange& range : needed) {
          if (range.begin < (j + 1) * bs && range.end > j * bs) {
            block_needed = true;
            break;
          }
        }
        if (!block_needed) {
          continue;
        }
        const BlockHash h = hashes[static_cast<size_t>(j)];
        if (const auto page = alloc.LookupCached(h)) {
          if (!promote) {
            alloc.UpdateLastAccess(*page, now);
          }
        } else if (promote) {
          (void)TryPromoteHostBlock(static_cast<int>(g), h, (j + 1) * bs, r.id, now);
        }
      }
    }
  }
}

bool KvManager::TryPromoteHostBlock(int g, BlockHash hash, int64_t prefix_length, RequestId rid,
                                    Tick now) {
  if (offload_->LookupHostPage(manager_index_, g, hash) == nullptr) {
    return false;
  }
  SmallPageAllocator& alloc = allocator_.group(g);
  const auto page = alloc.Allocate(rid, now);
  if (!page.has_value()) {
    return false;
  }
  // The allocation's own eviction cascade may have pushed this very page out of the host
  // pool (new victims displacing LRU entries); re-check before claiming its content.
  const HostCachePage* host = offload_->LookupHostPage(manager_index_, g, hash);
  if (host == nullptr) {
    alloc.Release(*page, /*keep_cached=*/false);
    return false;
  }
  const int64_t host_bytes = host->bytes;
  alloc.SetContentHash(*page, hash);
  alloc.SetPrefixLength(*page, prefix_length);
  alloc.UpdateLastAccess(*page, now);
  alloc.Release(*page, /*keep_cached=*/true);
  offload_->OnHostPagePromoted(manager_index_, g, hash, host_bytes);
  return true;
}

int64_t KvManager::NeededBytesFor(const Request& r) const {
  int64_t needed = 0;
  const int64_t c = r.num_computed_tokens;
  for (size_t g = 0; g < accounting_spec_.groups.size(); ++g) {
    const KvGroupSpec& group = accounting_spec_.groups[g];
    switch (group.kind) {
      case GroupKind::kMamba:
        needed += group.page_bytes;
        break;
      case GroupKind::kVisionEmbed: {
        if (vision_group_ >= 0) {
          const int64_t unconsumed = r.num_image_tokens - r.ImageTokensBefore(c);
          needed += unconsumed * group.bytes_per_token_per_layer;
        }
        break;
      }
      default: {
        const int64_t tokens = GroupTokensFor(r, group, c);
        needed +=
            RangeTokens(accounting_policies_[g]->NeededTokenRanges(tokens)) * group.BytesPerToken();
        break;
      }
    }
  }
  return needed;
}

int64_t KvManager::DecodeKvReadBytes(const Request& r) const {
  const auto it = requests_.find(r.id);
  JENGA_CHECK(it != requests_.end()) << "request " << r.id << " not admitted";
  return it->second.needed_bytes;
}

KvManager::MemoryStats KvManager::GetMemoryStats() const {
  MemoryStats stats;
  const JengaAllocator::MemoryBreakdown b = allocator_.GetBreakdown();
  stats.pool_bytes = b.pool_bytes;
  stats.used_bytes = b.used_bytes;
  stats.cached_bytes = b.evictable_bytes;
  stats.internal_frag_bytes = b.empty_bytes;
  stats.unallocated_bytes = b.unallocated_bytes;
  int64_t needed = 0;
  for (const auto& [id, state] : requests_) {
    needed += state.needed_bytes;
  }
  stats.needed_bytes = needed;
  stats.wasted_bytes = std::max<int64_t>(0, stats.used_bytes - needed) + b.empty_bytes;
  return stats;
}

void KvManager::CheckConsistency() const { allocator_.CheckConsistency(); }

}  // namespace jenga
