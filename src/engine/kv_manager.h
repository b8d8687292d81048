// KV-cache manager: maps requests onto the two-level allocator. One class serves both the
// Jenga configuration (per-group allocation, layer-specific policies, out-of-window drops,
// vision-embedding cache) and the PagedAttention-style baselines (a single degenerate group
// covering every layer, full-prefix rules only) — exactly the comparison the paper makes,
// with everything else held equal.

#ifndef JENGA_SRC_ENGINE_KV_MANAGER_H_
#define JENGA_SRC_ENGINE_KV_MANAGER_H_

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/core/block_hash.h"
#include "src/core/jenga_allocator.h"
#include "src/core/layer_policy.h"
#include "src/engine/request.h"
#include "src/model/kv_spec.h"
#include "src/model/model_config.h"

namespace jenga {

class SwapManager;

// A request's current KV footprint as seen by one manager, for the swap-vs-recompute
// decision. `fingerprint` hashes the per-group chains and block-table shapes so a swap-in can
// verify the round trip restored the exact same state.
struct KvSwapFootprint {
  int64_t tokens = 0;
  int64_t swappable_bytes = 0;       // Resident bytes in swap-eligible groups.
  int64_t resident_bytes = 0;        // Resident bytes in all groups.
  int64_t drop_recompute_bytes = 0;  // Needed bytes of swap-ineligible groups.
  uint64_t fingerprint = 0;
};

// Builds the per-group spec Jenga allocates with (vision-embedding group included when the
// model has a vision encoder and `vision_cache` is set).
[[nodiscard]] KvSpec MakeJengaSpec(const ModelConfig& model, int tokens_per_page,
                                   bool vision_cache);

// Builds the degenerate homogeneous spec of PagedAttention engines: one group whose per-token
// size is the sum over every attention-like layer, covering text and image tokens alike
// (the (T+I)·L·E accounting of §3.2). Mamba layers are excluded — baselines reserve their
// state statically (see StaticMambaReservationBytes). `bytes_per_token_override` lets
// speculative-decoding baselines charge a model's tokens at a larger page size (vLLM-max).
[[nodiscard]] KvSpec MakeHomogeneousSpec(const ModelConfig& model, int tokens_per_page,
                                         int64_t bytes_per_token_override = 0);

// Bytes a homogeneous engine reserves up front for Mamba states (max_num_seqs × state size).
[[nodiscard]] int64_t StaticMambaReservationBytes(const ModelConfig& model, int max_num_seqs);

class KvManager {
 public:
  // Upper bound on KV groups per spec (groups are per layer type: full-prefix attention,
  // sliding window, Mamba, vision embeddings, ...). Lets hot paths use inline arrays.
  static constexpr size_t kMaxGroups = 16;

  struct Options {
    int tokens_per_page = 16;
    bool enable_prefix_caching = true;
    // Jenga semantics: layer-specific policies + dropping of unneeded pages. When false,
    // every group uses full-prefix rules and nothing is dropped mid-request (vLLM v0.6.3).
    bool jenga = true;
    // Needed by the image-cache policies of multimodal models.
    int tokens_per_image = 0;
    // Compute each request's admission inputs (prompt hash chains, modality subsequence
    // streams) once at first admission and reuse them on every re-admission — prompts are
    // immutable, so the results are too. Off = rebuild from scratch each time (the reference
    // behavior the memoized path must match bit for bit).
    bool memoize_admission = true;
  };

  // `alloc_spec` drives allocation; `accounting_spec` is the true per-group architecture,
  // used for the needed-vs-allocated waste accounting of Fig. 16 and for the decode KV-read
  // estimate, regardless of allocation mode.
  KvManager(KvSpec alloc_spec, KvSpec accounting_spec, int64_t pool_bytes, Options options);

  KvManager(const KvManager&) = delete;
  KvManager& operator=(const KvManager&) = delete;

  // Admission: resolves the longest prefix-cache hit valid across every group (§5.2), takes
  // references on the covering pages, and fast-forwards r.num_computed_tokens. Must be called
  // once per (re-)admission, before AllocateForTokens.
  void OnAdmit(Request& r, Tick now);

  // Ensures KV slots exist for the next `n` tokens of `r` (plus the request's remaining
  // vision embeddings, when a vision group exists). On failure all pages allocated by this
  // call are rolled back and false is returned; the caller preempts.
  [[nodiscard]] bool AllocateForTokens(Request& r, int64_t n, Tick now);

  // Bookkeeping after a step computed tokens of `r` up to r.num_computed_tokens (already
  // advanced by the caller): registers content hashes of completed blocks, snapshots Mamba
  // checkpoints, drops out-of-window pages (Jenga), frees consumed vision embeddings, and
  // refreshes eviction metadata via the layer policies.
  void OnStepComputed(Request& r, Tick now);

  // Releases every page of `r` (finish or preemption). Cached content stays evictable when
  // prefix caching is on. Pass `finished` when the request id retires for good: the
  // allocator then drops its request-affinity free lists (which otherwise leak across
  // millions of requests). Preempted requests keep theirs — they re-admit under the same id
  // and the affinity drives §4.3 placement.
  void Release(Request& r, Tick now, bool finished = false);

  // Conservative admission check: can `tokens` more tokens of `r` be allocated right now,
  // counting free plus evictable capacity?
  [[nodiscard]] bool CanAllocate(const Request& r, int64_t tokens) const;

  // --- Host offload tier (all no-ops / unused when no SwapManager is attached) ---

  // Connects this manager to the offload tier: installs the eviction sink on the allocator
  // (second-chance prefix cache) and enables host-hit promotion in OnAdmit. `manager_index`
  // disambiguates managers sharing one SwapManager (speculative decoding).
  void AttachOffload(SwapManager* offload, int manager_index);

  // Releases pages allocated beyond `r`'s committed-token target. An injected step fault
  // retains the aborted chunk's pages for the retry (allocation is idempotent), so a request
  // preempted inside that retry window still holds uncomputed lookahead pages; they carry no
  // committed KV and must not be part of the swapped/recomputed snapshot. No-op when the
  // block tables already match the committed state.
  void TrimToComputed(const Request& r);

  // Footprint of `r`'s resident pages for the swap-vs-recompute crossover. Must be called
  // before Release (it reads the live block tables).
  [[nodiscard]] KvSwapFootprint GetSwapFootprint(const Request& r) const;

  // Re-admission by swap-in: rebuilds `r`'s block tables for `tokens` computed tokens
  // (droppable groups restore only their needed windows) and replays the hash/checkpoint
  // bookkeeping, check-failing if the restored state's fingerprint differs from
  // `expected_fingerprint`. On allocation failure everything is rolled back and false is
  // returned. Replaces OnAdmit for swapped requests; no budget is consumed.
  [[nodiscard]] bool RestoreFromSwap(Request& r, int64_t tokens, uint64_t expected_fingerprint,
                                     Tick now);

  // Drops allocator affinity state for a request id that retires without a final
  // Release(finished=true) — e.g. admission-failure abort after an earlier preemption left
  // affinity free lists behind. Idempotent.
  void OnRequestRetired(RequestId id);

  // --- Accounting (Fig. 16) ---

  struct MemoryStats {
    int64_t pool_bytes = 0;
    int64_t used_bytes = 0;       // Pages referenced by running requests.
    int64_t needed_bytes = 0;     // What the true architecture needs for those requests.
    int64_t wasted_bytes = 0;     // used − needed + internal fragmentation.
    int64_t cached_bytes = 0;     // Evictable prefix-cache content.
    int64_t internal_frag_bytes = 0;
    int64_t unallocated_bytes = 0;
  };
  [[nodiscard]] MemoryStats GetMemoryStats() const;

  // Needed bytes for one request at its current progress, per the accounting spec.
  [[nodiscard]] int64_t NeededBytesFor(const Request& r) const;
  // KV bytes a decode step must read for `r` (the bandwidth term of the cost model; identical
  // across managers because attention kernels read only what the layer needs): the
  // NeededBytesFor value cached by the last OnAdmit/OnStepComputed (RestoreFromSwap ends in
  // OnStepComputed). Current whenever it is called between commits, as both engines do.
  [[nodiscard]] int64_t DecodeKvReadBytes(const Request& r) const;

  [[nodiscard]] const JengaAllocator& allocator() const { return allocator_; }
  // Mutable access for the audit layer (AllocatorAuditor::AttachAllocator); tests only.
  [[nodiscard]] JengaAllocator& allocator_mutable() { return allocator_; }
  [[nodiscard]] const KvSpec& alloc_spec() const { return spec_; }
  [[nodiscard]] int tokens_per_page() const { return options_.tokens_per_page; }
  [[nodiscard]] bool caching_enabled() const { return options_.enable_prefix_caching; }
  [[nodiscard]] bool has_vision_group() const { return vision_group_ >= 0; }
  [[nodiscard]] int64_t total_cache_hit_tokens() const { return total_cache_hit_tokens_; }
  [[nodiscard]] int num_tracked_requests() const { return static_cast<int>(requests_.size()); }

  void CheckConsistency() const;

 private:
  struct GroupState {
    std::vector<SmallPageId> pages;  // Block table (attention/image groups); [state] for Mamba.
    // Incremental hash chain over the group's token stream.
    BlockHash chain = 0;
    int64_t chain_tokens = 0;
    int64_t hashed_blocks = 0;
    // Blocks below this cursor were released (out-of-window / consumed vision embeddings).
    int64_t drop_cursor = 0;
    // Group-local token count driving the next DropUnneededPages pass.
    int64_t drop_tokens_hint = 0;
    // Mamba: checkpoints snapshotted so far.
    int64_t checkpoints_done = 0;
    // Deferred last-access refresh (deferred-refresh groups only): tick of the owner's most
    // recent computed step. While a page is used its last-access is unobservable, so
    // OnStepComputed records one tick per group instead of writing O(pages) metadata and the
    // value is applied where a page can next become evictable — release, drop, or consume.
    Tick last_touch = 0;
  };
  struct RequestKv {
    std::vector<GroupState> groups;
    // Modality subsequences accumulated as tokens are computed (shared by same-scope groups;
    // text_tokens is only maintained when a text-scoped group exists).
    std::vector<int32_t> image_tokens;
    std::vector<int32_t> text_tokens;
    int64_t computed_tokens = 0;
    // Cached NeededBytesFor value for the Fig. 16 accounting.
    int64_t needed_bytes = 0;
  };

  // Immutable per-request admission inputs, computed once (prompts never change) and reused
  // across re-admissions: the per-group prompt hash chains of OnAdmit's §5.2 scan, which
  // RegisterHashes reuses as the prompt blocks complete. Entries are dropped when the
  // request id retires (Release(finished) / OnRequestRetired); preempted requests keep theirs.
  struct AdmissionMemo {
    std::vector<std::vector<BlockHash>> group_hashes;
  };

  [[nodiscard]] RequestKv& StateOf(const Request& r);
  [[nodiscard]] AdmissionMemo BuildAdmissionMemo(const Request& r) const;
  // Fused, early-exiting replacement for BuildValidBitmaps + LongestCommonValidPrefix: scans
  // boundaries top-down and resolves block hits lazily, returning the identical boundary while
  // touching O(blocks) allocator lookups instead of materializing every per-group bitmap.
  // `resolvers` receives one BlockHitResolver per group holding every lookup the scan made,
  // so the caller can take references without probing those blocks again. With
  // JENGA_CHECK_ADMISSION set in the environment, every call is cross-checked against the
  // bitmap reference.
  [[nodiscard]] int64_t ResolveHitBoundary(const Request& r,
                                           const std::vector<std::vector<BlockHash>>& group_hashes,
                                           bool include_host,
                                           std::vector<BlockHitResolver>& resolvers) const;
  // Appends all_tokens[from, to) to the modality subsequence streams, one image run at a time
  // (nothing for a text-only request when no group is text-scoped).
  void ExtendModalityStreams(const Request& r, RequestKv& state, int64_t from, int64_t to);
  [[nodiscard]] uint64_t GroupSalt(int g) const { return GroupChainSalt(g); }
  // Target block-table size for group `g` once `prefix_tokens` tokens are computed.
  [[nodiscard]] int64_t TargetPages(const Request& r, const KvGroupSpec& group,
                                    int64_t prefix_tokens) const;
  // Per-group validity bitmaps over global block boundaries, as the hit scan sees them. With
  // `include_host` a block also counts as cached when it is host-resident in the offload tier
  // (the longest common valid prefix of that relaxation is the promotion target).
  [[nodiscard]] std::vector<std::vector<bool>> BuildValidBitmaps(
      const Request& r, const std::vector<std::vector<BlockHash>>& group_hashes,
      bool include_host) const;
  // Second-chance pass over the admission hash chains: pulls host-resident pages back onto
  // the GPU where they can extend the hit prefix (runs before the hit scan).
  void PromoteHostHits(const Request& r, const std::vector<std::vector<BlockHash>>& group_hashes,
                       Tick now);
  // Re-materializes one host-resident page of group `g` on the GPU so the regular hit logic
  // finds it. Returns true when the block is now a GPU cache hit.
  [[nodiscard]] bool TryPromoteHostBlock(int g, BlockHash hash, int64_t prefix_length,
                                         RequestId rid, Tick now);
  [[nodiscard]] uint64_t StateFingerprint(const RequestKv& state) const;
  // Chain value of `block` of group `g` given the previous one: the memoized prompt chain when
  // `memo` covers the block, else ExtendBlockHash over `block_tokens`. With
  // JENGA_CHECK_ADMISSION set, memoized values are re-derived and compared.
  [[nodiscard]] static BlockHash NextChainHash(const AdmissionMemo* memo, size_t g, int64_t block,
                                               BlockHash previous,
                                               std::span<const int32_t> block_tokens);
  // Chain hashing for computed blocks. Blocks inside the prompt take their chain values from
  // `memo` (hashed once at admission) when one is given; later blocks extend the chain here.
  void RegisterHashes(Request& r, RequestKv& state, const AdmissionMemo* memo, Tick now);
  void SnapshotMambaCheckpoints(Request& r, RequestKv& state, int g, const AdmissionMemo* memo,
                                Tick now);
  void DropUnneededPages(RequestKv& state, int g, Tick now);
  // Applies a deferred-refresh group's pending last_touch to the blocks the eager per-step
  // refresh would have marked (capped at computed tokens — the vision group allocates ahead).
  // Must run before any of the group's pages can become evictable.
  void ApplyDeferredTouch(const Request& r, RequestKv& state, int g);
  void FreeConsumedVisionPages(const Request& r, RequestKv& state, Tick now);
  [[nodiscard]] RequestPages ViewOf(const Request& r, const RequestKv& state, int g) const;

  KvSpec spec_;
  KvSpec accounting_spec_;
  Options options_;
  JengaAllocator allocator_;
  std::vector<std::unique_ptr<LayerPolicy>> policies_;             // Per alloc-spec group.
  std::vector<std::unique_ptr<LayerPolicy>> accounting_policies_;  // Per accounting group.
  // Per alloc-spec group: true when the per-step eviction-metadata refresh is deferred to
  // GroupState::last_touch. Requires the policy's refresh to cover every resident page —
  // unconditionally (full prefix, image cache) or because out-of-range pages are dropped as
  // they fall out, which only happens in Jenga mode (sliding window, pyramid).
  std::vector<bool> defer_refresh_;
  int vision_group_ = -1;
  bool has_text_scope_ = false;
  std::unordered_map<RequestId, RequestKv> requests_;
  // Populated lazily when memoize_admission is on; survives preemption (requests_ does not).
  std::unordered_map<RequestId, AdmissionMemo> admission_memos_;
  int64_t total_cache_hit_tokens_ = 0;
  SwapManager* offload_ = nullptr;
  int manager_index_ = 0;
};

}  // namespace jenga

#endif  // JENGA_SRC_ENGINE_KV_MANAGER_H_
