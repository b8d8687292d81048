// Speculative decoding (§6.1, Fig. 19): a draft model proposes `propose_len` tokens per macro
// step and the target model verifies them in one pass. Both models keep KV for every sequence
// token, so the memory manager must serve two different per-token sizes at once. Three
// strategies are compared:
//
//   kJenga      — one two-level allocator over the merged per-group spec of both models,
//   kVllmMax    — PagedAttention with a uniform page sized for the large model; draft KV
//                 wastes (target − draft) bytes per token,
//   kVllmManual — SmartSpec's static pool split, one homogeneous allocator per model:
//                 optimal for pure self-attention, blind to per-layer freeing.

#ifndef JENGA_SRC_ENGINE_SPEC_DECODE_H_
#define JENGA_SRC_ENGINE_SPEC_DECODE_H_

#include <cstdint>
#include <ostream>
#include <unordered_set>
#include <vector>

#include "src/common/random.h"
#include "src/engine/engine_core.h"
#include "src/engine/gpu.h"
#include "src/fault/fault_injector.h"
#include "src/model/model_config.h"
#include "src/offload/swap_manager.h"

namespace jenga {

enum class SpecStrategy { kJenga, kVllmMax, kVllmManual };

[[nodiscard]] const char* SpecStrategyName(SpecStrategy strategy);

struct SpecDecodeConfig {
  ModelConfig target;
  ModelConfig draft;
  GpuSpec gpu;
  SpecStrategy strategy = SpecStrategy::kJenga;
  int propose_len = 4;
  double acceptance_rate = 0.7;
  int tokens_per_page = 16;
  uint64_t seed = 1;
  int64_t pool_bytes_override = 0;
  int max_num_seqs_override = 0;
  // Host-memory KV offload tier (disabled by default). With multiple managers the swap set
  // covers both models' KV; all managers must restore together.
  OffloadConfig offload;
  // Fault injection (empty plan = disabled) and the load-shedding admission gate; see
  // EngineConfig for semantics.
  FaultConfig fault;
  int shed_after_blocked_steps = 0;
  double shed_occupancy_watermark = 0.95;
  // kVllmManual only: fraction of the (post-reservation) pool given to the draft model's
  // manager. Negative (default) uses the SmartSpec byte-proportional split; the adaptive
  // governor (src/elastic) starts from whichever split is configured and rebalances at run
  // time via ShiftSplit.
  double manual_draft_fraction = -1.0;
};

// Draft+verify macro-step policy over one merged manager or SmartSpec's [target, draft]
// pair (the request lifecycle is EngineCore's).
class SpecDecodeEngine final : public EngineCore {
 public:
  explicit SpecDecodeEngine(SpecDecodeConfig config);

  bool StepOnce() override;

  [[nodiscard]] const SpecDecodeConfig& config() const { return config_; }

  // --- Elastic split operations (MemoryGovernor entry points; see src/elastic) ---

  // Installs/removes the step-boundary hook: the adaptive draft/target split policy
  // (nullptr detaches; detached = byte-identical).
  void set_step_hook(StepHook<SpecDecodeEngine>* hook) { step_hook_ = hook; }
  // Moves roughly `bytes` of pool capacity from manager `from` to manager `to` by draining
  // trailing large pages from one homogeneous pool and appending them to the other (the
  // audited adaptive draft/target rebalance, kVllmManual only). Both fault sites
  // (pool_shrink_drain for the donor, pool_grow for the recipient) are consulted before any
  // mutation, so a fire rolls the whole transfer back with zero net change. Page sizes
  // differ between the pools; the recipient gains ⌊freed / its page size⌋ pages and the
  // sub-page remainder is re-grown back onto the donor rather than stranded. Returns the
  // bytes actually transferred (0 on rollback, a pinned donor tail, or a non-manual split).
  int64_t ShiftSplit(int from, int to, int64_t bytes);

 private:
  struct Emit {
    RequestId id;
    int64_t tokens;
  };

  void DumpPolicyState(std::ostream& os) const override;

  SpecDecodeConfig config_;
  GpuSim target_gpu_;
  GpuSim draft_gpu_;
  StepHook<SpecDecodeEngine>* step_hook_ = nullptr;  // Not owned; nullptr = no governor.
  Rng rng_;
  // Per-step scratch (cleared each step; capacity reused): requests that prefilled or
  // restored this step (they do not decode until the next one), and the decode emits.
  std::unordered_set<RequestId> prefilled_buf_;
  std::vector<Emit> emits_buf_;
};

}  // namespace jenga

#endif  // JENGA_SRC_ENGINE_SPEC_DECODE_H_
