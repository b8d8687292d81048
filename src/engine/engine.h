// The serving-engine simulator: vLLM-style continuous batching with chunked prefill,
// admission control, preemption-by-recomputation, prefix caching, and (for multimodal models)
// vision-encoder scheduling. The engine is deterministic: logical ticks order LRU decisions
// and the GPU cost model advances simulated wall-clock time.

#ifndef JENGA_SRC_ENGINE_ENGINE_H_
#define JENGA_SRC_ENGINE_ENGINE_H_

#include <cstdint>
#include <memory>
#include <ostream>
#include <vector>

#include "src/engine/engine_core.h"
#include "src/engine/gpu.h"
#include "src/engine/kv_manager.h"
#include "src/fault/fault_injector.h"
#include "src/model/model_config.h"
#include "src/offload/swap_manager.h"

namespace jenga {

struct EngineConfig {
  ModelConfig model;
  GpuSpec gpu;
  int tokens_per_page = 16;
  bool enable_prefix_caching = true;
  // Admission fast path: memoize per-request prompt hash chains and modality streams across
  // re-admissions (KvManager::Options::memoize_admission). Off = rebuild-from-scratch
  // reference behavior, which the memoized path must match bit for bit (differential tests).
  bool memoize_admission = true;
  // True → Jenga memory management; false → PagedAttention-style homogeneous baseline.
  bool jenga = true;
  // Vision-embedding cache (Jenga only). Engines without it re-run the vision encoder on
  // every chunked-prefill step that consumes image tokens (§7.4).
  bool vision_cache = true;
  // Fraction of the requested output an engine actually generates (TGI lacks --ignore-eos
  // and stops early, Fig. 15).
  double output_fraction = 1.0;
  // Scales the KV pool (engine profiles differ slightly in reserved memory).
  double memory_fraction = 1.0;
  // Test overrides (0 = use the GPU defaults).
  int64_t pool_bytes_override = 0;
  int max_batched_tokens_override = 0;
  int max_num_seqs_override = 0;
  // Record a memory sample every N steps (0 disables).
  int memory_sample_every = 1;
  // Host-memory KV offload tier (disabled by default; when disabled the engine is
  // byte-identical to the tier-less build).
  OffloadConfig offload;
  // Fault injection (empty plan = disabled; the engine then constructs no injector and all
  // consult sites short-circuit, keeping behavior byte-identical to the fault-less build).
  FaultConfig fault;
  // Load-shedding admission gate: when the head of the waiting queue has been blocked for
  // this many consecutive steps while pool occupancy is at or above the watermark, fail it
  // (vLLM-style abort) instead of letting it starve behind long-running requests.
  // 0 disables the gate (default).
  int shed_after_blocked_steps = 0;
  double shed_occupancy_watermark = 0.95;
};

// Named engine profiles used in the Fig. 15 comparison.
[[nodiscard]] EngineConfig VllmProfile(ModelConfig model, GpuSpec gpu);
[[nodiscard]] EngineConfig SglangProfile(ModelConfig model, GpuSpec gpu);
[[nodiscard]] EngineConfig TgiProfile(ModelConfig model, GpuSpec gpu);
[[nodiscard]] EngineConfig JengaProfile(ModelConfig model, GpuSpec gpu);

// Continuous-batching step policy over one KvManager (the request lifecycle is EngineCore's).
class Engine final : public EngineCore {
 public:
  explicit Engine(EngineConfig config);

  bool StepOnce() override;

  [[nodiscard]] KvManager& kv() { return *managers_[0]; }
  [[nodiscard]] const KvManager& kv() const { return *managers_[0]; }
  [[nodiscard]] const EngineConfig& config() const { return config_; }
  [[nodiscard]] int64_t weight_bytes() const { return config_.model.WeightBytes(); }
  [[nodiscard]] int64_t reserved_bytes() const { return reserved_bytes_; }

  // --- Elastic pool operations (MemoryGovernor entry points; see src/elastic) ---

  // Installs/removes the step-boundary hook (nullptr detaches; detached = byte-identical).
  void set_step_hook(StepHook<Engine>* hook) { step_hook_ = hook; }
  // Pool occupancy in [0, 1]: 1 − unallocated/pool (0 on an empty pool).
  [[nodiscard]] double PoolOccupancy() const { return PoolOccupancyOf(0); }
  [[nodiscard]] int32_t PoolPages() const;
  // Audited grow: appends `pages` large pages to the pool. The pool_grow fault site is
  // consulted BEFORE any mutation, so a fire rolls the attempt back with zero net change.
  // Returns pages added (0 on rollback).
  int32_t GrowKvPool(int32_t pages);
  // Audited shrink: drains up to `pages` trailing large pages (cached content parks through
  // the eviction sink) and removes them. Consults pool_shrink_drain before mutating.
  // Returns pages removed (0 on rollback or a pinned tail).
  int32_t ShrinkKvPool(int32_t pages);
  // LCM repartition for a model hot-swap: quiesce (preempt every running request via the
  // recompute path — swap-set fingerprints are tied to the old layout), build the new
  // layout's KvManager, consult repartition_commit, then either commit (install the new
  // manager, flush host-tier state, rebuild the GPU cost model for the new weights) or roll
  // back (the old layout stays live and the quiesced requests simply re-admit). No request
  // is aborted on either path. `new_pool_bytes` 0 derives the pool from the GPU spec and
  // the new model's weights. Returns true on commit.
  bool RepartitionKvPool(const ModelConfig& new_model, int64_t new_pool_bytes = 0);
  // Advertised to the fleet router while a repartition/drain is in flight: a draining
  // replica routes like a saturated one (DecideRoute spills around it).
  void set_elastic_draining(bool draining) { elastic_draining_ = draining; }
  [[nodiscard]] bool elastic_draining() const { return elastic_draining_; }

 private:
  struct Scheduled {
    RequestId id = kNoRequest;
    int64_t tokens = 0;
    bool was_prefill = false;
  };

  // Builds the KV manager of `model`'s layout on `gpu`; `pool_override` > 0 replaces the
  // pool derived from the GPU spec. `*reserved` receives the bytes held back from the pool
  // (runtime reservation plus the homogeneous baseline's static Mamba state). The
  // constructor and a repartition's replacement layout use the same computation.
  [[nodiscard]] std::unique_ptr<KvManager> BuildKvManager(const ModelConfig& model,
                                                          const GpuSim& gpu,
                                                          int64_t pool_override,
                                                          int64_t* reserved) const;
  [[nodiscard]] int64_t EffectiveOutputLen(const Request& r) const;
  [[nodiscard]] double MaybeEncodeVision(Request& r, int64_t chunk_begin, int64_t chunk_end);
  void DumpPolicyState(std::ostream& os) const override;

  EngineConfig config_;
  GpuSim gpu_;
  StepHook<Engine>* step_hook_ = nullptr;  // Not owned; nullptr = no governor attached.
  bool elastic_draining_ = false;
  int64_t reserved_bytes_ = 0;
  // Scratch for StepOnce's schedule (cleared each step; capacity reused).
  std::vector<Scheduled> scheduled_buf_;
};

}  // namespace jenga

#endif  // JENGA_SRC_ENGINE_ENGINE_H_
