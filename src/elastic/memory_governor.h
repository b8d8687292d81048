// Elastic memory governor: runtime pool elasticity for a serving engine. The governor
// attaches to an Engine (or SpecDecodeEngine) as its step-boundary hook and owns three
// concerns the engine itself stays agnostic of:
//
//   1. External capacity events — RequestPoolDelta() grows/shrinks the KV pool a few pages
//      per step (modeling another tenant claiming or releasing GPU memory), and
//      RequestHotSwap() repartitions the LCM layout for a new model as quiesce → rebuild →
//      commit, with full rollback when the repartition_commit fault site fires.
//   2. A watermark-driven pressure ladder replacing the engine's single shed gate:
//      park-to-host → shed → repartition-to-fallback, climbed one rung per action with a
//      cooldown between actions and a hysteresis band (engage at/above the high watermark,
//      release strictly below the low one) so the ladder cannot oscillate.
//   3. The adaptive draft/target split (spec-decode mode): when one pool sits at/above the
//      high watermark while the other has slack below the low one, capacity shifts toward
//      the pressured pool via SpecDecodeEngine::ShiftSplit (the Fig. 19 SmartSpec
//      comparison against static splits).
//
// Every transition consults the seeded FaultInjector sites (pool_grow, pool_shrink_drain,
// repartition_commit) inside the engine primitives; a fired site rolls the transition back
// with zero net change and the resize ledger in EngineMetrics records the attempt. Detached,
// the governor costs the engines one null test per step — goldens stay byte-identical.

#ifndef JENGA_SRC_ELASTIC_MEMORY_GOVERNOR_H_
#define JENGA_SRC_ELASTIC_MEMORY_GOVERNOR_H_

#include <cstdint>
#include <optional>

#include "src/engine/engine.h"
#include "src/engine/spec_decode.h"
#include "src/model/model_config.h"

namespace jenga {

// Hysteresis band shared by the ladder and the adaptive split: engaged at or above `high`,
// released strictly below `low`, previous state preserved inside the band. Exact-boundary
// semantics are load-bearing (governor_test pins them): value == high engages, value == low
// stays engaged.
class HysteresisGate {
 public:
  HysteresisGate(double low, double high) : low_(low), high_(high) {}

  bool Update(double value) {
    if (engaged_) {
      if (value < low_) {
        engaged_ = false;
      }
    } else if (value >= high_) {
      engaged_ = true;
    }
    return engaged_;
  }

  [[nodiscard]] bool engaged() const { return engaged_; }

 private:
  double low_ = 0.0;
  double high_ = 1.0;
  bool engaged_ = false;
};

struct GovernorConfig {
  // Pressure band: the ladder engages at/above `high_watermark` and releases strictly below
  // `low_watermark`.
  double high_watermark = 0.92;
  double low_watermark = 0.80;
  // Minimum governor steps between two actions (applies to ladder rungs, external deltas,
  // and split shifts alike).
  int cooldown_steps = 4;
  // Pages applied per step toward an outstanding RequestPoolDelta.
  int32_t grow_step_pages = 1;
  int32_t shrink_step_pages = 1;
  // Spec-decode mode: bytes moved per adaptive split shift (0 = one donor large page).
  int64_t split_shift_bytes = 0;
  // Rollback retries before an outstanding hot swap is abandoned (the fault plan decides
  // how often repartition_commit fires; an every=1 plan must not wedge the engine).
  int max_hot_swap_retries = 8;
  // Ladder rung 3 (Engine mode): repartition to this model under sustained pressure. Unset
  // disables the rung. 0 pool bytes derives the pool from the GPU spec and the new weights.
  std::optional<ModelConfig> fallback_model;
  int64_t fallback_pool_bytes = 0;
};

class MemoryGovernor final : public StepHook<Engine>, public StepHook<SpecDecodeEngine> {
 public:
  explicit MemoryGovernor(GovernorConfig config = {});

  // Installs this governor as the engine's step hook. One governor drives one engine.
  void AttachTo(Engine& engine);
  void AttachTo(SpecDecodeEngine& engine);
  void DetachFrom(Engine& engine);
  void DetachFrom(SpecDecodeEngine& engine);

  // Queues an external capacity event: positive = grow the pool by `pages`, negative =
  // shrink. Applied a few pages per step at step boundaries; shrinks blocked by a pinned
  // tail retry after the ladder frees tail pages. Deltas accumulate.
  void RequestPoolDelta(int32_t pages) { pending_pool_delta_ += pages; }

  // Queues a model hot swap, applied at the next step boundary (the quiesce point). The
  // engine advertises `elastic_draining` to the fleet router until the swap commits or is
  // abandoned after max_hot_swap_retries rollbacks.
  void RequestHotSwap(ModelConfig model, int64_t pool_bytes = 0);

  void OnStepBoundary(Engine& engine) override;
  void OnStepBoundary(SpecDecodeEngine& engine) override;

  struct Stats {
    int64_t park_actions = 0;         // Ladder rung 1 preemptions.
    int64_t shed_actions = 0;         // Ladder rung 2 sheds.
    int64_t repartition_actions = 0;  // Ladder rung 3 fallback repartitions committed.
    int64_t grow_actions = 0;         // External-delta grow steps committed.
    int64_t shrink_actions = 0;       // External-delta shrink steps committed.
    int64_t split_shifts = 0;         // Adaptive draft/target shifts committed.
    int64_t engagements = 0;          // Low→high crossings (ladder arm events).
    int64_t escalations = 0;          // Rung advances while pressure persisted.
    int64_t hot_swaps_applied = 0;
    int64_t hot_swap_rollbacks = 0;   // Includes swaps later retried successfully.
    int64_t hot_swaps_abandoned = 0;  // Retry budget exhausted; old layout kept.
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] bool engaged() const { return gate_.engaged(); }
  [[nodiscard]] int rung() const { return rung_; }
  [[nodiscard]] int32_t pending_pool_delta() const { return pending_pool_delta_; }
  [[nodiscard]] bool hot_swap_pending() const { return pending_swap_.has_value(); }

 private:
  struct PendingSwap {
    ModelConfig model;
    int64_t pool_bytes = 0;
    int retries = 0;
  };

  // True when an action was taken (cooldown restarts).
  [[nodiscard]] bool TryRung(Engine& engine, int rung);
  [[nodiscard]] int64_t SplitShiftBytes(const SpecDecodeEngine& engine, int donor) const;

  GovernorConfig config_;
  HysteresisGate gate_;
  int rung_ = 0;
  bool acted_since_engage_ = false;
  int cooldown_ = 0;
  int32_t pending_pool_delta_ = 0;
  std::optional<PendingSwap> pending_swap_;
  bool fallback_applied_ = false;
  Stats stats_;
};

}  // namespace jenga

#endif  // JENGA_SRC_ELASTIC_MEMORY_GOVERNOR_H_
