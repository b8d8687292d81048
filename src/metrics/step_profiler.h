// Per-phase step profiler: wall-clock attribution for the StepOnce hot path (DESIGN.md §12).
//
// The engines wrap each scheduler phase in a scoped RAII timer. Detached (nullptr profiler,
// the default) every scope is a single pointer null test — the same discipline as the
// audit/fault/offload hooks — and the engine stays byte-identical to a build without the
// subsystem: the profiler only ever reads the host wall clock, never the engine's logical
// tick or simulated time, so attaching it cannot perturb scheduling, eviction order, or any
// golden output.
//
// Phase times are *exclusive*: scopes nest (e.g. AllocateForTokens inside the schedule loop),
// and a nested scope pauses its parent's clock, so the per-phase totals sum to the total
// stepped wall time and a share table always adds up to 100%.

#ifndef JENGA_SRC_METRICS_STEP_PROFILER_H_
#define JENGA_SRC_METRICS_STEP_PROFILER_H_

#include <array>
#include <cstddef>
#include <cstdint>

namespace jenga {

// One bucket per StepOnce phase. kEvictPreempt covers the whole Preempt() body — including
// the PR 9 TrimToComputed trim and the release-to-cache walk — so preemption-driven eviction
// work is attributed to preemption, never double-counted against commit/allocate (the
// micro.cache_churn_offload attribution rule; see step_profiler_test).
enum class StepPhase : int {
  kHookDispatch = 0,  // Audit/fault/elastic step-hook dispatch + host-pressure consult.
  kDeadlineExpiry,    // Deadline-heap check + expiry cancellations.
  kSchedule,          // Phase 1/2 scheduling bookkeeping (exclusive of nested phases).
  kHitScan,           // KvManager::OnAdmit — the §5.2 prefix-cache hit scan.
  kAllocate,          // CanAllocate + AllocateForTokens + RestoreFromSwap.
  kShedGate,          // UpdateShedGate watermark check + shed.
  kGpuSim,            // Cost-model evaluation: kv-read accounting + StepTime + swap stall.
  kEvictPreempt,      // Preempt(): trim, swap decision, release-to-cache, requeue.
  kCommit,            // Phase 4: progress commit, token append, finish/release.
  kOther,             // Untimed remainder (arrival scans, metrics recording).
};
inline constexpr int kNumStepPhases = static_cast<int>(StepPhase::kOther) + 1;

[[nodiscard]] const char* StepPhaseName(StepPhase phase);

class StepProfiler {
 public:
  struct PhaseStats {
    int64_t ns = 0;     // Exclusive wall time charged to this phase.
    int64_t calls = 0;  // Scope entries (kOther counts nothing; it is the remainder).
  };

  // Step bracket. Time between scopes inside a step is charged to kOther; time outside any
  // step (e.g. a governor-driven Preempt between steps) is charged only to the scope that
  // covers it, never to kOther.
  void BeginStep();
  void EndStep();
  void Reset();

  [[nodiscard]] const PhaseStats& phase(StepPhase p) const {
    return phases_[static_cast<size_t>(p)];
  }
  [[nodiscard]] int64_t steps() const { return steps_; }
  // Total wall time across all bracketed steps plus out-of-step scopes.
  [[nodiscard]] int64_t total_ns() const;
  // Fraction of total_ns() charged to `p`, in [0, 1] (0 when nothing was recorded).
  [[nodiscard]] double PhaseShare(StepPhase p) const;

  // RAII phase scope. Null profiler = one pointer test in the constructor and destructor.
  class Scope {
   public:
    Scope(StepProfiler* profiler, StepPhase phase) : profiler_(profiler) {
      if (profiler_ != nullptr) [[unlikely]] {
        profiler_->Push(phase);
      }
    }
    ~Scope() {
      if (profiler_ != nullptr) [[unlikely]] {
        profiler_->Pop();
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    StepProfiler* profiler_;
  };

  // RAII step bracket (BeginStep/EndStep around every StepOnce exit path).
  class StepScope {
   public:
    explicit StepScope(StepProfiler* profiler) : profiler_(profiler) {
      if (profiler_ != nullptr) [[unlikely]] {
        profiler_->BeginStep();
      }
    }
    ~StepScope() {
      if (profiler_ != nullptr) [[unlikely]] {
        profiler_->EndStep();
      }
    }
    StepScope(const StepScope&) = delete;
    StepScope& operator=(const StepScope&) = delete;

   private:
    StepProfiler* profiler_;
  };

 private:
  friend class Scope;
  void Push(StepPhase phase);
  void Pop();
  void Charge(int64_t now_ns);

  static constexpr int kMaxDepth = 8;

  std::array<PhaseStats, kNumStepPhases> phases_{};
  std::array<StepPhase, kMaxDepth> stack_{};
  int depth_ = 0;
  bool in_step_ = false;
  int64_t mark_ns_ = 0;  // Wall clock up to which elapsed time has been charged.
  int64_t steps_ = 0;
};

}  // namespace jenga

#endif  // JENGA_SRC_METRICS_STEP_PROFILER_H_
