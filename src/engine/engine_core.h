// The request-lifecycle core both serving engines share. `Engine` (continuous batching) and
// `SpecDecodeEngine` (draft+verify macro steps) differ only in how a step schedules and
// executes work; everything a request goes through around that — submission, the scheduler
// queues, deadlines, load shedding, cancellation, preemption with its swap-vs-recompute
// choice, swap-set re-admission, retirement, metrics, and the offload/fault/profiler
// attachments — lives here once, over N KvManagers. N is 1 for `Engine` and for the merged
// or uniform-page spec strategies, 2 for SmartSpec's static split: one memory manager serves
// heterogeneous KV groups whatever the decoding scenario (DESIGN.md "One engine core").

#ifndef JENGA_SRC_ENGINE_ENGINE_CORE_H_
#define JENGA_SRC_ENGINE_ENGINE_CORE_H_

#include <cstdint>
#include <memory>
#include <ostream>
#include <unordered_map>
#include <vector>

#include "src/common/check.h"
#include "src/engine/deadline_heap.h"
#include "src/engine/kv_manager.h"
#include "src/engine/request.h"
#include "src/engine/request_queue.h"
#include "src/fault/fault_injector.h"
#include "src/metrics/metrics.h"
#include "src/metrics/step_profiler.h"
#include "src/offload/swap_manager.h"

namespace jenga {

// Step-boundary hook: the attach point for the elastic memory governor (src/elastic). Called
// at the top of every StepOnce with work pending — the engine's quiesce point: no request is
// mid-step, so the hook may preempt, shed, resize the pool, or repartition. Detached
// (nullptr, the default) costs one null test per step and keeps the engine byte-identical to
// a build without the subsystem — the same discipline as the audit/fault/offload hooks.
template <typename E>
class StepHook {
 public:
  virtual ~StepHook() = default;
  virtual void OnStepBoundary(E& engine) = 0;
};

class EngineCore {
 public:
  virtual ~EngineCore() = default;
  EngineCore(const EngineCore&) = delete;
  EngineCore& operator=(const EngineCore&) = delete;

  // Enqueues a request (arrival_time may be in the future).
  void Submit(Request request);

  // Executes one scheduler step; returns false when no work remains.
  virtual bool StepOnce() = 0;

  // Runs until every submitted request finished (or `max_steps` as a runaway guard).
  void RunToCompletion(int64_t max_steps = 2000000);

  // Aborts a request in any state — waiting, running, preempted, or swapped out to the host
  // tier — with full resource reclamation (GPU pages in every manager, allocator affinity
  // state, host swap-set bytes). Safe at any point between steps. Returns false when the id
  // is unknown or the request already finished.
  bool CancelRequest(RequestId id);

  // Ids of every unfinished request in deterministic scheduler order (running queue first,
  // then waiting) — the harvest order a fleet supervisor re-routes work in on replica death.
  [[nodiscard]] std::vector<RequestId> ActiveRequests() const;

  // Writes a human-readable state dump (queues, pool occupancy, per-request progress, fault
  // counters) — the non-convergence diagnostic, also handy from test failures.
  void DumpStateForDebug(std::ostream& os) const;

  // Pressure-ladder rung 1: preempts the newest running request (parking its KV to the host
  // tier when the swap crossover accepts it). Refuses to park the only runner. Returns true
  // if a request was preempted.
  bool ParkNewestRunning();
  // Pressure-ladder rung 2: sheds (fails) the oldest arrived waiting request.
  bool ShedOldestWaiting();

  [[nodiscard]] double now() const { return now_; }
  [[nodiscard]] const EngineMetrics& metrics() const { return metrics_; }
  // The governor's ladder counters live in the same EngineMetrics the engine owns.
  [[nodiscard]] EngineMetrics& metrics_mutable() { return metrics_; }
  [[nodiscard]] const Request& request(RequestId id) const;
  [[nodiscard]] int num_running() const { return static_cast<int>(running_.size()); }
  [[nodiscard]] int num_waiting() const { return static_cast<int>(waiting_.size()); }
  [[nodiscard]] int num_managers() const { return static_cast<int>(managers_.size()); }
  [[nodiscard]] const KvManager& manager(int i) const { return *managers_[static_cast<size_t>(i)]; }
  // Mutable access for the audit layer (tests only).
  [[nodiscard]] KvManager& manager_mutable(int i) { return *managers_[static_cast<size_t>(i)]; }
  // Occupancy of one manager's pool in [0, 1] (0 on an empty pool). O(1): the governor
  // probes it on every non-cooldown step.
  [[nodiscard]] double PoolOccupancyOf(int manager_index) const {
    return managers_[static_cast<size_t>(manager_index)]->allocator().Occupancy();
  }
  // nullptr when the offload tier is disabled.
  [[nodiscard]] const SwapManager* swap() const { return swap_.get(); }
  // Mutable access for the audit layer (tests only); nullptr when the tier is disabled.
  [[nodiscard]] SwapManager* swap_mutable() { return swap_.get(); }
  // nullptr when no faults are configured.
  [[nodiscard]] FaultInjector* fault_injector() { return fault_.get(); }
  // Installs/removes the per-phase step profiler (nullptr detaches; detached = one null test
  // per phase scope). The profiler reads only the host wall clock — attaching it never
  // touches logical ticks or simulated time, so scheduling stays byte-identical (§12).
  void set_step_profiler(StepProfiler* profiler) { prof_ = profiler; }

 protected:
  // The shed-gate settings come from the owning engine's config (see EngineConfig).
  EngineCore(int shed_after_blocked_steps, double shed_occupancy_watermark)
      : shed_after_blocked_steps_(shed_after_blocked_steps),
        shed_occupancy_watermark_(shed_occupancy_watermark) {}

  // Outcome of a swap-set re-admission attempt for the head of the waiting queue.
  enum class SwapAdmit {
    kFallthrough,  // No usable swap set: take the normal (recompute) admission path.
    kAdmitted,     // Restored in every manager and moved to running_.
    kBlocked,      // Cannot restore right now: head-of-line blocking, stop admitting.
  };

  // Creates the offload tier (attached to every manager, in index order) and the fault
  // injector from the engine's config, after the managers exist. The engine wires the
  // returned injector (nullptr when no faults are configured) into its GPU cost model.
  FaultInjector* AttachTiers(const OffloadConfig& offload, const SwapCostParams& cost,
                             const FaultConfig& fault);

  // Step preamble shared by both step policies, run inside the step's profiler scope: the
  // step-boundary hook (it may drain the last pending work — returns false then), deadline
  // expiry, and the host memory-pressure fault site.
  template <typename E>
  [[nodiscard]] bool BeginStep(StepHook<E>* hook, E& engine) {
    if (hook != nullptr) [[unlikely]] {
      StepProfiler::Scope prof_scope(prof_, StepPhase::kHookDispatch);
      hook->OnStepBoundary(engine);
      if (running_.empty() && waiting_.empty()) {
        return false;
      }
    }
    if (has_deadlines_) [[unlikely]] {
      StepProfiler::Scope prof_scope(prof_, StepPhase::kDeadlineExpiry);
      ExpireDeadlines();
    }
    if (fault_ != nullptr && swap_ != nullptr) [[unlikely]] {
      StepProfiler::Scope prof_scope(prof_, StepPhase::kHookDispatch);
      swap_->OnEngineStep();  // Host memory-pressure site (forced shrink / degrade).
    }
    return true;
  }

  [[nodiscard]] Request& Get(RequestId id) {
    const auto it = requests_.find(id);
    JENGA_CHECK(it != requests_.end());
    return it->second;
  }

  // --- All-manager helpers: a request holds KV in every manager at once ---

  // Pages taken by earlier managers stay with the request on failure; the caller resolves
  // it by preempting (which releases everything in all managers).
  [[nodiscard]] bool AllocateAll(Request& r, int64_t tokens) {
    for (const auto& manager : managers_) {
      if (!manager->AllocateForTokens(r, tokens, tick_)) {
        return false;
      }
    }
    return true;
  }
  [[nodiscard]] bool CanAllocateAll(const Request& r, int64_t tokens) const {
    for (const auto& manager : managers_) {
      if (!manager->CanAllocate(r, tokens)) {
        return false;
      }
    }
    return true;
  }
  void ReleaseAll(Request& r, bool finished = false) {
    for (const auto& manager : managers_) {
      manager->Release(r, tick_, finished);
    }
  }
  void StepComputedAll(Request& r) {
    for (const auto& manager : managers_) {
      manager->OnStepComputed(r, tick_);
    }
  }
  void AdmitAll(Request& r) {
    for (const auto& manager : managers_) {
      manager->OnAdmit(r, tick_);
    }
  }
  [[nodiscard]] int64_t DecodeKvReadBytesAll(const Request& r) const {
    int64_t bytes = 0;
    for (const auto& manager : managers_) {
      bytes += manager->DecodeKvReadBytes(r);
    }
    return bytes;
  }

  // Moves a running request back to the head of the waiting queue: trims retained-but-
  // uncomputed pages, takes the swap-vs-recompute decision over all managers' footprints,
  // and releases its KV. `allow_swap` false forces the recompute path (repartition quiesce:
  // swap-set fingerprints would bind the request to the layout being replaced).
  void Preempt(RequestId id, bool allow_swap = true);
  void FinishRequest(Request& r, bool failed);
  // Restores the head-of-queue request `r` from its host swap set into every manager (billed
  // to kAllocate). `nothing_else_runnable` turns a failed restore into a fallback instead of
  // a block (it could never succeed). kAdmitted leaves `r` running and still in waiting_.
  [[nodiscard]] SwapAdmit TryAdmitFromSwap(Request& r, bool nothing_else_runnable);

  // Shed gate, run once per step after admissions: counts the consecutive steps the head of
  // the waiting queue stayed blocked and sheds it once the configured threshold is reached.
  // Inlined disabled path — configs without a shed gate branch out before the call.
  void UpdateShedGate(bool head_blocked) {
    if (!head_blocked) {
      head_blocked_steps_ = 0;
      return;
    }
    head_blocked_steps_ += 1;
    StepProfiler::Scope prof_shed(prof_, StepPhase::kShedGate);
    if (shed_after_blocked_steps_ <= 0 || head_blocked_steps_ < shed_after_blocked_steps_ ||
        waiting_.empty()) {
      return;
    }
    MaybeShedHeadSlow();
  }
  // Consults an elastic fault site (pool_grow, pool_shrink_drain, repartition_commit). The
  // sites sit before any mutation, so a fire means "nothing happened": it counts one
  // rollback in `*rollbacks` and the caller returns with zero net change.
  [[nodiscard]] bool ElasticFaultFires(FaultSite site, int64_t* rollbacks);
  // Advances the clock by a step's compute time plus the PCIe stall it could not hide.
  void AdvanceClock(double compute_time) {
    double step_time = compute_time;
    if (swap_ != nullptr) {
      const double stall = swap_->ConsumeStall(compute_time);
      metrics_.swap_stall_time += stall;
      step_time += stall;
    }
    now_ += step_time;
  }
  // Moves an admitted request into the running queue.
  void StartRunning(Request& r) {
    r.state = RequestState::kRunning;
    if (r.first_scheduled_time < 0.0) {
      r.first_scheduled_time = now_;
    }
    running_.PushBack(r.id);
  }
  // Copies injector/swap recovery counters into metrics_ (idempotent assignments). Inlined
  // null path: with neither tier configured this is two pointer tests and no call — it runs
  // on every step-exit path, so the common no-fault/no-offload config must not pay for it.
  void SyncFaultMetrics() {
    if (fault_ != nullptr || swap_ != nullptr) [[unlikely]] {
      SyncFaultMetricsSlow();
    }
  }

  // Deterministic pseudo-token for generated output (ids live above the prompt vocabulary so
  // that decode blocks of different requests never alias by accident).
  [[nodiscard]] static int32_t PseudoToken(RequestId id, int64_t position);

  // Engine-specific lines of DumpStateForDebug, after the shed line.
  virtual void DumpPolicyState(std::ostream& os) const = 0;

  // One merged/uniform manager, or [target, draft] for SmartSpec's static split.
  std::vector<std::unique_ptr<KvManager>> managers_;
  std::unique_ptr<SwapManager> swap_;
  std::unique_ptr<FaultInjector> fault_;  // nullptr when no faults are configured.
  StepProfiler* prof_ = nullptr;          // Not owned; nullptr = no profiler attached.
  int max_batched_tokens_ = 0;
  int max_num_seqs_ = 0;

  std::unordered_map<RequestId, Request> requests_;
  // Indexed FIFOs (see request_queue.h): iteration order matches the deque/vector they
  // replaced, with O(1) mid-queue removal on preempt/cancel/finish.
  RequestQueue waiting_;
  RequestQueue running_;

  double now_ = 0.0;
  Tick tick_ = 0;
  EngineMetrics metrics_;

 private:
  // Cancels every unfinished request whose deadline has passed (same path as CancelRequest).
  // O(1) when nothing expired (deadline-heap top check), O(log n) per single expiry; a step
  // that expires several requests at once re-collects them in queue order so the cancel
  // order — and every downstream release/eviction tie-break — matches the legacy full scan.
  void ExpireDeadlines();
  // JENGA_CHECK_DEADLINES fuzz arm: verifies the heap-collected expired set (already in
  // expired_buf_) against the brute-force queue scan.
  void CheckDeadlineHeapAgainstScan();
  // Appends the queue-order scan of expired requests (waiting first, then running) to `out`.
  void CollectExpiredInQueueOrder(std::vector<RequestId>* out) const;
  void MaybeShedHeadSlow();
  void SyncFaultMetricsSlow();
  // Marks a waiting request shed and fails it (it must already be out of waiting_).
  void ShedWaiting(Request& r);

  const int shed_after_blocked_steps_;
  const double shed_occupancy_watermark_;
  int head_blocked_steps_ = 0;
  bool has_deadlines_ = false;
  // One entry per submitted request with a deadline (deadlines are immutable, so preempt and
  // re-admit need no updates); entries of requests that finish early are discarded lazily.
  DeadlineHeap deadlines_;
  // Scratch for ExpireDeadlines (cleared each use; capacity reused).
  std::vector<RequestId> expired_buf_;
};

}  // namespace jenga

#endif  // JENGA_SRC_ENGINE_ENGINE_CORE_H_
