#include "src/engine/engine_core.h"

#include <algorithm>
#include <cstdlib>
#include <iostream>

#include "src/common/check.h"

namespace jenga {

namespace {

// Differential audit of the deadline heap against the brute-force queue scan. Off by default
// (the reference pass is the O(requests) scan the heap exists to avoid); the fuzz stage
// enables it.
bool DeadlineHeapAuditEnabled() {
  static const bool enabled = std::getenv("JENGA_CHECK_DEADLINES") != nullptr;
  return enabled;
}

}  // namespace

int32_t EngineCore::PseudoToken(RequestId id, int64_t position) {
  uint64_t x = static_cast<uint64_t>(id) * 0x9E3779B97F4A7C15ull + static_cast<uint64_t>(position);
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDull;
  x ^= x >> 29;
  return static_cast<int32_t>(50000 + (x % 1000000));
}

FaultInjector* EngineCore::AttachTiers(const OffloadConfig& offload, const SwapCostParams& cost,
                                       const FaultConfig& fault) {
  if (offload.enabled) {
    swap_ = std::make_unique<SwapManager>(offload, cost);
    for (size_t m = 0; m < managers_.size(); ++m) {
      managers_[m]->AttachOffload(swap_.get(), static_cast<int>(m));
    }
  }
  if (fault.enabled()) {
    fault_ = std::make_unique<FaultInjector>(fault);
    if (swap_ != nullptr) {
      swap_->SetFaultInjector(fault_.get());
    }
  }
  return fault_.get();
}

void EngineCore::Submit(Request request) {
  JENGA_CHECK(request.state == RequestState::kWaiting);
  const RequestId id = request.id;
  JENGA_CHECK(!requests_.contains(id)) << "duplicate request id " << id;
  if (request.deadline >= 0.0) {
    has_deadlines_ = true;
    deadlines_.Push(request.deadline, id);
  }
  requests_.emplace(id, std::move(request));
  waiting_.PushBack(id);
}

const Request& EngineCore::request(RequestId id) const {
  const auto it = requests_.find(id);
  JENGA_CHECK(it != requests_.end());
  return it->second;
}

void EngineCore::Preempt(RequestId id, bool allow_swap) {
  // The whole preemption — TrimToComputed, the swap decision, and the release-to-cache walk —
  // bills to kEvictPreempt, pausing whatever scope drove it (e.g. kAllocate when an
  // allocation failure preempts from the back). In particular the trim is preemption work,
  // not eviction/commit work (micro.cache_churn_offload attribution).
  StepProfiler::Scope prof_scope(prof_, StepPhase::kEvictPreempt);
  Request& r = Get(id);
  // Return any retained-but-uncomputed chunk pages (injected step fault retry window, or a
  // decode allocation that failed in a later manager) before snapshotting: the swap
  // fingerprint and cost footprint must cover the committed state only.
  for (const auto& manager : managers_) {
    manager->TrimToComputed(r);
  }
  if (swap_ != nullptr && allow_swap) {
    SwapFootprint fp;
    fp.tokens = r.num_computed_tokens;
    for (const auto& manager : managers_) {
      const KvSwapFootprint kfp = manager->GetSwapFootprint(r);
      fp.swappable_bytes += kfp.swappable_bytes;
      fp.resident_bytes += kfp.resident_bytes;
      fp.drop_recompute_bytes += kfp.drop_recompute_bytes;
      fp.fingerprints.push_back(kfp.fingerprint);
    }
    // An injected transfer/host fault inside TryRecordSwapOut exhausts its retry budget and
    // reports non-OK; the fallback is the same recompute path a cost-crossover loss takes.
    if (swap_->ChoosePreemptMode(fp) == PreemptMode::kSwap &&
        swap_->TryRecordSwapOut(id, fp).ok()) {
      r.swapped_out = true;
      r.swapped_out_tokens = r.num_computed_tokens;
      metrics_.swap_out_events += 1;
    } else {
      metrics_.recomputed_tokens += r.num_computed_tokens;
    }
  } else {
    metrics_.recomputed_tokens += r.num_computed_tokens;
  }
  ReleaseAll(r);
  r.state = RequestState::kPreempted;
  r.preemptions += 1;
  r.num_computed_tokens = 0;
  r.vision_encoder_runs_this_admission = 0;
  running_.Erase(id);
  waiting_.PushFront(id);
  // Preempt can be driven from outside StepOnce (governor park); a swap-out that trips the
  // injected host-failure degrade must be visible in metrics without waiting for a step.
  SyncFaultMetrics();
}

void EngineCore::FinishRequest(Request& r, bool failed) {
  // A request can retire without a final Release(finished=true) (e.g. admission-failure abort
  // after an earlier preemption); drop its allocator affinity state and any host swap set
  // either way — both calls are idempotent.
  for (const auto& manager : managers_) {
    manager->OnRequestRetired(r.id);
  }
  if (swap_ != nullptr) {
    swap_->DropSwapSet(r.id);
  }
  r.state = RequestState::kFinished;
  r.failed = failed;
  r.finish_time = now_;
  RequestRecord record;
  record.id = r.id;
  record.prompt_len = r.prompt_len();
  record.output_len = r.num_generated;
  record.cached_prefix_tokens = r.cached_prefix_tokens;
  record.preemptions = r.preemptions;
  record.arrival_time = r.arrival_time;
  record.first_scheduled_time = r.first_scheduled_time;
  record.first_token_time = r.first_token_time;
  record.finish_time = now_;
  record.failed = failed;
  record.cancelled = r.cancelled;
  metrics_.RecordFinished(record);
}

bool EngineCore::CancelRequest(RequestId id) {
  const auto it = requests_.find(id);
  if (it == requests_.end()) {
    return false;
  }
  Request& r = it->second;
  if (r.state == RequestState::kFinished) {
    return false;
  }
  if (r.state == RequestState::kRunning) {
    ReleaseAll(r, /*finished=*/true);
    running_.Erase(id);
  } else {
    // Waiting or preempted (possibly swapped out / mid-restore): these hold no KvManager
    // pages — every preemption path Releases before re-queueing — so only the queue slot and
    // any host swap set (dropped by FinishRequest below) remain.
    waiting_.Erase(id);
    r.swapped_out = false;
    r.swapped_out_tokens = 0;
  }
  r.cancelled = true;
  metrics_.cancelled_requests += 1;
  FinishRequest(r, /*failed=*/true);
  return true;
}

std::vector<RequestId> EngineCore::ActiveRequests() const {
  std::vector<RequestId> ids;
  ids.reserve(running_.size() + waiting_.size());
  for (RequestId id = running_.front(); id != kNoRequest; id = running_.Next(id)) {
    ids.push_back(id);
  }
  for (RequestId id = waiting_.front(); id != kNoRequest; id = waiting_.Next(id)) {
    ids.push_back(id);
  }
  return ids;
}

void EngineCore::CollectExpiredInQueueOrder(std::vector<RequestId>* out) const {
  for (const RequestQueue* queue : {&waiting_, &running_}) {
    for (RequestId id = queue->front(); id != kNoRequest; id = queue->Next(id)) {
      const Request& r = request(id);
      if (r.deadline >= 0.0 && r.deadline <= now_) {
        out->push_back(id);
      }
    }
  }
}

void EngineCore::ExpireDeadlines() {
  // Heap-first: O(1) when the earliest deadline is still in the future (the common step),
  // O(log n) per expiry. Stale entries — requests that finished, failed, or were cancelled
  // before their deadline — surface at the top and are discarded here (lazy deletion).
  expired_buf_.clear();
  while (deadlines_.HasExpired(now_)) {
    const RequestId id = deadlines_.PopTop().id;
    const auto it = requests_.find(id);
    if (it != requests_.end() && it->second.state != RequestState::kFinished) {
      expired_buf_.push_back(id);
    }
  }
  if (expired_buf_.empty()) {
    return;
  }
  if (expired_buf_.size() > 1) {
    // Several requests expired on the same step: the heap yields them in deadline order, but
    // the cancel order must be queue order (waiting first, then running — cancellation
    // mutates the queues and every downstream release/eviction tie-break sees it), so
    // re-collect the same set by scanning the queues like the pre-heap implementation did.
    expired_buf_.clear();
    CollectExpiredInQueueOrder(&expired_buf_);
  }
  if (DeadlineHeapAuditEnabled()) [[unlikely]] {
    CheckDeadlineHeapAgainstScan();
  }
  for (const RequestId id : expired_buf_) {
    metrics_.deadline_expirations += 1;
    JENGA_CHECK(CancelRequest(id));
  }
}

void EngineCore::CheckDeadlineHeapAgainstScan() {
  // Fuzz arm (JENGA_CHECK_DEADLINES): the heap-collected expired set must equal the
  // brute-force queue scan in content; for multi-expiry steps the order must match too
  // (the single-expiry fast path trivially agrees on order).
  std::vector<RequestId> reference;
  CollectExpiredInQueueOrder(&reference);
  JENGA_CHECK_EQ(reference.size(), expired_buf_.size())
      << "deadline heap expired-set size diverges from brute-force scan at now=" << now_;
  for (size_t i = 0; i < reference.size(); ++i) {
    JENGA_CHECK_EQ(reference[i], expired_buf_[i])
        << "deadline heap expiry order diverges from brute-force scan at now=" << now_;
  }
}

void EngineCore::ShedWaiting(Request& r) {
  r.swapped_out = false;
  r.swapped_out_tokens = 0;
  r.cancelled = true;
  metrics_.shed_requests += 1;
  metrics_.cancelled_requests += 1;
  FinishRequest(r, /*failed=*/true);
}

void EngineCore::MaybeShedHeadSlow() {
  // Only shed under genuine memory pressure: a head blocked below the watermark is waiting
  // on a transient condition (e.g. a scheduled batch), not on an over-committed pool. With
  // several managers the most constrained one governs admission, so take the max occupancy
  // (counter-only probe — no request-table walk on the common blocked step).
  double occupancy = 0.0;
  for (const auto& manager : managers_) {
    occupancy = std::max(occupancy, manager->allocator().Occupancy());
  }
  if (occupancy < shed_occupancy_watermark_) {
    return;
  }
  ShedWaiting(Get(waiting_.PopFront()));
  head_blocked_steps_ = 0;
}

bool EngineCore::ElasticFaultFires(FaultSite site, int64_t* rollbacks) {
  if (fault_ == nullptr || !fault_->Fire(site)) {
    return false;
  }
  *rollbacks += 1;
  SyncFaultMetrics();
  return true;
}

bool EngineCore::ParkNewestRunning() {
  if (running_.size() <= 1) {
    return false;  // Parking the only runner would just stall the engine.
  }
  Preempt(running_.back());
  metrics_.elastic_parked += 1;
  return true;
}

bool EngineCore::ShedOldestWaiting() {
  if (waiting_.empty()) {
    return false;
  }
  const RequestId head = waiting_.front();
  Request& r = Get(head);
  if (r.arrival_time > now_) {
    return false;  // Not yet arrived: future work is never pressure.
  }
  waiting_.Erase(head);
  metrics_.elastic_shed += 1;
  ShedWaiting(r);
  return true;
}

void EngineCore::SyncFaultMetricsSlow() {
  if (fault_ != nullptr) {
    metrics_.faults_injected = fault_->total_fires();
  }
  if (swap_ != nullptr) {
    const SwapManager::Stats& s = swap_->stats();
    metrics_.fault_retries = s.fault_retries;
    metrics_.fault_backoff_time = s.backoff_time;
    metrics_.degraded_mode_transitions = s.degraded_transitions;
  }
}

EngineCore::SwapAdmit EngineCore::TryAdmitFromSwap(Request& r, bool nothing_else_runnable) {
  StepProfiler::Scope prof_alloc(prof_, StepPhase::kAllocate);
  const auto fall_back = [&] {
    r.swapped_out = false;
    metrics_.swap_fallback_events += 1;
    metrics_.recomputed_tokens += r.swapped_out_tokens;
    r.swapped_out_tokens = 0;
    return SwapAdmit::kFallthrough;
  };
  const HostSwapSet* set = swap_->PeekSwapSet(r.id);
  if (set == nullptr) {
    // The set was LRU-evicted from host memory while the request queued: recompute.
    return fall_back();
  }
  // Copy the set: restoring may evict cache pages into the host pool, which can LRU-evict
  // this set (and invalidate `set`) before the commit below.
  const HostSwapSet snapshot = *set;
  if (!swap_->BeginSwapIn(r.id).ok()) {
    // Injected H2D fault that survived its retries: the set is unusable — drop it and
    // rebuild the request through normal (recompute) admission.
    swap_->DropSwapSet(r.id);
    return fall_back();
  }
  const int64_t tokens = snapshot.tokens;
  JENGA_CHECK_EQ(snapshot.fingerprints.size(), managers_.size());
  bool restored = CanAllocateAll(r, tokens);
  for (size_t m = 0; restored && m < managers_.size(); ++m) {
    if (!managers_[m]->RestoreFromSwap(r, tokens, snapshot.fingerprints[m], tick_)) {
      // A failed restore rolls itself back; undo the managers that already restored so the
      // request holds no pages while it waits.
      for (size_t k = 0; k < m; ++k) {
        managers_[k]->Release(r, tick_);
      }
      r.num_computed_tokens = 0;
      restored = false;
    }
  }
  if (restored) {
    swap_->CommitSwapIn(r.id, snapshot);
    metrics_.swap_in_events += 1;
    r.swapped_out = false;
    r.swapped_out_tokens = 0;
    StartRunning(r);
    return SwapAdmit::kAdmitted;
  }
  if (!nothing_else_runnable) {
    return SwapAdmit::kBlocked;  // Head-of-line blocking, same as the recompute path.
  }
  // Restoring would deadlock (nothing running to free memory): abandon the set and rebuild
  // the request from scratch through normal admission.
  swap_->DropSwapSet(r.id);
  return fall_back();
}

void EngineCore::DumpStateForDebug(std::ostream& os) const {
  os << "=== engine state dump ===\n";
  os << "now=" << now_ << " tick=" << tick_ << " running=" << running_.size()
     << " waiting=" << waiting_.size() << " finished=" << metrics_.finished().size() << "\n";
  for (size_t m = 0; m < managers_.size(); ++m) {
    const KvManager::MemoryStats mem = managers_[m]->GetMemoryStats();
    os << "pool";
    if (managers_.size() > 1) {
      os << "[" << m << "]";
    }
    os << ": bytes=" << mem.pool_bytes << " used=" << mem.used_bytes
       << " needed=" << mem.needed_bytes << " cached=" << mem.cached_bytes
       << " unallocated=" << mem.unallocated_bytes << "\n";
  }
  if (swap_ != nullptr) {
    const SwapManager::Stats& s = swap_->stats();
    os << "offload: degraded=" << (swap_->degraded() ? 1 : 0)
       << " host_used=" << swap_->host().used_bytes()
       << " host_cap=" << swap_->host().capacity_bytes() << " sets=" << swap_->host().num_sets()
       << " pages=" << swap_->host().num_pages() << " swap_out=" << s.swap_out_events
       << " swap_in=" << s.swap_in_events << " retries=" << s.fault_retries
       << " backoff=" << s.backoff_time << " shrinks=" << s.host_shrinks << "\n";
  }
  if (fault_ != nullptr) {
    os << "faults:";
    for (int i = 0; i < kNumFaultSites; ++i) {
      const FaultInjector::SiteCounters& c = fault_->counters(static_cast<FaultSite>(i));
      os << " " << FaultSiteName(static_cast<FaultSite>(i)) << "=" << c.fires << "/"
         << c.consults;
    }
    os << "\n";
  }
  os << "shed: head_blocked_steps=" << head_blocked_steps_
     << " shed_requests=" << metrics_.shed_requests << "\n";
  DumpPolicyState(os);
  std::vector<RequestId> ids;
  ids.reserve(requests_.size());
  for (const auto& [id, r] : requests_) {
    ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  for (const RequestId id : ids) {
    const Request& r = requests_.at(id);
    const char* state = r.state == RequestState::kWaiting     ? "waiting"
                        : r.state == RequestState::kRunning   ? "running"
                        : r.state == RequestState::kPreempted ? "preempted"
                                                              : "finished";
    os << "  req " << id << ": state=" << state << " prompt=" << r.prompt_len()
       << " output=" << r.output_len << " computed=" << r.num_computed_tokens
       << " generated=" << r.num_generated << " preemptions=" << r.preemptions
       << " swapped_out=" << (r.swapped_out ? 1 : 0) << " cancelled=" << (r.cancelled ? 1 : 0)
       << " arrival=" << r.arrival_time << " deadline=" << r.deadline << "\n";
  }
  os << "=== end engine state dump ===\n";
}

void EngineCore::RunToCompletion(int64_t max_steps) {
  int64_t steps = 0;
  while (StepOnce()) {
    ++steps;
    if (steps >= max_steps) {
      // Dump everything a postmortem needs before aborting: fuzz/chaos non-convergence must
      // be debuggable from the log alone.
      DumpStateForDebug(std::cerr);
      JENGA_CHECK_LT(steps, max_steps) << "engine did not converge";
    }
  }
}

}  // namespace jenga
