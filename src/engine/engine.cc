#include "src/engine/engine.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iostream>

#include "src/common/check.h"

namespace jenga {

namespace {

// Deterministic pseudo-token for generated output (ids live above the prompt vocabulary so
// that decode blocks of different requests never alias by accident).
int32_t PseudoToken(RequestId id, int64_t position) {
  uint64_t x = static_cast<uint64_t>(id) * 0x9E3779B97F4A7C15ull + static_cast<uint64_t>(position);
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDull;
  x ^= x >> 29;
  return static_cast<int32_t>(50000 + (x % 1000000));
}

// Differential audit of the deadline heap against the brute-force queue scan. Off by default
// (the reference pass is the O(requests) scan the heap exists to avoid); the fuzz stage
// enables it.
bool DeadlineHeapAuditEnabled() {
  static const bool enabled = std::getenv("JENGA_CHECK_DEADLINES") != nullptr;
  return enabled;
}

}  // namespace

EngineConfig VllmProfile(ModelConfig model, GpuSpec gpu) {
  EngineConfig config;
  config.model = std::move(model);
  config.gpu = std::move(gpu);
  config.jenga = false;
  config.vision_cache = false;
  return config;
}

EngineConfig SglangProfile(ModelConfig model, GpuSpec gpu) {
  EngineConfig config = VllmProfile(std::move(model), std::move(gpu));
  config.memory_fraction = 1.04;  // SGLang reserves slightly less for runtime state.
  return config;
}

EngineConfig TgiProfile(ModelConfig model, GpuSpec gpu) {
  EngineConfig config = VllmProfile(std::move(model), std::move(gpu));
  config.memory_fraction = 0.95;
  config.output_fraction = 0.6;  // No --ignore-eos: generation stops early (§7.3).
  return config;
}

EngineConfig JengaProfile(ModelConfig model, GpuSpec gpu) {
  EngineConfig config;
  config.model = std::move(model);
  config.gpu = std::move(gpu);
  config.jenga = true;
  config.vision_cache = true;
  return config;
}

Engine::Engine(EngineConfig config)
    : config_(std::move(config)), gpu_(config_.gpu, config_.model) {
  max_batched_tokens_ = config_.max_batched_tokens_override > 0
                            ? config_.max_batched_tokens_override
                            : config_.gpu.max_batched_tokens;
  max_num_seqs_ =
      config_.max_num_seqs_override > 0 ? config_.max_num_seqs_override : config_.gpu.max_num_seqs;

  int64_t pool = config_.pool_bytes_override > 0
                     ? config_.pool_bytes_override
                     : static_cast<int64_t>(static_cast<double>(gpu_.KvPoolBytes()) *
                                            config_.memory_fraction);
  reserved_bytes_ = config_.gpu.reserved_bytes;
  if (!config_.jenga && config_.model.HasKind(LayerKind::kMamba)) {
    // Homogeneous engines reserve Mamba state statically for the full batch capacity.
    const int64_t reservation = StaticMambaReservationBytes(config_.model, max_num_seqs_);
    JENGA_CHECK_LT(reservation, pool) << "mamba reservation exceeds the KV pool";
    pool -= reservation;
    reserved_bytes_ += reservation;
  }

  const bool vision = config_.jenga && config_.vision_cache && config_.model.vision.present;
  KvSpec alloc_spec = config_.jenga
                          ? MakeJengaSpec(config_.model, config_.tokens_per_page, vision)
                          : MakeHomogeneousSpec(config_.model, config_.tokens_per_page);
  KvSpec accounting_spec = MakeJengaSpec(config_.model, config_.tokens_per_page, vision);

  KvManager::Options options;
  options.tokens_per_page = config_.tokens_per_page;
  options.enable_prefix_caching = config_.enable_prefix_caching;
  options.memoize_admission = config_.memoize_admission;
  options.jenga = config_.jenga;
  options.tokens_per_image = config_.model.vision.tokens_per_image;
  options.alloc_shards = config_.alloc_shards;
  kv_ = std::make_unique<KvManager>(std::move(alloc_spec), std::move(accounting_spec), pool,
                                    options);

  if (config_.offload.enabled) {
    SwapCostParams cost;
    cost.flops_per_token = 2.0 * config_.model.params_b * 1e9;  // Dense forward ≈ 2·params.
    cost.gpu_flops = config_.gpu.flops;
    cost.gpu_mem_bandwidth = config_.gpu.mem_bandwidth;
    cost.chunk_tokens = max_batched_tokens_;
    swap_ = std::make_unique<SwapManager>(config_.offload, cost);
    kv_->AttachOffload(swap_.get(), /*manager_index=*/0);
  }

  if (config_.fault.enabled()) {
    fault_ = std::make_unique<FaultInjector>(config_.fault);
    gpu_.set_fault_injector(fault_.get());
    if (swap_ != nullptr) {
      swap_->SetFaultInjector(fault_.get());
    }
  }
}

void Engine::Submit(Request request) {
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

Request& Engine::Get(RequestId id) {
  const auto it = requests_.find(id);
  JENGA_CHECK(it != requests_.end());
  return it->second;
}

const Request& Engine::request(RequestId id) const {
  const auto it = requests_.find(id);
  JENGA_CHECK(it != requests_.end());
  return it->second;
}

int64_t Engine::EffectiveOutputLen(const Request& r) const {
  if (config_.output_fraction >= 1.0) {
    return r.output_len;
  }
  return std::max<int64_t>(
      1, static_cast<int64_t>(std::llround(static_cast<double>(r.output_len) *
                                           config_.output_fraction)));
}

void Engine::Preempt(RequestId id, bool allow_swap) {
  // The whole preemption — TrimToComputed, the swap decision, and the release-to-cache walk —
  // bills to kEvictPreempt, pausing whatever scope drove it (e.g. kAllocate when an
  // allocation failure preempts from the back). In particular the PR 9 trim is preemption
  // work, not eviction/commit work (micro.cache_churn_offload attribution).
  StepProfiler::Scope prof_scope(prof_, StepPhase::kEvictPreempt);
  Request& r = Get(id);
  // Return any retained-but-uncomputed chunk pages (injected step fault retry window) before
  // snapshotting: the swap fingerprint and cost footprint must cover the committed state only.
  kv_->TrimToComputed(r);
  if (swap_ != nullptr && allow_swap) {
    const KvSwapFootprint kfp = kv_->GetSwapFootprint(r);
    SwapFootprint fp;
    fp.tokens = kfp.tokens;
    fp.swappable_bytes = kfp.swappable_bytes;
    fp.resident_bytes = kfp.resident_bytes;
    fp.drop_recompute_bytes = kfp.drop_recompute_bytes;
    fp.fingerprints.push_back(kfp.fingerprint);
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
  kv_->Release(r, tick_);
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

void Engine::FinishRequest(Request& r, bool failed) {
  // A request can retire without a final Release(finished=true) (e.g. admission-failure abort
  // after an earlier preemption); drop its allocator affinity state and any host swap set
  // either way — both calls are idempotent.
  kv_->OnRequestRetired(r.id);
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

bool Engine::CancelRequest(RequestId id) {
  const auto it = requests_.find(id);
  if (it == requests_.end()) {
    return false;
  }
  Request& r = it->second;
  if (r.state == RequestState::kFinished) {
    return false;
  }
  if (r.state == RequestState::kRunning) {
    kv_->Release(r, tick_, /*finished=*/true);
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

std::vector<RequestId> Engine::ActiveRequests() const {
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

void Engine::ExpireDeadlines() {
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
    for (RequestId id = waiting_.front(); id != kNoRequest; id = waiting_.Next(id)) {
      const Request& r = Get(id);
      if (r.deadline >= 0.0 && r.deadline <= now_) {
        expired_buf_.push_back(id);
      }
    }
    for (RequestId id = running_.front(); id != kNoRequest; id = running_.Next(id)) {
      const Request& r = Get(id);
      if (r.deadline >= 0.0 && r.deadline <= now_) {
        expired_buf_.push_back(id);
      }
    }
  }
  if (DeadlineHeapAuditEnabled()) [[unlikely]] {
    CheckDeadlineHeapAgainstScan();
  }
  for (const RequestId id : expired_buf_) {
    metrics_.deadline_expirations += 1;
    JENGA_CHECK(CancelRequest(id));
  }
}

void Engine::CheckDeadlineHeapAgainstScan() {
  // Fuzz arm (JENGA_CHECK_DEADLINES): the heap-collected expired set must equal the
  // brute-force queue scan in content; for multi-expiry steps the order must match too
  // (the single-expiry fast path trivially agrees on order).
  std::vector<RequestId> reference;
  for (RequestId id = waiting_.front(); id != kNoRequest; id = waiting_.Next(id)) {
    const Request& r = Get(id);
    if (r.deadline >= 0.0 && r.deadline <= now_) {
      reference.push_back(id);
    }
  }
  for (RequestId id = running_.front(); id != kNoRequest; id = running_.Next(id)) {
    const Request& r = Get(id);
    if (r.deadline >= 0.0 && r.deadline <= now_) {
      reference.push_back(id);
    }
  }
  JENGA_CHECK_EQ(reference.size(), expired_buf_.size())
      << "deadline heap expired-set size diverges from brute-force scan at now=" << now_;
  for (size_t i = 0; i < reference.size(); ++i) {
    JENGA_CHECK_EQ(reference[i], expired_buf_[i])
        << "deadline heap expiry order diverges from brute-force scan at now=" << now_;
  }
}

void Engine::MaybeShedHeadSlow() {
  // Only shed under genuine memory pressure: a head blocked below the watermark is waiting
  // on a transient condition (e.g. a scheduled batch), not on an over-committed pool.
  // Counter-only occupancy probe — no request-table walk on the common blocked step.
  if (kv_->allocator().Occupancy() < config_.shed_occupancy_watermark) {
    return;
  }
  const RequestId head = waiting_.PopFront();
  Request& r = Get(head);
  r.swapped_out = false;
  r.swapped_out_tokens = 0;
  r.cancelled = true;
  metrics_.shed_requests += 1;
  metrics_.cancelled_requests += 1;
  FinishRequest(r, /*failed=*/true);
  head_blocked_steps_ = 0;
}

double Engine::PoolOccupancy() const {
  // O(1): the governor calls this on every non-cooldown step (see MemoryGovernor), so it
  // must not recompute the full memory-stats walk.
  return kv_->allocator().Occupancy();
}

int32_t Engine::PoolPages() const { return kv_->allocator().lcm().num_pages(); }

int32_t Engine::GrowKvPool(int32_t pages) {
  JENGA_CHECK_GT(pages, 0);
  metrics_.pool_grow_attempts += 1;
  if (config_.alloc_shards > 1) {
    return 0;  // Sharded claim indexes have fixed geometry; resize is shards==1 only.
  }
  if (fault_ != nullptr && fault_->Fire(FaultSite::kPoolGrow)) {
    // The fault site sits before any mutation (the reservation failed), so rollback is
    // "nothing happened": the ledger records the attempt with zero net delta.
    metrics_.pool_grow_rollbacks += 1;
    SyncFaultMetrics();
    return 0;
  }
  kv_->allocator_mutable().GrowPool(pages);
  metrics_.pool_grow_pages += pages;
  SyncFaultMetrics();
  return pages;
}

int32_t Engine::ShrinkKvPool(int32_t pages) {
  JENGA_CHECK_GT(pages, 0);
  metrics_.pool_shrink_attempts += 1;
  if (config_.alloc_shards > 1) {
    return 0;
  }
  if (fault_ != nullptr && fault_->Fire(FaultSite::kPoolShrinkDrain)) {
    metrics_.pool_shrink_rollbacks += 1;
    SyncFaultMetrics();
    return 0;
  }
  // Draining the free tail can evict cached blocks whose eviction sink parks them to host;
  // an injected host failure in that path may degrade the tier outside any engine step.
  const int32_t removed = kv_->allocator_mutable().ShrinkPool(pages);
  metrics_.pool_shrink_pages += removed;
  SyncFaultMetrics();
  return removed;
}

bool Engine::RepartitionKvPool(const ModelConfig& new_model, int64_t new_pool_bytes) {
  metrics_.repartition_attempts += 1;
  if (config_.alloc_shards > 1) {
    metrics_.repartition_rollbacks += 1;
    return false;
  }
  // Quiesce: preempt every running request back to the waiting queue through the recompute
  // path. Swap sets bind their fingerprints to the layout being replaced, so parking here
  // would only produce restore failures later.
  while (!running_.empty()) {
    Preempt(running_.back(), /*allow_swap=*/false);
  }

  // Build the replacement layout exactly the way the constructor did for the old one.
  GpuSim new_gpu(config_.gpu, new_model);
  int64_t pool = new_pool_bytes > 0
                     ? new_pool_bytes
                     : static_cast<int64_t>(static_cast<double>(new_gpu.KvPoolBytes()) *
                                            config_.memory_fraction);
  int64_t reserved = config_.gpu.reserved_bytes;
  if (!config_.jenga && new_model.HasKind(LayerKind::kMamba)) {
    const int64_t reservation = StaticMambaReservationBytes(new_model, max_num_seqs_);
    JENGA_CHECK_LT(reservation, pool) << "mamba reservation exceeds the KV pool";
    pool -= reservation;
    reserved += reservation;
  }
  const bool vision = config_.jenga && config_.vision_cache && new_model.vision.present;
  KvSpec alloc_spec = config_.jenga ? MakeJengaSpec(new_model, config_.tokens_per_page, vision)
                                    : MakeHomogeneousSpec(new_model, config_.tokens_per_page);
  KvSpec accounting_spec = MakeJengaSpec(new_model, config_.tokens_per_page, vision);
  KvManager::Options options;
  options.tokens_per_page = config_.tokens_per_page;
  options.enable_prefix_caching = config_.enable_prefix_caching;
  options.memoize_admission = config_.memoize_admission;
  options.jenga = config_.jenga;
  options.tokens_per_image = new_model.vision.tokens_per_image;
  options.alloc_shards = config_.alloc_shards;
  auto fresh = std::make_unique<KvManager>(std::move(alloc_spec), std::move(accounting_spec),
                                           pool, options);

  if (fault_ != nullptr && fault_->Fire(FaultSite::kRepartitionCommit)) {
    // Rollback: discard the freshly built manager; the old layout never stopped being
    // authoritative and the quiesced requests re-admit against it on the next step.
    metrics_.repartition_rollbacks += 1;
    SyncFaultMetrics();
    return false;
  }

  // Commit. Host-tier state (swap sets, parked cache pages) is keyed by the old layout's
  // group structure and hash salts — flush it wholesale and clear the per-request swap flags
  // so every quiesced request takes the recompute admission path.
  if (swap_ != nullptr) {
    swap_->FlushHostState();
  }
  for (auto& [id, r] : requests_) {
    if (r.swapped_out) {
      r.swapped_out = false;
      metrics_.swap_fallback_events += 1;
      metrics_.recomputed_tokens += r.swapped_out_tokens;
      r.swapped_out_tokens = 0;
    }
  }
  config_.model = new_model;
  gpu_ = std::move(new_gpu);
  if (fault_ != nullptr) {
    gpu_.set_fault_injector(fault_.get());
  }
  reserved_bytes_ = reserved;
  kv_ = std::move(fresh);
  if (swap_ != nullptr) {
    kv_->AttachOffload(swap_.get(), /*manager_index=*/0);
  }
  metrics_.repartitions += 1;
  SyncFaultMetrics();
  return true;
}

bool Engine::ParkNewestRunning() {
  if (running_.size() <= 1) {
    return false;  // Parking the only runner would just stall the engine.
  }
  Preempt(running_.back());
  metrics_.elastic_parked += 1;
  return true;
}

bool Engine::ShedOldestWaiting() {
  if (waiting_.empty()) {
    return false;
  }
  const RequestId head = waiting_.front();
  Request& r = Get(head);
  if (r.arrival_time > now_) {
    return false;  // Not yet arrived: future work is never pressure.
  }
  waiting_.Erase(head);
  r.swapped_out = false;
  r.swapped_out_tokens = 0;
  r.cancelled = true;
  metrics_.shed_requests += 1;
  metrics_.elastic_shed += 1;
  metrics_.cancelled_requests += 1;
  FinishRequest(r, /*failed=*/true);
  return true;
}

void Engine::SyncFaultMetricsSlow() {
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

double Engine::MaybeEncodeVision(Request& r, int64_t chunk_begin, int64_t chunk_end) {
  if (!config_.model.vision.present || r.num_image_tokens == 0) {
    return 0.0;
  }
  const int64_t total_image_tokens = r.num_image_tokens;
  if (config_.jenga && config_.vision_cache) {
    // Encode once per admission; the embeddings then live in the vision-embedding cache.
    if (r.vision_encoder_runs_this_admission > 0) {
      return 0.0;
    }
    r.vision_encoder_runs_this_admission += 1;
    r.vision_encoder_runs += 1;
    metrics_.vision_encoder_runs += 1;
    const double t = gpu_.VisionEncodeTime(total_image_tokens);
    metrics_.vision_encode_time += t;
    return t;
  }
  // No vision cache: the encoder re-runs on every chunk that consumes image tokens (§7.4).
  const int64_t images_in_chunk =
      r.ImageTokensBefore(std::min<int64_t>(chunk_end, r.prompt_len())) -
      r.ImageTokensBefore(std::min<int64_t>(chunk_begin, r.prompt_len()));
  if (images_in_chunk <= 0) {
    return 0.0;
  }
  r.vision_encoder_runs += 1;
  metrics_.vision_encoder_runs += 1;
  const double t = gpu_.VisionEncodeTime(total_image_tokens);
  metrics_.vision_encode_time += t;
  return t;
}

Engine::SwapAdmit Engine::TryAdmitFromSwap(Request& r, bool nothing_else_runnable) {
  const HostSwapSet* set = swap_->PeekSwapSet(r.id);
  if (set == nullptr) {
    // The set was LRU-evicted from host memory while the request queued: recompute.
    r.swapped_out = false;
    metrics_.swap_fallback_events += 1;
    metrics_.recomputed_tokens += r.swapped_out_tokens;
    r.swapped_out_tokens = 0;
    return SwapAdmit::kFallthrough;
  }
  // Copy the set: restoring may evict cache pages into the host pool, which can LRU-evict
  // this set (and invalidate `set`) before the commit below.
  const HostSwapSet snapshot = *set;
  if (!swap_->BeginSwapIn(r.id).ok()) {
    // Injected H2D fault that survived its retries: the set is unusable — drop it and
    // rebuild the request through normal (recompute) admission.
    swap_->DropSwapSet(r.id);
    r.swapped_out = false;
    metrics_.swap_fallback_events += 1;
    metrics_.recomputed_tokens += r.swapped_out_tokens;
    r.swapped_out_tokens = 0;
    return SwapAdmit::kFallthrough;
  }
  const int64_t tokens = snapshot.tokens;
  JENGA_CHECK_EQ(static_cast<int64_t>(snapshot.fingerprints.size()), 1);
  if (kv_->CanAllocate(r, tokens) &&
      kv_->RestoreFromSwap(r, tokens, snapshot.fingerprints[0], tick_)) {
    swap_->CommitSwapIn(r.id, snapshot);
    metrics_.swap_in_events += 1;
    r.swapped_out = false;
    r.swapped_out_tokens = 0;
    r.state = RequestState::kRunning;
    if (r.first_scheduled_time < 0.0) {
      r.first_scheduled_time = now_;
    }
    // The vision-embedding pages came back with the swap set; don't re-run the encoder.
    if (config_.jenga && config_.vision_cache && config_.model.vision.present &&
        r.num_image_tokens > 0) {
      r.vision_encoder_runs_this_admission = std::max(r.vision_encoder_runs_this_admission, 1);
    }
    running_.PushBack(r.id);
    return SwapAdmit::kAdmitted;
  }
  if (!nothing_else_runnable) {
    return SwapAdmit::kBlocked;  // Head-of-line blocking, same as the recompute path.
  }
  // Restoring would deadlock (nothing running to free memory): abandon the set and rebuild
  // the request from scratch through normal admission.
  swap_->DropSwapSet(r.id);
  r.swapped_out = false;
  metrics_.swap_fallback_events += 1;
  metrics_.recomputed_tokens += r.swapped_out_tokens;
  r.swapped_out_tokens = 0;
  return SwapAdmit::kFallthrough;
}

bool Engine::StepOnce() {
  if (running_.empty() && waiting_.empty()) {
    return false;
  }
  StepProfiler::StepScope prof_step(prof_);
  if (step_hook_ != nullptr) [[unlikely]] {
    // Quiesce point: no request is mid-step, so the governor may preempt, shed, resize, or
    // repartition here. It may also drain the last pending work.
    StepProfiler::Scope prof_scope(prof_, StepPhase::kHookDispatch);
    step_hook_->OnStepBoundary(*this);
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
  // Fast-forward to the next arrival when idle.
  if (running_.empty()) {
    double next_arrival = -1.0;
    for (RequestId id = waiting_.front(); id != kNoRequest; id = waiting_.Next(id)) {
      const double t = Get(id).arrival_time;
      if (next_arrival < 0.0 || t < next_arrival) {
        next_arrival = t;
      }
    }
    if (next_arrival > now_) {
      now_ = next_arrival;
    }
  }

  ++tick_;
  int64_t budget = max_batched_tokens_;
  // Reused across steps: per-step construction showed up as malloc traffic on the
  // steps-per-second path (ROADMAP item 5).
  std::vector<Scheduled>& scheduled = scheduled_buf_;
  scheduled.clear();
  double vision_time = 0.0;

  {
    StepProfiler::Scope prof_schedule(prof_, StepPhase::kSchedule);
    // Phase 1: running requests, FCFS. Decode requests take one token; prefilling requests
    // take a chunk. Allocation failure preempts from the back of the running list.
    for (RequestId id = running_.front(); id != kNoRequest;) {
      Request& r = Get(id);
      const bool prefill = r.InPrefill();
      int64_t n = prefill ? std::min<int64_t>(r.prompt_len() - r.num_computed_tokens, budget) : 1;
      if (budget <= 0 || n <= 0) {
        id = running_.Next(id);
        continue;
      }
      n = std::min<int64_t>(n, budget);
      bool self_preempted = false;
      {
        StepProfiler::Scope prof_alloc(prof_, StepPhase::kAllocate);
        while (!kv_->AllocateForTokens(r, n, tick_)) {
          const RequestId victim = running_.back();
          Preempt(victim);
          if (victim == id) {
            self_preempted = true;
            break;
          }
        }
      }
      if (self_preempted) {
        // Every entry after `id` was preempted (back-first) before `id` itself was; nothing
        // is left to visit. The successor must be read after the preempt loop either way —
        // the loop unlinks it.
        break;
      }
      {
        StepProfiler::Scope prof_vision(prof_, StepPhase::kGpuSim);
        vision_time += MaybeEncodeVision(r, r.num_computed_tokens, r.num_computed_tokens + n);
      }
      budget -= n;
      scheduled.push_back({id, n, prefill});
      id = running_.Next(id);
    }

    // Phase 2: admissions.
    bool head_blocked = false;
    while (budget > 0 && static_cast<int>(running_.size()) < max_num_seqs_ && !waiting_.empty()) {
      const RequestId id = waiting_.front();
      Request& r = Get(id);
      if (r.arrival_time > now_) {
        break;  // Future arrival, not memory pressure: never counts toward the shed gate.
      }
      if (swap_ != nullptr && r.swapped_out) {
        SwapAdmit outcome;
        {
          StepProfiler::Scope prof_alloc(prof_, StepPhase::kAllocate);
          outcome = TryAdmitFromSwap(
              r, /*nothing_else_runnable=*/running_.empty() && scheduled.empty());
        }
        if (outcome == SwapAdmit::kBlocked) {
          head_blocked = true;
          break;
        }
        if (outcome == SwapAdmit::kAdmitted) {
          waiting_.Erase(id);
          continue;  // No prefill chunk needed; the request decodes (or resumes) next step.
        }
        // kFallthrough: recompute from scratch via the normal path below.
      }
      const int64_t chunk_peek = std::min<int64_t>(r.prompt_len(), budget);
      bool fits;
      {
        StepProfiler::Scope prof_alloc(prof_, StepPhase::kAllocate);
        fits = kv_->CanAllocate(r, chunk_peek);
      }
      if (!fits) {
        // Head-of-line blocking is intentional (FCFS); but if nothing is running the request
        // can never fit — fail it rather than deadlock (vLLM aborts in this case, §7.2).
        if (running_.empty() && scheduled.empty()) {
          waiting_.Erase(id);
          FinishRequest(r, /*failed=*/true);
          continue;
        }
        head_blocked = true;
        break;
      }
      waiting_.Erase(id);
      {
        StepProfiler::Scope prof_admit(prof_, StepPhase::kHitScan);
        kv_->OnAdmit(r, tick_);
      }
      metrics_.cache_hit_tokens += r.cached_prefix_tokens;
      const int64_t n = std::min<int64_t>(r.prompt_len() - r.num_computed_tokens, budget);
      JENGA_CHECK_GT(n, 0);
      bool allocated;
      {
        StepProfiler::Scope prof_alloc(prof_, StepPhase::kAllocate);
        allocated = kv_->AllocateForTokens(r, n, tick_);
      }
      if (!allocated) {
        const bool abandoned = running_.empty() && scheduled.empty();
        kv_->Release(r, tick_, /*finished=*/abandoned);
        r.num_computed_tokens = 0;
        if (abandoned) {
          FinishRequest(r, /*failed=*/true);
          continue;
        }
        waiting_.PushFront(id);
        head_blocked = true;
        break;
      }
      r.state = RequestState::kRunning;
      if (r.first_scheduled_time < 0.0) {
        r.first_scheduled_time = now_;
      }
      running_.PushBack(id);
      {
        StepProfiler::Scope prof_vision(prof_, StepPhase::kGpuSim);
        vision_time += MaybeEncodeVision(r, r.num_computed_tokens, r.num_computed_tokens + n);
      }
      budget -= n;
      scheduled.push_back({id, n, true});
    }

    if (head_blocked) {
      head_blocked_steps_ += 1;
      StepProfiler::Scope prof_shed(prof_, StepPhase::kShedGate);
      MaybeShedHead();
    } else {
      head_blocked_steps_ = 0;
    }
  }

  if (scheduled.empty()) {
    // Pending PCIe transfers have no compute to hide behind; drain them as pure stall.
    if (swap_ != nullptr && swap_->HasPendingTransfer()) {
      const double stall = swap_->ConsumeStall(/*compute_time=*/0.0);
      metrics_.swap_stall_time += stall;
      now_ += stall;
    }
    // Nothing runnable now: advance to the next arrival if one exists.
    double next_arrival = -1.0;
    for (RequestId id = waiting_.front(); id != kNoRequest; id = waiting_.Next(id)) {
      const double t = Get(id).arrival_time;
      if (t > now_ && (next_arrival < 0.0 || t < next_arrival)) {
        next_arrival = t;
      }
    }
    if (next_arrival > now_) {
      now_ = next_arrival;
      SyncFaultMetrics();
      return true;
    }
    // All waiting requests have arrived but none was schedulable. Either decodes blocked on a
    // transiently full pool (running non-empty — retry next step) or this step only drained
    // failed requests and the queues are settling.
    SyncFaultMetrics();
    return true;
  }

  // Phase 3: execute the step on the simulated GPU.
  int64_t scheduled_tokens = 0;
  int decode_batch = 0;
  bool step_failed;
  {
    StepProfiler::Scope prof_gpu(prof_, StepPhase::kGpuSim);
    int64_t new_tokens = 0;
    int64_t kv_read_bytes = 0;
    for (const Scheduled& s : scheduled) {
      new_tokens += s.tokens;
      const Request& r = Get(s.id);
      kv_read_bytes += kv_->DecodeKvReadBytes(r);
      if (!s.was_prefill) {
        ++decode_batch;
      }
    }
    scheduled_tokens = new_tokens;
    double step_time = gpu_.StepTime(new_tokens, kv_read_bytes) + vision_time;
    if (swap_ != nullptr) {
      const double stall = swap_->ConsumeStall(step_time);
      metrics_.swap_stall_time += stall;
      step_time += stall;
    }
    now_ += step_time;

    // The step's GPU time is spent either way; on an injected step fault its results are
    // lost, so the commit below is skipped. Allocations are target-based (AllocateForTokens
    // is idempotent at an unchanged num_computed_tokens), so retrying the same chunk next
    // step is safe and re-uses the pages taken this step.
    step_failed = gpu_.InjectStepFault();
    if (step_failed) {
      metrics_.gpu_step_faults += 1;
    }
  }

  // Phase 4: commit progress, emit tokens, finish requests.
  if (!step_failed) {
    StepProfiler::Scope prof_commit(prof_, StepPhase::kCommit);
    for (const Scheduled& s : scheduled) {
      Request& r = Get(s.id);
      r.num_computed_tokens += s.tokens;
      if (s.was_prefill) {
        metrics_.prefill_tokens_computed += s.tokens;
      }
      kv_->OnStepComputed(r, tick_);
      const int64_t effective_output = EffectiveOutputLen(r);
      while (r.num_generated < effective_output &&
             r.num_computed_tokens >= r.prompt_len() + r.num_generated) {
        r.AppendGenerated(PseudoToken(r.id, r.prompt_len() + r.num_generated));
        if (r.first_token_time < 0.0) {
          r.first_token_time = now_;
        }
      }
      if (r.num_generated >= effective_output) {
        kv_->Release(r, tick_, /*finished=*/true);
        running_.Erase(s.id);
        FinishRequest(r, /*failed=*/false);
      }
    }
  }

  metrics_.RecordStep(now_, step_failed ? 0 : scheduled_tokens, step_failed ? 0 : decode_batch,
                      static_cast<int>(running_.size()), static_cast<int>(waiting_.size()));
  if (config_.memory_sample_every > 0 &&
      metrics_.total_steps() % config_.memory_sample_every == 0) {
    const KvManager::MemoryStats stats = kv_->GetMemoryStats();
    MemorySample sample;
    sample.time = now_;
    sample.weight_bytes = config_.model.WeightBytes();
    sample.reserved_bytes = reserved_bytes_;
    sample.used_bytes = stats.needed_bytes;
    sample.wasted_bytes = stats.wasted_bytes;
    sample.cached_bytes = stats.cached_bytes;
    sample.unallocated_bytes = stats.unallocated_bytes;
    sample.host_bytes = swap_ != nullptr ? swap_->host().used_bytes() : 0;
    metrics_.RecordMemory(sample);
  }
  SyncFaultMetrics();
  return true;
}

void Engine::DumpStateForDebug(std::ostream& os) const {
  os << "=== engine state dump ===\n";
  os << "now=" << now_ << " tick=" << tick_ << " running=" << running_.size()
     << " waiting=" << waiting_.size() << " finished=" << metrics_.finished().size() << "\n";
  const KvManager::MemoryStats mem = kv_->GetMemoryStats();
  os << "pool: bytes=" << mem.pool_bytes << " used=" << mem.used_bytes
     << " needed=" << mem.needed_bytes << " cached=" << mem.cached_bytes
     << " unallocated=" << mem.unallocated_bytes << "\n";
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
  if (step_hook_ != nullptr || metrics_.pool_grow_attempts > 0 ||
      metrics_.pool_shrink_attempts > 0 || metrics_.repartition_attempts > 0) {
    os << "elastic: pool_pages=" << PoolPages() << " draining=" << (elastic_draining_ ? 1 : 0)
       << " grow=" << metrics_.pool_grow_pages << "/" << metrics_.pool_grow_attempts
       << " shrink=" << metrics_.pool_shrink_pages << "/" << metrics_.pool_shrink_attempts
       << " repart=" << metrics_.repartitions << "/" << metrics_.repartition_attempts
       << " rollbacks=" << metrics_.pool_grow_rollbacks + metrics_.pool_shrink_rollbacks +
                               metrics_.repartition_rollbacks
       << " parked=" << metrics_.elastic_parked << " eshed=" << metrics_.elastic_shed
       << " ladder=" << metrics_.ladder_activations << "\n";
  }
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

void Engine::RunToCompletion(int64_t max_steps) {
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
