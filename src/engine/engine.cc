#include "src/engine/engine.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace jenga {

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
    : EngineCore(config.shed_after_blocked_steps, config.shed_occupancy_watermark),
      config_(std::move(config)),
      gpu_(config_.gpu, config_.model) {
  max_batched_tokens_ = config_.max_batched_tokens_override > 0
                            ? config_.max_batched_tokens_override
                            : config_.gpu.max_batched_tokens;
  max_num_seqs_ =
      config_.max_num_seqs_override > 0 ? config_.max_num_seqs_override : config_.gpu.max_num_seqs;
  managers_.push_back(
      BuildKvManager(config_.model, gpu_, config_.pool_bytes_override, &reserved_bytes_));

  SwapCostParams cost;
  cost.flops_per_token = 2.0 * config_.model.params_b * 1e9;  // Dense forward ≈ 2·params.
  cost.gpu_flops = config_.gpu.flops;
  cost.gpu_mem_bandwidth = config_.gpu.mem_bandwidth;
  cost.chunk_tokens = max_batched_tokens_;
  if (FaultInjector* fault = AttachTiers(config_.offload, cost, config_.fault)) {
    gpu_.set_fault_injector(fault);
  }
}

std::unique_ptr<KvManager> Engine::BuildKvManager(const ModelConfig& model, const GpuSim& gpu,
                                                  int64_t pool_override,
                                                  int64_t* reserved) const {
  int64_t pool = pool_override > 0
                     ? pool_override
                     : static_cast<int64_t>(static_cast<double>(gpu.KvPoolBytes()) *
                                            config_.memory_fraction);
  *reserved = config_.gpu.reserved_bytes;
  if (!config_.jenga && model.HasKind(LayerKind::kMamba)) {
    // Homogeneous engines reserve Mamba state statically for the full batch capacity.
    const int64_t reservation = StaticMambaReservationBytes(model, max_num_seqs_);
    JENGA_CHECK_LT(reservation, pool) << "mamba reservation exceeds the KV pool";
    pool -= reservation;
    *reserved += reservation;
  }

  const bool vision = config_.jenga && config_.vision_cache && model.vision.present;
  KvSpec alloc_spec = config_.jenga ? MakeJengaSpec(model, config_.tokens_per_page, vision)
                                    : MakeHomogeneousSpec(model, config_.tokens_per_page);
  KvSpec accounting_spec = MakeJengaSpec(model, config_.tokens_per_page, vision);

  KvManager::Options options;
  options.tokens_per_page = config_.tokens_per_page;
  options.enable_prefix_caching = config_.enable_prefix_caching;
  options.memoize_admission = config_.memoize_admission;
  options.jenga = config_.jenga;
  options.tokens_per_image = model.vision.tokens_per_image;
  return std::make_unique<KvManager>(std::move(alloc_spec), std::move(accounting_spec), pool,
                                     options);
}

int64_t Engine::EffectiveOutputLen(const Request& r) const {
  if (config_.output_fraction >= 1.0) {
    return r.output_len;
  }
  return std::max<int64_t>(
      1, static_cast<int64_t>(std::llround(static_cast<double>(r.output_len) *
                                           config_.output_fraction)));
}

int32_t Engine::PoolPages() const { return kv().allocator().lcm().num_pages(); }

int32_t Engine::GrowKvPool(int32_t pages) {
  JENGA_CHECK_GT(pages, 0);
  metrics_.pool_grow_attempts += 1;
  if (ElasticFaultFires(FaultSite::kPoolGrow, &metrics_.pool_grow_rollbacks)) {
    return 0;  // The reservation failed: the ledger records the attempt, zero net delta.
  }
  kv().allocator_mutable().GrowPool(pages);
  metrics_.pool_grow_pages += pages;
  SyncFaultMetrics();
  return pages;
}

int32_t Engine::ShrinkKvPool(int32_t pages) {
  JENGA_CHECK_GT(pages, 0);
  metrics_.pool_shrink_attempts += 1;
  if (ElasticFaultFires(FaultSite::kPoolShrinkDrain, &metrics_.pool_shrink_rollbacks)) {
    return 0;
  }
  // Draining the free tail can evict cached blocks whose eviction sink parks them to host;
  // an injected host failure in that path may degrade the tier outside any engine step.
  const int32_t removed = kv().allocator_mutable().ShrinkPool(pages);
  metrics_.pool_shrink_pages += removed;
  SyncFaultMetrics();
  return removed;
}

bool Engine::RepartitionKvPool(const ModelConfig& new_model, int64_t new_pool_bytes) {
  metrics_.repartition_attempts += 1;
  // Quiesce: preempt every running request back to the waiting queue through the recompute
  // path. Swap sets bind their fingerprints to the layout being replaced, so parking here
  // would only produce restore failures later.
  while (!running_.empty()) {
    Preempt(running_.back(), /*allow_swap=*/false);
  }

  // Build the replacement layout exactly the way the constructor did for the old one.
  GpuSim new_gpu(config_.gpu, new_model);
  int64_t reserved = 0;
  std::unique_ptr<KvManager> fresh = BuildKvManager(new_model, new_gpu, new_pool_bytes, &reserved);

  if (ElasticFaultFires(FaultSite::kRepartitionCommit, &metrics_.repartition_rollbacks)) {
    // Rollback: discard the freshly built manager; the old layout never stopped being
    // authoritative and the quiesced requests re-admit against it on the next step.
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
  managers_[0] = std::move(fresh);
  if (swap_ != nullptr) {
    kv().AttachOffload(swap_.get(), /*manager_index=*/0);
  }
  metrics_.repartitions += 1;
  SyncFaultMetrics();
  return true;
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

bool Engine::StepOnce() {
  if (running_.empty() && waiting_.empty()) {
    return false;
  }
  StepProfiler::StepScope prof_step(prof_);
  if (!BeginStep(step_hook_, *this)) {
    return false;
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
        while (!AllocateAll(r, n)) {
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
        const SwapAdmit outcome = TryAdmitFromSwap(
            r, /*nothing_else_runnable=*/running_.empty() && scheduled.empty());
        if (outcome == SwapAdmit::kBlocked) {
          head_blocked = true;
          break;
        }
        if (outcome == SwapAdmit::kAdmitted) {
          waiting_.Erase(id);
          // The vision-embedding pages came back with the swap set; don't re-run the encoder.
          if (config_.jenga && config_.vision_cache && config_.model.vision.present &&
              r.num_image_tokens > 0) {
            r.vision_encoder_runs_this_admission = std::max(r.vision_encoder_runs_this_admission, 1);
          }
          continue;  // No prefill chunk needed; the request decodes (or resumes) next step.
        }
        // kFallthrough: recompute from scratch via the normal path below.
      }
      const int64_t chunk_peek = std::min<int64_t>(r.prompt_len(), budget);
      bool fits;
      {
        StepProfiler::Scope prof_alloc(prof_, StepPhase::kAllocate);
        fits = CanAllocateAll(r, chunk_peek);
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
        AdmitAll(r);
      }
      metrics_.cache_hit_tokens += r.cached_prefix_tokens;
      const int64_t n = std::min<int64_t>(r.prompt_len() - r.num_computed_tokens, budget);
      JENGA_CHECK_GT(n, 0);
      bool allocated;
      {
        StepProfiler::Scope prof_alloc(prof_, StepPhase::kAllocate);
        allocated = AllocateAll(r, n);
      }
      if (!allocated) {
        const bool abandoned = running_.empty() && scheduled.empty();
        ReleaseAll(r, /*finished=*/abandoned);
        r.num_computed_tokens = 0;
        if (abandoned) {
          FinishRequest(r, /*failed=*/true);
          continue;
        }
        waiting_.PushFront(id);
        head_blocked = true;
        break;
      }
      StartRunning(r);
      {
        StepProfiler::Scope prof_vision(prof_, StepPhase::kGpuSim);
        vision_time += MaybeEncodeVision(r, r.num_computed_tokens, r.num_computed_tokens + n);
      }
      budget -= n;
      scheduled.push_back({id, n, true});
    }

    UpdateShedGate(head_blocked);
  }

  if (scheduled.empty()) {
    // Pending PCIe transfers have no compute to hide behind; drain them as pure stall.
    if (swap_ != nullptr && swap_->HasPendingTransfer()) {
      AdvanceClock(/*compute_time=*/0.0);
    }
    // Nothing runnable now: advance to the next arrival if one exists. Without one, every
    // waiting request has arrived but none was schedulable: either decodes blocked on a
    // transiently full pool (running non-empty — retry next step) or this step only drained
    // failed requests and the queues are settling.
    double next_arrival = -1.0;
    for (RequestId id = waiting_.front(); id != kNoRequest; id = waiting_.Next(id)) {
      const double t = Get(id).arrival_time;
      if (t > now_ && (next_arrival < 0.0 || t < next_arrival)) {
        next_arrival = t;
      }
    }
    if (next_arrival > now_) {
      now_ = next_arrival;
    }
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
      kv_read_bytes += DecodeKvReadBytesAll(r);
      if (!s.was_prefill) {
        ++decode_batch;
      }
    }
    scheduled_tokens = new_tokens;
    AdvanceClock(gpu_.StepTime(new_tokens, kv_read_bytes) + vision_time);

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
      StepComputedAll(r);
      const int64_t effective_output = EffectiveOutputLen(r);
      while (r.num_generated < effective_output &&
             r.num_computed_tokens >= r.prompt_len() + r.num_generated) {
        r.AppendGenerated(PseudoToken(r.id, r.prompt_len() + r.num_generated));
        if (r.first_token_time < 0.0) {
          r.first_token_time = now_;
        }
      }
      if (r.num_generated >= effective_output) {
        ReleaseAll(r, /*finished=*/true);
        running_.Erase(s.id);
        FinishRequest(r, /*failed=*/false);
      }
    }
  }

  metrics_.RecordStep(now_, step_failed ? 0 : scheduled_tokens, step_failed ? 0 : decode_batch,
                      static_cast<int>(running_.size()), static_cast<int>(waiting_.size()));
  if (config_.memory_sample_every > 0 &&
      metrics_.total_steps() % config_.memory_sample_every == 0) {
    const KvManager::MemoryStats stats = kv().GetMemoryStats();
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

void Engine::DumpPolicyState(std::ostream& os) const {
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
}

}  // namespace jenga
