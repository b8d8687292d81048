// Offline workloads: the whole trace is submitted up front (Poisson arrival times in
// simulated time) and one thread steps the engine until every request finished. A run
// repeats this pass on a fresh engine until the time budget is spent; passes are
// deterministic, so each must reproduce the same outcome digest, and metrics are medians
// over passes. The traced run alternates plain and traced passes so both see the same
// machine state, which makes trace.overhead_pct a paired comparison.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "servebench/src/bench.h"
#include "servebench/src/inputs.h"
#include "src/common/random.h"
#include "src/common/sha256.h"
#include "src/engine/engine.h"
#include "src/engine/gpu.h"
#include "src/engine/spec_decode.h"
#include "src/metrics/step_profiler.h"
#include "src/model/model_zoo.h"

namespace servebench {
namespace {

using jenga::Engine;
using jenga::SpecDecodeEngine;
using jenga::StepPhase;

constexpr int kMinPasses = 3;
// kv.waste_pct snapshot period (GetMemoryStats walks the request table).
constexpr int64_t kMemorySnapshotEvery = 256;
constexpr int64_t kMaxSteps = 4000000;

// Inputs are kept as prompts and rebuilt into Requests before each pass (untimed), so the
// resident input copy does not carry Request's per-token bookkeeping.
struct Inputs {
  std::vector<Item> items;
  double build_s = 0.0;
};

template <typename Generate>
Inputs MakeInputs(double sim_rate, uint64_t seed, Generate generate) {
  const int64_t begin = NowNs();
  Inputs inputs;
  inputs.items = generate();
  jenga::Rng rng(seed ^ 0xA11CE5ull);
  const std::vector<double> arrivals =
      PoissonArrivals(static_cast<int>(inputs.items.size()), sim_rate, rng);
  for (size_t i = 0; i < inputs.items.size(); ++i) {
    inputs.items[i].arrival = arrivals[i];
  }
  inputs.build_s = static_cast<double>(NowNs() - begin) / 1e9;
  return inputs;
}

// --- Engine adapters: the two engines expose the same step API, different KV accessors ---

const jenga::KvManager& KvOf(const Engine& e, int) { return e.kv(); }
const jenga::KvManager& KvOf(const SpecDecodeEngine& e, int i) { return e.manager(i); }
jenga::KvManager& KvMut(Engine& e, int) { return e.kv(); }
jenga::KvManager& KvMut(SpecDecodeEngine& e, int i) { return e.manager_mutable(i); }
int Managers(const Engine&) { return 1; }
int Managers(const SpecDecodeEngine& e) { return e.num_managers(); }

struct PassResult {
  double slowdown = 1.0;  // HostSlowdown() measured right before the pass.
  double setup_s = 0.0;
  double serve_s = 0.0;  // Submit loop + step loop.
  double step_s = 0.0;   // Step loop only.
  std::vector<double> step_us;
  std::vector<double> submit_us;
  std::vector<double> ttft_ms;  // Host wall time, arrival step → first-token step.
  std::vector<double> tpot_ms;  // Host wall time per output token after the first.
  int64_t steps = 0;
  int64_t scheduled_tokens = 0;
  int64_t completed = 0;  // Finished, not failed, with the full output length.
  int64_t failed = 0;
  std::string digest;
  double decode_batch_mean = 0.0;
  int64_t preemptions = 0;
  int64_t hit_tokens = 0;
  int64_t prefill_tokens = 0;
  int64_t recomputed_tokens = 0;
  int64_t tracked_end = 0;
  int64_t swap_out = 0;
  int64_t swap_in = 0;
  int64_t swap_out_bytes = 0;
  int64_t host_promoted = 0;
  int64_t swap_fallbacks = 0;
  double stall_sim_s = 0.0;
  // Traced passes only.
  PhaseTotals phases{};
  CoreCounts core;
  double waste_pct = 0.0;
};

template <typename E>
PassResult RunPass(const std::function<std::unique_ptr<E>()>& make, const Inputs& inputs,
                   bool traced, SpanLog* spans) {
  std::vector<jenga::Request> requests;
  requests.reserve(inputs.items.size());
  for (size_t i = 0; i < inputs.items.size(); ++i) {
    const Item& item = inputs.items[i];
    requests.push_back(jenga::MakeRequest(static_cast<jenga::RequestId>(i), item.prompt,
                                          item.output_len, item.arrival));
  }

  PassResult pass;
  pass.slowdown = HostSlowdown(CalibrationMs());
  const int64_t setup_begin = NowNs();
  std::unique_ptr<E> engine = make();
  pass.setup_s = static_cast<double>(NowNs() - setup_begin) / 1e9;

  jenga::StepProfiler profiler;
  std::vector<std::unique_ptr<CountingSink>> sinks;
  if (traced) {
    engine->set_step_profiler(&profiler);
    for (int m = 0; m < Managers(*engine); ++m) {
      sinks.push_back(std::make_unique<CountingSink>(KvOf(*engine, m).alloc_spec()));
      KvMut(*engine, m).allocator_mutable().SetAuditSink(sinks.back().get());
    }
  }

  // Submit and step with one clock read per call; spans are built from these stamps after
  // the pass, so recording them costs the traced pass nothing extra.
  std::vector<int64_t> submit_end(requests.size());
  std::vector<int64_t> step_start;
  std::vector<int64_t> step_end;
  std::vector<double> sim_end;
  step_start.reserve(1 << 17);
  step_end.reserve(1 << 17);
  sim_end.reserve(1 << 17);
  const int64_t serve_begin = NowNs();
  for (size_t i = 0; i < requests.size(); ++i) {
    engine->Submit(std::move(requests[i]));
    submit_end[i] = NowNs();
  }
  const int64_t step_begin = NowNs();
  int64_t last = step_begin;
  int64_t paused_ns = 0;
  int64_t snapshots = 0;
  double waste_sum = 0.0;
  for (int64_t guard = 0; guard < kMaxSteps && engine->StepOnce(); ++guard) {
    const int64_t stamp = NowNs();
    step_start.push_back(last);
    step_end.push_back(stamp);
    sim_end.push_back(engine->now());
    last = stamp;
    if (traced && guard % kMemorySnapshotEvery == 0) {
      // Memory-composition snapshot; its cost is kept out of every timed interval.
      double used = 0.0;
      double wasted = 0.0;
      for (int m = 0; m < Managers(*engine); ++m) {
        const jenga::KvManager::MemoryStats stats = KvOf(*engine, m).GetMemoryStats();
        used += static_cast<double>(stats.used_bytes);
        wasted += static_cast<double>(stats.wasted_bytes);
      }
      if (used > 0.0) {
        waste_sum += 100.0 * wasted / used;
        ++snapshots;
      }
      last = NowNs();
      paused_ns += last - stamp;
    }
  }
  pass.serve_s = static_cast<double>(last - serve_begin - paused_ns) / 1e9;
  pass.step_s = static_cast<double>(last - step_begin - paused_ns) / 1e9;
  pass.waste_pct = snapshots > 0 ? waste_sum / static_cast<double>(snapshots) : 0.0;
  pass.step_us.reserve(step_end.size());
  for (size_t k = 0; k < step_end.size(); ++k) {
    pass.step_us.push_back(static_cast<double>(step_end[k] - step_start[k]) / 1e3);
  }
  pass.submit_us.reserve(submit_end.size());
  for (size_t i = 0; i < submit_end.size(); ++i) {
    const int64_t start = i == 0 ? serve_begin : submit_end[i - 1];
    pass.submit_us.push_back(static_cast<double>(submit_end[i] - start) / 1e3);
  }

  const jenga::EngineMetrics& metrics = engine->metrics();
  pass.steps = metrics.total_steps();
  pass.scheduled_tokens = metrics.total_scheduled_tokens();
  pass.decode_batch_mean = metrics.MeanDecodeBatch();
  pass.hit_tokens = metrics.cache_hit_tokens;
  pass.prefill_tokens = metrics.prefill_tokens_computed;
  pass.recomputed_tokens = metrics.recomputed_tokens;
  pass.swap_out = metrics.swap_out_events;
  pass.swap_in = metrics.swap_in_events;
  pass.swap_fallbacks = metrics.swap_fallback_events;
  pass.stall_sim_s = metrics.swap_stall_time;
  if (engine->swap() != nullptr) {
    pass.swap_out_bytes = engine->swap()->stats().swap_out_bytes;
    pass.host_promoted = engine->swap()->stats().host_pages_promoted;
  }
  for (int m = 0; m < Managers(*engine); ++m) {
    pass.tracked_end += KvOf(*engine, m).num_tracked_requests();
  }

  // Outcome digest and per-request checks, in request-id order.
  std::vector<const jenga::RequestRecord*> records;
  records.reserve(metrics.finished().size());
  for (const jenga::RequestRecord& rec : metrics.finished()) {
    records.push_back(&rec);
  }
  std::sort(records.begin(), records.end(),
            [](const auto* a, const auto* b) { return a->id < b->id; });
  std::string canon;
  canon.reserve(records.size() * 96);
  char line[160];
  // Wall time at which simulated time `t` was reached: end of the first step whose
  // simulated end is at or past `t`.
  const auto step_at = [&sim_end](double t) {
    return static_cast<size_t>(std::lower_bound(sim_end.begin(), sim_end.end(), t) -
                               sim_end.begin());
  };
  const auto wall_end_of = [&](size_t k) {
    return step_end.empty() ? step_begin : step_end[std::min(k, step_end.size() - 1)];
  };
  const auto wall_start_of = [&](size_t k) {
    return step_start.empty() ? step_begin : step_start[std::min(k, step_start.size() - 1)];
  };
  std::vector<int64_t> first_token_step(inputs.items.size(), -1);
  std::vector<int64_t> finish_step(inputs.items.size(), -1);
  for (const jenga::RequestRecord* rec : records) {
    const size_t id = static_cast<size_t>(rec->id);
    const bool known = id < inputs.items.size();
    const bool ok = known && !rec->failed && rec->output_len == inputs.items[id].output_len;
    if (ok) {
      ++pass.completed;
    } else {
      ++pass.failed;
    }
    pass.preemptions += rec->preemptions;
    std::snprintf(line, sizeof(line), "%" PRId64 " %a %a %" PRId64 " %d %d\n", rec->id,
                  rec->first_token_time, rec->finish_time, rec->cached_prefix_tokens,
                  rec->preemptions, rec->failed ? 1 : 0);
    canon += line;
    if (!known) {
      continue;
    }
    const size_t arrive_k = step_at(rec->arrival_time);
    const size_t first_k = step_at(rec->first_token_time);
    const size_t finish_k = step_at(rec->finish_time);
    first_token_step[id] = static_cast<int64_t>(first_k);
    finish_step[id] = static_cast<int64_t>(finish_k);
    const double ttft_ns = static_cast<double>(wall_end_of(first_k) - wall_start_of(arrive_k));
    pass.ttft_ms.push_back(ttft_ns / 1e6);
    if (rec->output_len > 1) {
      const double decode_ns = static_cast<double>(wall_end_of(finish_k) - wall_end_of(first_k));
      pass.tpot_ms.push_back(decode_ns / 1e6 / static_cast<double>(rec->output_len - 1));
    }
  }
  pass.failed += static_cast<int64_t>(inputs.items.size()) -
                 static_cast<int64_t>(std::min(records.size(), inputs.items.size()));
  std::snprintf(line, sizeof(line), "steps %" PRId64 "\n", pass.steps);
  canon += line;
  pass.digest = jenga::Sha256Hex(canon);

  if (traced) {
    for (int p = 0; p < jenga::kNumStepPhases; ++p) {
      pass.phases[static_cast<size_t>(p)] = profiler.phase(static_cast<StepPhase>(p));
    }
    for (const auto& sink : sinks) {
      pass.core.Add(sink->counts());
    }
    for (int m = 0; m < Managers(*engine); ++m) {
      KvMut(*engine, m).allocator_mutable().SetAuditSink(nullptr);
    }
    engine->set_step_profiler(nullptr);
  }
  if (traced && spans != nullptr) {
    // pass → {Submit, StepOnce}; StepOnce → {first_token, finish} milestones of the
    // requests it completed. Spans of one request share its id.
    spans->Clear();
    const int64_t root = spans->Add("pass", 0, -1, serve_begin, last);
    for (size_t i = 0; i < submit_end.size(); ++i) {
      const int64_t start = i == 0 ? serve_begin : submit_end[i - 1];
      spans->Add("Submit", root, static_cast<int64_t>(i), start, submit_end[i]);
    }
    std::vector<int64_t> step_span(step_end.size());
    for (size_t k = 0; k < step_end.size(); ++k) {
      step_span[k] = spans->Add("StepOnce", root, -1, wall_start_of(k), step_end[k]);
    }
    for (size_t id = 0; id < first_token_step.size(); ++id) {
      if (first_token_step[id] < 0 || step_end.empty()) {
        continue;
      }
      const size_t fk = std::min(static_cast<size_t>(first_token_step[id]), step_end.size() - 1);
      const size_t dk = std::min(static_cast<size_t>(finish_step[id]), step_end.size() - 1);
      spans->Add("first_token", step_span[fk], static_cast<int64_t>(id), step_end[fk],
                 step_end[fk]);
      spans->Add("finish", step_span[dk], static_cast<int64_t>(id), step_end[dk], step_end[dk]);
    }
  }
  return pass;
}

template <typename E>
RunResult RunOffline(const RunOptions& options, const Inputs& inputs,
                     const std::function<std::unique_ptr<E>()>& make) {
  std::vector<PassResult> plain;
  std::vector<PassResult> traced;
  SpanLog spans(0);
  // Later passes reuse freed heap; the high-water mark of the inputs plus one pass is what
  // does not depend on how many passes the run's time allowed.
  double rss_mb = 0.0;
  const int64_t deadline = NowNs() + static_cast<int64_t>(options.seconds * 1e9);
  for (int i = 0;; ++i) {
    const bool trace_pass = options.trace && i % 2 == 1;
    PassResult pass = RunPass<E>(make, inputs, trace_pass, &spans);
    (trace_pass ? traced : plain).push_back(std::move(pass));
    if (i == 0) {
      rss_mb = PeakRssMb();
    }
    const bool enough = static_cast<int>(plain.size()) >= kMinPasses &&
                        (!options.trace || static_cast<int>(traced.size()) >= kMinPasses);
    if (enough && NowNs() >= deadline) {
      break;
    }
  }

  RunResult result;
  result.passes = static_cast<int>(plain.size() + traced.size());
  std::fprintf(stderr, "  plain passes, simulated tokens per wall-second (host slowdown):");
  for (const PassResult& p : plain) {
    std::fprintf(stderr, " %.4g (%.2f)", static_cast<double>(p.scheduled_tokens) / p.step_s,
                 p.slowdown);
  }
  std::fprintf(stderr, "\n");
  result.digest = plain.front().digest;
  bool all_finished = true;
  bool digest_repeats = true;
  for (const auto* group : {&plain, &traced}) {
    for (const PassResult& p : *group) {
      result.attempted += static_cast<int64_t>(inputs.items.size());
      result.failed += p.failed;
      all_finished = all_finished && p.failed == 0 &&
                     p.completed == static_cast<int64_t>(inputs.items.size());
      digest_repeats = digest_repeats && p.digest == result.digest;
    }
  }
  result.Check("every request finished with its full output length", all_finished);
  result.Check("outcome digest repeats across plain passes", [&] {
    for (const PassResult& p : plain) {
      if (p.digest != result.digest) {
        return false;
      }
    }
    return true;
  }());
  if (options.trace) {
    result.Check("traced passes reproduce the untraced digest", digest_repeats);
    bool core_repeats = true;
    for (const PassResult& p : traced) {
      core_repeats = core_repeats && p.core == traced.front().core;
    }
    result.Check("per-group core counts repeat across traced passes", core_repeats);
  }

  Metrics& m = result.metrics;
  // End-to-end timings at the reference host speed (see HostSlowdown).
  std::vector<double> setups;
  std::vector<double> raw_setups;
  for (const auto* group : {&plain, &traced}) {
    for (const PassResult& p : *group) {
      setups.push_back(p.setup_s / p.slowdown);
      raw_setups.push_back(p.setup_s);
    }
  }
  const double setup_s = Median(setups);
  const auto tok_rate = [](const PassResult& p) {
    return static_cast<double>(p.scheduled_tokens) / p.step_s;
  };
  const double tok_s = OverPasses(plain, false, tok_rate);
  m.Set("setup_s", setup_s);
  m.Set("sim_tok_per_s",
        OverPasses(plain, false, [&](const PassResult& p) { return tok_rate(p) * p.slowdown; }));
  // Offline there is no latency limit: the highest rate served is the completion rate with
  // the whole trace queued.
  m.Set("max_rate_rps", OverPasses(plain, false, [](const PassResult& p) {
    return static_cast<double>(p.completed) / p.serve_s * p.slowdown;
  }));
  m.Set("peak_rss_mb", rss_mb);

  // Per-layer metrics. Counts are identical in every pass. Host latencies come from the plain
  // passes (a traced run has them too); phase times from the traced ones.
  const std::vector<PassResult>& layer = options.trace ? traced : plain;
  const PassResult& ref = layer.back();
  m.Set("setup.engine_s", Median(raw_setups));
  m.Set("setup.inputs_s", inputs.build_s);
  m.Set("engine.steps", static_cast<double>(ref.steps));
  m.Set("engine.batch_tokens_mean",
        ref.steps > 0 ? static_cast<double>(ref.scheduled_tokens) / static_cast<double>(ref.steps)
                      : 0.0);
  m.Set("engine.decode_batch_mean", ref.decode_batch_mean);
  m.Set("engine.step_p50_us",
        OverPasses(plain, true, [](const PassResult& p) { return Quantile(p.step_us, 0.5); }));
  m.Set("engine.step_p99_us",
        OverPasses(plain, true, [](const PassResult& p) { return Quantile(p.step_us, 0.99); }));
  m.Set("engine.ttft_p50_ms",
        OverPasses(plain, true, [](const PassResult& p) { return Quantile(p.ttft_ms, 0.5); }));
  m.Set("engine.ttft_p99_ms",
        OverPasses(plain, true, [](const PassResult& p) { return Quantile(p.ttft_ms, 0.99); }));
  m.Set("engine.tpot_p50_ms",
        OverPasses(plain, true, [](const PassResult& p) { return Quantile(p.tpot_ms, 0.5); }));
  m.Set("engine.tpot_p99_ms",
        OverPasses(plain, true, [](const PassResult& p) { return Quantile(p.tpot_ms, 0.99); }));
  m.Set("engine.submit_us_p50",
        OverPasses(layer, true, [](const PassResult& p) { return Quantile(p.submit_us, 0.5); }));
  m.Set("engine.preemptions", static_cast<double>(ref.preemptions));
  EmitStepPhases(layer, ref, m);
  const double hit_base = static_cast<double>(ref.hit_tokens + ref.prefill_tokens);
  m.Set("kv.hit_token_pct",
        hit_base > 0 ? 100.0 * static_cast<double>(ref.hit_tokens) / hit_base : 0.0);
  m.Set("kv.prefill_tokens", static_cast<double>(ref.prefill_tokens));
  m.Set("kv.recomputed_tokens", static_cast<double>(ref.recomputed_tokens));
  m.Set("kv.waste_pct", ref.waste_pct);
  m.Set("kv.tracked_requests_end", static_cast<double>(ref.tracked_end));
  m.Set("offload.swap_out", static_cast<double>(ref.swap_out));
  m.Set("offload.swap_in", static_cast<double>(ref.swap_in));
  m.Set("offload.swap_out_mb", static_cast<double>(ref.swap_out_bytes) / (1 << 20));
  m.Set("offload.host_promoted_pages", static_cast<double>(ref.host_promoted));
  m.Set("offload.swap_fallbacks", static_cast<double>(ref.swap_fallbacks));
  m.Set("offload.stall_sim_s", ref.stall_sim_s);
  ref.core.Emit(m);
  // Frontend and fleet layers do not run in an offline workload.
  for (const char* name :
       {"frontend.submit_us_p50", "frontend.submit_us_p99", "frontend.engine_ttft_ms_p50",
        "frontend.finished", "frontend.failed", "frontend.rejected", "gen.late_ms_p99",
        "fleet.affinity_pct", "fleet.spill_pct", "fleet.least_loaded_pct",
        "fleet.saturated_submits", "fleet.hit_token_pct", "fleet.imbalance", "fleet.steps.r0",
        "fleet.steps.r1", "fleet.ttft_p50_ms.low", "fleet.ttft_p99_ms.low",
        "fleet.ttft_p50_ms.high", "fleet.ttft_p99_ms.high", "fleet.tpot_p50_ms.high",
        "fleet.tpot_p99_ms.high"}) {
    m.Set(name, 0.0);
  }
  if (options.trace) {
    const double traced_tok_s = OverPasses(traced, false, tok_rate);
    m.Set("trace.overhead_pct", traced_tok_s > 0 ? (tok_s / traced_tok_s - 1.0) * 100.0 : 0.0);
    if (!options.spans_path.empty()) {
      const int64_t written = WriteSpans(options.spans_path, {&spans});
      result.Check("spans written", written > 0);
      std::fprintf(stderr, "servebench: %lld spans → %s\n", static_cast<long long>(written),
                   options.spans_path.c_str());
    }
  }
  return result;
}

}  // namespace

RunResult RunArxivPrefix(const RunOptions& options) {
  // Ministral-8B: full-attention + sliding-window groups; prefix caching on (profile default).
  const Inputs inputs = MakeInputs(/*sim_rate=*/2.0, options.seed, [&] {
    return DocumentQa(/*count=*/480, /*docs=*/16, 8000, 32000, /*out_lo=*/128, /*out_hi=*/384,
                      options.seed);
  });
  return RunOffline<Engine>(options, inputs, [] {
    jenga::EngineConfig config = jenga::JengaProfile(jenga::Ministral8B(), jenga::H100());
    config.memory_sample_every = 0;
    return std::make_unique<Engine>(std::move(config));
  });
}

RunResult RunMmmuVision(const RunOptions& options) {
  // Llama-3.2-11B-Vision: self-attention, cross-attention and vision-embedding groups.
  const jenga::ModelConfig model = jenga::Llama32_11B_Vision();
  const Inputs inputs = MakeInputs(/*sim_rate=*/8.0, options.seed, [&] {
    return VisionQa(/*count=*/400, model.vision.tokens_per_image, /*out_lo=*/128,
                    /*out_hi=*/512, options.seed);
  });
  return RunOffline<Engine>(options, inputs, [model] {
    jenga::EngineConfig config = jenga::JengaProfile(model, jenga::H100());
    config.memory_sample_every = 0;
    return std::make_unique<Engine>(std::move(config));
  });
}

RunResult RunSpecSwap(const RunOptions& options) {
  // Jamba-52B-FP8 target (Mamba + full) with a Llama-3.2-1B draft in one Jenga manager; a
  // 512 MB pool forces preemption and the offload tier turns it into swaps.
  const Inputs inputs = MakeInputs(/*sim_rate=*/200.0, options.seed, [&] {
    return ShortText(/*count=*/3000, /*out_lo=*/256, /*out_hi=*/1024, options.seed);
  });
  const uint64_t accept_seed = options.seed * 0x9E3779B97F4A7C15ull + 0x5BEC;
  return RunOffline<SpecDecodeEngine>(options, inputs, [accept_seed] {
    jenga::SpecDecodeConfig config;
    config.target = jenga::Jamba52B_Fp8();
    config.draft = jenga::Llama32_1B();
    config.gpu = jenga::H100();
    config.strategy = jenga::SpecStrategy::kJenga;
    config.seed = accept_seed;
    config.pool_bytes_override = 512LL << 20;
    config.offload.enabled = true;
    return std::make_unique<SpecDecodeEngine>(std::move(config));
  });
}

}  // namespace servebench
