// fleet-online: an open-loop generator drives a 2-replica FleetFrontend in wall time.
//
// One generator thread (the caller) sends requests on a Poisson schedule, rung by rung: the
// `low` rung (engine mostly idle), the `high` rung (just below the knee), then a walk along a
// fixed ladder of rates from `high` to the highest rate that meets the TTFT/TPOT p99 limits
// with no failure and no growing backlog. Each replica's engine thread runs the program's
// own loop; with the generator that makes three threads.
//
// Latencies are taken from when a request was due, not when it was sent, so a stalled
// generator or a full queue shows up as latency. Stream timestamps are stamped on each
// replica's own epoch; they are moved onto the generator's clock through that epoch. Streams
// are read by the generator thread once they are terminal, never by extra polling threads.
// A run repeats the pass on a fresh fleet until the time budget is spent and reports medians.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "servebench/src/bench.h"
#include "servebench/src/inputs.h"
#include "src/cluster/fleet_frontend.h"
#include "src/common/random.h"
#include "src/engine/gpu.h"
#include "src/metrics/step_profiler.h"
#include "src/model/model_zoo.h"

namespace servebench {
namespace {

using jenga::StepPhase;

constexpr int kReplicas = 2;
constexpr int kMinPasses = 3;
constexpr int kInputPool = 2048;
// A rung that has not drained this long after its last send is over capacity.
constexpr int64_t kDrainTimeoutNs = 20'000'000'000;
constexpr int64_t kMemorySnapshotEvery = 256;

// One observer call on a replica's engine thread.
struct LoopSample {
  int64_t end_ns = 0;
  int64_t dur_ns = -1;  // Loop iteration time; -1 when the engine may have idled before it.
  int64_t scheduled_tokens = 0;  // Cumulative.
};

// Written only by one replica's engine thread while the fleet runs; read after Shutdown.
struct ReplicaProbe {
  const jenga::Engine* engine = nullptr;
  std::vector<LoopSample> samples;
  int64_t last_ns = 0;
  bool had_work = false;
  int64_t calls = 0;
  // Traced passes only.
  jenga::StepProfiler profiler;
  std::unique_ptr<CountingSink> sink;
  double waste_sum = 0.0;
  int64_t waste_snapshots = 0;
};

struct Sent {
  jenga::StreamHandle stream;
  jenga::RequestId id = jenga::kNoRequest;
  int64_t span = 0;  // SubmitAsync span (traced passes).
  int replica = -1;
  int64_t output_len = 0;
  int64_t due_ns = 0;
  int64_t call_ns = 0;
  int64_t return_ns = 0;
};

struct Rung {
  const char* label = "";
  double rate = 0.0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;  // Last terminal stream (or drain timeout).
  std::vector<Sent> sent;
  bool drained = false;
  // Derived once drained.
  std::vector<double> ttft_ms;
  std::vector<double> tpot_ms;
  std::vector<double> late_ms;
  std::vector<double> submit_us;
  std::vector<double> engine_ttft_ms;  // Stream first token − stream submit stamp.
  int64_t not_finished = 0;            // Failed, cancelled, rejected or short streams.
  bool backlog = false;
  bool meets_limits = false;
};

struct FleetPass {
  double slowdown = 1.0;  // HostSlowdown() measured right before the pass.
  // Peak RSS once the low and high rungs' requests are held; the bisection that follows
  // visits a timing-dependent number of rungs.
  double rss_mb = 0.0;
  double setup_s = 0.0;
  std::vector<Rung> rungs;  // [0] = low, [1] = high, then the ladder walk.
  double max_rate = 0.0;
  // High-rung view of the engine loops.
  std::vector<double> step_us;
  double sim_tok_per_s = 0.0;
  jenga::FleetCounters counters;
  jenga::ServingFrontend::Counters frontend;
  bool ledger_ok = false;
  bool tokens_ok = true;
  int64_t sent = 0;
  int64_t not_finished = 0;
  // Per-layer.
  std::array<int64_t, kReplicas> steps{};
  double batch_tokens_mean = 0.0;
  double decode_batch_mean = 0.0;
  int64_t preemptions = 0;
  int64_t hit_tokens = 0;
  int64_t prefill_tokens = 0;
  int64_t recomputed_tokens = 0;
  int64_t tracked_end = 0;
  double waste_pct = 0.0;
  PhaseTotals phases{};
  CoreCounts core;
};

// Sleeps through most of the gap and yields through the rest, so the generator does not
// hold a whole core spinning next to the two engine threads.
void WaitUntil(int64_t due_ns) {
  for (;;) {
    const int64_t now = NowNs();
    if (now >= due_ns) {
      return;
    }
    if (due_ns - now > 150'000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due_ns - now - 100'000));
    } else {
      std::this_thread::yield();
    }
  }
}

double Pct(int64_t part, int64_t whole) {
  return whole > 0 ? 100.0 * static_cast<double>(part) / static_cast<double>(whole) : 0.0;
}

class FleetBench {
 public:
  FleetBench(const RunOptions& options, std::vector<Item> items)
      : options_(options), items_(std::move(items)) {}

  FleetPass RunPass(bool traced, std::vector<SpanLog>* spans);

 private:
  Rung RunRung(jenga::FleetFrontend& fleet, const char* label, double rate, int count,
               uint64_t rung_seed, SpanLog* gen_log, int64_t pass_span);
  void Finish(Rung& rung, const std::array<int64_t, kReplicas>& epoch_ns) const;

  const RunOptions& options_;
  std::vector<Item> items_;
  jenga::RequestId next_id_ = 1;
};

Rung FleetBench::RunRung(jenga::FleetFrontend& fleet, const char* label, double rate, int count,
                         uint64_t rung_seed, SpanLog* gen_log, int64_t pass_span) {
  Rung rung;
  rung.label = label;
  rung.rate = rate;
  jenga::Rng rng(rung_seed);
  // Requests are built before the rung starts so sending costs only the SubmitAsync call.
  std::vector<jenga::Request> requests;
  requests.reserve(static_cast<size_t>(count));
  const size_t offset = static_cast<size_t>(rng.UniformInt(0, kInputPool - 1));
  for (int j = 0; j < count; ++j) {
    const Item& item = items_[(offset + static_cast<size_t>(j)) % items_.size()];
    requests.push_back(jenga::MakeRequest(next_id_++, item.prompt, item.output_len, 0.0));
  }
  const std::vector<double> due = PoissonArrivals(count, rate, rng);
  rung.sent.resize(static_cast<size_t>(count));
  rung.start_ns = NowNs() + 2'000'000;
  const int64_t rung_span =
      gen_log != nullptr ? gen_log->Add(label, pass_span, -1, rung.start_ns, 0) : 0;
  for (int j = 0; j < count; ++j) {
    Sent& s = rung.sent[static_cast<size_t>(j)];
    jenga::Request& request = requests[static_cast<size_t>(j)];
    s.id = request.id;
    s.due_ns = rung.start_ns + static_cast<int64_t>(due[static_cast<size_t>(j)] * 1e9);
    s.output_len = request.output_len;
    WaitUntil(s.due_ns);
    s.call_ns = NowNs();
    s.stream = fleet.SubmitAsync(std::move(request));
    s.return_ns = NowNs();
    if (gen_log != nullptr) {
      s.span = gen_log->Add("SubmitAsync", rung_span, s.id, s.call_ns, s.return_ns);
    }
  }
  // Drain: the generator itself waits for every stream of the rung to turn terminal.
  size_t done = 0;
  const int64_t give_up = NowNs() + kDrainTimeoutNs;
  while (done < rung.sent.size() && NowNs() < give_up) {
    if (rung.sent[done].stream->Done()) {
      ++done;
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  rung.drained = done == rung.sent.size();
  rung.end_ns = NowNs();
  if (gen_log != nullptr) {
    gen_log->SetEnd(rung_span, rung.end_ns);
  }
  // Placement is final once a stream is terminal (no replica dies in this workload).
  for (Sent& s : rung.sent) {
    s.replica = fleet.PlacementOf(s.id);
  }
  return rung;
}

void FleetBench::Finish(Rung& rung, const std::array<int64_t, kReplicas>& epoch_ns) const {
  for (const Sent& s : rung.sent) {
    const jenga::RequestStream& stream = *s.stream;
    rung.late_ms.push_back(static_cast<double>(s.call_ns - s.due_ns) / 1e6);
    rung.submit_us.push_back(static_cast<double>(s.return_ns - s.call_ns) / 1e3);
    const bool finished = stream.phase.load(std::memory_order_acquire) ==
                              jenga::StreamPhase::kFinished &&
                          stream.tokens.load(std::memory_order_acquire) == s.output_len;
    if (!finished || s.replica < 0) {
      ++rung.not_finished;
      continue;
    }
    const double first = stream.first_token_wall.load(std::memory_order_acquire);
    const double done = stream.finish_wall.load(std::memory_order_acquire);
    const double submit = stream.submit_wall.load(std::memory_order_acquire);
    const int64_t first_ns = epoch_ns[static_cast<size_t>(s.replica)] +
                             static_cast<int64_t>(first * 1e9);
    rung.ttft_ms.push_back(static_cast<double>(first_ns - s.due_ns) / 1e6);
    rung.engine_ttft_ms.push_back((first - submit) * 1e3);
    if (s.output_len > 1) {
      rung.tpot_ms.push_back((done - first) * 1e3 / static_cast<double>(s.output_len - 1));
    }
  }
  const double ttft_p99 = Quantile(rung.ttft_ms, 0.99);
  const double tpot_p99 = Quantile(rung.tpot_ms, 0.99);
  // Growing backlog: requests at the end of the rung wait much longer than those at its
  // start, or the rung never drained.
  const size_t fifth = rung.ttft_ms.size() / 5;
  if (fifth > 0) {
    const std::vector<double> head(rung.ttft_ms.begin(), rung.ttft_ms.begin() + fifth);
    const std::vector<double> tail(rung.ttft_ms.end() - fifth, rung.ttft_ms.end());
    rung.backlog = Median(tail) > 2.0 * Median(head) + 1.0;
  }
  rung.backlog = rung.backlog || !rung.drained;
  rung.meets_limits = rung.not_finished == 0 && !rung.backlog &&
                      ttft_p99 <= options_.ttft_limit_ms && tpot_p99 <= options_.tpot_limit_ms;
}

FleetPass FleetBench::RunPass(bool traced, std::vector<SpanLog>* spans) {
  FleetPass pass;
  pass.slowdown = HostSlowdown(CalibrationMs());
  std::array<ReplicaProbe, kReplicas> probes;
  jenga::FleetConfig config;
  config.num_replicas = kReplicas;
  config.engine = jenga::JengaProfile(jenga::Llama31_8B(), jenga::H100());
  config.engine.memory_sample_every = 0;
  // ~6 documents' worth of KV per replica (128 KiB/token × ~1.5k-token documents), so
  // routing decides which document prefixes stay resident.
  config.engine.pool_bytes_override = 1200LL << 20;
  config.policy = jenga::RoutePolicy::kPrefixAffinity;
  config.seed = options_.seed;
  // Traced passes: pass → replica → StepOnce on the engine threads' logs, and
  // pass → rung → SubmitAsync → {first_token, finish} on the generator's log.
  std::vector<SpanLog>* logs = traced ? spans : nullptr;
  std::array<int64_t, kReplicas> replica_span{};
  const int64_t pass_begin = NowNs();
  int64_t pass_span = 0;
  if (traced) {
    for (SpanLog& log : *spans) {
      log.Clear();
    }
    pass_span = (*spans)[0].Add("pass", 0, -1, pass_begin, 0);
    for (int r = 0; r < kReplicas; ++r) {
      replica_span[static_cast<size_t>(r)] =
          (*spans)[static_cast<size_t>(1 + r)].Add("replica", pass_span, -1, pass_begin, 0);
    }
  }
  jenga::ServingFrontend::Options frontend_options;
  frontend_options.step_observer = [&probes, &replica_span, traced, logs](jenga::Engine& engine) {
    const int r = probes[0].engine == &engine ? 0 : 1;
    ReplicaProbe& probe = probes[static_cast<size_t>(r)];
    const int64_t now = NowNs();
    LoopSample sample;
    sample.end_ns = now;
    sample.dur_ns = probe.had_work ? now - probe.last_ns : -1;
    sample.scheduled_tokens = engine.metrics().total_scheduled_tokens();
    probe.samples.push_back(sample);
    probe.had_work = engine.num_running() + engine.num_waiting() > 0;
    if (traced && probe.calls % kMemorySnapshotEvery == 0) {
      const jenga::KvManager::MemoryStats stats = engine.kv().GetMemoryStats();
      if (stats.used_bytes > 0) {
        probe.waste_sum +=
            100.0 * static_cast<double>(stats.wasted_bytes) / static_cast<double>(stats.used_bytes);
        ++probe.waste_snapshots;
      }
    }
    ++probe.calls;
    probe.last_ns = NowNs();
    if (logs != nullptr && sample.dur_ns >= 0) {
      (*logs)[static_cast<size_t>(1 + r)].Add("StepOnce", replica_span[static_cast<size_t>(r)],
                                              -1, now - sample.dur_ns, now);
    }
  };

  const int64_t setup_begin = NowNs();
  auto fleet = std::make_unique<jenga::FleetFrontend>(config, frontend_options);
  for (int r = 0; r < kReplicas; ++r) {
    probes[static_cast<size_t>(r)].engine = &fleet->replica(r).engine();
    if (traced) {
      ReplicaProbe& probe = probes[static_cast<size_t>(r)];
      jenga::Engine& engine = fleet->replica(r).engine();
      engine.set_step_profiler(&probe.profiler);
      probe.sink = std::make_unique<CountingSink>(engine.kv().alloc_spec());
      engine.kv().allocator_mutable().SetAuditSink(probe.sink.get());
    }
  }
  fleet->Start();
  pass.setup_s = static_cast<double>(NowNs() - setup_begin) / 1e9;
  std::array<int64_t, kReplicas> epoch_ns{};
  for (int r = 0; r < kReplicas; ++r) {
    const int64_t before = NowNs();
    const double wall = fleet->replica(r).WallSeconds();
    const int64_t after = NowNs();
    epoch_ns[static_cast<size_t>(r)] = (before + after) / 2 - static_cast<int64_t>(wall * 1e9);
  }

  SpanLog* gen_log = traced ? &(*spans)[0] : nullptr;
  const uint64_t seed = options_.seed * 0x9E3779B97F4A7C15ull;
  const auto run = [&](const char* label, double rate, int count, uint64_t salt) {
    Rung rung = RunRung(*fleet, label, rate, count, seed + salt, gen_log, pass_span);
    Finish(rung, epoch_ns);
    pass.rungs.push_back(std::move(rung));
    return pass.rungs.back().meets_limits;
  };
  run("low", options_.low_rps, options_.low_requests, 1);
  const bool high_ok = run("high", options_.high_rps, options_.rung_requests, 2);
  pass.rss_mb = PeakRssMb();
  // Bisection over the ladder for the highest rate that meets the limits, starting from the
  // high rung's verdict (rates are assumed to pass below the knee and miss above it).
  const std::vector<double>& ladder = options_.ladder_rps;
  const int64_t start = std::lower_bound(ladder.begin(), ladder.end(), options_.high_rps) -
                        ladder.begin();
  int64_t meets = high_ok ? start : -1;
  int64_t misses = high_ok ? static_cast<int64_t>(ladder.size()) : start;
  while (misses - meets > 1) {
    const int64_t mid = meets + (misses - meets) / 2;
    if (run("ladder", ladder[static_cast<size_t>(mid)], options_.rung_requests,
            16 + static_cast<uint64_t>(mid))) {
      meets = mid;
    } else {
      misses = mid;
    }
  }
  pass.max_rate = meets >= 0 ? ladder[static_cast<size_t>(meets)] : 0.0;
  fleet->Shutdown();
  const int64_t pass_end = NowNs();

  // Ledger: every request the generator sent is accounted for exactly once.
  pass.counters = fleet->counters();
  pass.frontend = fleet->frontend_counters();
  for (const Rung& rung : pass.rungs) {
    pass.sent += static_cast<int64_t>(rung.sent.size());
    pass.not_finished += rung.not_finished;
    for (const Sent& s : rung.sent) {
      const jenga::StreamPhase phase = s.stream->phase.load(std::memory_order_acquire);
      if (phase == jenga::StreamPhase::kFinished &&
          s.stream->tokens.load(std::memory_order_acquire) != s.output_len) {
        pass.tokens_ok = false;
      }
    }
  }
  const jenga::FleetCounters& c = pass.counters;
  const jenga::ServingFrontend::Counters& f = pass.frontend;
  pass.ledger_ok = pass.sent == c.submitted + c.rejected_submits &&
                   c.submitted == f.finished + f.failed + f.cancelled + f.cancelled_queued &&
                   c.lost_on_shutdown == 0;

  // High-rung engine-loop view.
  const Rung& high = pass.rungs[1];
  int64_t tokens = 0;
  for (const ReplicaProbe& probe : probes) {
    int64_t first_tokens = -1;
    int64_t last_tokens = 0;
    for (const LoopSample& s : probe.samples) {
      if (s.end_ns < high.start_ns || s.end_ns > high.end_ns) {
        continue;
      }
      if (first_tokens < 0) {
        first_tokens = s.scheduled_tokens;
      }
      last_tokens = s.scheduled_tokens;
      if (s.dur_ns >= 0) {
        pass.step_us.push_back(static_cast<double>(s.dur_ns) / 1e3);
      }
    }
    tokens += first_tokens < 0 ? 0 : last_tokens - first_tokens;
  }
  pass.sim_tok_per_s =
      static_cast<double>(tokens) / (static_cast<double>(high.end_ns - high.start_ns) / 1e9);

  int64_t scheduled = 0;
  int64_t decode_batch_steps = 0;
  double decode_batch_sum = 0.0;
  double waste_sum = 0.0;
  int64_t waste_n = 0;
  for (int r = 0; r < kReplicas; ++r) {
    ReplicaProbe& probe = probes[static_cast<size_t>(r)];
    jenga::Engine& engine = fleet->replica(r).engine();
    const jenga::EngineMetrics& m = engine.metrics();
    pass.steps[static_cast<size_t>(r)] = m.total_steps();
    scheduled += m.total_scheduled_tokens();
    decode_batch_sum += m.MeanDecodeBatch() * static_cast<double>(m.total_steps());
    decode_batch_steps += m.total_steps();
    pass.hit_tokens += m.cache_hit_tokens;
    pass.prefill_tokens += m.prefill_tokens_computed;
    pass.recomputed_tokens += m.recomputed_tokens;
    for (const jenga::RequestRecord& rec : m.finished()) {
      pass.preemptions += rec.preemptions;
    }
    pass.tracked_end += engine.kv().num_tracked_requests();
    waste_sum += probe.waste_sum;
    waste_n += probe.waste_snapshots;
    if (traced) {
      for (int p = 0; p < jenga::kNumStepPhases; ++p) {
        const auto& stats = probe.profiler.phase(static_cast<StepPhase>(p));
        pass.phases[static_cast<size_t>(p)].ns += stats.ns;
        pass.phases[static_cast<size_t>(p)].calls += stats.calls;
      }
      pass.core.Add(probe.sink->counts());
      engine.kv().allocator_mutable().SetAuditSink(nullptr);
      engine.set_step_profiler(nullptr);
    }
  }
  const int64_t total_steps = pass.steps[0] + pass.steps[1];
  pass.batch_tokens_mean =
      total_steps > 0 ? static_cast<double>(scheduled) / static_cast<double>(total_steps) : 0.0;
  pass.decode_batch_mean =
      decode_batch_steps > 0 ? decode_batch_sum / static_cast<double>(decode_batch_steps) : 0.0;
  pass.waste_pct = waste_n > 0 ? waste_sum / static_cast<double>(waste_n) : 0.0;

  if (traced) {
    SpanLog& gen = (*spans)[0];
    gen.SetEnd(pass_span, pass_end);
    for (int r = 0; r < kReplicas; ++r) {
      (*spans)[static_cast<size_t>(1 + r)].SetEnd(replica_span[static_cast<size_t>(r)], pass_end);
    }
    for (const Rung& rung : pass.rungs) {
      for (const Sent& s : rung.sent) {
        const double first = s.stream->first_token_wall.load(std::memory_order_acquire);
        if (s.replica < 0 || first < 0.0) {
          continue;
        }
        const int64_t epoch = epoch_ns[static_cast<size_t>(s.replica)];
        const int64_t first_ns = epoch + static_cast<int64_t>(first * 1e9);
        const int64_t done_ns =
            epoch + static_cast<int64_t>(
                        s.stream->finish_wall.load(std::memory_order_acquire) * 1e9);
        gen.Add("first_token", s.span, s.id, first_ns, first_ns);
        gen.Add("finish", s.span, s.id, done_ns, done_ns);
      }
    }
  }
  return pass;
}

}  // namespace

RunResult RunFleetOnline(const RunOptions& options) {
  RunResult result;
  if (options.ladder_rps.empty() || options.low_rps <= 0.0 || options.high_rps <= 0.0 ||
      options.rung_requests <= 0 || options.low_requests <= 0 || options.ttft_limit_ms <= 0.0 ||
      options.tpot_limit_ms <= 0.0) {
    std::fprintf(stderr, "servebench: fleet-online needs its calibration flags\n");
    result.Check("calibration supplied", false);
    return result;
  }
  // Chat traffic: ~16 shared 1–2k-token documents, a short question each, 16–48 tokens out.
  const int64_t inputs_begin = NowNs();
  std::vector<Item> items = DocumentQa(kInputPool, /*docs=*/16, 1000, 2000, /*out_lo=*/16,
                                       /*out_hi=*/48, options.seed);
  const double inputs_s = static_cast<double>(NowNs() - inputs_begin) / 1e9;

  FleetBench bench(options, std::move(items));
  std::vector<FleetPass> plain;
  std::vector<FleetPass> traced;
  std::vector<SpanLog> spans = {SpanLog(0), SpanLog(1), SpanLog(2)};
  const int64_t deadline = NowNs() + static_cast<int64_t>(options.seconds * 1e9);
  for (int i = 0;; ++i) {
    const bool trace_pass = options.trace && i % 2 == 1;
    FleetPass pass = bench.RunPass(trace_pass, &spans);
    (trace_pass ? traced : plain).push_back(std::move(pass));
    const bool enough = static_cast<int>(plain.size()) >= kMinPasses &&
                        (!options.trace || static_cast<int>(traced.size()) >= kMinPasses);
    if (enough && NowNs() >= deadline) {
      break;
    }
  }

  result.passes = static_cast<int>(plain.size() + traced.size());
  bool ledger = true;
  bool tokens = true;
  for (const auto* group : {&plain, &traced}) {
    for (const FleetPass& p : *group) {
      result.attempted += p.sent;
      result.failed += p.not_finished;
      ledger = ledger && p.ledger_ok;
      tokens = tokens && p.tokens_ok;
    }
  }
  result.Check("fleet ledger balances, nothing lost on shutdown", ledger);
  result.Check("every finished stream carries its full output length", tokens);

  for (const FleetPass& p : plain) {
    std::fprintf(stderr, "  pass setup %.4fs max_rate %.0f rps host slowdown %.2f:", p.setup_s,
                 p.max_rate, p.slowdown);
    for (const Rung& r : p.rungs) {
      std::fprintf(stderr, " [%s %.0f/s ttft p99 %.3fms tpot p99 %.3fms late p99 %.3fms%s%s]",
                   r.label, r.rate, Quantile(r.ttft_ms, 0.99), Quantile(r.tpot_ms, 0.99),
                   Quantile(r.late_ms, 0.99), r.backlog ? " backlog" : "",
                   r.meets_limits ? "" : " MISS");
    }
    std::fprintf(stderr, "\n");
  }

  Metrics& m = result.metrics;
  // End-to-end timings at the reference host speed (see HostSlowdown).
  std::vector<double> setups;
  std::vector<double> raw_setups;
  for (const auto* group : {&plain, &traced}) {
    for (const FleetPass& p : *group) {
      setups.push_back(p.setup_s / p.slowdown);
      raw_setups.push_back(p.setup_s);
    }
  }
  const double setup_s = Median(setups);
  const double step_p50 =
      OverPasses(plain, true, [](const FleetPass& p) { return Quantile(p.step_us, 0.5); });
  m.Set("setup_s", setup_s);
  m.Set("sim_tok_per_s", OverPasses(plain, false, [](const FleetPass& p) {
          return p.sim_tok_per_s * p.slowdown;
        }));
  m.Set("max_rate_rps", OverPasses(plain, false, [](const FleetPass& p) {
          return p.max_rate * p.slowdown;
        }));
  m.Set("peak_rss_mb", plain.front().rss_mb);

  const std::vector<FleetPass>& layer = options.trace ? traced : plain;
  const FleetPass& ref = layer.back();
  m.Set("setup.engine_s", Median(raw_setups));
  m.Set("setup.inputs_s", inputs_s);
  m.Set("engine.steps", static_cast<double>(ref.steps[0] + ref.steps[1]));
  m.Set("engine.batch_tokens_mean", ref.batch_tokens_mean);
  m.Set("engine.decode_batch_mean", ref.decode_batch_mean);
  m.Set("engine.step_p50_us", step_p50);
  m.Set("engine.step_p99_us",
        OverPasses(plain, true, [](const FleetPass& p) { return Quantile(p.step_us, 0.99); }));
  // Per-request latencies of this workload are the fleet.* rung metrics below.
  for (const char* name : {"engine.ttft_p50_ms", "engine.ttft_p99_ms", "engine.tpot_p50_ms",
                           "engine.tpot_p99_ms", "engine.submit_us_p50"}) {
    m.Set(name, 0.0);
  }
  m.Set("engine.preemptions", static_cast<double>(ref.preemptions));
  EmitStepPhases(layer, ref, m);
  m.Set("kv.hit_token_pct", Pct(ref.hit_tokens, ref.hit_tokens + ref.prefill_tokens));
  m.Set("kv.prefill_tokens", static_cast<double>(ref.prefill_tokens));
  m.Set("kv.recomputed_tokens", static_cast<double>(ref.recomputed_tokens));
  m.Set("kv.waste_pct", ref.waste_pct);
  m.Set("kv.tracked_requests_end", static_cast<double>(ref.tracked_end));
  for (const char* name : {"offload.swap_out", "offload.swap_in", "offload.swap_out_mb",
                           "offload.host_promoted_pages", "offload.swap_fallbacks",
                           "offload.stall_sim_s"}) {
    m.Set(name, 0.0);
  }
  ref.core.Emit(m);
  // Latencies come from the plain passes, also in a traced run.
  const auto low = [](const FleetPass& p) -> const Rung& { return p.rungs[0]; };
  const auto high = [](const FleetPass& p) -> const Rung& { return p.rungs[1]; };
  std::vector<double> submit_us;
  for (const Rung& r : ref.rungs) {
    submit_us.insert(submit_us.end(), r.submit_us.begin(), r.submit_us.end());
  }
  m.Set("frontend.submit_us_p50", Quantile(submit_us, 0.5));
  m.Set("frontend.submit_us_p99", Quantile(submit_us, 0.99));
  const auto rung_stat = [&](auto rung, auto field, double q) {
    return OverPasses(plain, true, [&](const FleetPass& p) { return Quantile(rung(p).*field, q); });
  };
  m.Set("frontend.engine_ttft_ms_p50", rung_stat(low, &Rung::engine_ttft_ms, 0.5));
  m.Set("frontend.finished", static_cast<double>(ref.frontend.finished));
  m.Set("frontend.failed", static_cast<double>(ref.frontend.failed));
  m.Set("frontend.rejected", static_cast<double>(ref.frontend.rejected));
  m.Set("gen.late_ms_p99", rung_stat(high, &Rung::late_ms, 0.99));
  const jenga::FleetCounters& c = ref.counters;
  m.Set("fleet.affinity_pct", Pct(c.routed_affinity, c.submitted));
  m.Set("fleet.spill_pct", Pct(c.routed_spill, c.submitted));
  m.Set("fleet.least_loaded_pct", Pct(c.routed_least_loaded, c.submitted));
  m.Set("fleet.saturated_submits", static_cast<double>(c.saturated_submits));
  m.Set("fleet.hit_token_pct", Pct(ref.hit_tokens, ref.hit_tokens + ref.prefill_tokens));
  const double mean_steps = static_cast<double>(ref.steps[0] + ref.steps[1]) / kReplicas;
  m.Set("fleet.imbalance",
        mean_steps > 0 ? static_cast<double>(std::max(ref.steps[0], ref.steps[1])) / mean_steps
                       : 0.0);
  m.Set("fleet.steps.r0", static_cast<double>(ref.steps[0]));
  m.Set("fleet.steps.r1", static_cast<double>(ref.steps[1]));
  m.Set("fleet.ttft_p50_ms.low", rung_stat(low, &Rung::ttft_ms, 0.5));
  m.Set("fleet.ttft_p99_ms.low", rung_stat(low, &Rung::ttft_ms, 0.99));
  m.Set("fleet.ttft_p50_ms.high", rung_stat(high, &Rung::ttft_ms, 0.5));
  m.Set("fleet.ttft_p99_ms.high", rung_stat(high, &Rung::ttft_ms, 0.99));
  m.Set("fleet.tpot_p50_ms.high", rung_stat(high, &Rung::tpot_ms, 0.5));
  m.Set("fleet.tpot_p99_ms.high", rung_stat(high, &Rung::tpot_ms, 0.99));
  if (options.trace) {
    const double traced_p50 =
        OverPasses(traced, true, [](const FleetPass& p) { return Quantile(p.step_us, 0.5); });
    m.Set("trace.overhead_pct", step_p50 > 0 ? (traced_p50 / step_p50 - 1.0) * 100.0 : 0.0);
    if (!options.spans_path.empty()) {
      const int64_t written = WriteSpans(options.spans_path, {&spans[0], &spans[1], &spans[2]});
      result.Check("spans written", written > 0);
      std::fprintf(stderr, "servebench: %lld spans → %s\n", static_cast<long long>(written),
                   options.spans_path.c_str());
    }
  }
  return result;
}

}  // namespace servebench
